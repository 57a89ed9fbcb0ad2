#include "data/csv.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

namespace fairrank {
namespace {

Schema MakeTestSchema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "Gender", AttributeRole::kProtected, {"Male", "Female"}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Integer(
                      "Age", AttributeRole::kProtected, 18, 80, 5))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Real(
                      "Rating", AttributeRole::kObserved, 0.0, 5.0, 10))
                  .ok());
  return schema;
}

TEST(ParseCsvRecordTest, SimpleFields) {
  auto fields = ParseCsvRecord("a,b,c", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ParseCsvRecordTest, QuotedFieldWithDelimiter) {
  auto fields = ParseCsvRecord("\"a,b\",c", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsvRecordTest, EscapedQuotes) {
  auto fields = ParseCsvRecord("\"say \"\"hi\"\"\",x", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ((*fields)[0], "say \"hi\"");
}

TEST(ParseCsvRecordTest, EmptyFields) {
  auto fields = ParseCsvRecord(",,", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 3u);
}

TEST(ParseCsvRecordTest, TrailingCarriageReturn) {
  auto fields = ParseCsvRecord("a,b\r", ',');
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(*fields, (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsvRecordTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvRecord("\"abc", ',').ok());
}

TEST(ParseCsvRecordTest, QuoteMidFieldFails) {
  EXPECT_FALSE(ParseCsvRecord("ab\"c\",d", ',').ok());
}

TEST(ReadCsvTest, HeaderMatchingByName) {
  std::istringstream in(
      "Rating,Gender,Age\n"
      "4.5,Male,30\n"
      "2.0,Female,55\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->CellToString(0, 0), "Male");
  EXPECT_EQ(table->column(1).IntAt(1), 55);
  EXPECT_DOUBLE_EQ(table->column(2).RealAt(0), 4.5);
}

TEST(ReadCsvTest, ExtraColumnsIgnored) {
  std::istringstream in(
      "Gender,Nick,Age,Rating\n"
      "Male,zed,30,4.5\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(ReadCsvTest, MissingColumnFails) {
  std::istringstream in("Gender,Age\nMale,30\n");
  auto table = ReadCsv(in, MakeTestSchema());
  EXPECT_EQ(table.status().code(), StatusCode::kNotFound);
}

TEST(ReadCsvTest, EmptyStreamFails) {
  std::istringstream in("");
  EXPECT_EQ(ReadCsv(in, MakeTestSchema()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ReadCsvTest, BlankLinesSkipped) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "\n"
      "Male,30,4.5\n"
      "   \n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 1u);
}

TEST(ReadCsvTest, BadCellReportsLineNumber) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Male,notanumber,1.0\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
}

TEST(ReadCsvTest, ShortRowFails) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30\n");
  EXPECT_FALSE(ReadCsv(in, MakeTestSchema()).ok());
}

TEST(ReadCsvTest, NoHeaderPositional) {
  std::istringstream in("Male,30,4.5\n");
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->CellToString(0, 0), "Male");
}

TEST(ReadCsvTest, CustomDelimiter) {
  std::istringstream in(
      "Gender;Age;Rating\n"
      "Female;44;3.5\n");
  CsvOptions options;
  options.delimiter = ';';
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->CellToString(0, 0), "Female");
}

TEST(ParseCsvRecordTest, MaxFieldBytesEnforced) {
  EXPECT_TRUE(ParseCsvRecord("abcde,xyz", ',', 5).ok());
  EXPECT_EQ(ParseCsvRecord("abcdef,xyz", ',', 5).status().code(),
            StatusCode::kResourceExhausted);
  // A quoted field swallowing the delimiter counts its full contents.
  EXPECT_EQ(ParseCsvRecord("\"abc,def\",x", ',', 5).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ReadCsvTest, Utf8BomStripped) {
  std::istringstream in(
      "\xEF\xBB\xBFGender,Age,Rating\n"
      "Male,30,4.5\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 1u);
  EXPECT_EQ(table->CellToString(0, 0), "Male");
}

TEST(ReadCsvTest, Utf8BomStrippedWithoutHeader) {
  std::istringstream in("\xEF\xBB\xBFMale,30,4.5\n");
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->CellToString(0, 0), "Male");
}

TEST(ReadCsvTest, RaggedRowFailsWithLineNumber) {
  // Row 3 has an extra field; silent acceptance would mean misaligned
  // columns whenever a field contains an unquoted delimiter.
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Female,55,2.0,stray\n");
  auto table = ReadCsv(in, MakeTestSchema());
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(table.status().message().find("ragged"), std::string::npos);
}

TEST(ReadCsvTest, RaggedRowCheckedAgainstFirstRowWhenHeaderless) {
  std::istringstream in(
      "Male,30,4.5\n"
      "Female,55,2.0,stray\n");
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(table.status().message().find("line 2"), std::string::npos);
}

TEST(ReadCsvTest, MaxRowsEnforced) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Female,55,2.0\n"
      "Male,40,3.0\n");
  CsvOptions options;
  options.max_rows = 2;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(table.status().message().find("max_rows"), std::string::npos);
}

TEST(ReadCsvTest, MaxRowsNotTrippedAtTheLimit) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Female,55,2.0\n");
  CsvOptions options;
  options.max_rows = 2;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(ReadCsvTest, MaxFieldBytesAppliesToRows) {
  std::istringstream in(
      "Gender,Age,Rating\n"
      "Male,30,4.5\n"
      "Male,300000000,4.5\n");
  CsvOptions options;
  options.max_field_bytes = 6;
  auto table = ReadCsv(in, MakeTestSchema(), options);
  EXPECT_EQ(table.status().code(), StatusCode::kResourceExhausted);
}

TEST(WriteCsvTest, RoundTrip) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{30}, 4.5}).ok());
  ASSERT_TRUE(table.AppendRow({std::string("Female"), int64_t{55}, 2.0}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, table).ok());

  std::istringstream in(out.str());
  auto round = ReadCsv(in, MakeTestSchema());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->num_rows(), 2u);
  EXPECT_EQ(round->CellToString(1, 0), "Female");
  EXPECT_EQ(round->column(1).IntAt(0), 30);
}

TEST(WriteCsvTest, QuotesFieldsWithDelimiters) {
  Schema schema;
  ASSERT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "City", AttributeRole::kOther, {"Paris, France"}))
                  .ok());
  Table table(schema);
  ASSERT_TRUE(table.AppendRow({std::string("Paris, France")}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, table).ok());
  EXPECT_NE(out.str().find("\"Paris, France\""), std::string::npos);
}

TEST(ReadCsvFileTest, MissingFileFails) {
  EXPECT_EQ(
      ReadCsvFile("/nonexistent/path.csv", MakeTestSchema()).status().code(),
      StatusCode::kIOError);
}

TEST(CsvFileTest, FileRoundTrip) {
  Table table(MakeTestSchema());
  ASSERT_TRUE(table.AppendRow({std::string("Male"), int64_t{25}, 1.5}).ok());
  std::string path = ::testing::TempDir() + "/fairrank_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(path, table).ok());
  auto round = ReadCsvFile(path, MakeTestSchema());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round->num_rows(), 1u);
}


// A stream buffer that serves `data` a few bytes at a time and throws, as a
// failing device does, once `fail_at` bytes have been served.
class FailingStreamBuf : public std::streambuf {
 public:
  FailingStreamBuf(std::string data, size_t fail_at)
      : data_(std::move(data)), fail_at_(fail_at) {}

 protected:
  int_type underflow() override {
    if (served_ >= fail_at_) throw std::runtime_error("device lost");
    if (served_ >= data_.size()) return traits_type::eof();
    const size_t n = std::min({size_t{7}, data_.size() - served_,
                               fail_at_ - served_});
    char* begin = data_.data() + served_;
    setg(begin, begin, begin + n);
    served_ += n;
    return traits_type::to_int_type(*begin);
  }

 private:
  std::string data_;
  size_t fail_at_;
  size_t served_ = 0;
};

std::string CsvWithRows(int rows) {
  std::string text = "Gender,Age,Rating\n";
  for (int i = 0; i < rows; ++i) {
    text += (i % 2 == 0 ? "Male," : "Female,") + std::to_string(20 + i % 50) +
            "," + std::to_string(i % 5) + ".5\n";
  }
  return text;
}

TEST(ReadCsvTest, ThrowingStreamFailsWithIOErrorNotATruncatedTable) {
  // 100 rows fit in the first read of the stream; 300,000 rows (over 4 MiB)
  // fail in a later one, after whole chunks of rows were read.
  for (int rows : {100, 300000}) {
    const std::string text = CsvWithRows(rows);
    for (size_t fail_at : {size_t{0}, size_t{5}, text.size() / 2,
                           text.size() - 1}) {
      SCOPED_TRACE(::testing::Message()
                   << rows << " rows, fail at " << fail_at);
      FailingStreamBuf buf(text, fail_at);
      std::istream in(&buf);
      auto table = ReadCsv(in, MakeTestSchema());
      EXPECT_EQ(table.status().code(), StatusCode::kIOError)
          << table.status().ToString();
    }
    FailingStreamBuf whole(text, text.size() + 1);
    std::istream in(&whole);
    auto table = ReadCsv(in, MakeTestSchema());
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(table->num_rows(), static_cast<size_t>(rows));
  }
}

TEST(ReadCsvFileTest, DirectoryFailsWithIOError) {
  auto table = ReadCsvFile(::testing::TempDir(), MakeTestSchema());
  EXPECT_EQ(table.status().code(), StatusCode::kIOError)
      << table.status().ToString();
}

TEST(ReadCsvTest, TokenizerErrorsNameTheirLine) {
  {
    std::istringstream in(
        "Gender,Age,Rating\n"
        "Male,30,4.5\n"
        "\"Female,55,2.0\n");
    EXPECT_EQ(ReadCsv(in, MakeTestSchema()).status().message(),
              "line 3: unterminated quoted field: \"Female,55,2.0");
  }
  {
    std::istringstream in("Gen\"der,Age,Rating\nMale,30,4.5\n");
    EXPECT_EQ(ReadCsv(in, MakeTestSchema()).status().message(),
              "line 1: unexpected quote inside unquoted field: "
              "Gen\"der,Age,Rating");
  }
  {
    std::istringstream in(
        "Gender,Age,Rating\n"
        "\n"
        "Male,30,4.5\n"
        "Male,300000000,4.5\n");
    CsvOptions options;
    options.max_field_bytes = 6;
    EXPECT_EQ(ReadCsv(in, MakeTestSchema(), options).status().message(),
              "line 4: CSV field exceeds max_field_bytes = 6");
  }
}

TEST(ReadCsvTest, SyntaxErrorsQuoteAtMost64BytesOfTheLine) {
  const std::string long_line = "Male,30,\"4.5" + std::string(5000, 'x');
  std::istringstream in("Gender,Age,Rating\n" + long_line + "\n");
  const std::string message =
      ReadCsv(in, MakeTestSchema()).status().message();
  EXPECT_EQ(message, "line 2: unterminated quoted field: " +
                         long_line.substr(0, 64) + "...");
  EXPECT_EQ(ParseCsvRecord(long_line, ',').status().message(),
            "unterminated quoted field: " + long_line.substr(0, 64) + "...");
}

// ---------------------------------------------------------------------------
// Differential oracle: the line-at-a-time reader that the streaming reader
// replaced, kept verbatim except that tokenizer errors name their line and
// quote at most 64 bytes of it. Cell text is converted as Table::AppendRow
// converted string cells, with its own trim (std::isspace) and from_chars.

std::string_view OracleTrim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

template <typename T>
bool OracleParse(std::string_view s, T* out) {
  s = OracleTrim(s);
  if (s.empty()) return false;
  auto result = std::from_chars(s.data(), s.data() + s.size(), *out);
  return result.ec == std::errc() && result.ptr == s.data() + s.size();
}

std::string OracleQuote(const std::string& line) {
  return line.size() <= 64 ? line : line.substr(0, 64) + "...";
}

StatusOr<std::vector<std::string>> OracleParseCsvRecord(
    const std::string& line, char delimiter, size_t max_field_bytes) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    if (max_field_bytes != 0 && current.size() > max_field_bytes) {
      return Status::ResourceExhausted(
          "CSV field exceeds max_field_bytes = " +
          std::to_string(max_field_bytes));
    }
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current.push_back(c);
      ++i;
      continue;
    }
    if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument(
            "unexpected quote inside unquoted field: " + OracleQuote(line));
      }
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    if (c == '\r' && i + 1 == line.size()) {
      ++i;
      continue;
    }
    current.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted field: " +
                                   OracleQuote(line));
  }
  if (max_field_bytes != 0 && current.size() > max_field_bytes) {
    return Status::ResourceExhausted("CSV field exceeds max_field_bytes = " +
                                     std::to_string(max_field_bytes));
  }
  fields.push_back(std::move(current));
  return fields;
}

Status OracleCell(const AttributeSpec& spec, const std::string& text,
                  Cell* out) {
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      const auto& categories = spec.categories();
      auto it = std::find(categories.begin(), categories.end(), text);
      if (it == categories.end()) {
        return Status::NotFound("category '" + text + "' not in attribute '" +
                                spec.name() + "'");
      }
      *out = static_cast<int64_t>(it - categories.begin());
      return Status::OK();
    }
    case AttributeKind::kInteger: {
      int64_t value = 0;
      if (!OracleParse(text, &value)) {
        return Status::InvalidArgument("cannot parse '" + text +
                                       "' as integer for attribute '" +
                                       spec.name() + "'");
      }
      *out = value;
      return Status::OK();
    }
    case AttributeKind::kReal: {
      double value = 0.0;
      if (!OracleParse(text, &value)) {
        return Status::InvalidArgument("cannot parse '" + text +
                                       "' as real for attribute '" +
                                       spec.name() + "'");
      }
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("non-finite value for attribute '" +
                                       spec.name() + "'");
      }
      *out = value;
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Status AtLine(size_t line_number, const Status& status) {
  return Status(status.code(), "line " + std::to_string(line_number) + ": " +
                                   status.message());
}

void OracleStripUtf8Bom(std::string* line) {
  if (line->size() >= 3 && (*line)[0] == '\xEF' && (*line)[1] == '\xBB' &&
      (*line)[2] == '\xBF') {
    line->erase(0, 3);
  }
}

StatusOr<Table> OracleReadCsv(std::istream& in, const Schema& schema,
                              const CsvOptions& options) {
  Table table(schema);
  std::string line;
  size_t line_number = 0;
  std::vector<size_t> column_of_attr(schema.num_attributes());
  size_t expected_fields = 0;
  bool width_known = false;
  if (options.has_header) {
    if (!std::getline(in, line)) {
      return Status::InvalidArgument("CSV stream empty: missing header");
    }
    ++line_number;
    OracleStripUtf8Bom(&line);
    auto header =
        OracleParseCsvRecord(line, options.delimiter, options.max_field_bytes);
    if (!header.ok()) return AtLine(line_number, header.status());
    expected_fields = header->size();
    width_known = true;
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const std::string& want = schema.attribute(a).name();
      bool found = false;
      for (size_t c = 0; c < header->size(); ++c) {
        if (std::string(OracleTrim((*header)[c])) == want) {
          column_of_attr[a] = c;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::NotFound("CSV header has no column named '" + want +
                                "'");
      }
    }
  } else {
    for (size_t a = 0; a < schema.num_attributes(); ++a) column_of_attr[a] = a;
  }
  bool first_data_line = true;
  while (std::getline(in, line)) {
    ++line_number;
    if (options.skip_blank_lines && OracleTrim(line).empty()) continue;
    if (first_data_line) {
      if (!options.has_header) OracleStripUtf8Bom(&line);
      first_data_line = false;
    }
    auto fields =
        OracleParseCsvRecord(line, options.delimiter, options.max_field_bytes);
    if (!fields.ok()) return AtLine(line_number, fields.status());
    if (!width_known) {
      expected_fields = fields->size();
      width_known = true;
    } else if (fields->size() != expected_fields) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": ragged row with " +
          std::to_string(fields->size()) + " fields, expected " +
          std::to_string(expected_fields));
    }
    if (options.max_rows != 0 && table.num_rows() >= options.max_rows) {
      return Status::ResourceExhausted(
          "CSV exceeds max_rows = " + std::to_string(options.max_rows));
    }
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      size_t c = column_of_attr[a];
      if (c >= fields->size()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": only " +
            std::to_string(fields->size()) + " fields, need column " +
            std::to_string(c + 1) + " for attribute '" +
            schema.attribute(a).name() + "'");
      }
    }
    std::vector<Cell> cells(schema.num_attributes());
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      Status st = OracleCell(
          schema.attribute(a),
          std::string(OracleTrim((*fields)[column_of_attr[a]])), &cells[a]);
      if (!st.ok()) return AtLine(line_number, st);
    }
    Status st = table.AppendRow(cells);
    if (!st.ok()) return AtLine(line_number, st);
  }
  return table;
}

// The differential schema: every attribute kind, and labels that need
// quoting under either delimiter.
Schema MakeDiffSchema() {
  Schema schema;
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "Gender", AttributeRole::kProtected, {"Male", "Female"}))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Integer(
                      "Age", AttributeRole::kProtected, 18, 80, 5))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Real(
                      "Rating", AttributeRole::kObserved, 0.0, 5.0, 10))
                  .ok());
  EXPECT_TRUE(schema
                  .AddAttribute(AttributeSpec::Categorical(
                      "City", AttributeRole::kProtected,
                      {"Lyon", "Paris, France", "say \"hi\"", "Nice;Cannes"}))
                  .ok());
  return schema;
}

/// Equal status code and message, or equal row counts and every column
/// byte-equal.
void ExpectSameResult(const StatusOr<Table>& got, const StatusOr<Table>& want,
                      const std::string& input) {
  SCOPED_TRACE(::testing::PrintToString(input.substr(0, 400)));
  ASSERT_EQ(got.ok(), want.ok())
      << "got " << got.status().ToString() << ", want "
      << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    return;
  }
  ASSERT_EQ(got->num_rows(), want->num_rows());
  ASSERT_EQ(got->num_columns(), want->num_columns());
  for (size_t a = 0; a < want->num_columns(); ++a) {
    const Column& g = got->column(a);
    const Column& w = want->column(a);
    ASSERT_EQ(g.kind(), w.kind());
    ASSERT_EQ(g.size(), w.size());
    if (w.size() == 0) continue;
    switch (w.kind()) {
      case AttributeKind::kCategorical:
        EXPECT_EQ(std::memcmp(g.code_data(), w.code_data(), w.size() * 4), 0);
        break;
      case AttributeKind::kInteger:
        EXPECT_EQ(std::memcmp(g.int_data(), w.int_data(), w.size() * 8), 0);
        break;
      case AttributeKind::kReal:
        EXPECT_EQ(std::memcmp(g.real_data(), w.real_data(), w.size() * 8), 0);
        break;
    }
  }
}

void ExpectReadersAgree(const std::string& input, const Schema& schema,
                        const CsvOptions& options) {
  std::istringstream got_in(input);
  std::istringstream want_in(input);
  ExpectSameResult(ReadCsv(got_in, schema, options),
                   OracleReadCsv(want_in, schema, options), input);
}

class CsvInputGenerator {
 public:
  explicit CsvInputGenerator(uint64_t seed) : rng_(seed) {}

  size_t Below(size_t n) { return static_cast<size_t>(rng_() % n); }
  bool Chance(int percent) { return Below(100) < static_cast<size_t>(percent); }
  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[Below(items.size())];
  }

  /// Options for the next input, which is clean (every cell valid and
  /// well formed, no ragged row, no field cap) half of the time.
  CsvOptions Options() {
    clean_ = Chance(50);
    CsvOptions options;
    options.delimiter = Chance(70) ? ',' : ';';
    options.has_header = Chance(70);
    options.skip_blank_lines = Chance(80);
    options.max_rows = Chance(clean_ ? 5 : 20) ? 1 + Below(8) : 0;
    options.max_field_bytes = !clean_ && Chance(20) ? 1 + Below(16) : 0;
    delimiter_ = options.delimiter;
    return options;
  }

  /// The text of one cell of `column` (0-3 the schema, 4 an extra column):
  /// valid values first, then invalid ones, drawn only for unclean inputs.
  std::string CellText(size_t column) {
    static const std::vector<std::vector<std::string>> kTexts = {
        {"Male", "Female", "male", "Robot", ""},
        {"30", "18", "80", "-5", "042", "99999999999999999999", "12x", "",
         "1e3", "+7", "0x1F"},
        {"4.5", "0", "5", "-1.25", "1e-3", ".5", "5.", "2.50000000000000001",
         "1e400", "4.9e-324", "nan", "inf", "-inf", "NaN", "1e999", "abc", "",
         "0x1p3"},
        {"Lyon", "Paris, France", "say \"hi\"", "Nice;Cannes", "Lille",
         "lyon"},
        {"", "note", "a,b", "semi;colon", "q\"uote", "  spaced  "},
    };
    static const std::vector<size_t> kValid = {2, 5, 8, 4, 6};
    const std::vector<std::string>& texts = kTexts[column];
    return texts[Below(clean_ ? kValid[column] : texts.size())];
  }

  /// Renders a cell: plain, padded, quoted, or malformed. A clean input
  /// quotes a text that holds the delimiter or a quote, and is never
  /// malformed.
  std::string Field(const std::string& text) {
    const bool must_quote =
        text.find_first_of(std::string("\"") + delimiter_) != std::string::npos;
    const size_t style =
        clean_ ? (must_quote ? 70 : 0) + Below(must_quote ? 20 : 90)
               : Below(100);
    if (style < 55) return text;
    if (style < 70) {
      return Pick<std::string>({" ", "\t", "  "}) + text +
             Pick<std::string>({"", " ", "\t", "\v"});
    }
    std::string quoted = "\"";
    for (char c : text) {
      if (c == '"') quoted += "\"\"";
      else quoted.push_back(c);
    }
    if (style < 90) return quoted + "\"";
    if (style < 94) return quoted + "\"" + Pick<std::string>({"x", " ", "\""});
    if (style < 97) return " " + quoted + "\"";
    if (style < 99) return quoted;  // Unterminated.
    return text + "\"x";
  }

  std::string Row(const std::vector<size_t>& columns, char delimiter) {
    std::vector<size_t> cols = columns;
    if (!clean_ && Chance(4) && !cols.empty()) cols.pop_back();
    if (!clean_ && Chance(4)) cols.push_back(4);
    std::string row;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) row.push_back(delimiter);
      row += Field(CellText(cols[i]));
    }
    return row;
  }

  std::string Input(const CsvOptions& options) {
    static const std::vector<std::string> kNames = {"Gender", "Age", "Rating",
                                                    "City", "Note"};
    std::vector<size_t> columns = {0, 1, 2, 3};
    if (options.has_header) {
      if (Chance(30)) columns.push_back(4);
      std::shuffle(columns.begin(), columns.end(), rng_);
      if (!clean_ && Chance(5)) columns.pop_back();
    }
    const std::string newline = Chance(30) ? "\r\n" : "\n";
    std::vector<std::string> lines;
    if (options.has_header) {
      std::string header;
      for (size_t i = 0; i < columns.size(); ++i) {
        if (i > 0) header.push_back(options.delimiter);
        header += Field(kNames[columns[i]]);
      }
      lines.push_back(header);
    }
    const size_t rows = Below(12);
    for (size_t r = 0; r < rows; ++r) {
      if (Chance(10)) lines.push_back(Pick<std::string>({"", " ", "\t \r"}));
      lines.push_back(Row(columns, options.delimiter));
    }
    std::string text = Chance(10) ? "\xEF\xBB\xBF" : "";
    for (size_t i = 0; i < lines.size(); ++i) {
      text += lines[i];
      if (i + 1 < lines.size() || Chance(70)) {
        text += Chance(10) ? Pick<std::string>({"\n", "\r\n"}) : newline;
      }
    }
    return text;
  }

  /// Bytes drawn from the alphabet the tokenizer and the line splitter
  /// branch on.
  std::string Noise() {
    static const std::string kAlphabet = "a1.;, \"\"\r\n\t\xEF\xBB\xBF" "MeF8";
    std::string text;
    const size_t size = Below(48);
    for (size_t i = 0; i < size; ++i) {
      text.push_back(kAlphabet[Below(kAlphabet.size())]);
    }
    return text;
  }

 private:
  std::mt19937_64 rng_;
  bool clean_ = false;
  char delimiter_ = ',';
};

TEST(CsvDifferentialTest, ParseCsvRecordMatchesTheLineAtATimeTokenizer) {
  CsvInputGenerator gen(20240601);
  for (int i = 0; i < 6000; ++i) {
    const CsvOptions options = gen.Options();
    const std::string input = i % 2 == 0 ? gen.Input(options) : gen.Noise();
    std::istringstream lines(input);
    std::string line;
    while (std::getline(lines, line)) {
      SCOPED_TRACE(::testing::PrintToString(line));
      auto got = ParseCsvRecord(line, options.delimiter,
                                options.max_field_bytes);
      auto want = OracleParseCsvRecord(line, options.delimiter,
                                       options.max_field_bytes);
      ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                     << want.status().ToString();
      if (got.ok()) {
        EXPECT_EQ(*got, *want);
      } else {
        EXPECT_EQ(got.status().code(), want.status().code());
        EXPECT_EQ(got.status().message(), want.status().message());
      }
    }
  }
}

const std::vector<std::string> kErrorKinds = {
    "CSV stream empty",       "CSV header has no column",
    "unterminated quoted",    "unexpected quote",
    "exceeds max_field_bytes", "ragged row",
    "exceeds max_rows",       "fields, need column",
    "as integer",             "as real",
    "non-finite",             "not in attribute",
};

TEST(CsvDifferentialTest, ReadCsvMatchesTheLineAtATimeReader) {
  const Schema schema = MakeDiffSchema();
  CsvInputGenerator gen(77);
  size_t ok = 0;
  std::vector<size_t> seen(kErrorKinds.size());
  for (int i = 0; i < 4000; ++i) {
    const CsvOptions options = gen.Options();
    const std::string input = i % 4 == 3 ? gen.Noise() : gen.Input(options);
    ExpectReadersAgree(input, schema, options);
    if (HasFatalFailure()) return;
    std::istringstream in(input);
    const Status status = ReadCsv(in, schema, options).status();
    ok += status.ok() ? 1 : 0;
    for (size_t k = 0; k < kErrorKinds.size(); ++k) {
      seen[k] += status.message().find(kErrorKinds[k]) != std::string::npos;
    }
  }
  // The inputs reach the success path often enough to compare columns, and
  // every error the reader can report.
  EXPECT_GT(ok, 1000u);
  for (size_t k = 0; k < kErrorKinds.size(); ++k) {
    EXPECT_GT(seen[k], 0u) << kErrorKinds[k];
  }
}

// Rows that straddle the reader's 1 MiB chunk boundary at every in-row
// offset, then one input of more than 3 MiB holding a line longer than a
// chunk and ending without '\n'.
TEST(CsvDifferentialTest, RowsStraddlingChunkBoundariesMatchTheOracle) {
  const Schema schema = MakeDiffSchema();
  constexpr size_t kChunk = size_t{1} << 20;
  const std::string header = "Gender,Age,Rating,City,Note\n";
  const std::vector<std::string> straddlers = {
      "Male,30,4.5,Lyon,plain\n",
      "Female,55,2.25,\"Paris, France\",\"x\"\"y\"\"\"\r\n",
      " Male , 42 ,\"3.5\",\"say \"\"hi\"\"\" ,\"\"\n",
  };
  const std::string tail = "Female,18,0,Nice;Cannes,end\nMale,80,5,Lyon,";
  for (const std::string& row : straddlers) {
    for (size_t offset = 0; offset <= row.size(); ++offset) {
      SCOPED_TRACE(offset);
      // Pad with big rows so the straddling row starts `offset` bytes
      // before the boundary.
      std::string input = header;
      const std::string filler_head = "Male,30,4.5,Lyon,\"";
      while (input.size() + 70000 < kChunk - offset) {
        input += filler_head + std::string(65000, ',') + "\"\n";
      }
      const size_t pad = kChunk - offset - input.size() -
                         filler_head.size() - 2;
      input += filler_head + std::string(pad, 'n') + "\"\n";
      ASSERT_EQ(input.size(), kChunk - offset);
      input += row + tail;
      ExpectReadersAgree(input, schema, CsvOptions());
      std::istringstream in(input);
      auto table = ReadCsv(in, schema);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      if (HasFatalFailure()) return;
    }
  }

  std::string big = header;
  size_t row = 0;
  while (big.size() < 3 * kChunk + kChunk / 2) {
    big += std::string(row % 2 == 0 ? "Male," : "Female,") +
           std::to_string(18 + row % 60) + "," + std::to_string(row % 5) +
           "." + std::to_string(row % 97) +
           (row % 3 == 0 ? ",\"Paris, France\"," : ",Lyon,") +
           std::string(row % 23, 'z') + (row % 7 == 0 ? "\r\n" : "\n");
    if (row == 1000) {
      big += "Female,60,1.5,Lyon,\"" + std::string(kChunk + kChunk / 2, ';') +
             "\"\"\"\n";
    }
    ++row;
  }
  big += "Male,33,3.3,Lyon,last";
  std::istringstream in(big);
  auto table = ReadCsv(in, schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->num_rows(), row + 2);
  ExpectReadersAgree(big, schema, CsvOptions());
}

}  // namespace
}  // namespace fairrank
