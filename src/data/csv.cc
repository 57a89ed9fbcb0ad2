#include "data/csv.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

#include "common/str_util.h"

namespace fairrank {

namespace {

/// Bytes ReadCsv asks of the stream at a time.
constexpr size_t kChunkBytes = size_t{1} << 20;

/// Longest prefix of a record that a syntax error quotes.
constexpr size_t kQuotedRecordBytes = 64;

Status SyntaxError(const char* what, std::string_view record) {
  std::string message = what;
  message += ": ";
  message += record.substr(0, kQuotedRecordBytes);
  if (record.size() > kQuotedRecordBytes) message += "...";
  return Status::InvalidArgument(std::move(message));
}

Status FieldTooLong(size_t max_field_bytes) {
  return Status::ResourceExhausted("CSV field exceeds max_field_bytes = " +
                                   std::to_string(max_field_bytes));
}

/// The first `c` in [from, to), or `to`.
const char* FindByte(const char* from, const char* to, char c) {
  if (from == to) return to;
  const void* hit = std::memchr(from, c, to - from);
  return hit != nullptr ? static_cast<const char*>(hit) : to;
}

/// The one CSV tokenizer. Splits `record` (a line without its '\n') into
/// `fields` with RFC 4180 quoting: a field may open with a quoted part, in
/// which the delimiter is text and a doubled quote is one quote; text after
/// the closing quote is appended; a quote anywhere else fails. A trailing
/// '\r' outside quotes is dropped (CRLF line endings).
///
/// Fields are views into `record`, except a quoted field that holds a
/// doubled quote or text after its closing quote: that one is unescaped into
/// `*unescaped`. Both stay valid until the next call.
///
/// A field of more than `max_field_bytes` bytes (0 = unlimited) fails with
/// ResourceExhausted. Errors come in the order a byte-at-a-time scan meets
/// them, checking the field's length before each byte: an over-long field
/// fails before a quote after it, and an unterminated quoted field counts as
/// over-long only if it overflowed before its last byte.
Status TokenizeRecord(std::string_view record, char delimiter,
                      size_t max_field_bytes,
                      std::vector<std::string_view>* fields,
                      std::string* unescaped) {
  fields->clear();
  unescaped->clear();
  const auto too_long = [max_field_bytes](size_t size) {
    return max_field_bytes != 0 && size > max_field_bytes;
  };
  const char* p = record.data();
  const char* const end = p + record.size();
  // The next quote at or after p, or end: a field that starts there opens a
  // quoted part, and an unquoted run that reaches it fails.
  const char* quote = FindByte(p, end, '"');
  while (true) {
    // The quoted part, if the field opens with a quote: its unescaped size,
    // its raw content [content, close), and whether it doubles a quote.
    size_t size = 0;
    const char* content = nullptr;
    const char* close = nullptr;
    bool doubled = false;
    if (p == quote && p < end) {
      content = p + 1;
      close = content;
      while (true) {
        const char* from = close;
        close = FindByte(from, end, '"');
        size += close - from;
        if (close == end) {
          // Every byte inside quotes is one scan step, so the length check
          // before the last byte sees size - 1.
          if (size > 0 && too_long(size - 1)) {
            return FieldTooLong(max_field_bytes);
          }
          return SyntaxError("unterminated quoted field", record);
        }
        if (close + 1 == end || close[1] != '"') break;
        ++size;
        doubled = true;
        close += 2;
      }
      p = close + 1;
      quote = FindByte(p, end, '"');
    }
    // The unquoted run up to the next delimiter, quote or end of record.
    const char* run = p;
    p = FindByte(p, quote, delimiter);
    const char* run_end = p;
    if (p == end && run_end > run && run_end[-1] == '\r') --run_end;
    size += run_end - run;
    if (too_long(size)) return FieldTooLong(max_field_bytes);
    if (p < end && *p == '"') {
      return SyntaxError("unexpected quote inside unquoted field", record);
    }
    if (content == nullptr) {
      fields->emplace_back(run, run_end - run);
    } else if (!doubled && run_end == run) {
      fields->emplace_back(content, close - content);
    } else {
      // The unescaped fields of a record never outgrow it, so reserving its
      // size before the first one keeps every view into the buffer valid.
      if (unescaped->capacity() < record.size()) {
        unescaped->reserve(record.size());
      }
      const size_t begin = unescaped->size();
      for (const char* c = content; c < close; ++c) {
        unescaped->push_back(*c);
        if (*c == '"') ++c;  // The second quote of a doubled pair.
      }
      unescaped->append(run, run_end);
      fields->emplace_back(unescaped->data() + begin, size);
    }
    if (p == end) return Status::OK();
    ++p;  // The delimiter.
  }
}

/// Strips a UTF-8 byte-order mark, which some spreadsheet exports prepend;
/// left in place it would corrupt the first header name.
std::string_view StripUtf8Bom(std::string_view line) {
  if (line.size() >= 3 && line[0] == '\xEF' && line[1] == '\xBB' &&
      line[2] == '\xBF') {
    line.remove_prefix(3);
  }
  return line;
}

/// Reads a stream's lines, as std::getline splits them, through one
/// chunk-sized buffer: a line is a view into the chunk, or into a carry
/// buffer when it straddles two chunks. A view lives until the next call.
class LineReader {
 public:
  explicit LineReader(std::istream& in)
      : in_(in), chunk_(std::make_unique_for_overwrite<char[]>(kChunkBytes)) {}

  /// The next line without its '\n'. False at the end of the stream or on a
  /// read error (see failed()).
  bool Next(std::string_view* line) {
    carry_.clear();
    while (true) {
      if (pos_ < end_) {
        const char* begin = chunk_.get() + pos_;
        const size_t left = end_ - pos_;
        const char* newline =
            static_cast<const char*>(std::memchr(begin, '\n', left));
        if (newline != nullptr) {
          const size_t length = newline - begin;
          pos_ += length + 1;
          if (carry_.empty()) {
            *line = std::string_view(begin, length);
          } else {
            carry_.append(begin, length);
            *line = carry_;
          }
          return true;
        }
        carry_.append(begin, left);
        pos_ = end_;
      }
      if (at_end_) {
        // The last line has no '\n'; a stream that ends with one has no
        // empty line after it.
        *line = carry_;
        return !carry_.empty();
      }
      in_.read(chunk_.get(), kChunkBytes);
      pos_ = 0;
      end_ = static_cast<size_t>(in_.gcount());
      if (in_.bad()) return false;
      at_end_ = !in_;
    }
  }

  /// True once a read of the stream failed (its streambuf threw or
  /// reported an error); the lines already returned are then incomplete.
  bool failed() const { return in_.bad(); }

 private:
  std::istream& in_;
  std::unique_ptr<char[]> chunk_;
  size_t pos_ = 0;
  size_t end_ = 0;
  bool at_end_ = false;
  std::string carry_;
};

Status AtLine(size_t line_number, const Status& status) {
  return Status(status.code(), "line " + std::to_string(line_number) + ": " +
                                   status.message());
}

Status ReadFailed(size_t lines_read) {
  return Status::IOError("CSV stream read failed after " +
                         std::to_string(lines_read) + " lines");
}

}  // namespace

StatusOr<std::vector<std::string>> ParseCsvRecord(std::string_view line,
                                                  char delimiter,
                                                  size_t max_field_bytes) {
  std::vector<std::string_view> fields;
  std::string unescaped;
  FAIRRANK_RETURN_NOT_OK(
      TokenizeRecord(line, delimiter, max_field_bytes, &fields, &unescaped));
  return std::vector<std::string>(fields.begin(), fields.end());
}

namespace {

std::string QuoteIfNeeded(const std::string& field, char delimiter) {
  bool needs_quoting = false;
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

StatusOr<Table> ReadCsv(std::istream& in, const Schema& schema,
                        const CsvOptions& options) {
  Table table(schema);
  LineReader lines(in);
  std::string_view line;
  size_t line_number = 0;
  std::vector<std::string_view> fields;
  std::string unescaped;

  // column_of_attr[i] = CSV column index feeding schema attribute i.
  std::vector<size_t> column_of_attr(schema.num_attributes());

  // Expected field count of every data row (ragged-row check): the header's
  // width, or the first data row's width when there is no header.
  size_t expected_fields = 0;
  bool width_known = false;

  if (options.has_header) {
    if (!lines.Next(&line)) {
      if (lines.failed()) return ReadFailed(line_number);
      return Status::InvalidArgument("CSV stream empty: missing header");
    }
    ++line_number;
    Status st = TokenizeRecord(StripUtf8Bom(line), options.delimiter,
                               options.max_field_bytes, &fields, &unescaped);
    if (!st.ok()) return AtLine(line_number, st);
    expected_fields = fields.size();
    width_known = true;
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const std::string& want = schema.attribute(a).name();
      bool found = false;
      for (size_t c = 0; c < fields.size(); ++c) {
        if (Trim(fields[c]) == want) {
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

  // Each row is converted in full before it is appended, so a failing row
  // leaves the table unchanged.
  std::vector<CellValue> row(schema.num_attributes());
  bool first_data_line = true;
  while (lines.Next(&line)) {
    ++line_number;
    if (options.skip_blank_lines && Trim(line).empty()) continue;
    if (first_data_line) {
      if (!options.has_header) line = StripUtf8Bom(line);
      first_data_line = false;
    }
    Status st = TokenizeRecord(line, options.delimiter,
                               options.max_field_bytes, &fields, &unescaped);
    if (!st.ok()) return AtLine(line_number, st);
    if (!width_known) {
      expected_fields = fields.size();
      width_known = true;
    } else if (fields.size() != expected_fields) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": ragged row with " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(expected_fields));
    }
    if (options.max_rows != 0 && table.num_rows() >= options.max_rows) {
      return Status::ResourceExhausted(
          "CSV exceeds max_rows = " + std::to_string(options.max_rows));
    }
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      const size_t c = column_of_attr[a];
      if (c >= fields.size()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": only " +
            std::to_string(fields.size()) + " fields, need column " +
            std::to_string(c + 1) + " for attribute '" +
            schema.attribute(a).name() + "'");
      }
    }
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      Status cell = ParseCellText(schema.attribute(a),
                                  Trim(fields[column_of_attr[a]]), &row[a]);
      if (!cell.ok()) return AtLine(line_number, cell);
    }
    table.AppendValues(row.data());
  }
  if (lines.failed()) return ReadFailed(line_number);
  return table;
}

StatusOr<Table> ReadCsvFile(const std::string& path, const Schema& schema,
                            const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  StatusOr<Table> table = ReadCsv(in, schema, options);
  if (table.status().code() == StatusCode::kIOError) {
    return Status::IOError("cannot read '" + path +
                           "': " + table.status().message());
  }
  return table;
}

Status WriteCsv(std::ostream& out, const Table& table,
                const CsvOptions& options) {
  const Schema& schema = table.schema();
  const std::string delim(1, options.delimiter);
  if (options.has_header) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) out << delim;
      out << QuoteIfNeeded(schema.attribute(a).name(), options.delimiter);
    }
    out << "\n";
  }
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      if (a > 0) out << delim;
      out << QuoteIfNeeded(table.CellToString(row, a), options.delimiter);
    }
    out << "\n";
  }
  if (!out) return Status::IOError("CSV write failed");
  return Status::OK();
}

Status WriteCsvFile(const std::string& path, const Table& table,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  return WriteCsv(out, table, options);
}

}  // namespace fairrank
