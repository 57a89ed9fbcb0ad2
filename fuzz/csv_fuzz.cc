// Fuzz target for src/data/csv.cc — the untrusted-file ingest path.
//
// Input layout: [options config: 1 byte][CSV text...]. The config byte
// toggles delimiter, header mode, blank-line handling and the max_rows /
// max_field_bytes hardening caps, so the BOM-stripping, ragged-row and
// limit-enforcement paths all stay reachable from one corpus.
//
// Invariants:
//   - ParseCsvRecord is deterministic and errors only with InvalidArgument
//     (syntax) or ResourceExhausted (field cap); on success every field
//     respects max_field_bytes and the record is non-empty.
//   - Escape/parse round-trip: CsvEscape-ing parsed fields and re-parsing
//     reproduces them exactly (',' delimiter — CsvEscape's contract).
//   - ReadCsv against the paper worker schema is deterministic, errors
//     within the documented vocabulary, and on success honors max_rows.
//   - A failing read names the line it failed on ("line N: ", N within the
//     input), unless the failure is about the stream as a whole: an empty
//     stream, a header without a schema column, or the max_rows cap.
//   - A successful read holds one row per data line: every line after the
//     header, less the blank ones when they are skipped.

#include "fuzz/fuzz_targets.h"

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/str_util.h"
#include "data/csv.h"
#include "data/table.h"
#include "marketplace/worker.h"

namespace fairrank::fuzz {
namespace {

/// The lines of `text` as std::getline splits them: no empty line after a
/// final '\n'.
std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const size_t newline = text.find('\n');
    lines.push_back(text.substr(0, newline));
    if (newline == std::string_view::npos) break;
    text.remove_prefix(newline + 1);
  }
  return lines;
}

/// N of a message that starts "line N: ", or 0.
size_t LineNumberOf(const std::string& message) {
  if (!StartsWith(message, "line ")) return 0;
  size_t n = 0;
  size_t i = 5;
  for (; i < message.size() && message[i] >= '0' && message[i] <= '9'; ++i) {
    n = n * 10 + static_cast<size_t>(message[i] - '0');
  }
  return StartsWith(std::string_view(message).substr(i), ": ") ? n : 0;
}

}  // namespace

void FuzzCsv(const uint8_t* data, size_t size) {
  FuzzInput in(data, size);
  const uint8_t config = in.TakeByte();
  CsvOptions options;
  options.delimiter = (config & 1) != 0 ? ';' : ',';
  options.has_header = (config & 2) != 0;
  options.skip_blank_lines = (config & 4) != 0;
  options.max_rows = (config & 8) != 0 ? 16 : 0;
  options.max_field_bytes = (config & 16) != 0 ? 32 : 0;
  const std::string text = in.TakeRest();

  // Single-record parse over the first line.
  const std::string line = text.substr(0, text.find('\n'));
  StatusOr<std::vector<std::string>> record =
      ParseCsvRecord(line, options.delimiter, options.max_field_bytes);
  StatusOr<std::vector<std::string>> record_again =
      ParseCsvRecord(line, options.delimiter, options.max_field_bytes);
  FUZZ_CHECK(record.ok() == record_again.ok());
  if (!record.ok()) {
    FUZZ_CHECK(record.status().code() == StatusCode::kInvalidArgument ||
               record.status().code() == StatusCode::kResourceExhausted);
  } else {
    FUZZ_CHECK(!record->empty());
    FUZZ_CHECK(*record == *record_again);
    if (options.max_field_bytes > 0) {
      for (const std::string& field : *record) {
        FUZZ_CHECK(field.size() <= options.max_field_bytes);
      }
    }
    if (options.delimiter == ',') {
      std::string joined;
      for (size_t i = 0; i < record->size(); ++i) {
        if (i > 0) joined.push_back(',');
        joined += CsvEscape((*record)[i]);
      }
      StatusOr<std::vector<std::string>> round =
          ParseCsvRecord(joined, ',', 0);
      FUZZ_CHECK(round.ok());
      FUZZ_CHECK(*round == *record);
    }
  }

  // Whole-stream read against the real ingest schema.
  const std::vector<std::string_view> lines = Lines(text);
  StatusOr<Schema> schema = MakePaperWorkerSchema();
  FUZZ_CHECK(schema.ok());
  std::istringstream stream(text);
  StatusOr<Table> table = ReadCsv(stream, schema.value(), options);
  std::istringstream stream_again(text);
  StatusOr<Table> table_again = ReadCsv(stream_again, schema.value(), options);
  FUZZ_CHECK(table.ok() == table_again.ok());
  if (!table.ok()) {
    const StatusCode code = table.status().code();
    FUZZ_CHECK(code == StatusCode::kInvalidArgument ||
               code == StatusCode::kResourceExhausted ||
               code == StatusCode::kNotFound ||
               code == StatusCode::kOutOfRange);
    FUZZ_CHECK(code == table_again.status().code());
    const std::string& message = table.status().message();
    const bool whole_stream =
        message == "CSV stream empty: missing header" ||
        StartsWith(message, "CSV header has no column named") ||
        StartsWith(message, "CSV exceeds max_rows");
    if (!whole_stream) {
      const size_t line_number = LineNumberOf(message);
      FUZZ_CHECK(line_number >= 1 && line_number <= lines.size());
    }
  } else {
    FUZZ_CHECK(table->num_rows() == table_again->num_rows());
    if (options.max_rows > 0) {
      FUZZ_CHECK(table->num_rows() <= options.max_rows);
    }
    size_t data_lines = 0;
    for (size_t i = options.has_header ? 1 : 0; i < lines.size(); ++i) {
      if (!options.skip_blank_lines || !Trim(lines[i]).empty()) ++data_lines;
    }
    FUZZ_CHECK(table->num_rows() == data_lines);
  }
}

}  // namespace fairrank::fuzz

#ifdef FAIRRANK_FUZZ_DRIVER
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  fairrank::fuzz::FuzzCsv(data, size);
  return 0;
}
#endif
