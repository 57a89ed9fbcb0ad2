#ifndef FAIRRANK_DATA_TABLE_H_
#define FAIRRANK_DATA_TABLE_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/schema.h"

namespace fairrank {

/// One cell converted to its column's representation: a category code or an
/// integer in `integer`, a real in `real`.
struct CellValue {
  int64_t integer = 0;
  double real = 0.0;
};

/// Converts the text of one cell to a value of `spec`: a category label
/// (matched exactly), an integer, or a finite real (ParseInt64 /
/// ParseDouble, which ignore surrounding whitespace). Fails with NotFound
/// for an unknown label and InvalidArgument otherwise. Table::AppendRow's
/// string cells and ReadCsv both convert through it.
Status ParseCellText(const AttributeSpec& spec, std::string_view text,
                     CellValue* out);

struct CsvOptions;

/// In-memory columnar table: a Schema plus one Column per attribute. This is
/// the dataset abstraction every other module works against — the worker
/// generator fills one, scoring functions read observed columns from one,
/// and the partition search groups its rows by protected columns.
///
/// Partitions never copy rows; they hold row-index vectors referencing a
/// shared const Table.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t index) const { return columns_[index]; }

  /// Appends one row. `cells` must have one entry per schema attribute.
  /// Categorical cells may be given as a category label (string) or as an
  /// in-range integer code; numeric cells as int64 or double. Fails with
  /// InvalidArgument / OutOfRange / NotFound on mismatches; on failure the
  /// table is left unchanged.
  Status AppendRow(const std::vector<Cell>& cells);

  /// Reserves storage for `n` rows in every column.
  void Reserve(size_t n);

  /// Group index of `row` under protected attribute `attr_index`
  /// (category code or numeric bucket). See AttributeSpec::GroupIndexOf*.
  int GroupIndex(size_t row, size_t attr_index) const;

  /// Block form of GroupIndex: writes the group of every row in
  /// [begin, end) to out[0, end - begin), by the same formulas, reading the
  /// column's storage directly. Requires begin <= end <= num_rows().
  void GroupIndices(size_t attr_index, size_t begin, size_t end,
                    int* out) const;

  /// Numeric view of a cell (code, integer, or real as double).
  double ValueAsDouble(size_t row, size_t attr_index) const {
    return columns_[attr_index].AsDouble(row);
  }

  /// Renders a cell for display: category label, integer, or real.
  std::string CellToString(size_t row, size_t attr_index) const;

 private:
  /// ReadCsv appends the rows it converted with ParseCellText.
  friend StatusOr<Table> ReadCsv(std::istream& in, const Schema& schema,
                                 const CsvOptions& options);

  /// Appends one row of values already converted for their attributes (by
  /// ParseCellText, or AppendRow's checks), one per schema attribute in
  /// order. Does not validate: an unconverted value corrupts the table.
  void AppendValues(const CellValue* values);

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace fairrank

#endif  // FAIRRANK_DATA_TABLE_H_
