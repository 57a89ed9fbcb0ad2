#ifndef FAIRRANK_DATA_TABLE_H_
#define FAIRRANK_DATA_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/schema.h"

namespace fairrank {

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
  /// Validates and converts one cell; does not mutate the table.
  Status ConvertCell(const Cell& cell, const AttributeSpec& spec,
                     Cell* converted) const;

  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace fairrank

#endif  // FAIRRANK_DATA_TABLE_H_
