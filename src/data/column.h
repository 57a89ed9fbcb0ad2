#ifndef FAIRRANK_DATA_COLUMN_H_
#define FAIRRANK_DATA_COLUMN_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "data/attribute.h"

namespace fairrank {

/// One raw cell value on its way into a Table: an integer, a real, or a
/// category label that will be resolved to a code against the schema.
using Cell = std::variant<int64_t, double, std::string>;

/// Columnar storage for one attribute. The physical representation depends
/// on the attribute kind:
///   categorical -> int32 category codes
///   integer     -> int64 values
///   real        -> double values
class Column {
 public:
  explicit Column(AttributeKind kind);

  AttributeKind kind() const { return kind_; }
  size_t size() const;

  /// Appenders. The appender must match the column kind (asserted).
  void AppendCode(int32_t code);
  void AppendInt(int64_t value);
  void AppendReal(double value);

  /// Typed accessors. The accessor must match the column kind (asserted).
  int32_t CodeAt(size_t row) const {
    assert(kind_ == AttributeKind::kCategorical);
    return codes_[row];
  }
  int64_t IntAt(size_t row) const {
    assert(kind_ == AttributeKind::kInteger);
    return ints_[row];
  }
  double RealAt(size_t row) const {
    assert(kind_ == AttributeKind::kReal);
    return reals_[row];
  }

  /// Typed storage of the whole column, `size()` entries, for block kernels
  /// that read a range of rows at once. The accessor must match the column
  /// kind (asserted).
  const int32_t* code_data() const {
    assert(kind_ == AttributeKind::kCategorical);
    return codes_.data();
  }
  const int64_t* int_data() const {
    assert(kind_ == AttributeKind::kInteger);
    return ints_.data();
  }
  const double* real_data() const {
    assert(kind_ == AttributeKind::kReal);
    return reals_.data();
  }

  /// Kind-independent numeric view of a cell (category code, integer, or
  /// real), used by scoring functions and group mapping.
  double AsDouble(size_t row) const;

  /// Reserves storage for `n` rows.
  void Reserve(size_t n);

 private:
  AttributeKind kind_;
  std::vector<int32_t> codes_;
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
};

}  // namespace fairrank

#endif  // FAIRRANK_DATA_COLUMN_H_
