#include "data/table.h"

#include <cassert>
#include <cmath>

#include "common/bucket.h"
#include "common/str_util.h"

namespace fairrank {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  for (size_t i = 0; i < schema_.num_attributes(); ++i) {
    columns_.emplace_back(schema_.attribute(i).kind());
  }
}

Status Table::ConvertCell(const Cell& cell, const AttributeSpec& spec,
                          Cell* converted) const {
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      int code = -1;
      if (const std::string* label = std::get_if<std::string>(&cell)) {
        FAIRRANK_ASSIGN_OR_RETURN(code, spec.CodeOf(*label));
      } else if (const int64_t* v = std::get_if<int64_t>(&cell)) {
        if (*v < 0 || *v >= spec.num_groups()) {
          return Status::OutOfRange("code " + std::to_string(*v) +
                                    " out of range for categorical '" +
                                    spec.name() + "'");
        }
        code = static_cast<int>(*v);
      } else {
        return Status::InvalidArgument(
            "real cell given for categorical attribute '" + spec.name() + "'");
      }
      *converted = static_cast<int64_t>(code);
      return Status::OK();
    }
    case AttributeKind::kInteger: {
      int64_t value = 0;
      if (const int64_t* v = std::get_if<int64_t>(&cell)) {
        value = *v;
      } else if (const std::string* s = std::get_if<std::string>(&cell)) {
        if (!ParseInt64(*s, &value)) {
          return Status::InvalidArgument("cannot parse '" + *s +
                                         "' as integer for attribute '" +
                                         spec.name() + "'");
        }
      } else {
        return Status::InvalidArgument(
            "real cell given for integer attribute '" + spec.name() + "'");
      }
      *converted = value;
      return Status::OK();
    }
    case AttributeKind::kReal: {
      double value = 0.0;
      if (const double* v = std::get_if<double>(&cell)) {
        value = *v;
      } else if (const int64_t* v = std::get_if<int64_t>(&cell)) {
        value = static_cast<double>(*v);
      } else {
        const std::string& s = std::get<std::string>(cell);
        if (!ParseDouble(s, &value)) {
          return Status::InvalidArgument("cannot parse '" + s +
                                         "' as real for attribute '" +
                                         spec.name() + "'");
        }
      }
      // NaN/inf would make bucketization undefined behaviour downstream.
      if (!std::isfinite(value)) {
        return Status::InvalidArgument("non-finite value for attribute '" +
                                       spec.name() + "'");
      }
      *converted = value;
      return Status::OK();
    }
  }
  return Status::Internal("unreachable attribute kind");
}

Status Table::AppendRow(const std::vector<Cell>& cells) {
  if (cells.size() != schema_.num_attributes()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(cells.size()) + " cells, schema expects " +
        std::to_string(schema_.num_attributes()));
  }
  // Two-phase append: validate/convert everything first so a mid-row failure
  // cannot leave columns with unequal lengths.
  std::vector<Cell> converted(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    FAIRRANK_RETURN_NOT_OK(
        ConvertCell(cells[i], schema_.attribute(i), &converted[i]));
  }
  for (size_t i = 0; i < converted.size(); ++i) {
    switch (schema_.attribute(i).kind()) {
      case AttributeKind::kCategorical:
        columns_[i].AppendCode(
            static_cast<int32_t>(std::get<int64_t>(converted[i])));
        break;
      case AttributeKind::kInteger:
        columns_[i].AppendInt(std::get<int64_t>(converted[i]));
        break;
      case AttributeKind::kReal:
        columns_[i].AppendReal(std::get<double>(converted[i]));
        break;
    }
  }
  ++num_rows_;
  return Status::OK();
}

void Table::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

int Table::GroupIndex(size_t row, size_t attr_index) const {
  const AttributeSpec& spec = schema_.attribute(attr_index);
  const Column& col = columns_[attr_index];
  switch (spec.kind()) {
    case AttributeKind::kCategorical:
      return spec.GroupIndexOfInt(col.CodeAt(row));
    case AttributeKind::kInteger:
      return spec.GroupIndexOfInt(col.IntAt(row));
    case AttributeKind::kReal:
      return spec.GroupIndexOfReal(col.RealAt(row));
  }
  return 0;
}

void Table::GroupIndices(size_t attr_index, size_t begin, size_t end,
                         int* out) const {
  assert(begin <= end && end <= num_rows_);
  const AttributeSpec& spec = schema_.attribute(attr_index);
  const Column& col = columns_[attr_index];
  const size_t n = end - begin;
  const int groups = spec.num_groups();
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      const int32_t* codes = col.code_data() + begin;
      for (size_t i = 0; i < n; ++i) {
        out[i] = AttributeSpec::ClampCode(codes[i], groups);
      }
      return;
    }
    case AttributeKind::kInteger: {
      const int64_t* values = col.int_data() + begin;
      const double min = spec.min();
      const double width = spec.bucket_width();
      for (size_t i = 0; i < n; ++i) {
        out[i] = EqualWidthBucket(static_cast<double>(values[i]), min, width,
                                  groups);
      }
      return;
    }
    case AttributeKind::kReal: {
      const double* values = col.real_data() + begin;
      const double min = spec.min();
      const double width = spec.bucket_width();
      for (size_t i = 0; i < n; ++i) {
        out[i] = EqualWidthBucket(values[i], min, width, groups);
      }
      return;
    }
  }
}

std::string Table::CellToString(size_t row, size_t attr_index) const {
  const AttributeSpec& spec = schema_.attribute(attr_index);
  const Column& col = columns_[attr_index];
  switch (spec.kind()) {
    case AttributeKind::kCategorical:
      return spec.categories()[col.CodeAt(row)];
    case AttributeKind::kInteger:
      return std::to_string(col.IntAt(row));
    case AttributeKind::kReal:
      return FormatDouble(col.RealAt(row), 4);
  }
  return "";
}

}  // namespace fairrank
