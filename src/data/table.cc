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

namespace {

Status NonFinite(const AttributeSpec& spec) {
  return Status::InvalidArgument("non-finite value for attribute '" +
                                 spec.name() + "'");
}

/// Validates and converts one cell; does not mutate the table.
Status ConvertCell(const Cell& cell, const AttributeSpec& spec,
                   CellValue* converted) {
  if (const std::string* text = std::get_if<std::string>(&cell)) {
    return ParseCellText(spec, *text, converted);
  }
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      const int64_t* v = std::get_if<int64_t>(&cell);
      if (v == nullptr) {
        return Status::InvalidArgument(
            "real cell given for categorical attribute '" + spec.name() + "'");
      }
      if (*v < 0 || *v >= spec.num_groups()) {
        return Status::OutOfRange("code " + std::to_string(*v) +
                                  " out of range for categorical '" +
                                  spec.name() + "'");
      }
      converted->integer = *v;
      return Status::OK();
    }
    case AttributeKind::kInteger: {
      const int64_t* v = std::get_if<int64_t>(&cell);
      if (v == nullptr) {
        return Status::InvalidArgument(
            "real cell given for integer attribute '" + spec.name() + "'");
      }
      converted->integer = *v;
      return Status::OK();
    }
    case AttributeKind::kReal: {
      const double* v = std::get_if<double>(&cell);
      converted->real =
          v != nullptr ? *v : static_cast<double>(std::get<int64_t>(cell));
      // NaN/inf would make bucketization undefined behaviour downstream.
      if (!std::isfinite(converted->real)) return NonFinite(spec);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable attribute kind");
}

}  // namespace

Status ParseCellText(const AttributeSpec& spec, std::string_view text,
                     CellValue* out) {
  switch (spec.kind()) {
    case AttributeKind::kCategorical: {
      FAIRRANK_ASSIGN_OR_RETURN(out->integer, spec.CodeOf(text));
      return Status::OK();
    }
    case AttributeKind::kInteger:
      if (!ParseInt64(text, &out->integer)) {
        return Status::InvalidArgument("cannot parse '" + std::string(text) +
                                       "' as integer for attribute '" +
                                       spec.name() + "'");
      }
      return Status::OK();
    case AttributeKind::kReal:
      if (!ParseDouble(text, &out->real)) {
        return Status::InvalidArgument("cannot parse '" + std::string(text) +
                                       "' as real for attribute '" +
                                       spec.name() + "'");
      }
      // NaN/inf would make bucketization undefined behaviour downstream.
      if (!std::isfinite(out->real)) return NonFinite(spec);
      return Status::OK();
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
  std::vector<CellValue> converted(cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    FAIRRANK_RETURN_NOT_OK(
        ConvertCell(cells[i], schema_.attribute(i), &converted[i]));
  }
  AppendValues(converted.data());
  return Status::OK();
}

void Table::AppendValues(const CellValue* values) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    switch (schema_.attribute(i).kind()) {
      case AttributeKind::kCategorical:
        columns_[i].AppendCode(static_cast<int32_t>(values[i].integer));
        break;
      case AttributeKind::kInteger:
        columns_[i].AppendInt(values[i].integer);
        break;
      case AttributeKind::kReal:
        columns_[i].AppendReal(values[i].real);
        break;
    }
  }
  ++num_rows_;
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
