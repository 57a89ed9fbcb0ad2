#include "data/attribute.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/bucket.h"
#include "common/str_util.h"

namespace fairrank {

const char* AttributeKindToString(AttributeKind kind) {
  switch (kind) {
    case AttributeKind::kCategorical:
      return "categorical";
    case AttributeKind::kInteger:
      return "integer";
    case AttributeKind::kReal:
      return "real";
  }
  return "unknown";
}

const char* AttributeRoleToString(AttributeRole role) {
  switch (role) {
    case AttributeRole::kProtected:
      return "protected";
    case AttributeRole::kObserved:
      return "observed";
    case AttributeRole::kOther:
      return "other";
  }
  return "unknown";
}

AttributeSpec AttributeSpec::Categorical(std::string name, AttributeRole role,
                                         std::vector<std::string> categories) {
  AttributeSpec spec;
  spec.name_ = std::move(name);
  spec.kind_ = AttributeKind::kCategorical;
  spec.role_ = role;
  spec.categories_ = std::move(categories);
  return spec;
}

AttributeSpec AttributeSpec::Integer(std::string name, AttributeRole role,
                                     int64_t min, int64_t max,
                                     int num_buckets) {
  AttributeSpec spec;
  spec.name_ = std::move(name);
  spec.kind_ = AttributeKind::kInteger;
  spec.role_ = role;
  spec.min_ = static_cast<double>(min);
  spec.max_ = static_cast<double>(max);
  spec.num_buckets_ = num_buckets;
  spec.FormatBucketLabels();
  return spec;
}

AttributeSpec AttributeSpec::Real(std::string name, AttributeRole role,
                                  double min, double max, int num_buckets) {
  AttributeSpec spec;
  spec.name_ = std::move(name);
  spec.kind_ = AttributeKind::kReal;
  spec.role_ = role;
  spec.min_ = min;
  spec.max_ = max;
  spec.num_buckets_ = num_buckets;
  spec.FormatBucketLabels();
  return spec;
}

int AttributeSpec::num_groups() const {
  if (kind_ == AttributeKind::kCategorical) {
    return static_cast<int>(categories_.size());
  }
  return num_buckets_;
}

Status AttributeSpec::Validate() const {
  if (name_.empty()) {
    return Status::InvalidArgument("attribute has empty name");
  }
  if (kind_ == AttributeKind::kCategorical) {
    if (categories_.empty()) {
      return Status::InvalidArgument("categorical attribute '" + name_ +
                                     "' has no categories");
    }
    std::unordered_set<std::string> seen;
    for (const std::string& c : categories_) {
      if (!seen.insert(c).second) {
        return Status::InvalidArgument("categorical attribute '" + name_ +
                                       "' has duplicate category '" + c + "'");
      }
    }
  } else {
    if (!(min_ < max_)) {
      return Status::InvalidArgument("numeric attribute '" + name_ +
                                     "' has empty range");
    }
    if (num_buckets_ <= 0) {
      return Status::InvalidArgument("numeric attribute '" + name_ +
                                     "' must have a positive bucket count");
    }
  }
  return Status::OK();
}

StatusOr<int> AttributeSpec::CodeOf(std::string_view category) const {
  if (kind_ != AttributeKind::kCategorical) {
    return Status::FailedPrecondition("CodeOf on non-categorical attribute '" +
                                      name_ + "'");
  }
  auto it = std::find(categories_.begin(), categories_.end(), category);
  if (it == categories_.end()) {
    return Status::NotFound("category '" + std::string(category) +
                            "' not in attribute '" + name_ + "'");
  }
  return static_cast<int>(it - categories_.begin());
}

int AttributeSpec::GroupIndexOfInt(int64_t value) const {
  if (kind_ == AttributeKind::kCategorical) {
    return ClampCode(static_cast<int>(value), num_groups());
  }
  return GroupIndexOfReal(static_cast<double>(value));
}

int AttributeSpec::GroupIndexOfReal(double value) const {
  return EqualWidthBucket(value, min_, bucket_width(), num_buckets_);
}

std::string AttributeSpec::GroupLabel(int group_index) const {
  if (kind_ == AttributeKind::kCategorical) {
    if (group_index >= 0 && group_index < num_groups()) {
      return categories_[group_index];
    }
    return "<invalid>";
  }
  if (group_index >= 0 &&
      static_cast<size_t>(group_index) < bucket_labels_.size()) {
    return bucket_labels_[group_index];
  }
  return FormatBucketLabel(group_index);
}

double AttributeSpec::FirstIntegerOfBucket(int group_index) const {
  const double width = bucket_width();
  double value = std::ceil(min_ + group_index * width);
  // Past 2^53 doubles skip integers, and an empty or inverted range (which
  // Validate rejects) has no buckets to fit; keep the edge's ceiling there.
  if (!(width > 0.0) || !(std::fabs(value) < 0x1p53)) return value;
  auto index = [this, width](double v) {
    return std::floor((v - min_) / width);
  };
  // The ceiling is off by at most one integer from rounding in either
  // direction.
  if (index(value - 1) >= group_index) {
    --value;
  } else if (index(value) < group_index) {
    ++value;
  }
  return value;
}

std::string AttributeSpec::FormatBucketLabel(int group_index) const {
  double lo;
  double hi;
  int precision;
  if (kind_ == AttributeKind::kInteger) {
    lo = FirstIntegerOfBucket(group_index);
    hi = (group_index == num_buckets_ - 1)
             ? max_
             : FirstIntegerOfBucket(group_index + 1);
    precision = 0;
  } else {
    double width = bucket_width();
    lo = min_ + group_index * width;
    hi = lo + width;
    precision = 2;
  }
  // Built with append rather than chained operator+ — the temporary chain
  // trips GCC 12's -Wrestrict false positive (PR105651) under -Werror.
  std::string label = "[";
  label += FormatDouble(lo, precision);
  label += ",";
  label += FormatDouble(hi, precision);
  label += (group_index == num_buckets_ - 1) ? "]" : ")";
  return label;
}

void AttributeSpec::FormatBucketLabels() {
  for (int g = 0; g < num_buckets_; ++g) {
    bucket_labels_.push_back(FormatBucketLabel(g));
  }
}

}  // namespace fairrank
