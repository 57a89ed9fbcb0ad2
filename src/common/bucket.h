#ifndef FAIRRANK_COMMON_BUCKET_H_
#define FAIRRANK_COMMON_BUCKET_H_

#include <algorithm>

namespace fairrank {

/// Index of the equal-width bucket holding `value`, for `count` buckets of
/// `width` starting at `lo`, clamped to [0, count): floor((value - lo) /
/// width), with values below the range (and NaN) in bucket 0 and values
/// above it in bucket count - 1. One formula for histogram bins and numeric
/// attribute groups, row by row and in block kernels.
///
/// The quotient is clamped as a double before the cast, since converting a
/// double beyond int's range is undefined behaviour. Clamping to
/// [0, count - 1] first makes the floor unnecessary: truncation equals the
/// floor on non-negative values, and every value at or above count - 1
/// clamps to count - 1 either way. Without the floor call the body is
/// branch-free (max, min, truncating convert), so block loops vectorize.
inline int EqualWidthBucket(double value, double lo, double width,
                            int count) {
  const double q = (value - lo) / width;
  // std::max(0.0, q) is 0 for NaN: it returns q only when 0 < q.
  return static_cast<int>(std::min(std::max(0.0, q), count - 1.0));
}

}  // namespace fairrank

#endif  // FAIRRANK_COMMON_BUCKET_H_
