#ifndef FAIRRANK_STATS_HISTOGRAM_H_
#define FAIRRANK_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bucket.h"
#include "common/status.h"

namespace fairrank {

/// Equal-width histogram over a fixed range, exactly as the paper builds
/// them: "creating equal bins over the range of f and counting the number of
/// workers whose function values fall in each bin".
///
/// Values outside [lo, hi] are clamped into the edge bins (scoring functions
/// are supposed to map into [0,1], but biased generators may graze the
/// boundary). The upper bound is inclusive in the last bin. Clamping is no
/// longer silent: `clamped_count()` reports how much mass landed outside the
/// range, so callers (UnfairnessEvaluator::Make, reports) can reject or warn
/// instead of quietly distorting the edge bins.
class Histogram {
 public:
  /// Requires num_bins >= 1 and lo < hi (asserted via Validate in factory).
  static StatusOr<Histogram> Make(int num_bins, double lo, double hi);

  /// Builds a histogram directly from per-bin counts (plus the clamped
  /// out-of-range mass included in those counts). The constructor shards
  /// and merge paths need: a shard that accumulated counts in a flat array
  /// rehydrates them without replaying the observations. Fails unless the
  /// Make invariants hold, `counts` has exactly `num_bins` entries, every
  /// count is finite and non-negative, and `clamped` is non-negative and no
  /// larger than the total mass.
  static StatusOr<Histogram> FromCounts(int num_bins, double lo, double hi,
                                        std::vector<double> counts,
                                        double clamped = 0.0);

  /// Unchecked constructor for internal/trusted callers.
  Histogram(int num_bins, double lo, double hi);

  int num_bins() const { return static_cast<int>(counts_.size()); }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double bin_width() const { return (hi_ - lo_) / num_bins(); }

  /// Adds one observation.
  void Add(double value);

  /// Adds `weight` observations worth of mass to the bin containing `value`.
  void AddWeighted(double value, double weight);

  /// Bin index a value falls into (clamped to [0, num_bins)).
  int BinOf(double value) const {
    return EqualWidthBucket(value, lo_, bin_width(), num_bins());
  }

  /// Center of bin `i` in the value domain.
  double BinCenter(int i) const { return lo_ + (i + 0.5) * bin_width(); }

  const std::vector<double>& counts() const { return counts_; }
  double total() const { return total_; }
  bool empty() const { return total_ <= 0.0; }

  /// Total weight of observations outside [lo, hi] that were folded into an
  /// edge bin. Included in total(); MergeWith sums it.
  double clamped_count() const { return clamped_; }

  /// Probability masses (counts / total). Requires total() > 0.
  std::vector<double> Normalized() const;

  /// Cumulative probability masses; last entry is 1 (up to rounding).
  /// Requires total() > 0.
  std::vector<double> Cdf() const;

  /// True if both histograms share bin count and range (so they are
  /// comparable by EMD / divergences).
  bool SameShape(const Histogram& other) const;

  /// Adds `other`'s counts bin-by-bin — the histogram of the union of the
  /// two underlying samples. Fails on shape mismatch.
  Status MergeWith(const Histogram& other);

  /// ASCII rendering for reports: one `#` bar row per bin.
  std::string ToAscii(int max_bar_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
  double clamped_ = 0.0;
};

}  // namespace fairrank

#endif  // FAIRRANK_STATS_HISTOGRAM_H_
