#ifndef FAIRRANK_FAIRNESS_SIGNIFICANCE_H_
#define FAIRRANK_FAIRNESS_SIGNIFICANCE_H_

#include <cstdint>

#include "common/status.h"
#include "fairness/evaluator.h"
#include "fairness/partition.h"

namespace fairrank {

/// The paper observes that even uniformly random scores yield a nonzero
/// average pairwise EMD (Tables 1-2 hover around 0.15-0.33): finite
/// partitions of random data always differ somewhat, and the search
/// *maximizes* over partitionings. These tools separate that sampling
/// floor from real signal on a *fixed* partitioning.

/// Bootstrap confidence interval for unfairness(P, f).
struct BootstrapResult {
  double observed = 0.0;   ///< Unfairness on the original scores.
  double mean = 0.0;       ///< Mean over bootstrap resamples.
  double ci_lo = 0.0;      ///< 2.5th percentile.
  double ci_hi = 0.0;      ///< 97.5th percentile.
  size_t iterations = 0;
};

/// Resamples each partition's members with replacement `iterations` times
/// and recomputes the average pairwise divergence, yielding a confidence
/// interval for the unfairness estimate of `partitioning`. Deterministic
/// given `seed`. `partitioning` must be valid for the evaluator's table,
/// and the evaluator must hold one score per row: one built by
/// MakeFromHistograms fails with FailedPrecondition.
StatusOr<BootstrapResult> BootstrapUnfairness(const UnfairnessEvaluator& eval,
                                              const Partitioning& partitioning,
                                              size_t iterations,
                                              uint64_t seed);

/// Permutation test for unfairness(P, f).
struct PermutationResult {
  double observed = 0.0;   ///< Unfairness on the original scores.
  double null_mean = 0.0;  ///< Mean unfairness under permuted scores.
  /// Fraction of permutations with unfairness >= observed, with the +1
  /// correction: (count + 1) / (iterations + 1). Small values mean the
  /// observed unfairness is not explained by chance assignment.
  double p_value = 1.0;
  size_t iterations = 0;
};

/// Shuffles the score vector across workers `iterations` times (breaking
/// any association between scores and protected attributes, keeping the
/// score distribution intact) and recomputes unfairness on the same
/// partitioning. Deterministic given `seed`. Fails with FailedPrecondition
/// on an evaluator built by MakeFromHistograms (it has no scores).
StatusOr<PermutationResult> PermutationTestUnfairness(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t iterations, uint64_t seed);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_SIGNIFICANCE_H_
