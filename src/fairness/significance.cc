#include "fairness/significance.h"

#include <algorithm>

#include "common/rng.h"
#include "stats/descriptive.h"

namespace fairrank {

namespace {

Status CheckInputs(const UnfairnessEvaluator& eval,
                   const Partitioning& partitioning, size_t iterations) {
  if (iterations == 0) {
    return Status::InvalidArgument("iterations must be positive");
  }
  if (!IsValidPartitioning(partitioning, eval.table().num_rows())) {
    return Status::InvalidArgument("invalid partitioning for this table");
  }
  return Status::OK();
}

/// Average pairwise divergence over histograms built from `scores` under
/// the evaluator's bin configuration.
StatusOr<double> UnfairnessWithScores(const UnfairnessEvaluator& eval,
                                      const Partitioning& partitioning,
                                      const std::vector<double>& scores) {
  if (partitioning.size() < 2) return 0.0;
  std::vector<Histogram> hists;
  hists.reserve(partitioning.size());
  for (const Partition& p : partitioning) {
    Histogram h(eval.options().num_bins, eval.options().score_lo,
                eval.options().score_hi);
    for (size_t row : p.rows) h.Add(scores[row]);
    hists.push_back(std::move(h));
  }
  return eval.AveragePairwise(hists);
}

}  // namespace

StatusOr<BootstrapResult> BootstrapUnfairness(const UnfairnessEvaluator& eval,
                                              const Partitioning& partitioning,
                                              size_t iterations,
                                              uint64_t seed) {
  FAIRRANK_RETURN_NOT_OK(CheckInputs(eval, partitioning, iterations));
  BootstrapResult result;
  result.iterations = iterations;
  FAIRRANK_ASSIGN_OR_RETURN(result.observed,
                            eval.AveragePairwiseUnfairness(partitioning));

  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(iterations);
  std::vector<double> scores = eval.scores();
  for (size_t it = 0; it < iterations; ++it) {
    // Resample each partition's members with replacement, writing the
    // drawn scores onto the partition's own row slots so the partitioning
    // structure is reused as-is.
    std::vector<double> resampled = scores;
    for (const Partition& p : partitioning) {
      for (size_t slot : p.rows) {
        size_t pick = p.rows[rng.UniformIndex(p.rows.size())];
        resampled[slot] = scores[pick];
      }
    }
    FAIRRANK_ASSIGN_OR_RETURN(
        double u, UnfairnessWithScores(eval, partitioning, resampled));
    samples.push_back(u);
  }
  FAIRRANK_ASSIGN_OR_RETURN(result.mean, Mean(samples));
  FAIRRANK_ASSIGN_OR_RETURN(result.ci_lo, Quantile(samples, 0.025));
  FAIRRANK_ASSIGN_OR_RETURN(result.ci_hi, Quantile(samples, 0.975));
  return result;
}

StatusOr<PermutationResult> PermutationTestUnfairness(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t iterations, uint64_t seed) {
  FAIRRANK_RETURN_NOT_OK(CheckInputs(eval, partitioning, iterations));
  PermutationResult result;
  result.iterations = iterations;
  FAIRRANK_ASSIGN_OR_RETURN(result.observed,
                            eval.AveragePairwiseUnfairness(partitioning));

  Rng rng(seed);
  std::vector<double> permuted = eval.scores();
  size_t at_least_as_extreme = 0;
  double null_sum = 0.0;
  for (size_t it = 0; it < iterations; ++it) {
    rng.Shuffle(&permuted);
    FAIRRANK_ASSIGN_OR_RETURN(
        double u, UnfairnessWithScores(eval, partitioning, permuted));
    null_sum += u;
    if (u >= result.observed - 1e-12) ++at_least_as_extreme;
  }
  result.null_mean = null_sum / static_cast<double>(iterations);
  result.p_value = static_cast<double>(at_least_as_extreme + 1) /
                   static_cast<double>(iterations + 1);
  return result;
}

}  // namespace fairrank
