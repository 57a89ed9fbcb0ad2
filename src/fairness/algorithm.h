#ifndef FAIRRANK_FAIRNESS_ALGORITHM_H_
#define FAIRRANK_FAIRNESS_ALGORITHM_H_

#include <string>
#include <vector>

#include "common/budget.h"
#include "common/rng.h"
#include "common/status.h"
#include "fairness/evaluator.h"
#include "fairness/partition.h"

namespace fairrank {

/// One greedy step of Algorithms 1-2, already scored: the split on the
/// chosen attribute with its histograms and the average the step compares.
/// Balanced and unbalanced adopt it as is, so no split is built or scored
/// twice.
struct SplitChoice {
  /// Position of the chosen attribute in `attrs` (not an attribute index),
  /// so callers can erase the entry.
  size_t pos = 0;
  /// The split, in splitter order.
  Partitioning partitions;
  /// One histogram per partition.
  std::vector<Histogram> histograms;
  /// AveragePairwise(histograms) for a global step,
  /// AverageChildrenWithSiblings(histograms, siblings) for a local one.
  double score = 0.0;
};

/// Algorithm 1's worstAttribute(current, f, A): splits every partition of
/// `current` on each attribute of `attrs` and returns the split with the
/// highest average pairwise divergence; ties go to the earliest position.
/// With `random` (the r-* baselines) the only candidate is the position one
/// UniformIndex draw picks. Fails on an empty `attrs`; evaluator errors,
/// exhaustion included, propagate.
StatusOr<SplitChoice> ChooseGlobalSplit(const UnfairnessEvaluator& eval,
                                        const Partitioning& current,
                                        const std::vector<size_t>& attrs,
                                        Rng* random);

/// Algorithm 2's worstAttribute(current, f, A): as ChooseGlobalSplit, but
/// splits the one partition `current` and scores its children against the
/// siblings' histograms.
StatusOr<SplitChoice> ChooseLocalSplit(const UnfairnessEvaluator& eval,
                                       const Partition& current,
                                       const std::vector<Histogram>& siblings,
                                       const std::vector<size_t>& attrs,
                                       Rng* random);

/// Outcome of a bounded partition search. Always carries a valid full
/// disjoint partitioning; `truncated` marks a best-effort answer produced
/// under deadline, cancellation, or budget exhaustion rather than a
/// completed search.
struct SearchResult {
  Partitioning partitioning;
  /// True when the search stopped early and returned its best-so-far.
  bool truncated = false;
  /// Why it stopped early; kNone when not truncated.
  ExhaustionReason reason = ExhaustionReason::kNone;
  /// Split / candidate-evaluation checkpoints passed — the work actually
  /// done, comparable across algorithms and against --max-nodes.
  uint64_t nodes_visited = 0;
  /// Work counters of the search evaluator (histograms built, divergences
  /// computed). Filled by FairnessAuditor and bench harnesses after the
  /// algorithm returns; algorithms themselves leave it zeroed.
  EvalCacheStats cache;
};

/// A partition-search algorithm. Implementations must return a valid full
/// disjoint partitioning of the evaluator's table (IsValidPartitioning) —
/// even when truncated: on deadline, cancellation, or budget exhaustion they
/// degrade gracefully to the best (or deepest) valid partitioning found so
/// far instead of failing. A non-OK status is reserved for real errors
/// (invalid arguments, internal faults), never for exhaustion.
class PartitioningAlgorithm {
 public:
  virtual ~PartitioningAlgorithm() = default;

  /// Stable identifier, e.g. "balanced".
  virtual std::string Name() const = 0;

  /// Searches for an unfair partitioning over the protected attributes
  /// `attrs` (indices into the evaluator's table schema), checking `context`
  /// at split and evaluation boundaries. `attrs` may be consumed in any
  /// order; passing an empty list yields the trivial root partitioning.
  virtual StatusOr<SearchResult> Run(const UnfairnessEvaluator& eval,
                                     std::vector<size_t> attrs,
                                     const ExecutionContext& context) = 0;

  /// Unbounded convenience: runs with ExecutionContext::Unbounded() and
  /// yields just the partitioning (never truncated).
  StatusOr<Partitioning> Run(const UnfairnessEvaluator& eval,
                             std::vector<size_t> attrs);
};

/// Marks `result` truncated for `reason` and returns it (no-op for kNone).
SearchResult TruncatedResult(SearchResult result, ExhaustionReason reason);

/// Degradation helper for a sub-step that failed with `status`: exhaustion
/// statuses (deadline / cancelled / budget) convert the best-so-far `result`
/// into a truncated success; real errors propagate unchanged.
StatusOr<SearchResult> DegradeOnExhaustion(SearchResult result,
                                           const Status& status);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_ALGORITHM_H_
