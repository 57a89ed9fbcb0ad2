#ifndef FAIRRANK_FAIRNESS_EVALUATOR_H_
#define FAIRRANK_FAIRNESS_EVALUATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/budget.h"
#include "common/deadline.h"
#include "common/status.h"
#include "common/trace.h"
#include "data/table.h"
#include "fairness/partition.h"
#include "stats/divergence.h"
#include "stats/histogram.h"

namespace fairrank {

/// Work counters of one evaluator: histograms built and divergences
/// computed. The evaluator memoizes nothing, so every request is a build or
/// a computation; the hit and byte fields are always 0 and remain only so
/// callers that still read them compile. Divergences count pair terms: an
/// average over k histograms adds the k(k-1)/2 pairs it covers, whether it
/// enumerates them or sums sorted per-bin features, and a top-pairs call
/// adds the pairs it computed (fewer where its bound prunes), so totals are
/// exact at any num_threads.
struct EvalCacheStats {
  uint64_t histogram_hits = 0;     ///< Always 0.
  uint64_t histogram_misses = 0;   ///< Histograms built.
  uint64_t divergence_hits = 0;    ///< Always 0.
  uint64_t divergence_misses = 0;  ///< Pair terms (see above).
  uint64_t bytes_used = 0;         ///< Always 0.

  uint64_t histogram_lookups() const {
    return histogram_hits + histogram_misses;
  }
  uint64_t divergence_lookups() const {
    return divergence_hits + divergence_misses;
  }

  /// Accumulates `other` into this (used to combine the search and
  /// reporting evaluators of one audit).
  void Add(const EvalCacheStats& other);
};

/// Declared, never defined: EvaluatorOptions::shared_cache can only be null.
class EvaluatorCache;

/// Two readings of Algorithm 2's `averageEMD(children, siblings, f)` — the
/// paper's prose ("the average pairwise EMD of its potential children with
/// the partition's siblings") is ambiguous; both are implemented and the
/// choice is an option so the difference can be studied
/// (bench/ablation_divergence reports it).
enum class SiblingComparison {
  /// Average over pairs within (children ∪ siblings) that involve at least
  /// one child (child-child and child-sibling pairs). This is the natural
  /// counterpart of `averageEMD(current, siblings)` = pairs involving
  /// `current`, and the default.
  kChildPairs,
  /// Average over all pairs of (children ∪ siblings), i.e. the average
  /// pairwise unfairness of the candidate partitioning after replacing the
  /// partition by its children (sibling-sibling pairs included).
  kAllPairs,
};

/// Configuration of the unfairness measure.
struct EvaluatorOptions {
  /// Histogram bin count over the score range ("equal bins over the range
  /// of f").
  int num_bins = 10;
  /// Score range of f; the paper's functions map into [0, 1].
  double score_lo = 0.0;
  double score_hi = 1.0;
  SiblingComparison sibling_comparison = SiblingComparison::kChildPairs;
  /// Divergence name resolved via MakeDivergenceByName; "emd" reproduces
  /// the paper.
  std::string divergence = "emd";
  /// Worker threads of AveragePairwiseUnfairness: over bins for a
  /// divergence with a per-bin L1 form (emd, tv), over pairs otherwise.
  /// 1 = fully serial (default); results are bit-identical across thread
  /// counts (partial sums are reduced in a fixed order).
  int num_threads = 1;
  /// Deadline / cancellation honored inside AveragePairwiseUnfairness and
  /// TopDivergentPairs: the loops stop between blocks once either fires and
  /// the call returns DeadlineExceeded / Cancelled instead of finishing.
  /// Both are inert by default. Keep them inert on evaluators used for
  /// *reporting* — only the search evaluator should be interruptible.
  Deadline deadline;
  CancellationToken cancel;
  /// Always null (EvaluatorCache has no definition); kept so callers that
  /// still test it compile.
  std::shared_ptr<EvaluatorCache> shared_cache;
  /// Borrowed per-request trace (see common/trace.h). When set, every
  /// histogram build records a "histogram" span under `trace_parent`, and
  /// every divergence computation an "emd" span — one per call, not per
  /// pair, where a per-bin L1 form covers all pairs at once. Null =
  /// tracing off; recording is thread-safe (the pairwise pool records
  /// concurrently). The auditor wires this from its ExecutionLimits.
  TraceContext* trace = nullptr;
  int64_t trace_parent = -1;
};

/// One highly divergent partition pair — the "who exactly is treated
/// differently from whom" answer an auditor reads off first.
struct DivergentPair {
  size_t index_a = 0;  ///< Index into the partitioning.
  size_t index_b = 0;
  double distance = 0.0;
};

/// Computes unfairness(P, f) (Definition 2): the average pairwise divergence
/// between the score histograms of a partitioning's partitions. Owns the
/// scores of every row under the audited scoring function, builds per-
/// partition histograms, and exposes the sibling-relative averages
/// Algorithm 2 needs.
///
/// Nothing is memoized: a 1-D EMD over a few bins costs less than a locked
/// hash lookup would. Searches that revisit a partition carry its
/// Histogram with it instead (unbalanced, exhaustive), so the averages
/// below take histograms.
///
/// Thread-compatible: logically const after construction; all accessors are
/// const (the work counters are atomic).
class UnfairnessEvaluator {
 public:
  /// `table` must outlive the evaluator; `scores` must have one entry per
  /// table row. Fails on size mismatch, bad options, or unknown divergence.
  static StatusOr<UnfairnessEvaluator> Make(const Table* table,
                                            std::vector<double> scores,
                                            const EvaluatorOptions& options);

  /// An evaluator over a table whose rows each stand for many observations
  /// (the cell table of an aggregate audit): row r contributes the whole
  /// histogram `row_histograms[r]` instead of one score. Bin counts are
  /// exact integer sums, so a partition's histogram is bit-identical to
  /// adding every underlying score. Fails unless there is one histogram per
  /// row, each of the options' bin configuration. scores() is empty;
  /// num_out_of_range() is the summed clamped mass.
  static StatusOr<UnfairnessEvaluator> MakeFromHistograms(
      const Table* table, std::vector<Histogram> row_histograms,
      const EvaluatorOptions& options);

  /// Score histogram of one partition.
  Histogram BuildHistogram(const Partition& partition) const;

  /// BuildHistogram of every partition, in order.
  std::vector<Histogram> BuildHistograms(const Partitioning& partitioning) const;

  /// Divergence between two non-empty histograms of this evaluator's shape.
  StatusOr<double> Distance(const Histogram& a, const Histogram& b) const;

  /// Divergence between two partitions' histograms. Both must be non-empty
  /// (guaranteed for splitter-produced partitions).
  StatusOr<double> Distance(const Partition& a, const Partition& b) const;

  /// unfairness(P, f): average pairwise divergence over all partition pairs.
  /// A partitioning with fewer than two partitions has unfairness 0.
  StatusOr<double> AveragePairwiseUnfairness(
      const Partitioning& partitioning) const;

  /// The same average over already-built histograms; bit-identical to
  /// AveragePairwiseUnfairness of the partitions they were built from.
  ///
  /// For a divergence with a per-bin L1 form (emd, tv) the k(k-1)/2 pairs
  /// are never enumerated: each bin's k features are sorted and their Gini
  /// mean difference summed with compensation, in O(B * k log k), in
  /// parallel over bins. The result matches the pairwise mean to within
  /// rounding (see DESIGN.md). Other divergences average all pairs. Either
  /// way the work counter grows by the k(k-1)/2 pairs covered, an attached
  /// context is charged for the buffer (k * B or k(k-1)/2 doubles), and a
  /// bad pair fails with the Status Distance gives it.
  StatusOr<double> AveragePairwise(
      const std::vector<Histogram>& histograms) const;

  /// The `n` most divergent pairs of `histograms`, ordered by distance
  /// descending, ties by (index_a, index_b) ascending; `n` beyond the pair
  /// count is clamped. Every distance is bit-identical to
  /// Distance(histograms[index_a], histograms[index_b]).
  ///
  /// For a per-bin L1 form (emd, tv) the scan is exact but pruned: pairs
  /// are visited in order of their distance to a per-bin median pivot and
  /// skipped once the triangle-inequality bound falls below the n-th best
  /// distance kept, computing the rest in vectorizable blocks. Other
  /// divergences compute every pair. The work counter grows by the pairs
  /// actually computed; the scan is serial, so that count is the same at
  /// any num_threads.
  StatusOr<std::vector<DivergentPair>> TopPairs(
      const std::vector<Histogram>& histograms, size_t n) const;

  /// Algorithm 2's averageEMD(current, siblings, f): mean divergence between
  /// `current` and each sibling; 0 when `siblings` is empty.
  StatusOr<double> AverageWithSiblings(
      const Histogram& current, const std::vector<Histogram>& siblings) const;

  /// Algorithm 2's averageEMD(children, siblings, f), per the configured
  /// SiblingComparison reading; 0 when there are fewer than two histograms
  /// or no qualifying pairs.
  StatusOr<double> AverageChildrenWithSiblings(
      const std::vector<Histogram>& children,
      const std::vector<Histogram>& siblings) const;

  /// Attaches the search's ExecutionContext: every buffer AveragePairwise
  /// and TopPairs allocate is charged to its ResourceBudget. A charge that
  /// exhausts the budget does not fail the call; the exhaustion latches and
  /// the search truncates at its next checkpoint. Call before the search
  /// starts; auditors do this for the search evaluator only.
  void AttachExecutionContext(const ExecutionContext& context) {
    context_ = context;
  }

  /// Work so far: histograms built and divergences computed.
  EvalCacheStats cache_stats() const;

  /// Number of input scores outside [score_lo, score_hi]; they are clamped
  /// into the edge bins. Reports surface a warning when nonzero.
  size_t num_out_of_range() const { return num_out_of_range_; }

  const Table& table() const { return *table_; }
  /// One score per table row; empty for MakeFromHistograms evaluators.
  const std::vector<double>& scores() const { return scores_; }
  const EvaluatorOptions& options() const { return options_; }
  const Divergence& divergence() const { return *divergence_; }

 private:
  struct WorkCounters {
    std::atomic<uint64_t> histograms{0};
    std::atomic<uint64_t> divergences{0};
  };

  UnfairnessEvaluator(const Table* table, std::vector<double> scores,
                      std::vector<Histogram> row_histograms,
                      const EvaluatorOptions& options,
                      std::unique_ptr<Divergence> divergence,
                      size_t num_out_of_range)
      : table_(table),
        scores_(std::move(scores)),
        row_histograms_(std::move(row_histograms)),
        options_(options),
        divergence_(std::move(divergence)),
        num_out_of_range_(num_out_of_range),
        work_(std::make_unique<WorkCounters>()) {}

  /// One divergence: the fault-injection hook, the computation and its
  /// trace event. Callers count it via CountDivergences.
  StatusOr<double> ComputeDistance(const Histogram& a,
                                   const Histogram& b) const;
  void CountDivergences(uint64_t n) const;

  /// Ok when every pair of `histograms` (at least two) is comparable;
  /// otherwise the Status Distance gives the first bad pair in
  /// upper-triangle order.
  Status CheckPairs(const std::vector<Histogram>& histograms) const;

  /// Charges `bytes` to the attached context, if any. The verdict is not
  /// needed: exhaustion latches on the budget and the search truncates at
  /// its next checkpoint.
  void ChargeMemory(uint64_t bytes) const;

  /// Cancelled / DeadlineExceeded once the options' cancellation or
  /// deadline fires, Ok before.
  Status CheckStop() const;

  /// Runs `body` over [0, n) under the options' threads, deadline and
  /// cancellation. A worker exception becomes Internal; an early stop
  /// becomes Cancelled / DeadlineExceeded.
  Status RunCancellable(size_t n,
                        const std::function<void(size_t, size_t)>& body) const;

  /// AveragePairwise through the per-bin L1 form.
  StatusOr<double> SortedAverage(const std::vector<Histogram>& histograms,
                                 const PerBinL1Form& form) const;

  /// All pairwise divergences of `histograms`, flattened in upper-triangle
  /// order, in parallel over pairs. AveragePairwise's path for divergences
  /// without a per-bin L1 form.
  StatusOr<std::vector<double>> PairwiseDistances(
      const std::vector<Histogram>& histograms) const;

  const Table* table_;
  std::vector<double> scores_;
  /// Set instead of scores_ by MakeFromHistograms.
  std::vector<Histogram> row_histograms_;
  EvaluatorOptions options_;
  std::unique_ptr<Divergence> divergence_;
  size_t num_out_of_range_ = 0;
  std::unique_ptr<WorkCounters> work_;
  /// Set by AttachExecutionContext; charges the buffers of AveragePairwise
  /// and TopPairs.
  std::optional<ExecutionContext> context_;
};

/// The k partition pairs with the largest pairwise divergence, sorted
/// descending (ties broken by pair order, deterministic): TopPairs over the
/// partitions' histograms. k larger than the number of pairs is clamped; a
/// partitioning with < 2 partitions yields an empty list.
StatusOr<std::vector<DivergentPair>> TopDivergentPairs(
    const UnfairnessEvaluator& eval, const Partitioning& partitioning,
    size_t k);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_EVALUATOR_H_
