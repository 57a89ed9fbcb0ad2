#ifndef FAIRRANK_FAIRNESS_AUDITOR_H_
#define FAIRRANK_FAIRNESS_AUDITOR_H_

#include <string>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "data/table.h"
#include "fairness/evaluator.h"
#include "fairness/partition.h"
#include "fairness/registry.h"
#include "marketplace/scoring.h"
#include "stats/histogram.h"

namespace fairrank {

/// Everything needed to run one audit: which algorithm, how unfairness is
/// measured, and which protected attributes to search over.
struct AuditOptions {
  /// Algorithm name resolved via MakeAlgorithmByName.
  std::string algorithm = "unbalanced";
  /// Histogram / divergence configuration (Definition 2).
  EvaluatorOptions evaluator;
  /// Seed for randomized baselines.
  uint64_t seed = 0;
  /// Budgets for the exhaustive algorithm.
  ExhaustiveOptions exhaustive;
  /// Beam width for the "beam" algorithm.
  int beam_width = 3;
  /// Names of protected attributes to search over; empty means every
  /// attribute the schema marks kProtected.
  std::vector<std::string> protected_attributes;
  /// How many of the most divergent partition pairs to surface in the
  /// result (0 disables).
  size_t num_worst_pairs = 3;
  /// Deadline / cancellation / resource budgets for the search. Inert by
  /// default. The limits bound only the *search*: when they trip, the audit
  /// still returns the best partitioning found so far (AuditResult::
  /// truncated), and the reported metrics for it are computed unbounded.
  ExecutionLimits limits;
};

/// A labeled divergent partition pair for reports: "Gender=Male vs
/// Gender=Female differ by 0.80".
struct DivergentPairSummary {
  std::string label_a;
  std::string label_b;
  double distance = 0.0;
};

/// Per-partition digest of an audit result.
struct PartitionSummary {
  std::string label;       ///< "Gender=Male & Language=English".
  size_t size = 0;         ///< Number of workers.
  double mean_score = 0.0;
  Histogram histogram;     ///< Score histogram (evaluator's bin config).

  PartitionSummary() : histogram(1, 0.0, 1.0) {}
};

/// Result of one audit: the most unfair partitioning the algorithm found,
/// its unfairness value, runtime, and per-partition summaries.
struct AuditResult {
  std::string algorithm;
  std::string scoring_function;
  Partitioning partitioning;
  double unfairness = 0.0;   ///< avg pairwise divergence of `partitioning`.
  double seconds = 0.0;      ///< Wall-clock of the search itself.
  std::vector<PartitionSummary> partitions;  ///< Sorted by descending size.
  std::vector<std::string> attributes_used;  ///< Distinct split attributes.
  /// The most divergent partition pairs, descending (see
  /// AuditOptions::num_worst_pairs).
  std::vector<DivergentPairSummary> worst_pairs;
  /// True when the search stopped early (deadline, cancellation, or budget)
  /// and `partitioning` is the best-so-far rather than the full search's
  /// answer. The metrics above still describe `partitioning` exactly.
  bool truncated = false;
  /// Why the search truncated; kNone when it ran to completion.
  ExhaustionReason exhaustion_reason = ExhaustionReason::kNone;
  /// Split / evaluation checkpoints the search passed (see SearchResult).
  uint64_t nodes_visited = 0;
  /// Search throughput: nodes_visited / seconds (0 when seconds is 0).
  double nodes_per_sec = 0.0;
  /// Work counters (histograms built, divergences computed), combined over
  /// the search and reporting evaluators of this audit.
  EvalCacheStats cache;
  /// Scores outside the evaluator's [score_lo, score_hi] range, folded into
  /// edge bins under OutOfRangePolicy::kCount. Reports warn when nonzero.
  uint64_t out_of_range_scores = 0;
};

/// The library's front door: audits a scoring function over a worker table.
///
///   FairnessAuditor auditor(&workers);
///   auto result = auditor.Audit(*MakeAlphaFunction("f1", 0.5), options);
///
/// The table must outlive the auditor. Thread-compatible (const methods).
class FairnessAuditor {
 public:
  explicit FairnessAuditor(const Table* table) : table_(table) {}

  /// Scores the table with `fn` and searches for the most unfair
  /// partitioning per `options`.
  StatusOr<AuditResult> Audit(const ScoringFunction& fn,
                              const AuditOptions& options) const;

  /// As Audit but with precomputed scores (one per row); useful when scores
  /// come from an external system rather than a ScoringFunction.
  StatusOr<AuditResult> AuditScores(std::vector<double> scores,
                                    const std::string& score_name,
                                    const AuditOptions& options) const;

  const Table& table() const { return *table_; }

 private:
  /// Resolves AuditOptions::protected_attributes to schema indices.
  StatusOr<std::vector<size_t>> ResolveProtectedAttributes(
      const AuditOptions& options) const;

  const Table* table_;
};

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_AUDITOR_H_
