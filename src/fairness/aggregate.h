#ifndef FAIRRANK_FAIRNESS_AGGREGATE_H_
#define FAIRRANK_FAIRNESS_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/status.h"
#include "data/attribute.h"
#include "data/table.h"
#include "fairness/auditor.h"
#include "stats/histogram.h"

namespace fairrank {

/// Audit from aggregates: per-demographic-cell score histograms are a
/// *sufficient statistic* for every partitioning the search space contains
/// — any partition is a union of cells and its histogram is the bin-wise
/// sum — so every search algorithm can run without retaining a single
/// individual record. Use cases: privacy-constrained audits (only
/// aggregate counts leave the platform), continuous audits over streams,
/// and million-worker audits whose ingest is the only O(n) stage
/// (BuildCellStoreParallel below).
///
/// CellStore accumulates the cells; AuditAggregate runs any registered
/// PartitioningAlgorithm on a table whose rows are the cells and provably
/// matches the row-level audit with the same bin configuration (tested for
/// every algorithm in aggregate_test).

/// One demographic cell: the score histogram of every observation whose
/// protected-group vector equals the cell key, plus the *exact* number of
/// observations behind it. The count is tracked separately from histogram
/// mass on purpose — out-of-range scores clamped into edge bins (or, later,
/// sketch mass) keep `histogram.total()` an unreliable population count
/// while `count` stays exact.
struct StoreCell {
  Histogram histogram;
  size_t count = 0;

  StoreCell(int num_bins, double score_lo, double score_hi)
      : histogram(num_bins, score_lo, score_hi) {}
};

class CellStore {
 public:
  /// Validating factory: requires at least one attribute spec (each
  /// internally consistent per AttributeSpec::Validate), num_bins >= 1 and
  /// score_lo < score_hi. The previously unchecked constructor let
  /// degenerate bin configs through and every Add built broken Histograms;
  /// use Make on any untrusted configuration.
  static StatusOr<CellStore> Make(std::vector<AttributeSpec> protected_specs,
                                  int num_bins, double score_lo,
                                  double score_hi);

  /// Unchecked constructor for trusted callers (asserts the Make
  /// invariants, mirroring Histogram's constructor/factory split).
  CellStore(std::vector<AttributeSpec> protected_specs, int num_bins,
            double score_lo, double score_hi);

  /// Adds one observation for the worker whose protected attribute groups
  /// are `groups` (one group index per spec, in spec order). Fails on a
  /// wrong arity, an out-of-range group or a non-finite score, leaving the
  /// store unchanged.
  Status Add(const std::vector<int>& groups, double score);

  /// Convenience: adds row `row` of `table` (whose schema must contain
  /// every spec attribute by name) with the given score. Resolves column
  /// indices by name per call — fine for tests and small batches; bulk
  /// ingest goes through BuildCellStoreParallel.
  Status AddRow(const Table& table, size_t row, double score);

  /// Installs-or-merges one whole cell: `histogram` must match the store's
  /// bin configuration and `count` is the exact observation count behind
  /// it. The building block shard conversion and MergeFrom share.
  Status MergeCell(const std::vector<int>& groups, const Histogram& histogram,
                   size_t count);

  /// Histogram-wise merge of a compatible store: every cell of `other` is
  /// added into this store (bin-wise histogram sums, exact count sums).
  /// Fails with InvalidArgument — naming the mismatch — unless both stores
  /// share the attribute specs (count, names, group cardinalities) and the
  /// bin configuration (num_bins, score_lo, score_hi). All observation
  /// weights are 1.0 and bin counts stay far below 2^53, so merged bin
  /// counts are exact integers and the merged store is bit-identical to
  /// serial ingestion regardless of shard boundaries or merge order.
  Status MergeFrom(const CellStore& other);

  size_t num_cells() const { return cells_.size(); }
  size_t num_observations() const { return observations_; }
  const std::vector<AttributeSpec>& specs() const { return specs_; }
  int num_bins() const { return num_bins_; }
  double score_lo() const { return score_lo_; }
  double score_hi() const { return score_hi_; }

  /// Read-only view of the cells (key = group vector).
  const std::map<std::vector<int>, StoreCell>& cells() const { return cells_; }

 private:
  /// Arity and per-attribute group-range check shared by Add/MergeCell.
  Status CheckKey(const std::vector<int>& groups) const;

  std::vector<AttributeSpec> specs_;
  int num_bins_;
  double score_lo_;
  double score_hi_;
  std::map<std::vector<int>, StoreCell> cells_;
  size_t observations_ = 0;
};

/// Configuration of BuildCellStoreParallel.
struct CellStoreIngestOptions {
  /// Histogram bin configuration, as in EvaluatorOptions: equal-width bins
  /// over [score_lo, score_hi].
  int num_bins = 10;
  double score_lo = 0.0;
  double score_hi = 1.0;
  /// Ingest worker threads (one CellStore shard per thread, no locks on the
  /// add path). <= 0 means HardwareThreads(); 1 is fully serial. Results
  /// are bit-identical across thread counts.
  int num_threads = 1;
  /// Attribute names to build cells over; empty = every attribute the
  /// table's schema marks protected, in schema order.
  std::vector<std::string> protected_attributes;
};

/// Sharded, parallel cell-store ingestion: splits the table's rows into one
/// contiguous range per shard, accumulates each shard on its own worker
/// thread (ParallelForEach pool; the shard accumulators are thread-private,
/// so the add path takes no locks), then merges the shards with
/// CellStore::MergeFrom in shard order. The result is bit-identical to
/// serial ingestion (see MergeFrom).
///
/// Bounded like every other stage: charges shard memory to the context's
/// ResourceBudget, checks the Deadline / cancellation between row blocks,
/// records an "ingest" trace span (with an "ingest_merge" child) when the
/// context carries a sampled trace, and bumps the fairrank_ingest_* metrics.
/// A failing shard surfaces exactly one Status (lowest shard index wins,
/// deterministically) without poisoning sibling shards.
///
/// `scores` must hold one score per table row.
StatusOr<CellStore> BuildCellStoreParallel(
    const Table& table, const std::vector<double>& scores,
    const CellStoreIngestOptions& options = CellStoreIngestOptions(),
    const ExecutionContext& context = ExecutionContext::Unbounded());

/// One partition of an aggregate audit: its label, histogram, and how many
/// workers it covers.
struct AggregatePartition {
  /// PartitionLabel over the store's attributes: "Gender=Male &
  /// Country=India", "<all>", or merged cells joined by " | ".
  std::string label;
  Histogram histogram;
  /// Exact observation count (sum of the member cells' counts) — not
  /// histogram mass, which clamping or sketches can distort.
  size_t size = 0;

  AggregatePartition() : histogram(1, 0.0, 1.0) {}
};

/// Result of an aggregate audit. Partitions are in the order the search
/// returned them.
struct AggregateAuditResult {
  std::string algorithm;
  std::vector<AggregatePartition> partitions;
  double unfairness = 0.0;
  /// Spec indices used by any partition's path, in first-appearance order
  /// (split order for balanced).
  std::vector<size_t> attributes_used;
  /// As in AuditResult: a truncated answer is the best partitioning the
  /// search found before the context's deadline, cancellation or budget.
  bool truncated = false;
  ExhaustionReason exhaustion_reason = ExhaustionReason::kNone;
  uint64_t nodes_visited = 0;
};

/// Runs `options.algorithm` (resolved with MakeAlgorithmByName, using the
/// options' seed, beam width and exhaustive budget) on the store's cells.
/// The cells become the rows of a table with one categorical attribute per
/// store spec, and each row contributes its cell's histogram
/// (UnfairnessEvaluator::MakeFromHistograms). Like AuditScores, the search
/// evaluator is bounded by `context` and the reporting one is not.
///
/// The store fixes the bin configuration; `options.evaluator` supplies the
/// divergence, sibling comparison and threads.
/// `options.protected_attributes` restricts the search to the named specs
/// (empty = all). `options.limits` is not read: `context` carries the
/// bounds. Partition sizes come from the cells' exact counts and are
/// verified to sum to store.num_observations() (Internal error on desync).
StatusOr<AggregateAuditResult> AuditAggregate(
    const CellStore& store, const AuditOptions& options,
    const ExecutionContext& context = ExecutionContext::Unbounded());

/// Run metadata the aggregate formatters render alongside the result (the
/// CellStore itself carries no timing or provenance).
struct AggregateReportInfo {
  std::string scoring_function;
  std::string divergence = "emd";
  int ingest_threads = 1;
  double ingest_seconds = 0.0;
  double audit_seconds = 0.0;
};

/// One aggregate audit end to end: the cell store, its audit, and the run
/// metadata a report prints next to them.
struct AggregateAudit {
  CellStore store;
  AggregateAuditResult result;
  AggregateReportInfo info;
};

/// The aggregate route of `fairaudit audit --aggregate` and
/// `/audit?aggregate=1`: scores every row of `table` with `fn`, ingests the
/// scores with BuildCellStoreParallel (the evaluator's bin configuration,
/// `options.evaluator.num_threads` shards with <= 0 = HardwareThreads(),
/// `options.protected_attributes`) and runs AuditAggregate on the store.
/// Ingest and audit share one budget and context built from
/// `options.limits`.
StatusOr<AggregateAudit> RunAggregateAudit(const Table& table,
                                           const ScoringFunction& fn,
                                           const AuditOptions& options);

/// AuditAggregate with the balanced algorithm and `divergence`, for callers
/// that predate it.
StatusOr<AggregateAuditResult> AuditAggregateBalanced(
    const CellStore& store, const std::string& divergence = "emd",
    const ExecutionContext& context = ExecutionContext::Unbounded());

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_AGGREGATE_H_
