#ifndef FAIRRANK_FAIRNESS_SUITE_H_
#define FAIRRANK_FAIRNESS_SUITE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "fairness/auditor.h"

namespace fairrank {

/// Configuration of a comparative audit grid (the shape of the paper's
/// Tables 1-3: rows = algorithms, columns = scoring functions).
struct SuiteOptions {
  /// The template every cell audits with. Cell (a, f) runs a copy with
  /// three fields replaced: `algorithm` (row a), `seed` (offset to
  /// seed + f, so every algorithm sees the same randomized stream per
  /// function) and `num_worst_pairs` (0: the grid reports none).
  ///
  /// `limits` bound the whole grid, not each cell. The deadline is
  /// *shared*: it is armed once before the first cell, so a 10s timeout
  /// bounds the grid (late cells degrade to truncated best-so-far answers,
  /// keeping the grid complete). When both a pre-armed finite `deadline`
  /// and a positive `timeout_ms` are supplied, the *earlier* of the two
  /// wins. The node/memory budgets bound the *aggregate* work of all cells:
  /// every cell charges one shared hierarchical budget, and cells reached
  /// after exhaustion degrade to truncated best-so-far answers.
  AuditOptions audit;
  /// Algorithm names; empty means the paper's five (PaperAlgorithmNames).
  std::vector<std::string> algorithms;
  /// Worker threads for the grid itself: cells are dispatched onto a
  /// dynamically scheduled pool (ParallelForEach), results assembled in
  /// deterministic (algorithm, function) order regardless of completion
  /// order. 1 = serial (default). For deterministic algorithms results are
  /// bit-identical across thread counts.
  int num_threads = 1;
};

/// One (algorithm, function) cell of the grid.
struct SuiteCell {
  std::string algorithm;
  std::string function;
  double unfairness = 0.0;
  double seconds = 0.0;
  size_t num_partitions = 0;
  std::vector<std::string> attributes_used;
  bool truncated = false;  ///< Search stopped early; see AuditResult.
  /// Why the search truncated; kNone when it ran to completion.
  ExhaustionReason exhaustion_reason = ExhaustionReason::kNone;
  uint64_t nodes_visited = 0;  ///< Search work; see AuditResult.
  double nodes_per_sec = 0.0;  ///< Search throughput of this cell.
  /// Work counters of this cell's audit (search + reporting).
  EvalCacheStats cache;
  /// Non-OK when this cell's audit failed: the failure degrades the cell
  /// (rendered as ERR, metrics zeroed), never the grid — completed cells
  /// are always kept.
  Status error = Status::OK();
};

/// Grid-level observability: what the whole suite cost and how it degraded.
struct SuiteSummary {
  double wall_seconds = 0.0;   ///< Wall-clock of the whole grid run.
  double cell_seconds = 0.0;   ///< Sum of per-cell audit runtimes (the
                               ///< serial-equivalent cost; cell_seconds /
                               ///< wall_seconds ~ parallel speedup).
  uint64_t total_nodes = 0;    ///< Aggregate search work across all cells.
  double nodes_per_sec = 0.0;  ///< total_nodes / wall_seconds.
  size_t cells_truncated = 0;  ///< Cells whose search stopped early.
  size_t cells_failed = 0;     ///< Cells carrying a non-OK SuiteCell::error.
  /// Work counters summed over every cell.
  EvalCacheStats cache;
};

/// A full grid of audits.
struct SuiteResult {
  std::vector<std::string> algorithms;           ///< Row labels.
  std::vector<std::string> functions;            ///< Column labels.
  std::vector<std::vector<SuiteCell>> cells;     ///< [algorithm][function].
  SuiteSummary summary;
};

/// Runs every algorithm against every function on one table — the
/// programmatic form of the paper's evaluation; bench/table* are thin
/// wrappers over this.
class AuditSuite {
 public:
  /// `table` must outlive the suite.
  explicit AuditSuite(const Table* table) : table_(table) {}

  /// Runs the grid: cells are scheduled onto SuiteOptions::num_threads
  /// workers under one shared deadline and one shared hierarchical budget.
  /// A failing cell is captured in SuiteCell::error and never aborts the
  /// grid; a non-OK return is reserved for invalid configuration
  /// (empty/null functions, unknown algorithm names).
  /// Functions are borrowed, not owned.
  StatusOr<SuiteResult> Run(
      const std::vector<const ScoringFunction*>& functions,
      const SuiteOptions& options = SuiteOptions()) const;

 private:
  const Table* table_;
};

/// Renders the "Average EMD" (unfairness) table of a suite result. Failed
/// cells render as ERR.
std::string FormatSuiteUnfairness(const SuiteResult& result);

/// Renders the "time (in secs)" table of a suite result. Failed cells
/// render as ERR.
std::string FormatSuiteRuntime(const SuiteResult& result);

/// Renders the grid as RFC-4180 CSV rows:
/// algorithm,function,unfairness,seconds,num_partitions,attributes,
/// truncated,exhaustion_reason,nodes_visited,nodes_per_sec,
/// histograms_built,divergences_computed,error. Every field is CsvEscape'd.
std::string FormatSuiteCsv(const SuiteResult& result);

/// Renders the suite-level summary (wall time, serial-equivalent time,
/// total nodes, histograms built and divergences computed, truncated/failed
/// counts) as text lines.
std::string FormatSuiteSummary(const SuiteResult& result);

/// The summary as a one-row CSV block (header + row), for appending to the
/// FormatSuiteCsv output.
std::string FormatSuiteSummaryCsv(const SuiteResult& result);

/// The full grid plus summary as a JSON object.
std::string FormatSuiteJson(const SuiteResult& result);

}  // namespace fairrank

#endif  // FAIRRANK_FAIRNESS_SUITE_H_
