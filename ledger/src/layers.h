#ifndef FAIRRANK_LEDGER_SRC_LAYERS_H_
#define FAIRRANK_LEDGER_SRC_LAYERS_H_

// Per-layer numbers of the traced run: per-op span totals and self times,
// grouped into the library's modules, plus the end-to-end latency metrics
// and the determinism digests every workload shares.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "decomposed_audit.h"
#include "harness.h"

namespace ledger {

/// One traced op: span totals and self times by span name, and counters.
struct OpSample {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::map<std::string, double> counts;
};

/// Span totals and self times of one traced op.
OpSample SampleOf(const SpanLog& log);

/// Collects traced ops and reports per-op medians.
class OpLayers {
 public:
  void Add(OpSample sample) { samples_.push_back(std::move(sample)); }
  /// Emits `<span>_ms` (median per op) for every span name, every counter,
  /// `layer.<module>.self_ms` and `layer.<module>.share` per module, and
  /// `work.<kind>.share` per kind of work (WorkOf), and names the module
  /// and the kind of work with the largest share of op time.
  void Report(WorkloadResult* out) const;

 private:
  std::vector<OpSample> samples_;
};

/// The module a span name belongs to ("search.run" -> "fairness.search").
std::string LayerOf(const std::string& span_name);

/// The kind of work a span's self time is: pairwise_divergence,
/// search_row_work, ingest_scoring, serving, cache_teardown or other.
std::string WorkOf(const std::string& span_name);

/// Adds one decomposed audit's counters (search and report evaluator
/// caches, pairs) to `sample`, and splits search.run's self time into
/// search.pairwise, a floor on its pairwise work (every divergence the
/// search looked up, priced at the cost of one cache hit as the same op's
/// report.top_pairs measured it), and search.rowwork, the rest: splitting
/// rows, building histograms, selecting attributes.
void AddAuditCounts(const DecomposedStats& stats, uint64_t nodes,
                    OpSample* sample);

/// Start and end of every timed op, in seconds from the timed phase's start.
struct OpTimes {
  std::vector<double> start_s;
  std::vector<double> end_s;
  void Add(uint64_t phase_start_ns, uint64_t op_start_ns, uint64_t op_end_ns) {
    start_s.push_back((op_start_ns - phase_start_ns) / 1e9);
    end_s.push_back((op_end_ns - phase_start_ns) / 1e9);
  }
  size_t size() const { return start_s.size(); }
};

/// ops_per_s: the number of clients times the median, over consecutive
/// groups of `group` ops of one client (one replay of the workload's op
/// cycle), of the group's ops per second of wall time. A replay of the
/// cycle is the workload's unit of homogeneous work, so the median neither
/// mixes op kinds nor lets a second the host stalls dent a mean.
/// op_p50_ms, and op_p90_ms from 100 ops and op_p99_ms from 1,000 ops on,
/// each with its sample count in the provenance.
void SetLatencyMetrics(const std::vector<OpTimes>& clients, size_t group,
                       double elapsed_s, WorkloadResult* out);

/// The op cycle as the ops_per_s group when the run holds at least three
/// replays of it, else single ops.
size_t GroupFor(size_t ops, size_t cycle);

/// Median latency per op kind, as the provenance entry `kind_p50_ms`.
void ReportKindLatency(const std::map<std::string, std::vector<double>>& ms,
                       WorkloadResult* out);

/// Per-kind digests of op outputs: every op of one kind must produce the
/// first one's digest, and the set is printed so runs with one seed can be
/// compared.
class Digests {
 public:
  /// "" when `digest` is the kind's first or equals it; else the reason.
  std::string Check(const std::string& kind, uint64_t digest);
  void Report(WorkloadResult* out) const;

 private:
  std::map<std::string, uint64_t> first_;
};

}  // namespace ledger

#endif  // FAIRRANK_LEDGER_SRC_LAYERS_H_
