// uniform_pairwise: closed-loop, single-threaded audits through
// FairnessAuditor::Audit, one audit per op.

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "decomposed_audit.h"
#include "fairness/auditor.h"
#include "harness.h"
#include "layers.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/scoring.h"

namespace ledger {

namespace {

using fairrank::AuditResult;
using fairrank::ScoringFunction;
using fairrank::StatusOr;

struct AuditOp {
  std::string kind;  ///< "<algorithm>/<function>", the digest key.
  const ScoringFunction* fn = nullptr;
  std::string algorithm;
};

struct AuditWorkload {
  std::vector<AuditOp> cycle;   ///< Timed ops, replayed in order.
  std::vector<AuditOp> warmup;  ///< Run once before timing, discarded.
  int setup_reps = 1;
};

fairrank::AuditOptions OptionsFor(const AuditOp& op) {
  fairrank::AuditOptions options;
  options.algorithm = op.algorithm;
  options.evaluator.num_threads = 1;
  return options;
}

/// Output checks every audit op must pass; returns "" or the reason.
std::string CheckAudit(const StatusOr<AuditResult>& result, const AuditOp& op,
                       size_t expected_rows) {
  if (!result.ok()) return "status: " + result.status().ToString();
  if (result->truncated) return op.kind + ": truncated";
  if (!std::isfinite(result->unfairness)) return op.kind + ": unfairness";
  size_t rows = 0;
  for (const fairrank::PartitionSummary& p : result->partitions) {
    rows += p.size;
  }
  if (rows != expected_rows) {
    return op.kind + ": partition sizes sum to " + std::to_string(rows) +
           ", expected " + std::to_string(expected_rows);
  }
  return "";
}

/// Digest of one audit's answer: unfairness bits and partition sizes.
uint64_t AuditDigest(const AuditResult& result) {
  uint64_t h = Fnv1a(&result.unfairness, sizeof(double), 0);
  for (const fairrank::PartitionSummary& p : result.partitions) {
    h = Fnv1a(&p.size, sizeof(p.size), h);
  }
  return h;
}

WorkloadResult RunAuditWorkload(const RunConfig& config,
                                const AuditWorkload& workload) {
  WorkloadResult out;
  std::vector<double> load_seconds;
  StatusOr<fairrank::Table> loaded =
      TimedCsvLoads(config.csv_path, workload.setup_reps, &load_seconds);
  if (!loaded.ok()) {
    out.Fail("csv load: " + loaded.status().ToString());
    return out;
  }
  const fairrank::Table& table = *loaded;
  const fairrank::FairnessAuditor auditor(&table);
  const size_t expected_rows =
      table.num_rows() + (config.corrupt_expectation ? 1 : 0);

  for (const AuditOp& op : workload.warmup) {
    std::string bad = CheckAudit(auditor.Audit(*op.fn, OptionsFor(op)), op,
                                 table.num_rows());
    if (!bad.empty()) out.Fail("warm-up " + bad);
  }

  Digests digests;
  OpTimes times;
  std::map<std::string, std::vector<double>> kind_ms;
  OpLayers layers;
  std::vector<double> overhead;
  const uint64_t start = NowNanos();
  size_t i = 0;
  while ((NowNanos() - start) / 1e9 < config.seconds) {
    const AuditOp& op = workload.cycle[i++ % workload.cycle.size()];
    const fairrank::AuditOptions options = OptionsFor(op);
    const uint64_t t0 = NowNanos();
    StatusOr<AuditResult> result = auditor.Audit(*op.fn, options);
    const uint64_t t1 = NowNanos();
    const double ms = (t1 - t0) / 1e6;
    ++out.attempted;
    times.Add(start, t0, t1);
    kind_ms[op.kind].push_back(ms);
    std::string bad = CheckAudit(result, op, expected_rows);
    if (bad.empty()) bad = digests.Check(op.kind, AuditDigest(*result));
    if (!bad.empty()) {
      out.Fail(bad);
      continue;
    }
    if (!config.trace) continue;

    // Traced twin of the op just timed: the same audit taken apart into
    // its public calls, each under a benchmark-side span.
    SpanLog log(true);
    DecomposedStats stats;
    const uint64_t t2 = NowNanos();
    StatusOr<AuditResult> decomposed = RunDecomposedAudit(
        table, *op.fn, options, &log, &stats);
    const double traced_ms = (NowNanos() - t2) / 1e6;
    ++out.attempted;
    if (!decomposed.ok()) {
      out.Fail("decomposed: " + decomposed.status().ToString());
      continue;
    }
    std::string diff = CompareWithAudit(*decomposed, *result);
    if (!diff.empty()) {
      out.Fail(op.kind + ": decomposed audit differs from Audit(): " + diff);
      continue;
    }
    overhead.push_back(traced_ms / ms - 1.0);
    OpSample sample = SampleOf(log);
    AddAuditCounts(stats, result->nodes_visited, &sample);
    layers.Add(std::move(sample));
  }
  const double elapsed = (NowNanos() - start) / 1e9;

  out.Set("setup_s", Median(load_seconds), "s");
  out.Set("data.csv_load_ms", Median(load_seconds) * 1e3, "ms");
  out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  SetLatencyMetrics({times}, GroupFor(times.size(), workload.cycle.size()),
                    elapsed, &out);
  ReportKindLatency(kind_ms, &out);
  if (config.trace) {
    out.Set("trace.overhead_pct", 100.0 * Median(overhead), "%");
    layers.Report(&out);
  }
  out.Prov("population", static_cast<double>(table.num_rows()));
  out.Prov("setup_reps", workload.setup_reps);
  out.Prov("suite_threads", 1);
  out.Prov("evaluator_threads", 1);
  out.Prov("ops_in_cycle", static_cast<double>(workload.cycle.size()));
  digests.Report(&out);
  return out;
}

}  // namespace

WorkloadResult RunUniformPairwise(const RunConfig& config) {
  // Table 2: balanced over the uniform population, f1..f5 in order. Every
  // audit ends near-full, so pairwise divergence does almost all the work.
  std::vector<std::unique_ptr<ScoringFunction>> fns =
      fairrank::MakePaperRandomFunctions();
  std::unique_ptr<ScoringFunction> warm = fairrank::MakeF6(config.seed);
  AuditWorkload workload;
  for (size_t i = 0; i < fns.size(); ++i) {
    workload.cycle.push_back(
        {"balanced/f" + std::to_string(i + 1), fns[i].get(), "balanced"});
  }
  // A near-full audit takes seconds; a cheap one warms code and table pages.
  workload.warmup.push_back({"balanced/f6", warm.get(), "balanced"});
  workload.setup_reps = 41;
  return RunAuditWorkload(config, workload);
}

}  // namespace ledger
