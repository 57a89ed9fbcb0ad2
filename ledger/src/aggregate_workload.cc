// aggregate_ingest: one op = score every row, ingest the scores into a cell
// store on two threads (so the shard merge runs), then audit the cells.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fairness/aggregate.h"
#include "harness.h"
#include "layers.h"
#include "marketplace/biased_scoring.h"

namespace ledger {

namespace {

using fairrank::AggregateAuditResult;
using fairrank::CellStore;
using fairrank::StatusOr;

constexpr int kIngestThreads = 2;

struct AggregateOp {
  std::string kind;
  const fairrank::ScoringFunction* fn = nullptr;
  std::vector<std::string> expect_attrs;  ///< Sorted; empty = none.
};

/// One op, optionally under spans. Returns "" or the failed check.
std::string RunOp(const fairrank::Table& table, const AggregateOp& op,
                  size_t expected_rows, SpanLog* log, uint64_t* digest,
                  size_t* cells, double* ingest_ms) {
  ScopedSpan root(log, "op");
  std::vector<double> scores;
  {
    ScopedSpan span(log, "marketplace.score", root.id());
    StatusOr<std::vector<double>> scored = op.fn->ScoreAll(table);
    if (!scored.ok()) return "score: " + scored.status().ToString();
    scores = std::move(scored).value();
  }
  fairrank::CellStoreIngestOptions ingest;
  ingest.num_threads = kIngestThreads;
  const uint64_t ingest_start = NowNanos();
  int64_t ingest_span = log->Begin("aggregate.ingest", root.id());
  StatusOr<CellStore> store =
      fairrank::BuildCellStoreParallel(table, scores, ingest);
  log->End(ingest_span);
  *ingest_ms = (NowNanos() - ingest_start) / 1e6;
  if (!store.ok()) return "ingest: " + store.status().ToString();
  StatusOr<AggregateAuditResult> audit = fairrank::Status::Internal("unset");
  {
    ScopedSpan span(log, "aggregate.audit", root.id());
    audit = fairrank::AuditAggregateBalanced(*store);
  }
  if (!audit.ok()) return "audit: " + audit.status().ToString();
  *cells = store->num_cells();

  if (!std::isfinite(audit->unfairness)) return op.kind + ": unfairness";
  size_t rows = 0;
  for (const fairrank::AggregatePartition& p : audit->partitions) {
    rows += p.size;
  }
  if (rows != expected_rows || store->num_observations() != expected_rows) {
    return op.kind + ": partition sizes sum to " + std::to_string(rows) +
           ", expected " + std::to_string(expected_rows);
  }
  if (!op.expect_attrs.empty()) {
    std::vector<std::string> used;
    for (size_t spec : audit->attributes_used) {
      used.push_back(store->specs()[spec].name());
    }
    std::sort(used.begin(), used.end());
    if (used != op.expect_attrs) return op.kind + ": unexpected attributes";
  }
  uint64_t h = Fnv1a(&audit->unfairness, sizeof(double), 0);
  for (const fairrank::AggregatePartition& p : audit->partitions) {
    h = Fnv1a(&p.size, sizeof(p.size), h);
  }
  *digest = h;
  return "";
}

/// "" when the two stores hold the same cells bit for bit.
std::string CompareStores(const CellStore& a, const CellStore& b) {
  if (a.num_observations() != b.num_observations()) return "observations";
  if (a.cells().size() != b.cells().size()) return "cell count";
  auto it = b.cells().begin();
  for (const auto& [key, cell] : a.cells()) {
    if (key != it->first) return "cell keys";
    if (cell.count != it->second.count) return "cell counts";
    const std::vector<double>& x = cell.histogram.counts();
    const std::vector<double>& y = it->second.histogram.counts();
    if (x.size() != y.size() ||
        std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) != 0) {
      return "cell histograms";
    }
    ++it;
  }
  return "";
}

}  // namespace

WorkloadResult RunAggregateIngest(const RunConfig& config) {
  WorkloadResult out;
  std::vector<double> load_seconds;
  StatusOr<fairrank::Table> loaded =
      TimedCsvLoads(config.csv_path, 3, &load_seconds);
  if (!loaded.ok()) {
    out.Fail("csv load: " + loaded.status().ToString());
    return out;
  }
  const fairrank::Table& table = *loaded;
  const size_t expected_rows =
      table.num_rows() + (config.corrupt_expectation ? 1 : 0);

  // f6..f9 only: a uniform function's cell audit takes ~400 ms on the full
  // cell space at any population, which would make the ops bimodal.
  std::vector<std::unique_ptr<fairrank::ScoringFunction>> fns =
      fairrank::MakePaperBiasedFunctions(config.seed);
  std::vector<AggregateOp> cycle;
  for (size_t i = 0; i < fns.size(); ++i) {
    std::vector<std::string> expect;
    if (i == 0) expect = {"Gender"};
    if (i == 1) expect = {"Country", "Gender"};
    cycle.push_back({"aggregate/f" + std::to_string(i + 6), fns[i].get(),
                     expect});
  }

  // Outside the timed loop: the two-thread store must equal a serial one.
  for (const AggregateOp& op : cycle) {
    StatusOr<std::vector<double>> scores = op.fn->ScoreAll(table);
    if (!scores.ok()) {
      out.Fail("score: " + scores.status().ToString());
      continue;
    }
    fairrank::CellStoreIngestOptions serial;
    fairrank::CellStoreIngestOptions sharded;
    sharded.num_threads = kIngestThreads;
    StatusOr<CellStore> a = fairrank::BuildCellStoreParallel(table, *scores,
                                                             serial);
    StatusOr<CellStore> b = fairrank::BuildCellStoreParallel(table, *scores,
                                                             sharded);
    ++out.attempted;
    if (!a.ok() || !b.ok()) {
      out.Fail(op.kind + ": ingest failed");
      continue;
    }
    std::string diff = CompareStores(*a, *b);
    if (!diff.empty()) out.Fail(op.kind + ": sharded store differs: " + diff);
  }

  // Warm-up: one op per function, discarded.
  SpanLog off(false);
  for (const AggregateOp& op : cycle) {
    uint64_t digest = 0;
    size_t cells = 0;
    double ingest_ms = 0.0;
    std::string bad = RunOp(table, op, table.num_rows(), &off, &digest,
                            &cells, &ingest_ms);
    if (!bad.empty()) out.Fail("warm-up " + bad);
  }

  Digests digests;
  OpTimes times;
  std::map<std::string, std::vector<double>> kind_ms;
  OpLayers layers;
  std::vector<double> overhead;
  double last_untraced_ms = 0.0;
  const uint64_t start = NowNanos();
  size_t i = 0;
  while ((NowNanos() - start) / 1e9 < config.seconds) {
    // Traced runs alternate an untraced op with its traced twin on the
    // same function.
    const bool traced = config.trace && i % 2 == 1;
    const AggregateOp& op = cycle[(config.trace ? i / 2 : i) % cycle.size()];
    ++i;
    SpanLog log(traced);
    uint64_t digest = 0;
    size_t cells = 0;
    double ingest_ms = 0.0;
    const uint64_t t0 = NowNanos();
    std::string bad =
        RunOp(table, op, expected_rows, &log, &digest, &cells, &ingest_ms);
    const uint64_t t1 = NowNanos();
    const double ms = (t1 - t0) / 1e6;
    ++out.attempted;
    if (bad.empty()) bad = digests.Check(op.kind, digest);
    if (!bad.empty()) {
      out.Fail(bad);
      continue;
    }
    if (!traced) {
      times.Add(start, t0, t1);
      kind_ms[op.kind].push_back(ms);
      last_untraced_ms = ms;
      continue;
    }
    overhead.push_back(ms / last_untraced_ms - 1.0);
    OpSample sample = SampleOf(log);
    sample.counts["aggregate.cells"] = static_cast<double>(cells);
    sample.counts["aggregate.ingest_rows_per_s"] =
        static_cast<double>(table.num_rows()) / (ingest_ms / 1e3);
    layers.Add(std::move(sample));
  }
  const double elapsed = (NowNanos() - start) / 1e9;

  out.Set("setup_s", Median(load_seconds), "s");
  out.Set("data.csv_load_ms", Median(load_seconds) * 1e3, "ms");
  out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  SetLatencyMetrics({times}, GroupFor(times.size(), cycle.size()), elapsed,
                    &out);
  ReportKindLatency(kind_ms, &out);
  if (config.trace) {
    out.Set("trace.overhead_pct", 100.0 * Median(overhead), "%");
    layers.Report(&out);
  }
  out.Prov("population", static_cast<double>(table.num_rows()));
  out.Prov("setup_reps", 3);
  out.Prov("ingest_threads", kIngestThreads);
  out.Prov("ops_in_cycle", static_cast<double>(cycle.size()));
  digests.Report(&out);
  return out;
}

}  // namespace ledger
