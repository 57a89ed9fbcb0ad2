// scaling_millions — the million-worker scaling trajectory, measured.
//
// The paper audits 7,300 workers; the cell-store sufficient statistic is
// what carries the audit past that ceiling (DESIGN.md §12). This harness
// synthesizes 1M/5M/10M workers via marketplace/generator, then for each
// population measures the only O(n) stage left — ingest — three ways:
//
//   serial:      the CellStore::AddRow loop (per-row schema lookups), the
//                path tests and small batches use.
//   parallel 1t: BuildCellStoreParallel with one thread — the sharded fast
//                path (precomputed columns, dense mixed-radix cells) minus
//                any parallelism.
//   parallel Nt: BuildCellStoreParallel with FAIRRANK_INGEST_THREADS
//                (default 8) shards.
//
// For every size the sharded store is verified against serial ingest —
// identical cell/observation counts, audit unfairness within 1e-9, same
// partition count — and the harness dies if they diverge: a scaling number
// for a broken equivalence would be worthless. (tests/aggregate_test.cc
// enforces the same property bit-identically.) In `--smoke` mode it also
// dies unless the cell audits of balanced and unbalanced on f6 and f7 equal
// the row-level FairnessAuditor bit for bit, so the CI smoke job guards the
// search engine rows and cells share.
//
// Prints a table and writes BENCH_scaling_millions.json with per-size rows
// and the headline `speedup_vs_serial` (parallel Nt vs serial at the
// largest size). `hardware_threads` records the machine the numbers came
// from — on a single-core runner the speedup is carried by the fast path
// alone, and thread scaling adds on top on real hardware.
//
// `--smoke` shrinks to one ~100k-worker size (the CI artifact job);
// FAIRRANK_WORKERS=<n> pins a single custom size.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "fairness/aggregate.h"
#include "fairness/auditor.h"
#include "fairness/report.h"
#include "marketplace/biased_scoring.h"

namespace fairrank {
namespace {

using bench::kDataSeed;
using bench::MakeWorkers;
using bench::SizeFromEnv;

struct SizeResult {
  size_t workers = 0;
  double serial_rows_per_sec = 0.0;
  double parallel_1t_rows_per_sec = 0.0;
  double parallel_nt_rows_per_sec = 0.0;
  double speedup_vs_serial = 0.0;
  double audit_seconds = 0.0;
  double unfairness = 0.0;
  size_t num_cells = 0;
  double max_abs_unfairness_delta = 0.0;
};

[[noreturn]] void Die(const char* what, const Status& status) {
  std::fprintf(stderr, "scaling_millions: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

AuditOptions BalancedOptions() {
  AuditOptions options;
  options.algorithm = "balanced";
  return options;
}

/// Dies unless every cell audit below equals the row audit of the same
/// scores bit for bit: unfairness, partition labels and sizes in order.
void CheckCellAuditsMatchRows(const Table& workers) {
  FairnessAuditor auditor(&workers);
  std::vector<std::unique_ptr<ScoringFunction>> functions;
  functions.push_back(MakeF6(kDataSeed));
  functions.push_back(MakeF7(kDataSeed));
  for (const auto& fn : functions) {
    StatusOr<std::vector<double>> scores = fn->ScoreAll(workers);
    if (!scores.ok()) Die("scoring failed", scores.status());
    StatusOr<CellStore> store = BuildCellStoreParallel(workers, *scores);
    if (!store.ok()) Die("ingest failed", store.status());
    for (const char* algorithm : {"balanced", "unbalanced"}) {
      AuditOptions options;
      options.algorithm = algorithm;
      StatusOr<AuditResult> rows =
          auditor.AuditScores(*scores, fn->Name(), options);
      if (!rows.ok()) Die("row audit failed", rows.status());
      StatusOr<AggregateAuditResult> cells = AuditAggregate(*store, options);
      if (!cells.ok()) Die("cell audit failed", cells.status());
      bool same = SameBits(rows->unfairness, cells->unfairness) &&
                  rows->partitioning.size() == cells->partitions.size();
      for (size_t i = 0; same && i < cells->partitions.size(); ++i) {
        const Partition& row = rows->partitioning[i];
        const AggregatePartition& cell = cells->partitions[i];
        same = cell.size == row.size() &&
               cell.label == PartitionLabel(workers.schema(), row);
      }
      if (!same) {
        std::fprintf(stderr,
                     "scaling_millions: %s cell audit of %s differs from the "
                     "row audit (%.17g vs %.17g, %zu vs %zu partitions)\n",
                     algorithm, fn->Name().c_str(), cells->unfairness,
                     rows->unfairness, cells->partitions.size(),
                     rows->partitioning.size());
        std::exit(1);
      }
      std::printf("%s/%s: cell audit == row audit (%.6f, %zu partitions)\n",
                  fn->Name().c_str(), algorithm, cells->unfairness,
                  cells->partitions.size());
    }
  }
}

SizeResult RunOneSize(size_t n, int threads, bool check_rows) {
  SizeResult out;
  out.workers = n;
  std::printf("generating %zu workers (seed %llu)...\n", n,
              static_cast<unsigned long long>(kDataSeed));
  Table workers = MakeWorkers(n);
  if (check_rows) CheckCellAuditsMatchRows(workers);
  auto f6 = MakeF6(kDataSeed);
  StatusOr<std::vector<double>> scores = f6->ScoreAll(workers);
  if (!scores.ok()) Die("scoring failed", scores.status());

  // Serial baseline: the AddRow loop over the validated store.
  StatusOr<CellStore> serial = CellStore::Make(
      [&workers] {
        std::vector<AttributeSpec> specs;
        for (size_t i : workers.schema().ProtectedIndices()) {
          specs.push_back(workers.schema().attribute(i));
        }
        return specs;
      }(),
      10, 0.0, 1.0);
  if (!serial.ok()) Die("store construction failed", serial.status());
  Stopwatch serial_watch;
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    Status added = serial->AddRow(workers, row, (*scores)[row]);
    if (!added.ok()) Die("serial ingest failed", added);
  }
  double serial_seconds = serial_watch.ElapsedSeconds();
  out.serial_rows_per_sec =
      serial_seconds > 0 ? static_cast<double>(n) / serial_seconds : 0;

  // Sharded ingest, 1 thread then N threads.
  CellStoreIngestOptions one_thread;
  one_thread.num_threads = 1;
  Stopwatch one_watch;
  StatusOr<CellStore> parallel_1t =
      BuildCellStoreParallel(workers, *scores, one_thread);
  double one_seconds = one_watch.ElapsedSeconds();
  if (!parallel_1t.ok()) Die("1-thread ingest failed", parallel_1t.status());
  out.parallel_1t_rows_per_sec =
      one_seconds > 0 ? static_cast<double>(n) / one_seconds : 0;

  CellStoreIngestOptions n_threads;
  n_threads.num_threads = threads;
  Stopwatch n_watch;
  StatusOr<CellStore> parallel_nt =
      BuildCellStoreParallel(workers, *scores, n_threads);
  double n_seconds = n_watch.ElapsedSeconds();
  if (!parallel_nt.ok()) Die("N-thread ingest failed", parallel_nt.status());
  out.parallel_nt_rows_per_sec =
      n_seconds > 0 ? static_cast<double>(n) / n_seconds : 0;
  out.speedup_vs_serial = n_seconds > 0 ? serial_seconds / n_seconds : 0;

  // Equivalence gate: the numbers are only worth printing if the sharded
  // store reproduces the serial audit.
  if (parallel_nt->num_cells() != serial->num_cells() ||
      parallel_nt->num_observations() != serial->num_observations()) {
    std::fprintf(stderr,
                 "scaling_millions: sharded store diverged from serial "
                 "(%zu/%zu cells, %zu/%zu observations)\n",
                 parallel_nt->num_cells(), serial->num_cells(),
                 parallel_nt->num_observations(), serial->num_observations());
    std::exit(1);
  }
  StatusOr<AggregateAuditResult> serial_audit =
      AuditAggregate(*serial, BalancedOptions());
  if (!serial_audit.ok()) Die("serial audit failed", serial_audit.status());
  Stopwatch audit_watch;
  StatusOr<AggregateAuditResult> audit =
      AuditAggregate(*parallel_nt, BalancedOptions());
  out.audit_seconds = audit_watch.ElapsedSeconds();
  if (!audit.ok()) Die("audit failed", audit.status());
  out.max_abs_unfairness_delta =
      std::fabs(audit->unfairness - serial_audit->unfairness);
  if (out.max_abs_unfairness_delta > 1e-9 ||
      audit->partitions.size() != serial_audit->partitions.size()) {
    std::fprintf(stderr,
                 "scaling_millions: sharded audit diverged from serial "
                 "(delta %.3g, %zu vs %zu partitions)\n",
                 out.max_abs_unfairness_delta, audit->partitions.size(),
                 serial_audit->partitions.size());
    std::exit(1);
  }
  out.unfairness = audit->unfairness;
  out.num_cells = parallel_nt->num_cells();
  return out;
}

}  // namespace
}  // namespace fairrank

int main(int argc, char** argv) {
  using namespace fairrank;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int threads =
      static_cast<int>(SizeFromEnv("FAIRRANK_INGEST_THREADS", 8));
  std::vector<size_t> sizes;
  const size_t override_n = SizeFromEnv("FAIRRANK_WORKERS", 0);
  if (override_n > 0) {
    sizes = {override_n};
  } else if (smoke) {
    sizes = {100000};
  } else {
    sizes = {1000000, 5000000, 10000000};
  }

  std::printf("ingest_threads=%d hardware_threads=%d%s\n", threads,
              HardwareThreads(), smoke ? " (smoke)" : "");
  std::vector<SizeResult> results;
  for (size_t n : sizes) results.push_back(RunOneSize(n, threads, smoke));

  TextTable table;
  table.SetHeader({"workers", "serial rows/s", "1t rows/s",
                   std::to_string(threads) + "t rows/s", "speedup",
                   "audit s", "cells"});
  for (const SizeResult& r : results) {
    table.AddRow({std::to_string(r.workers),
                  FormatDouble(r.serial_rows_per_sec, 0),
                  FormatDouble(r.parallel_1t_rows_per_sec, 0),
                  FormatDouble(r.parallel_nt_rows_per_sec, 0),
                  FormatDouble(r.speedup_vs_serial, 2),
                  FormatDouble(r.audit_seconds, 3),
                  std::to_string(r.num_cells)});
  }
  std::printf("%s", table.ToString().c_str());

  std::string json = "{";
  json += "\"bench\":\"scaling_millions\",";
  json += "\"smoke\":";
  json += smoke ? "true" : "false";
  json += ",";
  json += "\"ingest_threads\":" + std::to_string(threads) + ",";
  json += "\"hardware_threads\":" + std::to_string(HardwareThreads()) + ",";
  json += "\"speedup_vs_serial\":" +
          FormatDouble(results.back().speedup_vs_serial, 2) + ",";
  json += "\"sizes\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    if (i > 0) json += ",";
    json += "{\"workers\":" + std::to_string(r.workers) + ",";
    json += "\"serial_rows_per_sec\":" +
            FormatDouble(r.serial_rows_per_sec, 0) + ",";
    json += "\"parallel_1t_rows_per_sec\":" +
            FormatDouble(r.parallel_1t_rows_per_sec, 0) + ",";
    json += "\"parallel_rows_per_sec\":" +
            FormatDouble(r.parallel_nt_rows_per_sec, 0) + ",";
    json += "\"speedup_vs_serial\":" +
            FormatDouble(r.speedup_vs_serial, 2) + ",";
    json += "\"audit_seconds\":" + FormatDouble(r.audit_seconds, 4) + ",";
    json += "\"unfairness\":" + FormatDouble(r.unfairness, 6) + ",";
    json += "\"num_cells\":" + std::to_string(r.num_cells) + ",";
    json += "\"max_abs_unfairness_delta\":" +
            FormatDouble(r.max_abs_unfairness_delta, 12) + "}";
  }
  json += "]}";

  const char* out_path = "BENCH_scaling_millions.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "scaling_millions: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(out, "%s\n", json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
