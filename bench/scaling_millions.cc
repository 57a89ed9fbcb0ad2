// scaling_millions — the million-worker trajectory of the aggregate route.
//
// The paper audits 7,300 workers; the cell-store sufficient statistic is
// what carries the audit past that ceiling (DESIGN.md §12). This harness
// synthesizes 1M/5M/10M workers via marketplace/generator, scores them with
// f6, and for each population times the two stages of the aggregate route:
// BuildCellStoreParallel (the only O(n) stage left) and the balanced
// AuditAggregate over the cells. Both run once on 1 thread and once on
// HardwareThreads() threads.
//
// The harness dies unless the N-thread store equals the 1-thread store bit
// for bit (same cells, counts, bin and clamped-mass doubles) and the two
// audits agree bit for bit (unfairness, partition labels, sizes and
// histograms): a timing of a broken equivalence would be worthless.
//
// Prints a table and writes BENCH_scaling_millions.json, whose "runs" hold
// one entry per size and thread count. `hardware_threads` records the machine the numbers
// came from: on a 1-thread host there is no N-thread leg.
//
// FAIRRANK_WORKERS=<n> runs a single custom size instead.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/str_util.h"
#include "fairness/aggregate.h"
#include "marketplace/biased_scoring.h"

namespace fairrank {
namespace {

using bench::kDataSeed;
using bench::MakeWorkers;
using bench::SizeFromEnv;

/// One (size, thread count) measurement.
struct Leg {
  size_t workers = 0;
  int threads = 1;
  double ingest_seconds = 0.0;
  double audit_seconds = 0.0;
  double unfairness = 0.0;
  size_t num_cells = 0;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "scaling_millions: %s\n", what.c_str());
  std::exit(1);
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool SameHistogram(const Histogram& a, const Histogram& b) {
  const double clamped_a = a.clamped_count();
  const double clamped_b = b.clamped_count();
  return a.counts().size() == b.counts().size() &&
         SameBits(a.counts().data(), b.counts().data(), a.counts().size()) &&
         SameBits(&clamped_a, &clamped_b, 1);
}

bool SameStore(const CellStore& a, const CellStore& b) {
  if (a.num_cells() != b.num_cells() ||
      a.num_observations() != b.num_observations()) {
    return false;
  }
  auto b_it = b.cells().begin();
  for (const auto& [key, cell] : a.cells()) {
    if (b_it->first != key || b_it->second.count != cell.count ||
        !SameHistogram(b_it->second.histogram, cell.histogram)) {
      return false;
    }
    ++b_it;
  }
  return true;
}

bool SameAudit(const AggregateAuditResult& a, const AggregateAuditResult& b) {
  if (!SameBits(&a.unfairness, &b.unfairness, 1) ||
      a.partitions.size() != b.partitions.size()) {
    return false;
  }
  for (size_t i = 0; i < a.partitions.size(); ++i) {
    const AggregatePartition& pa = a.partitions[i];
    const AggregatePartition& pb = b.partitions[i];
    if (pa.label != pb.label || pa.size != pb.size ||
        !SameHistogram(pa.histogram, pb.histogram)) {
      return false;
    }
  }
  return true;
}

/// Times ingest and audit of every thread count on one population and
/// gates the later legs against the first.
std::vector<Leg> RunOneSize(size_t n, const std::vector<int>& thread_counts) {
  std::printf("generating %zu workers (seed %llu)...\n", n,
              static_cast<unsigned long long>(kDataSeed));
  Table workers = MakeWorkers(n);
  StatusOr<std::vector<double>> scores = MakeF6(kDataSeed)->ScoreAll(workers);
  if (!scores.ok()) Die("scoring failed: " + scores.status().ToString());

  AuditOptions balanced;
  balanced.algorithm = "balanced";
  std::vector<Leg> legs;
  std::vector<CellStore> stores;
  std::vector<AggregateAuditResult> audits;
  for (int threads : thread_counts) {
    Leg leg;
    leg.workers = n;
    leg.threads = threads;
    CellStoreIngestOptions ingest;
    ingest.num_threads = threads;
    Stopwatch ingest_watch;
    StatusOr<CellStore> store =
        BuildCellStoreParallel(workers, *scores, ingest);
    leg.ingest_seconds = ingest_watch.ElapsedSeconds();
    if (!store.ok()) Die("ingest failed: " + store.status().ToString());
    Stopwatch audit_watch;
    StatusOr<AggregateAuditResult> audit = AuditAggregate(*store, balanced);
    leg.audit_seconds = audit_watch.ElapsedSeconds();
    if (!audit.ok()) Die("audit failed: " + audit.status().ToString());
    leg.unfairness = audit->unfairness;
    leg.num_cells = store->num_cells();
    if (!stores.empty() && !SameStore(*store, stores.front())) {
      Die(std::to_string(threads) + "-thread store differs from the " +
          std::to_string(thread_counts.front()) + "-thread store");
    }
    if (!audits.empty() && !SameAudit(*audit, audits.front())) {
      Die(std::to_string(threads) + "-thread audit differs from the " +
          std::to_string(thread_counts.front()) + "-thread audit");
    }
    stores.push_back(std::move(store).value());
    audits.push_back(std::move(audit).value());
    legs.push_back(leg);
  }
  return legs;
}

double RowsPerSecond(const Leg& leg) {
  return leg.ingest_seconds > 0
             ? static_cast<double>(leg.workers) / leg.ingest_seconds
             : 0;
}

}  // namespace
}  // namespace fairrank

int main() {
  using namespace fairrank;

  const int hardware_threads = HardwareThreads();
  std::vector<int> thread_counts = {1};
  if (hardware_threads > 1) thread_counts.push_back(hardware_threads);
  std::vector<size_t> sizes = {1000000, 5000000, 10000000};
  const size_t override_n = SizeFromEnv("FAIRRANK_WORKERS", 0);
  if (override_n > 0) sizes = {override_n};

  std::printf("hardware_threads=%d\n", hardware_threads);
  std::vector<Leg> legs;
  for (size_t n : sizes) {
    for (const Leg& leg : RunOneSize(n, thread_counts)) legs.push_back(leg);
  }

  TextTable table;
  table.SetHeader({"workers", "threads", "ingest rows/s", "ingest s",
                   "audit s", "cells", "unfairness"});
  std::string json = "{\"bench\":\"scaling_millions\",";
  json += "\"hardware_threads\":" + std::to_string(hardware_threads) + ",";
  json += "\"runs\":[";
  for (size_t i = 0; i < legs.size(); ++i) {
    const Leg& leg = legs[i];
    table.AddRow({std::to_string(leg.workers), std::to_string(leg.threads),
                  FormatDouble(RowsPerSecond(leg), 0),
                  FormatDouble(leg.ingest_seconds, 3),
                  FormatDouble(leg.audit_seconds, 4),
                  std::to_string(leg.num_cells),
                  FormatDouble(leg.unfairness, 6)});
    if (i > 0) json += ",";
    json += "{\"workers\":" + std::to_string(leg.workers) + ",";
    json += "\"threads\":" + std::to_string(leg.threads) + ",";
    json += "\"ingest_rows_per_sec\":" + FormatDouble(RowsPerSecond(leg), 0) +
            ",";
    json += "\"ingest_seconds\":" + FormatDouble(leg.ingest_seconds, 4) + ",";
    json += "\"audit_seconds\":" + FormatDouble(leg.audit_seconds, 4) + ",";
    json += "\"num_cells\":" + std::to_string(leg.num_cells) + ",";
    json += "\"unfairness\":" + FormatDouble(leg.unfairness, 6) + "}";
  }
  json += "]}";
  std::printf("%s", table.ToString().c_str());

  const char* out_path = "BENCH_scaling_millions.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) Die(std::string("cannot write ") + out_path);
  std::fprintf(out, "%s\n", json.c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path);
  return 0;
}
