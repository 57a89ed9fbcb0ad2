#ifndef FAIRRANK_BENCH_BENCH_COMMON_H_
#define FAIRRANK_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure harnesses. Each harness regenerates
// one table or figure of the paper: same rows, same columns, printed as an
// aligned text table. Absolute EMD values depend on the random data seed and
// runtimes on the machine; the *shapes* (who wins, which functions are most
// unfair) are what EXPERIMENTS.md tracks.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/str_util.h"
#include "fairness/auditor.h"
#include "fairness/report.h"
#include "fairness/suite.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"

namespace fairrank {
namespace bench {

/// Default seed for every harness; printed so runs are reproducible.
inline constexpr uint64_t kDataSeed = 20190326;  // EDBT 2019 opening day.

/// Reads a size_t override from the environment, e.g. FAIRRANK_WORKERS=500
/// lets CI run the 7300-worker harness at a smaller scale.
inline size_t SizeFromEnv(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  int64_t parsed = 0;
  if (!ParseInt64(value, &parsed) || parsed <= 0) return fallback;
  return static_cast<size_t>(parsed);
}

/// Generates the paper's uniform worker population.
inline Table MakeWorkers(size_t n, uint64_t seed = kDataSeed) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  StatusOr<Table> table = GenerateWorkers(options);
  if (!table.ok()) {
    std::fprintf(stderr, "worker generation failed: %s\n",
                 table.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(table).value();
}

/// Suite worker threads: FAIRRANK_SUITE_THREADS=4 dispatches the grid's
/// cells onto 4 scheduler threads (default 1 = serial, the reproducible
/// paper-faithful configuration).
inline int SuiteThreadsFromEnv() {
  return static_cast<int>(SizeFromEnv("FAIRRANK_SUITE_THREADS", 1));
}

/// Prints the suite-level rollup: total search nodes, histograms built and
/// divergences computed over every cell, and the wall-vs-serial-equivalent
/// speedup of the parallel scheduler — the observability lines
/// EXPERIMENTS.md quotes.
inline void PrintWorkSummary(const SuiteResult& result) {
  std::printf("%s\n", FormatSuiteSummary(result).c_str());
}

/// Runs the paper's algorithm grid via AuditSuite and prints it in the
/// paper's layout: the "Average EMD" sub-table and, for Tables 1/2, the
/// "time (in secs)" sub-table. Returns the grid for further assertions.
inline SuiteResult RunAndPrintGrid(
    const std::string& title, const Table& workers,
    const std::vector<std::unique_ptr<ScoringFunction>>& functions,
    uint64_t baseline_seed, bool print_times) {
  AuditSuite suite(&workers);
  std::vector<const ScoringFunction*> borrowed;
  borrowed.reserve(functions.size());
  for (const auto& fn : functions) borrowed.push_back(fn.get());
  SuiteOptions options;
  options.audit.seed = baseline_seed;
  options.num_threads = SuiteThreadsFromEnv();
  StatusOr<SuiteResult> result = suite.Run(borrowed, options);
  if (!result.ok()) {
    std::fprintf(stderr, "suite failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("=== %s ===\n\n", title.c_str());
  if (options.num_threads != 1) {
    std::printf("suite threads: %d\n\n", options.num_threads);
  }
  std::printf("Average EMD\n%s\n", FormatSuiteUnfairness(*result).c_str());
  if (print_times) {
    std::printf("time (in secs)\n%s\n", FormatSuiteRuntime(*result).c_str());
  }
  PrintWorkSummary(*result);
  return std::move(result).value();
}

}  // namespace bench
}  // namespace fairrank

#endif  // FAIRRANK_BENCH_BENCH_COMMON_H_
