// Extension bench: the two search strategies this library adds beyond the
// paper — beam (top-down with width > 1 and best-so-far tracking) and merge
// (bottom-up agglomerative over the full partitioning) — against the
// paper's algorithms, on both the random and the biased-by-design
// functions.
//
// The interesting column is f6/f7: `merge` can express {all favored cells,
// all disfavored cells}, a partitioning outside every tree algorithm's
// space, and lands near the two-cluster optimum where all-attributes is
// stuck at a diluted average.

#include <cstdio>

#include "bench_common.h"
#include "marketplace/biased_scoring.h"

int main() {
  using namespace fairrank;
  using namespace fairrank::bench;

  const size_t n = SizeFromEnv("FAIRRANK_WORKERS", 2000);
  Table workers = MakeWorkers(n);

  std::vector<std::unique_ptr<ScoringFunction>> functions =
      MakePaperRandomFunctions();
  for (auto& fn : MakePaperBiasedFunctions(7)) {
    functions.push_back(std::move(fn));
  }
  std::vector<const ScoringFunction*> borrowed;
  for (const auto& fn : functions) borrowed.push_back(fn.get());

  AuditSuite suite(&workers);
  SuiteOptions options;
  options.algorithms = {"balanced", "unbalanced", "all-attributes", "beam",
                        "merge"};
  options.audit.seed = 4;
  options.num_threads = SuiteThreadsFromEnv();
  StatusOr<SuiteResult> result = suite.Run(borrowed, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("=== Extensions vs paper algorithms (workers=%zu) ===\n\n", n);
  std::printf("Average EMD\n%s\n", FormatSuiteUnfairness(*result).c_str());
  std::printf("time (in secs)\n%s\n", FormatSuiteRuntime(*result).c_str());
  std::printf(
      "Expected: beam >= balanced everywhere (superset search with\n"
      "best-so-far); merge >= all-attributes everywhere and far ahead on\n"
      "f6/f7 where the optimum is a union of cells across tree branches;\n"
      "merge pays the largest runtime (full pairwise matrix plus a\n"
      "trajectory of k-2 merges).\n");
  return 0;
}
