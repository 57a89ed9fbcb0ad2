// Micro benchmarks: partition splitting, histogram building per partition,
// average-pairwise evaluation, and end-to-end algorithm runs at several
// population sizes — the cost drivers behind the runtime columns of
// Tables 1 and 2.

#include <benchmark/benchmark.h>

#include "fairness/registry.h"
#include "fairness/splitter.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

Table MakeWorkers(size_t n) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = 42;
  return GenerateWorkers(options).value();
}

UnfairnessEvaluator MakeEval(const Table& workers) {
  auto fn = MakeAlphaFunction("f1", 0.5);
  return UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                   EvaluatorOptions())
      .value();
}

void BM_SplitPartition(benchmark::State& state) {
  Table workers = MakeWorkers(static_cast<size_t>(state.range(0)));
  Partition root = MakeRootPartition(workers.num_rows());
  size_t gender = workers.schema().FindIndex(worker_attrs::kGender).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SplitPartition(workers, root, gender));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SplitPartition)->Arg(500)->Arg(7300)->Arg(50000);

void BM_SplitAllFullTree(benchmark::State& state) {
  Table workers = MakeWorkers(static_cast<size_t>(state.range(0)));
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  for (auto _ : state) {
    Partitioning current{MakeRootPartition(workers.num_rows())};
    for (size_t attr : attrs) current = SplitAll(workers, current, attr);
    benchmark::DoNotOptimize(current.size());
  }
}
BENCHMARK(BM_SplitAllFullTree)->Arg(500)->Arg(7300);

/// A partitioning of 7,300 workers split on attributes until it has at
/// least `min_size` partitions; 1765 is the Table-2 answer size.
Partitioning PartitioningOfSize(const Table& workers, int64_t min_size) {
  Partitioning p{MakeRootPartition(workers.num_rows())};
  for (size_t attr : workers.schema().ProtectedIndices()) {
    if (static_cast<int64_t>(p.size()) >= min_size) break;
    p = SplitAll(workers, p, attr);
  }
  return p;
}

void BM_AveragePairwiseUnfairness(benchmark::State& state) {
  Table workers = MakeWorkers(7300);
  UnfairnessEvaluator eval = MakeEval(workers);
  Partitioning p = PartitioningOfSize(workers, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.AveragePairwiseUnfairness(p).value());
  }
  state.counters["partitions"] = static_cast<double>(p.size());
}
BENCHMARK(BM_AveragePairwiseUnfairness)
    ->Arg(2)
    ->Arg(6)
    ->Arg(30)
    ->Arg(300)
    ->Arg(1765);

/// The pairs one TopPairs call computed, averaged over the iterations:
/// the evaluator's divergence count grows by exactly those.
double PairsEvaluated(const UnfairnessEvaluator& eval, uint64_t before,
                      const benchmark::State& state) {
  return static_cast<double>(eval.cache_stats().divergence_misses - before) /
         static_cast<double>(state.iterations());
}

/// The report's worst pairs: the three most divergent of all pairs. The
/// histograms are rebuilt every iteration, as the report does.
void BM_TopDivergentPairs(benchmark::State& state) {
  Table workers = MakeWorkers(7300);
  UnfairnessEvaluator eval = MakeEval(workers);
  Partitioning p = PartitioningOfSize(workers, state.range(0));
  const uint64_t before = eval.cache_stats().divergence_misses;
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopDivergentPairs(eval, p, 3).value());
  }
  state.counters["partitions"] = static_cast<double>(p.size());
  state.counters["pairs_evaluated"] = PairsEvaluated(eval, before, state);
}
BENCHMARK(BM_TopDivergentPairs)
    ->Arg(2)
    ->Arg(6)
    ->Arg(30)
    ->Arg(300)
    ->Arg(1765);

/// TopPairs' worst case: `k` copies of one histogram tie at distance 0, so
/// its bound prunes nothing and every pair is computed.
void BM_TopPairsNoPruning(benchmark::State& state) {
  Table workers = MakeWorkers(7300);
  UnfairnessEvaluator eval = MakeEval(workers);
  const std::vector<Histogram> h(
      static_cast<size_t>(state.range(0)),
      eval.BuildHistogram(MakeRootPartition(workers.num_rows())));
  const uint64_t before = eval.cache_stats().divergence_misses;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval.TopPairs(h, 3).value());
  }
  state.counters["pairs_evaluated"] = PairsEvaluated(eval, before, state);
}
BENCHMARK(BM_TopPairsNoPruning)->Arg(300)->Arg(1765);

void BM_Algorithm(benchmark::State& state, const std::string& name) {
  Table workers = MakeWorkers(static_cast<size_t>(state.range(0)));
  UnfairnessEvaluator eval = MakeEval(workers);
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  AlgorithmConfig config;
  config.seed = 1;
  for (auto _ : state) {
    auto algo = MakeAlgorithmByName(name, config).value();
    benchmark::DoNotOptimize(algo->Run(eval, attrs).value());
  }
}
BENCHMARK_CAPTURE(BM_Algorithm, balanced, "balanced")->Arg(500)->Arg(7300);
BENCHMARK_CAPTURE(BM_Algorithm, unbalanced, "unbalanced")->Arg(500)->Arg(7300);
BENCHMARK_CAPTURE(BM_Algorithm, all_attributes, "all-attributes")
    ->Arg(500)
    ->Arg(7300);

}  // namespace
}  // namespace fairrank

BENCHMARK_MAIN();
