#include "common/parallel.h"

#include <atomic>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fairness/evaluator.h"
#include "fairness/registry.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"

namespace fairrank {
namespace {

/// Runs the whole range: a default token and an infinite deadline never
/// stop the loop early.
bool RunAll(size_t n, int num_threads,
            const std::function<void(size_t, size_t)>& body) {
  return ParallelForCancellable(n, num_threads, CancellationToken(),
                                Deadline::Infinite(), body);
}

TEST(ParallelForCancellableTest, ZeroElementsNoCall) {
  bool called = false;
  EXPECT_TRUE(RunAll(0, 4, [&](size_t, size_t) { called = true; }));
  EXPECT_FALSE(called);
}

TEST(ParallelForCancellableTest, SingleThreadRunsInline) {
  std::vector<int> hits(100, 0);
  EXPECT_TRUE(RunAll(hits.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  }));
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ParallelForCancellableTest, TinyRangeStaysInline) {
  // Ranges below the per-thread minimum must not spawn (observable only
  // via correctness here; the point is it doesn't crash or double-run).
  std::vector<int> hits(5, 0);
  EXPECT_TRUE(RunAll(hits.size(), 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  }));
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForCancellableTest, BodyExceptionRethrownAfterJoin) {
  const size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_THROW(RunAll(n, 4,
                      [&](size_t begin, size_t end) {
                        for (size_t i = begin; i < end; ++i) {
                          if (i == 7'000) {
                            throw std::runtime_error("injected");
                          }
                          hits[i].fetch_add(1);
                        }
                      }),
               std::runtime_error);
  // The range before the faulting chunk's throw still ran exactly once; no
  // index ran twice (workers were joined, not abandoned).
  for (size_t i = 0; i < n; ++i) EXPECT_LE(hits[i].load(), 1) << i;
}

TEST(ParallelForCancellableTest, FirstExceptionByChunkIndexWins) {
  // Two chunks throw; the rethrown exception must deterministically be the
  // lowest chunk's regardless of scheduling.
  const size_t n = 10'000;
  for (int attempt = 0; attempt < 5; ++attempt) {
    try {
      RunAll(n, 4, [&](size_t begin, size_t) {
        throw std::runtime_error("chunk@" + std::to_string(begin));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk@0");
    }
  }
}

TEST(ParallelForCancellableTest, CompletesWhenUnrestricted) {
  // Covers the range exactly once.
  const size_t n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  bool complete = RunAll(n, 4, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  EXPECT_TRUE(complete);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForCancellableTest, PreCancelledStopsEarly) {
  CancellationSource source;
  source.RequestCancellation();
  std::atomic<size_t> processed{0};
  bool complete = ParallelForCancellable(
      100'000, 4, source.token(), Deadline::Infinite(),
      [&](size_t begin, size_t end) { processed.fetch_add(end - begin); });
  EXPECT_FALSE(complete);
  EXPECT_LT(processed.load(), 100'000u);
}

TEST(ParallelForCancellableTest, MidFlightCancellationStops) {
  CancellationSource source;
  std::atomic<size_t> processed{0};
  bool complete = ParallelForCancellable(
      1'000'000, 2, source.token(), Deadline::Infinite(),
      [&](size_t begin, size_t end) {
        processed.fetch_add(end - begin);
        source.RequestCancellation();  // First block cancels the rest.
      });
  EXPECT_FALSE(complete);
  EXPECT_LT(processed.load(), 1'000'000u);
}

TEST(ParallelForCancellableTest, ExpiredDeadlineStopsEarly) {
  std::atomic<size_t> processed{0};
  bool complete = ParallelForCancellable(
      100'000, 4, CancellationToken(), Deadline::AfterMillis(0),
      [&](size_t begin, size_t end) { processed.fetch_add(end - begin); });
  EXPECT_FALSE(complete);
  EXPECT_LT(processed.load(), 100'000u);
}

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1); }

TEST(ParallelEvaluatorTest, SameResultAcrossThreadCounts) {
  GeneratorOptions gen;
  gen.num_workers = 2000;
  gen.seed = 33;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(workers).value();

  // A large partitioning (full split) to exercise the pair loop.
  auto build = [&](int threads) {
    EvaluatorOptions options;
    options.num_threads = threads;
    UnfairnessEvaluator eval =
        UnfairnessEvaluator::Make(&workers, scores, options).value();
    auto algo = MakeAlgorithmByName("all-attributes").value();
    Partitioning p =
        algo->Run(eval, workers.schema().ProtectedIndices()).value();
    return eval.AveragePairwiseUnfairness(p).value();
  };
  double serial = build(1);
  for (int threads : {2, 4, 8}) {
    EXPECT_DOUBLE_EQ(serial, build(threads)) << threads;
  }
}

TEST(ParallelEvaluatorTest, AuditMatchesSerial) {
  GeneratorOptions gen;
  gen.num_workers = 1000;
  gen.seed = 44;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f4", 1.0);
  std::vector<double> scores = fn->ScoreAll(workers).value();
  auto run = [&](int threads) {
    EvaluatorOptions options;
    options.num_threads = threads;
    UnfairnessEvaluator eval =
        UnfairnessEvaluator::Make(&workers, scores, options).value();
    auto algo = MakeAlgorithmByName("balanced").value();
    Partitioning p =
        algo->Run(eval, workers.schema().ProtectedIndices()).value();
    return eval.AveragePairwiseUnfairness(p).value();
  };
  EXPECT_DOUBLE_EQ(run(1), run(4));
}


TEST(ParallelForEachTest, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 3, 8}) {
    std::vector<std::atomic<int>> counts(100);
    ParallelForEach(100, threads,
                    [&](size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1) << threads;
  }
}

TEST(ParallelForEachTest, ZeroItemsIsANoOp) {
  bool ran = false;
  ParallelForEach(0, 4, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelForEachTest, SmallGridStillUsesDynamicScheduling) {
  // Unlike ParallelForCancellable (whose min-per-thread heuristic
  // serializes small ranges), the scheduler must parallelize even a 6-item grid — suite
  // cells are few and expensive, the opposite of data-parallel loops.
  std::atomic<int> ran{0};
  ParallelForEach(6, 3, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 6);
}

TEST(ParallelForEachTest, LowestIndexExceptionWinsAndPoolDrains) {
  for (int threads : {1, 4}) {
    std::atomic<int> completed{0};
    try {
      ParallelForEach(64, threads, [&](size_t i) {
        if (i == 3 || i == 40) {
          throw std::runtime_error("task " + std::to_string(i));
        }
        completed.fetch_add(1);
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3") << threads;
    }
    // A faulting task must not take down its worker: the rest of the grid
    // still runs.
    EXPECT_EQ(completed.load(), 62) << threads;
  }
}

}  // namespace
}  // namespace fairrank
