#include "fairness/exhaustive.h"

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "fairness/registry.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

std::vector<double> ToyScores(const Table& table) {
  size_t score_col = table.schema().FindIndex("Score").value();
  std::vector<double> scores;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    scores.push_back(table.column(score_col).RealAt(row));
  }
  return scores;
}

TEST(ExhaustiveTest, FindsFigure1Optimum) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  auto algo = MakeExhaustiveAlgorithm();
  Partitioning p =
      algo->Run(eval, table.schema().ProtectedIndices()).value();
  // The optimum is {Male-English, Male-Indian, Male-Other, Female}.
  ASSERT_EQ(p.size(), 4u);
  std::set<std::string> labels;
  for (const Partition& part : p) {
    labels.insert(PartitionLabel(table.schema(), part));
  }
  EXPECT_TRUE(labels.count("Gender=Female"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=English"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=Indian"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=Other"));
}

TEST(ExhaustiveTest, OptimumDominatesHeuristics) {
  // On a small instance exhaustive must be >= every heuristic.
  GeneratorOptions options;
  options.num_workers = 60;
  options.seed = 31;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  attrs.resize(2);  // Keep brute force small.

  ExhaustiveOptions ex;
  ex.max_partitionings = 500000;
  auto exhaustive = MakeExhaustiveAlgorithm(ex);
  double optimum =
      eval.AveragePairwiseUnfairness(exhaustive->Run(eval, attrs).value())
          .value();
  for (const std::string& name : PaperAlgorithmNames()) {
    auto algo = MakeAlgorithmByName(name).value();
    double heuristic =
        eval.AveragePairwiseUnfairness(algo->Run(eval, attrs).value())
            .value();
    EXPECT_GE(optimum + 1e-9, heuristic) << name;
  }
}

TEST(ExhaustiveTest, BudgetExhaustionTruncatesToBestSoFar) {
  GeneratorOptions options;
  options.num_workers = 200;
  options.seed = 13;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  ExhaustiveOptions ex;
  ex.max_partitionings = 50;  // Far too small for 6 attributes.
  ex.fallback_to_beam = false;
  auto algo = MakeExhaustiveAlgorithm(ex);
  SearchResult result = algo->Run(eval, workers.schema().ProtectedIndices(),
                                  ExecutionContext::Unbounded())
                            .value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kNodeBudget);
  EXPECT_TRUE(IsValidPartitioning(result.partitioning, workers.num_rows()));
  EXPECT_EQ(result.nodes_visited, ex.max_partitionings + 1);
}

TEST(ExhaustiveTest, NodeBudgetFallsBackToBeam) {
  GeneratorOptions options;
  options.num_workers = 200;
  options.seed = 13;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  ExhaustiveOptions ex;
  ex.max_partitionings = 50;
  ex.fallback_to_beam = false;
  double without_fallback =
      eval.AveragePairwiseUnfairness(
              MakeExhaustiveAlgorithm(ex)
                  ->Run(eval, workers.schema().ProtectedIndices(),
                        ExecutionContext::Unbounded())
                  .value()
                  .partitioning)
          .value();
  ex.fallback_to_beam = true;
  SearchResult with_fallback =
      MakeExhaustiveAlgorithm(ex)
          ->Run(eval, workers.schema().ProtectedIndices(),
                ExecutionContext::Unbounded())
          .value();
  EXPECT_TRUE(with_fallback.truncated);
  EXPECT_EQ(with_fallback.reason, ExhaustionReason::kNodeBudget);
  EXPECT_TRUE(
      IsValidPartitioning(with_fallback.partitioning, workers.num_rows()));
  // The fallback keeps the better of {enumeration best-so-far, beam}.
  double with_fallback_avg =
      eval.AveragePairwiseUnfairness(with_fallback.partitioning).value();
  EXPECT_GE(with_fallback_avg + 1e-12, without_fallback);
}

TEST(ExhaustiveTest, ContextDeadlineTruncatesAsDeadline) {
  GeneratorOptions options;
  options.num_workers = 200;
  options.seed = 13;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  // Already expired: the first evaluated partitioning's checkpoint trips.
  ExecutionContext expired(Deadline::AfterMillis(0), CancellationToken(),
                           nullptr);
  auto algo = MakeExhaustiveAlgorithm();
  SearchResult result =
      algo->Run(eval, workers.schema().ProtectedIndices(), expired).value();
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(result.reason, ExhaustionReason::kDeadline);
  EXPECT_TRUE(IsValidPartitioning(result.partitioning, workers.num_rows()));
}

TEST(ExhaustiveTest, SingleAttributeSpace) {
  // With one attribute the space is {root} and {split}; optimum is the
  // split whenever it has >= 2 groups.
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  size_t gender = table.schema().FindIndex("Gender").value();
  auto algo = MakeExhaustiveAlgorithm();
  Partitioning p = algo->Run(eval, {gender}).value();
  EXPECT_EQ(p.size(), 2u);
}

TEST(CountPartitioningsTest, ToyExampleCount) {
  // Toy: Gender (2 values) and Language (3 values), all groups non-empty.
  // Trees: leaf(1) + gender-first (2 branches, each leaf-or-language:
  // 2*2=4) + language-first (3 branches, each leaf-or-gender: 2^3=8) = 13.
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  EXPECT_EQ(CountHierarchicalPartitionings(
                eval, table.schema().ProtectedIndices(), 1000),
            13u);
}

TEST(CountPartitioningsTest, CapRespected) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, ToyScores(table), EvaluatorOptions())
          .value();
  EXPECT_EQ(CountHierarchicalPartitionings(
                eval, table.schema().ProtectedIndices(), 5),
            5u);
}

TEST(CountPartitioningsTest, GrowsExplosivelyWithAttributes) {
  // The paper: brute force "failed to terminate after two days" with six
  // attributes. Verify the count explodes as attributes are added.
  GeneratorOptions options;
  options.num_workers = 120;
  options.seed = 3;
  Table workers = GenerateWorkers(options).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  std::vector<size_t> all = workers.schema().ProtectedIndices();
  uint64_t previous = 0;
  const uint64_t kCap = 2'000'000;
  for (size_t k = 1; k <= 4; ++k) {
    std::vector<size_t> attrs(all.begin(), all.begin() + k);
    uint64_t count = CountHierarchicalPartitionings(eval, attrs, kCap);
    EXPECT_GT(count, previous);
    previous = count;
  }
  EXPECT_EQ(previous, kCap);  // Four attributes already exceed 2M trees.
}

}  // namespace
}  // namespace fairrank
