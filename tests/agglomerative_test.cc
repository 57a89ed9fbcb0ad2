#include "fairness/agglomerative.h"

#include <gtest/gtest.h>

#include "fairness/registry.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

UnfairnessEvaluator MakeEval(const Table* table, const ScoringFunction& fn) {
  return UnfairnessEvaluator::Make(table, fn.ScoreAll(*table).value(),
                                   EvaluatorOptions())
      .value();
}

Table Workers(size_t n, uint64_t seed = 42) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  return GenerateWorkers(options).value();
}

TEST(AgglomerativeTest, RegisteredAsMerge) {
  auto algo = MakeAlgorithmByName("merge");
  ASSERT_TRUE(algo.ok());
  EXPECT_EQ((*algo)->Name(), "merge");
}

TEST(AgglomerativeTest, ReturnsValidPartitioning) {
  Table workers = Workers(200);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEval(&workers, *fn);
  auto algo = MakeAgglomerativeAlgorithm();
  auto p = algo->Run(eval, workers.schema().ProtectedIndices());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(IsValidPartitioning(*p, workers.num_rows()));
}

TEST(AgglomerativeTest, AtLeastAsUnfairAsAllAttributes) {
  // merge starts from the all-attributes partitioning and only commits
  // average-raising merges, so its result dominates the baseline.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Table workers = Workers(300, seed);
    for (double alpha : {0.5, 1.0}) {
      auto fn = MakeAlphaFunction("f", alpha);
      UnfairnessEvaluator eval = MakeEval(&workers, *fn);
      std::vector<size_t> attrs = workers.schema().ProtectedIndices();
      auto baseline = MakeAlgorithmByName("all-attributes").value();
      double baseline_u =
          eval.AveragePairwiseUnfairness(baseline->Run(eval, attrs).value())
              .value();
      auto merge = MakeAgglomerativeAlgorithm();
      double merge_u =
          eval.AveragePairwiseUnfairness(merge->Run(eval, attrs).value())
              .value();
      EXPECT_GE(merge_u + 1e-9, baseline_u)
          << "seed=" << seed << " alpha=" << alpha;
    }
  }
}

TEST(AgglomerativeTest, MergedPartitionsCarryUnionLabels) {
  // Under f6 every cell is either a high-score (male) or low-score (female)
  // cluster; merging same-treatment cells raises the average, so merges
  // must fire and carry union labels.
  Table workers = Workers(200);
  auto f6 = MakeF6(3);
  UnfairnessEvaluator eval = MakeEval(&workers, *f6);
  auto algo = MakeAgglomerativeAlgorithm();
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  attrs.resize(3);  // Keep the initial cell count moderate.
  Partitioning p = algo->Run(eval, attrs).value();
  bool saw_merged = false;
  for (const Partition& part : p) {
    if (part.is_merged()) {
      saw_merged = true;
      EXPECT_GE(part.merged_paths.size(), 2u);
      std::string label = PartitionLabel(workers.schema(), part);
      EXPECT_NE(label.find(" | "), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_merged);
}

TEST(AgglomerativeTest, RecoversClusterStructureUnderF6) {
  // Bottom-up merging of a full split under f6 should approach the
  // two-cluster optimum (~0.8), far above the all-attributes baseline —
  // a partitioning no tree algorithm can express (cells merged across
  // different gender prefixes stay separate there).
  Table workers = Workers(400);
  auto f6 = MakeF6(5);
  UnfairnessEvaluator eval = MakeEval(&workers, *f6);
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  auto baseline = MakeAlgorithmByName("all-attributes").value();
  double baseline_u =
      eval.AveragePairwiseUnfairness(baseline->Run(eval, attrs).value())
          .value();
  auto merge = MakeAgglomerativeAlgorithm();
  double merge_u =
      eval.AveragePairwiseUnfairness(merge->Run(eval, attrs).value()).value();
  EXPECT_GT(merge_u, baseline_u + 0.2);
  EXPECT_GT(merge_u, 0.7);
}

TEST(AgglomerativeTest, MergedRowsStaySorted) {
  Table workers = Workers(120);
  auto fn = MakeAlphaFunction("f2", 0.3);
  UnfairnessEvaluator eval = MakeEval(&workers, *fn);
  auto algo = MakeAgglomerativeAlgorithm();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  for (const Partition& part : p) {
    for (size_t i = 1; i < part.rows.size(); ++i) {
      EXPECT_LT(part.rows[i - 1], part.rows[i]);
    }
  }
}

TEST(AgglomerativeTest, CountsEveryDivergenceThroughTheEvaluator) {
  // The first distance matrix alone is k(k-1)/2 divergences, and each one
  // goes through the evaluator's counters.
  Table workers = Workers(300);
  auto fn = MakeAlphaFunction("f", 0.5);
  UnfairnessEvaluator eval = MakeEval(&workers, *fn);
  const Schema& schema = workers.schema();
  std::vector<size_t> attrs = {schema.FindIndex("Gender").value(),
                               schema.FindIndex("Country").value(),
                               schema.FindIndex("Language").value()};
  auto all_attributes = MakeAlgorithmByName("all-attributes").value();
  const uint64_t k = all_attributes->Run(eval, attrs).value().size();
  ASSERT_GE(k, 3u);
  const uint64_t before = eval.cache_stats().divergence_misses;
  ASSERT_TRUE(MakeAgglomerativeAlgorithm()->Run(eval, attrs).ok());
  EXPECT_GE(eval.cache_stats().divergence_misses - before, k * (k - 1) / 2);
}

TEST(AgglomerativeTest, EmptyAttributesYieldRoot) {
  Table workers = Workers(50);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEval(&workers, *fn);
  auto algo = MakeAgglomerativeAlgorithm();
  auto p = algo->Run(eval, {});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->size(), 1u);
}

TEST(AgglomerativeTest, KeepsCleanSeparationIntact) {
  // Under f6, a gender-only search space gives two perfectly separated
  // partitions; merge must not collapse them (merging would drop the
  // average from 0.8 to 0).
  Table workers = Workers(300);
  auto f6 = MakeF6(5);
  UnfairnessEvaluator eval = MakeEval(&workers, *f6);
  size_t gender =
      workers.schema().FindIndex(worker_attrs::kGender).value();
  auto algo = MakeAgglomerativeAlgorithm();
  Partitioning p = algo->Run(eval, {gender}).value();
  EXPECT_EQ(p.size(), 2u);
}

TEST(AgglomerativeTest, AttributesUsedIncludesMergedPaths) {
  Table workers = Workers(150);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEval(&workers, *fn);
  auto algo = MakeAgglomerativeAlgorithm();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  // The full split used all six attributes; merging must not lose that.
  EXPECT_EQ(AttributesUsed(workers.schema(), p).size(), 6u);
}

}  // namespace
}  // namespace fairrank
