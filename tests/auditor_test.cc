#include "fairness/auditor.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fairness/registry.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

Table Workers(size_t n = 200, uint64_t seed = 6) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  return GenerateWorkers(options).value();
}

TEST(AuditorTest, BasicAuditSucceeds) {
  Table workers = Workers();
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "unbalanced";
  auto result = auditor.Audit(*MakeAlphaFunction("f1", 0.5), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->algorithm, "unbalanced");
  EXPECT_NE(result->scoring_function.find("f1"), std::string::npos);
  EXPECT_GE(result->unfairness, 0.0);
  EXPECT_GE(result->seconds, 0.0);
  EXPECT_TRUE(IsValidPartitioning(result->partitioning, workers.num_rows()));
  EXPECT_EQ(result->partitions.size(), result->partitioning.size());
}

TEST(AuditorTest, PartitionSummariesAreConsistent) {
  Table workers = Workers();
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "balanced";
  auto result = auditor.Audit(*MakeF6(3), options);
  ASSERT_TRUE(result.ok());
  size_t total = 0;
  for (const PartitionSummary& p : result->partitions) {
    total += p.size;
    EXPECT_FALSE(p.label.empty());
    EXPECT_GE(p.mean_score, 0.0);
    EXPECT_LE(p.mean_score, 1.0);
    EXPECT_DOUBLE_EQ(p.histogram.total(), static_cast<double>(p.size));
  }
  EXPECT_EQ(total, workers.num_rows());
  // Sorted by descending size.
  for (size_t i = 1; i < result->partitions.size(); ++i) {
    EXPECT_GE(result->partitions[i - 1].size, result->partitions[i].size);
  }
}

TEST(AuditorTest, F6AuditFindsGenderBias) {
  Table workers = Workers(400);
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "balanced";
  auto result = auditor.Audit(*MakeF6(9), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->attributes_used,
            (std::vector<std::string>{worker_attrs::kGender}));
  EXPECT_NEAR(result->unfairness, 0.8, 0.05);
  // Male partition mean is high, female low.
  ASSERT_EQ(result->partitions.size(), 2u);
  for (const PartitionSummary& p : result->partitions) {
    if (p.label == "Gender=Male") {
      EXPECT_GT(p.mean_score, 0.8);
    }
    if (p.label == "Gender=Female") {
      EXPECT_LT(p.mean_score, 0.2);
    }
  }
}

TEST(AuditorTest, RestrictedProtectedAttributes) {
  Table workers = Workers();
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "all-attributes";
  options.protected_attributes = {worker_attrs::kGender,
                                  worker_attrs::kCountry};
  auto result = auditor.Audit(*MakeAlphaFunction("f1", 0.5), options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->partitions.size(), 6u);  // 2 genders x 3 countries.
  for (const std::string& used : result->attributes_used) {
    EXPECT_TRUE(used == worker_attrs::kGender ||
                used == worker_attrs::kCountry);
  }
}

TEST(AuditorTest, UnknownProtectedAttributeFails) {
  Table workers = Workers();
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.protected_attributes = {"Nonexistent"};
  EXPECT_EQ(auditor.Audit(*MakeAlphaFunction("f1", 0.5), options)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(AuditorTest, UnknownAlgorithmFails) {
  Table workers = Workers();
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "magic";
  EXPECT_EQ(auditor.Audit(*MakeAlphaFunction("f1", 0.5), options)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(AuditorTest, EmptyTableFails) {
  Table empty(MakePaperWorkerSchema().value());
  FairnessAuditor auditor(&empty);
  AuditOptions options;
  EXPECT_EQ(auditor.Audit(*MakeAlphaFunction("f1", 0.5), options)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(AuditorTest, AuditScoresWithExternalScores) {
  Table workers = Workers(100);
  FairnessAuditor auditor(&workers);
  std::vector<double> scores(workers.num_rows(), 0.0);
  // Score = 1 for males, 0 for females: a blatantly unfair external model.
  size_t gender = workers.schema().FindIndex(worker_attrs::kGender).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    scores[row] = workers.column(gender).CodeAt(row) == 0 ? 1.0 : 0.0;
  }
  AuditOptions options;
  options.algorithm = "balanced";
  auto result = auditor.AuditScores(scores, "external model", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->scoring_function, "external model");
  EXPECT_NEAR(result->unfairness, 0.9, 1e-9);  // Extreme bins, 10 bins.
}

TEST(AuditorTest, ScoreSizeMismatchFails) {
  Table workers = Workers(50);
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  EXPECT_FALSE(auditor.AuditScores({0.5, 0.5}, "bad", options).ok());
}

TEST(AuditorTest, DivergenceOptionFlowsThrough) {
  Table workers = Workers(200);
  FairnessAuditor auditor(&workers);
  AuditOptions emd_options;
  emd_options.algorithm = "balanced";
  AuditOptions ks_options = emd_options;
  ks_options.evaluator.divergence = "ks";
  auto emd_result = auditor.Audit(*MakeF6(4), emd_options);
  auto ks_result = auditor.Audit(*MakeF6(4), ks_options);
  ASSERT_TRUE(emd_result.ok() && ks_result.ok());
  // f6 separates genders completely: KS = 1, EMD ~ 0.8.
  EXPECT_NEAR(ks_result->unfairness, 1.0, 1e-9);
  EXPECT_NEAR(emd_result->unfairness, 0.8, 0.05);
}

TEST(AuditorTest, BinCountOptionFlowsThrough) {
  Table workers = Workers(200);
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "balanced";
  options.evaluator.num_bins = 40;
  auto result = auditor.Audit(*MakeF6(4), options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->partitions.empty());
  EXPECT_EQ(result->partitions[0].histogram.num_bins(), 40);
}

TEST(AuditorTest, WorstPairsReported) {
  Table workers = Workers(300);
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "balanced";
  options.num_worst_pairs = 2;
  auto result = auditor.Audit(*MakeF6(4), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->worst_pairs.size(), 1u);  // Only 2 partitions = 1 pair.
  EXPECT_NEAR(result->worst_pairs[0].distance, result->unfairness, 1e-12);
  std::set<std::string> labels = {result->worst_pairs[0].label_a,
                                  result->worst_pairs[0].label_b};
  EXPECT_TRUE(labels.count("Gender=Male"));
  EXPECT_TRUE(labels.count("Gender=Female"));
}

TEST(AuditorTest, WorstPairsDisabled) {
  Table workers = Workers(100);
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.num_worst_pairs = 0;
  auto result = auditor.Audit(*MakeAlphaFunction("f1", 0.5), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->worst_pairs.empty());
}

TEST(AuditorTest, SeedAffectsRandomBaseline) {
  Table workers = Workers(200);
  FairnessAuditor auditor(&workers);
  std::set<size_t> first_split_attrs;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    AuditOptions options;
    options.algorithm = "r-balanced";
    options.seed = seed;
    auto result = auditor.Audit(*MakeAlphaFunction("f1", 0.5), options);
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(result->partitioning.empty());
    ASSERT_FALSE(result->partitioning[0].path.empty());
    first_split_attrs.insert(result->partitioning[0].path[0].attr_index);
  }
  EXPECT_GT(first_split_attrs.size(), 1u);
}

std::vector<double> F1Scores(const Table& workers) {
  return MakeAlphaFunction("f1", 0.5)->ScoreAll(workers).value();
}

/// A fresh evaluator over f1's scores: the oracle the audits must match.
UnfairnessEvaluator FreshEvaluator(const Table& workers,
                                   EvaluatorOptions options = {}) {
  return UnfairnessEvaluator::Make(&workers, F1Scores(workers), options)
      .value();
}

/// all-attributes splits on every attribute: a partitioning with many
/// overlapping-in-lineage cells and well over 1,000 pairs at 500 workers.
Partitioning FinePartitioning(const UnfairnessEvaluator& eval) {
  auto algo = MakeAlgorithmByName("all-attributes").value();
  return algo->Run(eval, eval.table().schema().ProtectedIndices()).value();
}

TEST(AuditorTest, TightMemoryBudgetDegradesGracefully) {
  Table workers = Workers(500, 20190326);
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "balanced";
  options.limits.max_memory_mb = 1;  // Far below the search's buffers.
  StatusOr<AuditResult> result =
      auditor.Audit(*MakeAlphaFunction("f1", 0.5), options);
  // A tight budget is an answer, not an error: the pairwise buffers charged
  // to it latch the exhaustion, and the search stops at its next checkpoint
  // with a valid partitioning and exact metrics for it.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->exhaustion_reason, ExhaustionReason::kMemoryBudget);
  EXPECT_STREQ(ExhaustionReasonToString(result->exhaustion_reason),
               "memory-budget");
  EXPECT_TRUE(IsValidPartitioning(result->partitioning, workers.num_rows()));
  EXPECT_EQ(result->unfairness, FreshEvaluator(workers)
                                    .AveragePairwiseUnfairness(
                                        result->partitioning)
                                    .value());
}

TEST(AuditorTest, PairwiseValuesAndWorkAreBitIdenticalAcrossThreads) {
  Table workers = Workers(500, 20190326);
  UnfairnessEvaluator serial = FreshEvaluator(workers);
  Partitioning p = FinePartitioning(serial);
  ASSERT_GE(p.size() * (p.size() - 1) / 2, 1000u);
  serial = FreshEvaluator(workers);  // Reset the work counters.
  EvaluatorOptions four;
  four.num_threads = 4;
  UnfairnessEvaluator parallel = FreshEvaluator(workers, four);

  const double u1 = serial.AveragePairwiseUnfairness(p).value();
  const double u4 = parallel.AveragePairwiseUnfairness(p).value();
  EXPECT_EQ(u1, u4);
  std::vector<DivergentPair> top1 = TopDivergentPairs(serial, p, 25).value();
  std::vector<DivergentPair> top4 = TopDivergentPairs(parallel, p, 25).value();
  ASSERT_EQ(top1.size(), top4.size());
  for (size_t i = 0; i < top1.size(); ++i) {
    EXPECT_EQ(top1[i].index_a, top4[i].index_a) << i;
    EXPECT_EQ(top1[i].index_b, top4[i].index_b) << i;
    EXPECT_EQ(top1[i].distance, top4[i].distance) << i;
  }
  // Every pair is computed exactly once per call, whatever the thread count.
  const EvalCacheStats w1 = serial.cache_stats();
  const EvalCacheStats w4 = parallel.cache_stats();
  EXPECT_EQ(w1.histogram_misses, w4.histogram_misses);
  EXPECT_EQ(w1.divergence_misses, w4.divergence_misses);
  EXPECT_EQ(w1.histogram_misses, 2 * p.size());
  EXPECT_EQ(w1.divergence_misses, p.size() * (p.size() - 1));
  EXPECT_EQ(w1.histogram_hits + w1.divergence_hits + w1.bytes_used, 0u);
}

TEST(AuditorTest, ConcurrentAuditsShareNothingAndStayExact) {
  // Whole audits in parallel, each on its own evaluators, all reading one
  // table: the results must match a serial reference bit for bit.
  Table workers = Workers(300, 20190326);
  FairnessAuditor auditor(&workers);
  auto fn = MakeAlphaFunction("f1", 0.5);
  AuditOptions options;
  options.algorithm = "unbalanced";
  const AuditResult reference = auditor.Audit(*fn, options).value();

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      StatusOr<AuditResult> mine = auditor.Audit(*fn, options);
      if (!mine.ok() || mine->unfairness != reference.unfairness ||
          mine->partitioning.size() != reference.partitioning.size() ||
          mine->cache.divergence_misses !=
              reference.cache.divergence_misses) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      for (size_t i = 0; i < mine->partitioning.size(); ++i) {
        if (mine->partitioning[i].rows != reference.partitioning[i].rows) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(AuditorTest, CarriedHistogramsMatchAFreshEvaluator) {
  // Unbalanced and exhaustive build each histogram once, where its
  // partition is split off, and carry it through the search. Their answer
  // must score exactly what a fresh evaluator computes from the rows.
  Table workers = Workers(200, 20190326);
  FairnessAuditor auditor(&workers);
  for (const char* algorithm : {"unbalanced", "exhaustive"}) {
    AuditOptions options;
    options.algorithm = algorithm;
    // Three attributes keep the brute force complete (not truncated).
    options.protected_attributes = {worker_attrs::kGender,
                                    worker_attrs::kCountry,
                                    worker_attrs::kLanguage};
    AuditResult result =
        auditor.Audit(*MakeAlphaFunction("f1", 0.5), options).value();
    EXPECT_FALSE(result.truncated) << algorithm;
    ASSERT_GE(result.partitioning.size(), 2u) << algorithm;
    EXPECT_EQ(result.unfairness,
              FreshEvaluator(workers)
                  .AveragePairwiseUnfairness(result.partitioning)
                  .value())
        << algorithm;
  }
}

}  // namespace
}  // namespace fairrank
