#include "fairness/significance.h"

#include <gtest/gtest.h>

#include "fairness/auditor.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"

namespace fairrank {
namespace {

struct Audited {
  Table table;
  std::vector<double> scores;
  Partitioning partitioning;
};

Audited Audit(const ScoringFunction& fn, size_t n = 400,
              const std::string& algorithm = "balanced") {
  GeneratorOptions gen;
  gen.num_workers = n;
  gen.seed = 15;
  Table workers = GenerateWorkers(gen).value();
  std::vector<double> scores = fn.ScoreAll(workers).value();
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = algorithm;
  AuditResult result = auditor.Audit(fn, options).value();
  return {std::move(workers), std::move(scores),
          std::move(result.partitioning)};
}

UnfairnessEvaluator MakeEval(const Audited& a) {
  return UnfairnessEvaluator::Make(&a.table, a.scores, EvaluatorOptions())
      .value();
}

TEST(PermutationTest, BiasedFunctionIsSignificant) {
  auto f6 = MakeF6(3);
  Audited a = Audit(*f6);
  UnfairnessEvaluator eval = MakeEval(a);
  auto result = PermutationTestUnfairness(eval, a.partitioning, 99, 7);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Gender fully determines f6's score range: nothing in the null comes
  // close.
  EXPECT_LE(result->p_value, 0.011);
  EXPECT_LT(result->null_mean, result->observed / 2.0);
}

TEST(PermutationTest, RandomFunctionOnFixedSplitIsNotSignificant) {
  // Audit a *fixed* two-way gender split under a random linear function:
  // permuting scores should produce comparable unfairness often.
  GeneratorOptions gen;
  gen.num_workers = 400;
  gen.seed = 15;
  Table workers = GenerateWorkers(gen).value();
  auto f1 = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = f1->ScoreAll(workers).value();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, scores, EvaluatorOptions()).value();
  // Fixed gender partitioning, not the maximized one.
  FairnessAuditor auditor(&workers);
  AuditOptions options;
  options.algorithm = "all-attributes";
  options.protected_attributes = {"Gender"};
  AuditResult audit = auditor.Audit(*f1, options).value();
  auto result = PermutationTestUnfairness(eval, audit.partitioning, 99, 7);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_value, 0.05);
}

TEST(PermutationTest, Deterministic) {
  auto f7 = MakeF7(3);
  Audited a = Audit(*f7, 200);
  UnfairnessEvaluator eval = MakeEval(a);
  auto r1 = PermutationTestUnfairness(eval, a.partitioning, 50, 11).value();
  auto r2 = PermutationTestUnfairness(eval, a.partitioning, 50, 11).value();
  EXPECT_DOUBLE_EQ(r1.p_value, r2.p_value);
  EXPECT_DOUBLE_EQ(r1.null_mean, r2.null_mean);
}

TEST(PermutationTest, InvalidInputsFail) {
  auto f6 = MakeF6(3);
  Audited a = Audit(*f6, 100);
  UnfairnessEvaluator eval = MakeEval(a);
  EXPECT_FALSE(PermutationTestUnfairness(eval, a.partitioning, 0, 1).ok());
  Partitioning bad;
  EXPECT_FALSE(PermutationTestUnfairness(eval, bad, 10, 1).ok());
}

TEST(BootstrapTest, IntervalCoversObservedForStableSplit) {
  auto f6 = MakeF6(3);
  Audited a = Audit(*f6);
  UnfairnessEvaluator eval = MakeEval(a);
  auto result = BootstrapUnfairness(eval, a.partitioning, 100, 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->ci_lo, result->ci_hi);
  // f6's separation is extreme and stable: a tight interval around ~0.8
  // that contains the observed value.
  EXPECT_GE(result->observed, result->ci_lo - 0.05);
  EXPECT_LE(result->observed, result->ci_hi + 0.05);
  EXPECT_NEAR(result->mean, result->observed, 0.05);
}

TEST(BootstrapTest, Deterministic) {
  auto f7 = MakeF7(3);
  Audited a = Audit(*f7, 200);
  UnfairnessEvaluator eval = MakeEval(a);
  auto r1 = BootstrapUnfairness(eval, a.partitioning, 50, 9).value();
  auto r2 = BootstrapUnfairness(eval, a.partitioning, 50, 9).value();
  EXPECT_DOUBLE_EQ(r1.mean, r2.mean);
  EXPECT_DOUBLE_EQ(r1.ci_lo, r2.ci_lo);
  EXPECT_DOUBLE_EQ(r1.ci_hi, r2.ci_hi);
}

TEST(BootstrapTest, WiderIntervalForSmallerSample) {
  auto f1 = MakeAlphaFunction("f1", 0.5);
  Audited small = Audit(*f1, 80);
  Audited large = Audit(*f1, 2000);
  UnfairnessEvaluator eval_small = MakeEval(small);
  UnfairnessEvaluator eval_large = MakeEval(large);
  auto r_small =
      BootstrapUnfairness(eval_small, small.partitioning, 100, 3).value();
  auto r_large =
      BootstrapUnfairness(eval_large, large.partitioning, 100, 3).value();
  EXPECT_GT(r_small.ci_hi - r_small.ci_lo, 0.0);
  // More data -> tighter relative interval (compare normalized widths).
  double width_small = (r_small.ci_hi - r_small.ci_lo) / r_small.observed;
  double width_large = (r_large.ci_hi - r_large.ci_lo) / r_large.observed;
  EXPECT_LT(width_large, width_small);
}

TEST(BootstrapTest, InvalidInputsFail) {
  auto f6 = MakeF6(3);
  Audited a = Audit(*f6, 100);
  UnfairnessEvaluator eval = MakeEval(a);
  EXPECT_FALSE(BootstrapUnfairness(eval, a.partitioning, 0, 1).ok());
  Partitioning bad;
  EXPECT_FALSE(BootstrapUnfairness(eval, bad, 10, 1).ok());
}

TEST(SignificanceTest, CellTableEvaluatorFailsPrecondition) {
  auto f6 = MakeF6(3);
  Audited a = Audit(*f6, 100);
  // One histogram per row: the evaluator of an aggregate (cell) audit,
  // which has no individual scores to resample or permute.
  std::vector<Histogram> rows;
  for (double score : a.scores) {
    Histogram h(10, 0.0, 1.0);
    h.Add(score);
    rows.push_back(std::move(h));
  }
  StatusOr<UnfairnessEvaluator> made = UnfairnessEvaluator::MakeFromHistograms(
      &a.table, std::move(rows), EvaluatorOptions());
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const UnfairnessEvaluator& eval = *made;
  ASSERT_TRUE(eval.scores().empty());
  EXPECT_EQ(BootstrapUnfairness(eval, a.partitioning, 10, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      PermutationTestUnfairness(eval, a.partitioning, 10, 1).status().code(),
      StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace fairrank
