#include "marketplace/scoring.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "marketplace/generator.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

Table SmallWorkers(uint64_t seed = 3) {
  GeneratorOptions options;
  options.num_workers = 100;
  options.seed = seed;
  return GenerateWorkers(options).value();
}

TEST(LinearScoringTest, ScoresInUnitInterval) {
  Table workers = SmallWorkers();
  for (double alpha : {0.0, 0.3, 0.5, 0.7, 1.0}) {
    auto fn = MakeAlphaFunction("f", alpha);
    auto scores = fn->ScoreAll(workers);
    ASSERT_TRUE(scores.ok());
    ASSERT_EQ(scores->size(), workers.num_rows());
    for (double s : *scores) {
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(LinearScoringTest, AlphaOneUsesOnlyLanguageTest) {
  Table workers = SmallWorkers();
  auto fn = MakeAlphaFunction("f4", 1.0);
  auto scores = fn->ScoreAll(workers);
  ASSERT_TRUE(scores.ok());
  size_t lt =
      workers.schema().FindIndex(worker_attrs::kLanguageTest).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    double expected = (workers.column(lt).RealAt(row) - 25.0) / 75.0;
    EXPECT_NEAR((*scores)[row], expected, 1e-12);
  }
}

TEST(LinearScoringTest, AlphaZeroUsesOnlyApprovalRate) {
  Table workers = SmallWorkers();
  auto fn = MakeAlphaFunction("f5", 0.0);
  auto scores = fn->ScoreAll(workers);
  ASSERT_TRUE(scores.ok());
  size_t ar =
      workers.schema().FindIndex(worker_attrs::kApprovalRate).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    double expected = (workers.column(ar).RealAt(row) - 25.0) / 75.0;
    EXPECT_NEAR((*scores)[row], expected, 1e-12);
  }
}

TEST(LinearScoringTest, MixedAlphaIsConvexCombination) {
  Table workers = SmallWorkers();
  auto f4 = MakeAlphaFunction("f4", 1.0)->ScoreAll(workers).value();
  auto f5 = MakeAlphaFunction("f5", 0.0)->ScoreAll(workers).value();
  auto f1 = MakeAlphaFunction("f1", 0.5)->ScoreAll(workers).value();
  for (size_t row = 0; row < workers.num_rows(); ++row) {
    EXPECT_NEAR(f1[row], 0.5 * f4[row] + 0.5 * f5[row], 1e-12);
  }
}

TEST(LinearScoringTest, UnknownAttributeFails) {
  Table workers = SmallWorkers();
  LinearScoringFunction fn("bad", {{"Nonexistent", 1.0}});
  EXPECT_EQ(fn.ScoreAll(workers).status().code(), StatusCode::kNotFound);
}

TEST(LinearScoringTest, CategoricalAttributeFails) {
  Table workers = SmallWorkers();
  LinearScoringFunction fn("bad", {{worker_attrs::kGender, 1.0}});
  EXPECT_EQ(fn.ScoreAll(workers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearScoringTest, NegativeWeightFails) {
  Table workers = SmallWorkers();
  LinearScoringFunction fn("bad", {{worker_attrs::kLanguageTest, -0.5}});
  EXPECT_EQ(fn.ScoreAll(workers).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(LinearScoringTest, NonFiniteWeightFails) {
  Table workers = SmallWorkers();
  for (double weight : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    LinearScoringFunction fn("bad", {{worker_attrs::kLanguageTest, weight}});
    StatusOr<std::vector<double>> scores = fn.ScoreAll(workers);
    ASSERT_FALSE(scores.ok()) << weight;
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(scores.status().message().find("not finite"), std::string::npos)
        << scores.status().ToString();
  }
}

TEST(LinearScoringTest, ZeroWeightAttributeIgnored) {
  Table workers = SmallWorkers();
  // Zero weight on a categorical attribute would fail if not skipped.
  LinearScoringFunction fn("ok", {{worker_attrs::kLanguageTest, 1.0},
                                  {worker_attrs::kGender, 0.0}});
  EXPECT_TRUE(fn.ScoreAll(workers).ok());
}

TEST(LinearScoringTest, DeterministicAcrossCalls) {
  Table workers = SmallWorkers();
  auto fn = MakeAlphaFunction("f1", 0.5);
  auto a = fn->ScoreAll(workers).value();
  auto b = fn->ScoreAll(workers).value();
  EXPECT_EQ(a, b);
}

TEST(PaperFunctionsTest, FiveFunctionsWithExpectedNames) {
  auto fns = MakePaperRandomFunctions();
  ASSERT_EQ(fns.size(), 5u);
  EXPECT_NE(fns[0]->Name().find("f1"), std::string::npos);
  EXPECT_NE(fns[3]->Name().find("alpha=1.0"), std::string::npos);
  EXPECT_NE(fns[4]->Name().find("alpha=0.0"), std::string::npos);
}

TEST(PaperFunctionsTest, EmptyTableYieldsNoScores) {
  auto schema = MakePaperWorkerSchema();
  ASSERT_TRUE(schema.ok());
  Table empty(*schema);
  auto scores = MakeAlphaFunction("f1", 0.5)->ScoreAll(empty);
  ASSERT_TRUE(scores.ok());
  EXPECT_TRUE(scores->empty());
}

}  // namespace
}  // namespace fairrank
