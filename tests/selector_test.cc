#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "fairness/algorithm.h"
#include "fairness/splitter.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

// The evaluator holds a pointer to its table, so the table lives behind a
// stable unique_ptr address for the fixture's lifetime.
struct Fixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<UnfairnessEvaluator> evaluator;

  const Table& workers() const { return *table; }
  const UnfairnessEvaluator& eval() const { return *evaluator; }
};

Fixture MakeFixture(const ScoringFunction& fn, size_t n = 300,
                    uint64_t seed = 6) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  Fixture fx;
  fx.table = std::make_unique<Table>(GenerateWorkers(options).value());
  fx.evaluator = std::make_unique<UnfairnessEvaluator>(
      UnfairnessEvaluator::Make(fx.table.get(),
                                fn.ScoreAll(*fx.table).value(),
                                EvaluatorOptions())
          .value());
  return fx;
}

TEST(ChooseSplitTest, GlobalPicksGenderUnderF6) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  SplitChoice choice =
      ChooseGlobalSplit(fx.eval(), root, attrs, nullptr).value();
  EXPECT_EQ(fx.workers().schema().attribute(attrs[choice.pos]).name(),
            worker_attrs::kGender);
}

TEST(ChooseSplitTest, LocalPicksCountryInsideGenderUnderF7) {
  auto f7 = MakeF7(3);
  Fixture fx = MakeFixture(*f7, 600);
  size_t gender =
      fx.workers().schema().FindIndex(worker_attrs::kGender).value();
  auto children = SplitPartition(
      fx.workers(), MakeRootPartition(fx.workers().num_rows()), gender);
  ASSERT_EQ(children.size(), 2u);
  std::vector<Histogram> siblings = {fx.eval().BuildHistogram(children[1])};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  attrs.erase(std::find(attrs.begin(), attrs.end(), gender));
  SplitChoice choice =
      ChooseLocalSplit(fx.eval(), children[0], siblings, attrs, nullptr)
          .value();
  EXPECT_EQ(fx.workers().schema().attribute(attrs[choice.pos]).name(),
            worker_attrs::kCountry);
}

TEST(ChooseSplitTest, EmptyAttributeListFails) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  Rng random(1);
  for (Rng* r : {static_cast<Rng*>(nullptr), &random}) {
    EXPECT_FALSE(ChooseGlobalSplit(fx.eval(), root, {}, r).ok());
    EXPECT_FALSE(ChooseLocalSplit(fx.eval(), root[0], {}, {}, r).ok());
  }
}

TEST(ChooseSplitTest, RandomIsDeterministicGivenSeed) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  Rng a(9);
  Rng b(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ChooseGlobalSplit(fx.eval(), root, attrs, &a).value().pos,
              ChooseGlobalSplit(fx.eval(), root, attrs, &b).value().pos);
    EXPECT_EQ(
        ChooseLocalSplit(fx.eval(), root[0], {}, attrs, &a).value().pos,
        ChooseLocalSplit(fx.eval(), root[0], {}, attrs, &b).value().pos);
  }
}

TEST(ChooseSplitTest, RandomCoversAllPositions) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  Rng random(4);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(ChooseGlobalSplit(fx.eval(), root, attrs, &random)->pos);
  }
  EXPECT_EQ(seen.size(), attrs.size());
}

// The random choice takes one UniformIndex draw per step, exactly the draw
// the r-* baselines have always made, and scores that one candidate only.
TEST(ChooseSplitTest, RandomDrawsOnceAndScoresOneCandidate) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  Rng random(11);
  Rng mirror(11);
  for (int i = 0; i < 20; ++i) {
    const uint64_t built = fx.eval().cache_stats().histogram_misses;
    SplitChoice choice =
        ChooseGlobalSplit(fx.eval(), root, attrs, &random).value();
    EXPECT_EQ(choice.pos, mirror.UniformIndex(attrs.size()));
    EXPECT_EQ(fx.eval().cache_stats().histogram_misses - built,
              choice.partitions.size());
  }
}

// The score a choice returns is the very double a re-score of its split
// gives, so adopting it changes no decision.
TEST(ChooseSplitTest, ScoreIsBitIdenticalToRescoringTheSplit) {
  for (const auto& fn : {MakeF7(3), MakeF9(3), MakeAlphaFunction("f1", 0.5)}) {
    Fixture fx = MakeFixture(*fn, 400);
    Partitioning root{MakeRootPartition(fx.workers().num_rows())};
    std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
    SplitChoice global =
        ChooseGlobalSplit(fx.eval(), root, attrs, nullptr).value();
    const double rescored =
        fx.eval().AveragePairwiseUnfairness(global.partitions).value();
    EXPECT_EQ(std::memcmp(&global.score, &rescored, sizeof(double)), 0)
        << fn->Name();
    ASSERT_EQ(global.histograms.size(), global.partitions.size());

    // A local step inside the first child, against the other children.
    std::vector<size_t> rest = attrs;
    rest.erase(rest.begin() + static_cast<ptrdiff_t>(global.pos));
    std::vector<Histogram> siblings(global.histograms.begin() + 1,
                                    global.histograms.end());
    SplitChoice local = ChooseLocalSplit(fx.eval(), global.partitions[0],
                                         siblings, rest, nullptr)
                            .value();
    const double local_rescored =
        fx.eval()
            .AverageChildrenWithSiblings(
                fx.eval().BuildHistograms(local.partitions), siblings)
            .value();
    EXPECT_EQ(std::memcmp(&local.score, &local_rescored, sizeof(double)), 0)
        << fn->Name();
  }
}

}  // namespace
}  // namespace fairrank
