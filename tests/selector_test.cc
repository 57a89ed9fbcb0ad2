#include <gtest/gtest.h>

#include "fairness/algorithm.h"
#include "fairness/splitter.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
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

TEST(WorstAttributeSelectorTest, GlobalPicksGenderUnderF6) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6);
  auto selector = MakeWorstAttributeSelector();
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  size_t pos = selector->SelectGlobal(fx.eval(), root, attrs).value();
  EXPECT_EQ(fx.workers().schema().attribute(attrs[pos]).name(),
            worker_attrs::kGender);
}

TEST(WorstAttributeSelectorTest, LocalPicksCountryInsideGenderUnderF7) {
  auto f7 = MakeF7(3);
  Fixture fx = MakeFixture(*f7, 600);
  auto selector = MakeWorstAttributeSelector();
  size_t gender =
      fx.workers().schema().FindIndex(worker_attrs::kGender).value();
  auto children = SplitPartition(
      fx.workers(), MakeRootPartition(fx.workers().num_rows()), gender);
  ASSERT_EQ(children.size(), 2u);
  std::vector<Histogram> siblings = {fx.eval().BuildHistogram(children[1])};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  attrs.erase(std::find(attrs.begin(), attrs.end(), gender));
  size_t pos =
      selector->SelectLocal(fx.eval(), children[0], siblings, attrs).value();
  EXPECT_EQ(fx.workers().schema().attribute(attrs[pos]).name(),
            worker_attrs::kCountry);
}

TEST(WorstAttributeSelectorTest, EmptyAttributeListFails) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  auto selector = MakeWorstAttributeSelector();
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  EXPECT_FALSE(selector->SelectGlobal(fx.eval(), root, {}).ok());
  EXPECT_FALSE(selector->SelectLocal(fx.eval(), root[0], {}, {}).ok());
}

TEST(RandomAttributeSelectorTest, DeterministicGivenSeed) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  auto a = MakeRandomAttributeSelector(9);
  auto b = MakeRandomAttributeSelector(9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a->SelectGlobal(fx.eval(), root, attrs).value(),
              b->SelectGlobal(fx.eval(), root, attrs).value());
  }
}

TEST(RandomAttributeSelectorTest, CoversAllPositions) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  std::vector<size_t> attrs = fx.workers().schema().ProtectedIndices();
  auto selector = MakeRandomAttributeSelector(4);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(selector->SelectGlobal(fx.eval(), root, attrs).value());
  }
  EXPECT_EQ(seen.size(), attrs.size());
}

TEST(RandomAttributeSelectorTest, EmptyAttributeListFails) {
  auto f6 = MakeF6(3);
  Fixture fx = MakeFixture(*f6, 50);
  Partitioning root{MakeRootPartition(fx.workers().num_rows())};
  auto selector = MakeRandomAttributeSelector(1);
  EXPECT_FALSE(selector->SelectGlobal(fx.eval(), root, {}).ok());
}

}  // namespace
}  // namespace fairrank
