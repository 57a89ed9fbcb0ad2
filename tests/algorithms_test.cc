#include <gtest/gtest.h>

#include "fairness/registry.h"
#include "fairness/splitter.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

UnfairnessEvaluator MakeEvaluator(const Table* table,
                                  const ScoringFunction& fn,
                                  EvaluatorOptions options = {}) {
  return UnfairnessEvaluator::Make(table, fn.ScoreAll(*table).value(),
                                   options)
      .value();
}

Table Workers(size_t n, uint64_t seed = 42) {
  GeneratorOptions options;
  options.num_workers = n;
  options.seed = seed;
  return GenerateWorkers(options).value();
}

TEST(RegistryTest, AllNamesResolve) {
  for (const std::string& name : KnownAlgorithmNames()) {
    auto algo = MakeAlgorithmByName(name);
    ASSERT_TRUE(algo.ok()) << name;
    EXPECT_EQ((*algo)->Name(), name);
  }
  EXPECT_EQ(KnownAlgorithmNames().size(), 8u);
  EXPECT_EQ(PaperAlgorithmNames().size(), 5u);
}

TEST(RegistryTest, UnknownNameFails) {
  EXPECT_EQ(MakeAlgorithmByName("gradient-descent").status().code(),
            StatusCode::kNotFound);
}

// Every algorithm must return a valid full disjoint partitioning
// (Definition 1 constraints) on a real workload.
class AlgorithmContractTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmContractTest, ReturnsValidPartitioning) {
  Table workers = Workers(120);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  AlgorithmConfig config;
  config.seed = 7;
  config.exhaustive.max_partitionings = 200000;
  auto algo = MakeAlgorithmByName(GetParam(), config).value();
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  if (GetParam() == "exhaustive") {
    attrs.resize(2);  // Keep brute force tractable.
  }
  auto partitioning = algo->Run(eval, attrs);
  ASSERT_TRUE(partitioning.ok()) << partitioning.status().ToString();
  EXPECT_TRUE(IsValidPartitioning(*partitioning, workers.num_rows()));
}

TEST_P(AlgorithmContractTest, EmptyAttributeListYieldsRoot) {
  Table workers = Workers(30);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  auto algo = MakeAlgorithmByName(GetParam()).value();
  auto partitioning = algo->Run(eval, {});
  ASSERT_TRUE(partitioning.ok());
  ASSERT_EQ(partitioning->size(), 1u);
  EXPECT_EQ((*partitioning)[0].size(), workers.num_rows());
}

TEST_P(AlgorithmContractTest, DeterministicGivenSameConfig) {
  Table workers = Workers(80);
  auto fn = MakeAlphaFunction("f2", 0.3);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  AlgorithmConfig config;
  config.seed = 99;
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  if (GetParam() == "exhaustive") attrs.resize(2);

  auto run = [&]() {
    auto algo = MakeAlgorithmByName(GetParam(), config).value();
    return algo->Run(eval, attrs).value();
  };
  Partitioning a = run();
  Partitioning b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].rows, b[i].rows);
    EXPECT_EQ(a[i].path.size(), b[i].path.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmContractTest,
                         ::testing::ValuesIn(KnownAlgorithmNames()));

// Degenerate populations every algorithm must survive.
class DegenerateInputTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DegenerateInputTest, SingleWorker) {
  Table workers = Workers(1);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  AlgorithmConfig config;
  config.seed = 1;
  auto algo = MakeAlgorithmByName(GetParam(), config).value();
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  if (GetParam() == "exhaustive") attrs.resize(2);
  auto p = algo->Run(eval, attrs);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(IsValidPartitioning(*p, 1));
}

TEST_P(DegenerateInputTest, TwoWorkers) {
  Table workers = Workers(2);
  auto fn = MakeAlphaFunction("f4", 1.0);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  AlgorithmConfig config;
  config.seed = 1;
  auto algo = MakeAlgorithmByName(GetParam(), config).value();
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  if (GetParam() == "exhaustive") attrs.resize(3);
  auto p = algo->Run(eval, attrs);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_TRUE(IsValidPartitioning(*p, 2));
}

TEST_P(DegenerateInputTest, HomogeneousAttributes) {
  // Every worker identical on every protected attribute: all splits are
  // single-child; every algorithm must return one partition of everyone.
  Schema schema = MakeToySchema().value();
  Table table(schema);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({std::string("Female"), std::string("Indian"),
                                rng.NextDouble()})
                    .ok());
  }
  LinearScoringFunction fn("score", {{"Score", 1.0}});
  UnfairnessEvaluator eval = MakeEvaluator(&table, fn);
  AlgorithmConfig config;
  config.seed = 1;
  auto algo = MakeAlgorithmByName(GetParam(), config).value();
  auto p = algo->Run(eval, table.schema().ProtectedIndices());
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  ASSERT_EQ(p->size(), 1u);
  EXPECT_EQ((*p)[0].size(), 20u);
  EXPECT_DOUBLE_EQ(eval.AveragePairwiseUnfairness(*p).value(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DegenerateInputTest,
                         ::testing::ValuesIn(KnownAlgorithmNames()));

TEST(BalancedTest, AllLeavesShareSplitAttributes) {
  Table workers = Workers(200);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  auto algo = MakeAlgorithmByName("balanced").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  ASSERT_FALSE(p.empty());
  // Balanced tree: every leaf's path uses the same attribute sequence.
  std::vector<size_t> first_attrs;
  for (const SplitStep& s : p[0].path) first_attrs.push_back(s.attr_index);
  for (const Partition& leaf : p) {
    std::vector<size_t> attrs;
    for (const SplitStep& s : leaf.path) attrs.push_back(s.attr_index);
    EXPECT_EQ(attrs, first_attrs);
  }
}

TEST(BalancedTest, FindsGenderForF6) {
  // f6 discriminates purely on gender; balanced must split on gender only
  // ("for f6, balanced partitions the workers on only gender").
  Table workers = Workers(500);
  auto f6 = MakeF6(1234);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *f6);
  auto algo = MakeAlgorithmByName("balanced").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  EXPECT_EQ(AttributesUsed(workers.schema(), p),
            (std::vector<std::string>{worker_attrs::kGender}));
  EXPECT_EQ(p.size(), 2u);
  EXPECT_NEAR(eval.AveragePairwiseUnfairness(p).value(), 0.8, 0.05);
}

TEST(BalancedTest, FindsGenderAndCountryForF7) {
  Table workers = Workers(500);
  auto f7 = MakeF7(1234);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *f7);
  auto algo = MakeAlgorithmByName("balanced").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  EXPECT_EQ(AttributesUsed(workers.schema(), p),
            (std::vector<std::string>{worker_attrs::kGender,
                                      worker_attrs::kCountry}));
}

TEST(UnbalancedTest, CanUseDifferentAttributesPerBranch) {
  // f8 biases only females by country; males are uniform. The unbalanced
  // tree should split females by country but may leave males alone.
  Table workers = Workers(600);
  auto f8 = MakeF8(77);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *f8);
  auto algo = MakeAlgorithmByName("unbalanced").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  EXPECT_TRUE(IsValidPartitioning(p, workers.num_rows()));
  // At minimum gender and country must both appear somewhere.
  auto used = AttributesUsed(workers.schema(), p);
  EXPECT_NE(std::find(used.begin(), used.end(), worker_attrs::kGender),
            used.end());
  EXPECT_NE(std::find(used.begin(), used.end(), worker_attrs::kCountry),
            used.end());
}

/// Algorithm 2 with every histogram rebuilt from the rows it describes:
/// the oracle for the unbalanced search, which carries each partition's
/// histogram instead and passes siblings as histograms only.
void ReferenceRecurse(const UnfairnessEvaluator& eval, const Partition& current,
                      const std::vector<Partition>& siblings,
                      std::vector<size_t> attrs, Partitioning* out) {
  if (attrs.empty()) {
    out->push_back(current);
    return;
  }
  const std::vector<Histogram> sibling_hists = eval.BuildHistograms(siblings);
  const double current_avg =
      eval.AverageWithSiblings(eval.BuildHistogram(current), sibling_hists)
          .value();
  size_t best = 0;
  double best_avg = -1.0;
  for (size_t pos = 0; pos < attrs.size(); ++pos) {
    const double avg =
        eval.AverageChildrenWithSiblings(
                eval.BuildHistograms(
                    SplitPartition(eval.table(), current, attrs[pos])),
                sibling_hists)
            .value();
    if (avg > best_avg) {
      best_avg = avg;
      best = pos;
    }
  }
  const size_t attr = attrs[best];
  attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(best));
  if (current_avg >= best_avg) {
    out->push_back(current);
    return;
  }
  Partitioning children = SplitPartition(eval.table(), current, attr);
  for (size_t i = 0; i < children.size(); ++i) {
    Partitioning others = children;
    others.erase(others.begin() + static_cast<ptrdiff_t>(i));
    ReferenceRecurse(eval, children[i], others, attrs, out);
  }
}

Partitioning ReferenceUnbalanced(const UnfairnessEvaluator& eval,
                                 std::vector<size_t> attrs) {
  Partitioning root{MakeRootPartition(eval.table().num_rows())};
  const size_t pos =
      MakeWorstAttributeSelector()->SelectGlobal(eval, root, attrs).value();
  const size_t attr = attrs[pos];
  attrs.erase(attrs.begin() + static_cast<ptrdiff_t>(pos));
  Partitioning children = SplitPartition(eval.table(), root[0], attr);
  Partitioning out;
  for (size_t i = 0; i < children.size(); ++i) {
    Partitioning others = children;
    others.erase(others.begin() + static_cast<ptrdiff_t>(i));
    ReferenceRecurse(eval, children[i], others, attrs, &out);
  }
  return out;
}

TEST(UnbalancedTest, CarriedHistogramsMatchAlgorithm2FromRows) {
  Table workers = Workers(500);
  for (SiblingComparison reading :
       {SiblingComparison::kChildPairs, SiblingComparison::kAllPairs}) {
    EvaluatorOptions options;
    options.sibling_comparison = reading;
    for (const auto& fn : {MakeF7(5), MakeF8(5), MakeF9(5),
                           MakeAlphaFunction("f1", 0.5)}) {
      UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn, options);
      const std::vector<size_t> attrs = workers.schema().ProtectedIndices();
      Partitioning expected = ReferenceUnbalanced(eval, attrs);
      Partitioning got =
          MakeAlgorithmByName("unbalanced").value()->Run(eval, attrs).value();
      ASSERT_EQ(got.size(), expected.size()) << fn->Name();
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].rows, expected[i].rows) << fn->Name() << " " << i;
        EXPECT_EQ(got[i].path, expected[i].path) << fn->Name() << " " << i;
      }
    }
  }
}

TEST(AllAttributesTest, UsesEveryAttribute) {
  Table workers = Workers(400);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  auto algo = MakeAlgorithmByName("all-attributes").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  EXPECT_EQ(AttributesUsed(workers.schema(), p).size(), 6u);
}

TEST(AllAttributesTest, PartitionCountBoundedByCellCount) {
  Table workers = Workers(100);
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  auto algo = MakeAlgorithmByName("all-attributes").value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();
  // With 100 workers there can be at most 100 non-empty cells.
  EXPECT_LE(p.size(), 100u);
  EXPECT_GT(p.size(), 1u);
}

TEST(RandomBaselinesTest, SeedChangesChoice) {
  Table workers = Workers(150);
  auto fn = MakeAlphaFunction("f3", 0.7);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *fn);
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();
  // Across several seeds the first split attribute should vary.
  std::set<size_t> first_attrs;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    AlgorithmConfig config;
    config.seed = seed;
    auto algo = MakeAlgorithmByName("r-balanced", config).value();
    Partitioning p = algo->Run(eval, attrs).value();
    ASSERT_FALSE(p.empty());
    ASSERT_FALSE(p[0].path.empty());
    first_attrs.insert(p[0].path[0].attr_index);
  }
  EXPECT_GT(first_attrs.size(), 1u);
}

TEST(GreedyVsRandomTest, WorstSelectorNeverWorseOnFirstSplit) {
  // The first split of balanced maximizes average pairwise EMD by
  // construction, so it must be >= the first split of any r-balanced run.
  Table workers = Workers(300);
  auto f6 = MakeF6(5);
  UnfairnessEvaluator eval = MakeEvaluator(&workers, *f6);
  std::vector<size_t> attrs = workers.schema().ProtectedIndices();

  auto first_split_avg = [&](const std::string& name, uint64_t seed) {
    AlgorithmConfig config;
    config.seed = seed;
    auto algo = MakeAlgorithmByName(name, config).value();
    Partitioning p = algo->Run(eval, attrs).value();
    return eval.AveragePairwiseUnfairness(p).value();
  };
  double greedy = first_split_avg("balanced", 0);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_GE(greedy + 1e-9, first_split_avg("r-balanced", seed));
  }
}

}  // namespace
}  // namespace fairrank
