// Property-based sweeps over randomized workloads: invariants that must hold
// for every (algorithm, scoring function, dataset seed) combination.

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "fairness/registry.h"
#include "fairness/serialize.h"
#include "fairness/splitter.h"
#include "marketplace/biased_scoring.h"
#include "marketplace/generator.h"
#include "marketplace/scoring.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

struct Workload {
  std::string algorithm;
  uint64_t data_seed;
};

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> out;
  for (const std::string& algorithm : PaperAlgorithmNames()) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      out.push_back({algorithm, seed});
    }
  }
  return out;
}

std::string WorkloadName(const ::testing::TestParamInfo<Workload>& info) {
  std::string name = info.param.algorithm + "_seed" +
                     std::to_string(info.param.data_seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class AlgorithmPropertyTest : public ::testing::TestWithParam<Workload> {
 protected:
  void SetUp() override {
    GeneratorOptions gen;
    gen.num_workers = 150;
    gen.seed = GetParam().data_seed;
    table_ = std::make_unique<Table>(GenerateWorkers(gen).value());
  }

  UnfairnessEvaluator Eval(const ScoringFunction& fn) {
    return UnfairnessEvaluator::Make(table_.get(),
                                     fn.ScoreAll(*table_).value(),
                                     EvaluatorOptions())
        .value();
  }

  Partitioning Run(const UnfairnessEvaluator& eval) {
    AlgorithmConfig config;
    config.seed = GetParam().data_seed * 31;
    auto algo = MakeAlgorithmByName(GetParam().algorithm, config).value();
    return algo->Run(eval, table_->schema().ProtectedIndices()).value();
  }

  std::unique_ptr<Table> table_;
};

TEST_P(AlgorithmPropertyTest, PartitioningIsDisjointCover) {
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval = Eval(*fn);
  Partitioning p = Run(eval);
  EXPECT_TRUE(IsValidPartitioning(p, table_->num_rows()));
}

TEST_P(AlgorithmPropertyTest, PathsAreConsistentWithMembership) {
  // Every row of a partition must actually match every step of the
  // partition's split path.
  auto fn = MakeAlphaFunction("f2", 0.3);
  UnfairnessEvaluator eval = Eval(*fn);
  Partitioning p = Run(eval);
  for (const Partition& part : p) {
    for (size_t row : part.rows) {
      for (const SplitStep& step : part.path) {
        EXPECT_EQ(table_->GroupIndex(row, step.attr_index), step.group_index);
      }
    }
  }
}

TEST_P(AlgorithmPropertyTest, NoAttributeRepeatsOnAPath) {
  auto fn = MakeAlphaFunction("f3", 0.7);
  UnfairnessEvaluator eval = Eval(*fn);
  Partitioning p = Run(eval);
  for (const Partition& part : p) {
    std::set<size_t> seen;
    for (const SplitStep& step : part.path) {
      EXPECT_TRUE(seen.insert(step.attr_index).second)
          << "attribute repeated on path";
    }
  }
}

TEST_P(AlgorithmPropertyTest, UnfairnessIsNonNegativeAndBounded) {
  auto f6 = MakeF6(GetParam().data_seed);
  UnfairnessEvaluator eval = Eval(*f6);
  Partitioning p = Run(eval);
  double u = eval.AveragePairwiseUnfairness(p).value();
  EXPECT_GE(u, 0.0);
  // 10 bins on [0,1]: max possible pairwise EMD is 0.9.
  EXPECT_LE(u, 0.9 + 1e-9);
}

TEST_P(AlgorithmPropertyTest, ConstantScoresYieldZeroUnfairness) {
  // A constant scoring function cannot be unfair under any partitioning.
  std::vector<BiasRule> rules;
  rules.push_back({{}, 0.5, 0.5});
  BiasedScoringFunction constant("const", rules, 1);
  UnfairnessEvaluator eval = Eval(constant);
  Partitioning p = Run(eval);
  EXPECT_DOUBLE_EQ(eval.AveragePairwiseUnfairness(p).value(), 0.0);
}

TEST_P(AlgorithmPropertyTest, SortedUnfairnessMatchesPairsThreadsAndCells) {
  // Whatever partitioning an algorithm returns, the sorted per-bin average
  // agrees with the mean over all pairs (within the tolerance evaluator_test
  // documents), and is bit-identical at 4 threads and on the cell input.
  auto fn = MakeAlphaFunction("f1", 0.5);
  std::vector<double> scores = fn->ScoreAll(*table_).value();
  std::vector<Histogram> rows;
  for (double score : scores) {
    Histogram h(10, 0.0, 1.0);
    h.Add(score);
    rows.push_back(std::move(h));
  }
  Partitioning p = Run(Eval(*fn));
  ASSERT_GE(p.size(), 2u);
  for (const char* divergence : {"emd", "tv"}) {
    EvaluatorOptions options;
    options.divergence = divergence;
    UnfairnessEvaluator serial =
        UnfairnessEvaluator::Make(table_.get(), scores, options).value();
    UnfairnessEvaluator cells =
        UnfairnessEvaluator::MakeFromHistograms(table_.get(), rows, options)
            .value();
    options.num_threads = 4;
    UnfairnessEvaluator parallel =
        UnfairnessEvaluator::Make(table_.get(), scores, options).value();

    const double u = serial.AveragePairwiseUnfairness(p).value();
    std::vector<Histogram> h = serial.BuildHistograms(p);
    double sum = 0.0;
    for (size_t i = 0; i < h.size(); ++i) {
      for (size_t j = i + 1; j < h.size(); ++j) {
        sum += serial.Distance(h[i], h[j]).value();
      }
    }
    const double pairs = static_cast<double>(h.size() * (h.size() - 1) / 2);
    EXPECT_NEAR(u, sum / pairs,
                16.0 * static_cast<double>(h.size() + 10) * DBL_EPSILON)
        << divergence;
    const double u4 = parallel.AveragePairwiseUnfairness(p).value();
    const double uc = cells.AveragePairwiseUnfairness(p).value();
    EXPECT_EQ(std::memcmp(&u, &u4, sizeof(double)), 0) << divergence;
    EXPECT_EQ(std::memcmp(&u, &uc, sizeof(double)), 0) << divergence;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AlgorithmPropertyTest,
                         ::testing::ValuesIn(AllWorkloads()), WorkloadName);

// --- Permutation invariance: shuffling worker order must not change what
// --- any algorithm finds — the same unfairness bit for bit and the same
// --- partition sizes.

struct ShuffleCase {
  std::string algorithm;
  uint64_t seed;
};

std::vector<ShuffleCase> AllShuffleCases() {
  std::vector<ShuffleCase> out;
  for (const std::string& algorithm : KnownAlgorithmNames()) {
    for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      out.push_back({algorithm, seed});
    }
  }
  return out;
}

std::string ShuffleCaseName(const ::testing::TestParamInfo<ShuffleCase>& info) {
  std::string name =
      info.param.algorithm + "_seed" + std::to_string(info.param.seed);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

/// `table` with its rows in `order`, copied as typed values (category
/// codes, integers, reals) so every score is bit-equal to the original's.
Table Reordered(const Table& table, const std::vector<size_t>& order) {
  Table out(table.schema());
  for (size_t row : order) {
    std::vector<Cell> cells;
    for (size_t a = 0; a < table.num_columns(); ++a) {
      const Column& column = table.column(a);
      switch (column.kind()) {
        case AttributeKind::kCategorical:
          cells.emplace_back(int64_t{column.CodeAt(row)});
          break;
        case AttributeKind::kInteger:
          cells.emplace_back(column.IntAt(row));
          break;
        case AttributeKind::kReal:
          cells.emplace_back(column.RealAt(row));
          break;
      }
    }
    EXPECT_TRUE(out.AppendRow(cells).ok());
  }
  return out;
}

class PermutationInvarianceTest
    : public ::testing::TestWithParam<ShuffleCase> {};

TEST_P(PermutationInvarianceTest, InvariantUnderRowShuffle) {
  GeneratorOptions gen;
  gen.num_workers = 120;
  gen.seed = GetParam().seed;
  Table original = GenerateWorkers(gen).value();
  Rng rng(GetParam().seed + 1000);
  std::vector<size_t> order(original.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  Table shuffled = Reordered(original, order);

  // Exhaustive search stays exact (and fast) on the three attributes with
  // the fewest groups.
  std::vector<size_t> attrs = original.schema().ProtectedIndices();
  if (GetParam().algorithm == "exhaustive") {
    attrs.clear();
    for (const char* name : {worker_attrs::kGender, worker_attrs::kCountry,
                             worker_attrs::kLanguage}) {
      attrs.push_back(original.schema().FindIndex(name).value());
    }
  }
  auto fn = MakeAlphaFunction("f1", 0.5);
  struct Found {
    double unfairness;
    std::vector<size_t> sizes;
  };
  auto run = [&](const Table& t) {
    UnfairnessEvaluator eval =
        UnfairnessEvaluator::Make(&t, fn->ScoreAll(t).value(),
                                  EvaluatorOptions())
            .value();
    AlgorithmConfig config;
    config.seed = GetParam().seed * 31;
    auto algo = MakeAlgorithmByName(GetParam().algorithm, config).value();
    Partitioning p = algo->Run(eval, attrs).value();
    Found found{eval.AveragePairwiseUnfairness(p).value(), {}};
    for (const Partition& part : p) found.sizes.push_back(part.size());
    return found;
  };
  const Found a = run(original);
  const Found b = run(shuffled);
  EXPECT_EQ(std::memcmp(&a.unfairness, &b.unfairness, sizeof(double)), 0)
      << a.unfairness << " vs " << b.unfairness;
  EXPECT_EQ(a.sizes, b.sizes);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PermutationInvarianceTest,
                         ::testing::ValuesIn(AllShuffleCases()),
                         ShuffleCaseName);

// --- Bin-count sensitivity: EMD-based unfairness must be stable (not
// --- wildly divergent) across reasonable bin counts.

class BinCountTest : public ::testing::TestWithParam<int> {};

TEST_P(BinCountTest, F6UnfairnessStableAcrossBinCounts) {
  GeneratorOptions gen;
  gen.num_workers = 400;
  gen.seed = 17;
  Table workers = GenerateWorkers(gen).value();
  auto f6 = MakeF6(17);
  EvaluatorOptions options;
  options.num_bins = GetParam();
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, f6->ScoreAll(workers).value(),
                                options)
          .value();
  size_t gender =
      workers.schema().FindIndex(worker_attrs::kGender).value();
  auto children = SplitPartition(
      workers, MakeRootPartition(workers.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  // True Wasserstein distance between U(0.8,1) and U(0,0.2) is 0.8; the
  // binned estimate converges to it as bins grow.
  double u = eval.AveragePairwiseUnfairness(p).value();
  EXPECT_NEAR(u, 0.8, 0.9 / GetParam() + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Bins, BinCountTest,
                         ::testing::Values(5, 10, 20, 50, 100));

// --- Pruned worst pairs: on near-full partitionings of generated workers
// --- (the shape a Table-2 audit ends in), TopPairs' pivot-pruned scan
// --- returns exactly the head of all pairs stable-sorted by distance.

class PrunedTopPairsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PrunedTopPairsTest, EqualsStableSortOfAllPairs) {
  GeneratorOptions gen;
  gen.num_workers = 700;
  gen.seed = GetParam();
  Table workers = GenerateWorkers(gen).value();
  auto functions = MakePaperRandomFunctions();
  const ScoringFunction& fn = *functions[GetParam() % functions.size()];
  const std::vector<double> scores = fn.ScoreAll(workers).value();
  for (const char* divergence : {"emd", "tv"}) {
    EvaluatorOptions options;
    options.divergence = divergence;
    UnfairnessEvaluator eval =
        UnfairnessEvaluator::Make(&workers, scores, options).value();
    auto algo = MakeAlgorithmByName("all-attributes").value();
    Partitioning p =
        algo->Run(eval, workers.schema().ProtectedIndices()).value();
    ASSERT_GE(p.size(), 300u);
    const std::vector<Histogram> h = eval.BuildHistograms(p);
    std::vector<DivergentPair> all;
    for (size_t i = 0; i < h.size(); ++i) {
      for (size_t j = i + 1; j < h.size(); ++j) {
        all.push_back({i, j, eval.Distance(h[i], h[j]).value()});
      }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const DivergentPair& a, const DivergentPair& b) {
                       return a.distance > b.distance;
                     });
    for (size_t n : {1u, 3u, 25u}) {
      const std::vector<DivergentPair> top = eval.TopPairs(h, n).value();
      ASSERT_EQ(top.size(), n);
      for (size_t r = 0; r < n; ++r) {
        EXPECT_EQ(top[r].index_a, all[r].index_a) << divergence << " " << r;
        EXPECT_EQ(top[r].index_b, all[r].index_b) << divergence << " " << r;
        EXPECT_EQ(std::memcmp(&top[r].distance, &all[r].distance,
                              sizeof(double)),
                  0)
            << divergence << " " << r;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedTopPairsTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// --- Round-trip fuzz: random worker tables must survive CSV and
// --- partitioning-spec round trips bit-for-bit (up to cell formatting).

class RoundTripFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripFuzzTest, CsvRoundTripPreservesEveryCell) {
  GeneratorOptions gen;
  gen.num_workers = 60 + GetParam() * 13;
  gen.seed = GetParam();
  Table original = GenerateWorkers(gen).value();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(out, original).ok());
  std::istringstream in(out.str());
  Table round = ReadCsv(in, original.schema()).value();
  ASSERT_EQ(round.num_rows(), original.num_rows());
  for (size_t row = 0; row < original.num_rows(); ++row) {
    for (size_t col = 0; col < original.num_columns(); ++col) {
      EXPECT_EQ(original.CellToString(row, col), round.CellToString(row, col));
    }
  }
}

TEST_P(RoundTripFuzzTest, SerializeRoundTripPreservesRowSets) {
  GeneratorOptions gen;
  gen.num_workers = 100;
  gen.seed = GetParam() + 50;
  Table workers = GenerateWorkers(gen).value();
  auto fn = MakeAlphaFunction("f1", 0.5);
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&workers, fn->ScoreAll(workers).value(),
                                EvaluatorOptions())
          .value();
  AlgorithmConfig config;
  config.seed = GetParam();
  auto algo = MakeAlgorithmByName("r-unbalanced", config).value();
  Partitioning p =
      algo->Run(eval, workers.schema().ProtectedIndices()).value();

  std::string text = SerializePartitioning(workers.schema(), p);
  Partitioning round = ApplyPartitioningSpec(workers, text).value();
  ASSERT_EQ(round.size(), p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(round[i].rows, p[i].rows);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzzTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace fairrank
