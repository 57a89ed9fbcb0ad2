#include "fairness/evaluator.h"

#include <algorithm>
#include <cfloat>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fairness/splitter.h"
#include "marketplace/worker.h"

namespace fairrank {
namespace {

/// Toy table + the toy observed score as the audited scores.
struct Fixture {
  Table table;
  UnfairnessEvaluator eval;
};

std::vector<double> ToyScores(const Table& table) {
  size_t score_col = table.schema().FindIndex("Score").value();
  std::vector<double> scores;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    scores.push_back(table.column(score_col).RealAt(row));
  }
  return scores;
}

UnfairnessEvaluator MakeToyEvaluator(const Table* table,
                                     EvaluatorOptions options = {}) {
  return UnfairnessEvaluator::Make(table, ToyScores(*table), options).value();
}

TEST(EvaluatorTest, MakeValidation) {
  Table table = MakeToyTable().value();
  EvaluatorOptions options;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(nullptr, {}, options).ok());
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, {0.5}, options).ok());  // Size.
  options.num_bins = 0;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
  options.num_bins = 10;
  options.score_hi = options.score_lo;
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
  options = EvaluatorOptions();
  options.divergence = "bogus";
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, ToyScores(table), options).ok());
}

TEST(EvaluatorTest, NonFiniteScoresRejected) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).ok());
  scores[3] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).ok());
}

TEST(EvaluatorTest, OutOfRangeScoresCountedByDefault) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[0] = -0.25;
  scores[1] = 1.5;
  UnfairnessEvaluator eval =
      UnfairnessEvaluator::Make(&table, scores, EvaluatorOptions()).value();
  EXPECT_EQ(eval.num_out_of_range(), 2u);
  // In-range vectors report zero.
  EXPECT_EQ(MakeToyEvaluator(&table).num_out_of_range(), 0u);
}

TEST(EvaluatorTest, BuildHistogramCountsPartitionScores) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Histogram female = eval.BuildHistogram(children[1]);
  EXPECT_DOUBLE_EQ(female.total(), 4.0);
  EXPECT_DOUBLE_EQ(female.counts()[4], 4.0);  // All four at 0.42.
}

/// One single-score histogram per row: the evaluator's bin configuration.
std::vector<Histogram> RowHistograms(const std::vector<double>& scores) {
  std::vector<Histogram> histograms;
  for (double score : scores) {
    Histogram h(10, 0.0, 1.0);
    h.Add(score);
    histograms.push_back(std::move(h));
  }
  return histograms;
}

TEST(EvaluatorTest, HistogramRowsMatchScoreRowsBitForBit) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[0] = 1.5;  // Clamped into the top bin.
  const EvaluatorOptions options;
  UnfairnessEvaluator by_score =
      UnfairnessEvaluator::Make(&table, scores, options).value();
  std::vector<Histogram> rows = RowHistograms(scores);
  UnfairnessEvaluator by_histogram =
      UnfairnessEvaluator::MakeFromHistograms(&table, rows, options).value();
  EXPECT_TRUE(by_histogram.scores().empty());
  EXPECT_EQ(by_histogram.num_out_of_range(), by_score.num_out_of_range());

  Partitioning partitioning = {MakeRootPartition(table.num_rows())};
  for (size_t attr : table.schema().ProtectedIndices()) {
    partitioning = SplitAll(table, partitioning, attr);
  }
  for (const Partition& p : partitioning) {
    Histogram a = by_score.BuildHistogram(p);
    Histogram b = by_histogram.BuildHistogram(p);
    EXPECT_EQ(a.counts(), b.counts());
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.clamped_count(), b.clamped_count());
  }
  EXPECT_EQ(by_score.AveragePairwiseUnfairness(partitioning).value(),
            by_histogram.AveragePairwiseUnfairness(partitioning).value());
}

TEST(EvaluatorTest, MakeFromHistogramsValidation) {
  Table table = MakeToyTable().value();
  auto make = [&table](const std::vector<Histogram>& histograms,
                       const EvaluatorOptions& options) {
    return UnfairnessEvaluator::MakeFromHistograms(&table, histograms, options)
        .status();
  };
  std::vector<Histogram> histograms = RowHistograms(ToyScores(table));
  std::vector<Histogram> too_few(histograms.begin(), histograms.end() - 1);
  EXPECT_EQ(make(too_few, EvaluatorOptions()).code(),
            StatusCode::kInvalidArgument);
  std::vector<Histogram> wrong_shape = histograms;
  wrong_shape[2] = Histogram(5, 0.0, 1.0);
  EXPECT_EQ(make(wrong_shape, EvaluatorOptions()).code(),
            StatusCode::kInvalidArgument);
}

TEST(EvaluatorTest, SinglePartitionUnfairnessIsZero) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partitioning p{MakeRootPartition(table.num_rows())};
  EXPECT_DOUBLE_EQ(eval.AveragePairwiseUnfairness(p).value(), 0.0);
}

TEST(EvaluatorTest, TwoPartitionUnfairnessEqualsTheirDistance) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  double unfairness = eval.AveragePairwiseUnfairness(p).value();
  double distance = eval.Distance(children[0], children[1]).value();
  EXPECT_DOUBLE_EQ(unfairness, distance);
  EXPECT_GT(unfairness, 0.0);
}

TEST(EvaluatorTest, AverageIsMeanOverPairs) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_gender =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  auto males = SplitPartition(table, by_gender[0], language);
  Partitioning p(males.begin(), males.end());
  p.push_back(by_gender[1]);
  ASSERT_EQ(p.size(), 4u);
  double sum = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    for (size_t j = i + 1; j < p.size(); ++j) {
      sum += eval.Distance(p[i], p[j]).value();
    }
  }
  EXPECT_NEAR(eval.AveragePairwiseUnfairness(p).value(), sum / 6.0, 1e-12);
}

TEST(EvaluatorTest, AverageWithSiblingsEmptyIsZero) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partition root = MakeRootPartition(table.num_rows());
  EXPECT_DOUBLE_EQ(
      eval.AverageWithSiblings(eval.BuildHistogram(root), {}).value(), 0.0);
}

TEST(EvaluatorTest, AverageWithSiblingsMatchesManualMean) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t language = table.schema().FindIndex("Language").value();
  auto parts =
      SplitPartition(table, MakeRootPartition(table.num_rows()), language);
  ASSERT_EQ(parts.size(), 3u);
  std::vector<Histogram> siblings = eval.BuildHistograms({parts[1], parts[2]});
  double manual = (eval.Distance(parts[0], parts[1]).value() +
                   eval.Distance(parts[0], parts[2]).value()) /
                  2.0;
  EXPECT_NEAR(
      eval.AverageWithSiblings(eval.BuildHistogram(parts[0]), siblings)
          .value(),
      manual, 1e-12);
}

TEST(EvaluatorTest, ChildPairsReadingCountsChildPairsOnly) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_gender =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  auto male_children = SplitPartition(table, by_gender[0], language);
  std::vector<Partition> siblings = {by_gender[1]};

  // Manual: 3 child-child pairs + 3 child-sibling pairs.
  double sum = 0.0;
  for (size_t i = 0; i < male_children.size(); ++i) {
    for (size_t j = i + 1; j < male_children.size(); ++j) {
      sum += eval.Distance(male_children[i], male_children[j]).value();
    }
    sum += eval.Distance(male_children[i], siblings[0]).value();
  }
  EXPECT_NEAR(eval.AverageChildrenWithSiblings(eval.BuildHistograms(male_children),
                                               eval.BuildHistograms(siblings))
                  .value(),
              sum / 6.0, 1e-12);
}

TEST(EvaluatorTest, AllPairsReadingIncludesSiblingPairs) {
  Table table = MakeToyTable().value();
  EvaluatorOptions options;
  options.sibling_comparison = SiblingComparison::kAllPairs;
  UnfairnessEvaluator eval = MakeToyEvaluator(&table, options);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_language =
      SplitPartition(table, MakeRootPartition(table.num_rows()), language);
  ASSERT_EQ(by_language.size(), 3u);
  auto children = SplitPartition(table, by_language[0], gender);
  std::vector<Partition> siblings = {by_language[1], by_language[2]};
  // All-pairs reading equals the average pairwise unfairness of
  // children ∪ siblings.
  Partitioning combined(children.begin(), children.end());
  combined.insert(combined.end(), siblings.begin(), siblings.end());
  EXPECT_NEAR(eval.AverageChildrenWithSiblings(eval.BuildHistograms(children),
                                               eval.BuildHistograms(siblings))
                  .value(),
              eval.AveragePairwiseUnfairness(combined).value(), 1e-12);
}

TEST(EvaluatorTest, NoQualifyingPairsYieldsZero) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  // Single child, no siblings: no pairs at all.
  EXPECT_DOUBLE_EQ(
      eval.AverageChildrenWithSiblings({eval.BuildHistogram(children[0])}, {})
          .value(),
      0.0);
}

TEST(TopDivergentPairsTest, SortedAndClamped) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  size_t gender = table.schema().FindIndex("Gender").value();
  size_t language = table.schema().FindIndex("Language").value();
  auto by_gender =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  auto males = SplitPartition(table, by_gender[0], language);
  Partitioning p(males.begin(), males.end());
  p.push_back(by_gender[1]);  // 4 partitions -> 6 pairs.

  auto pairs = TopDivergentPairs(eval, p, 100);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 6u);  // k larger than pair count is clamped.
  for (size_t i = 1; i < pairs->size(); ++i) {
    EXPECT_GE((*pairs)[i - 1].distance, (*pairs)[i].distance);
  }
  auto top2 = TopDivergentPairs(eval, p, 2).value();
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_DOUBLE_EQ(top2[0].distance, (*pairs)[0].distance);

  // The most divergent pair in the toy data is Male-English (0.875 mean)
  // vs Male-Other (0.125 mean).
  std::set<std::string> labels = {
      PartitionLabel(table.schema(), p[top2[0].index_a]),
      PartitionLabel(table.schema(), p[top2[0].index_b])};
  EXPECT_TRUE(labels.count("Gender=Male & Language=English"));
  EXPECT_TRUE(labels.count("Gender=Male & Language=Other"));
}

TEST(TopDivergentPairsTest, DegenerateInputs) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluator(&table);
  Partitioning root{MakeRootPartition(table.num_rows())};
  EXPECT_TRUE(TopDivergentPairs(eval, root, 5)->empty());
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  EXPECT_TRUE(TopDivergentPairs(eval, p, 0)->empty());
}

/// `k` random histograms of `bins` bins over [0, 1]: 1 to 60 Gaussian
/// samples around a per-histogram center, some of them clamped in from
/// outside the range; every third histogram copies an earlier one (ties).
std::vector<Histogram> RandomHistograms(size_t k, int bins, uint64_t seed) {
  Rng rng(seed);
  std::vector<Histogram> out;
  for (size_t i = 0; i < k; ++i) {
    if (i >= 3 && i % 3 == 0) {
      out.push_back(out[rng.UniformIndex(i)]);
      continue;
    }
    Histogram h(bins, 0.0, 1.0);
    const double center = rng.NextDouble();
    const int64_t n = rng.UniformInt(1, 60);
    for (int64_t s = 0; s < n; ++s) {
      h.Add(std::clamp(rng.Gaussian(center, 0.25), -0.2, 1.2));
    }
    out.push_back(std::move(h));
  }
  return out;
}

UnfairnessEvaluator MakeToyEvaluatorFor(const Table* table,
                                        const std::string& divergence,
                                        int num_threads = 1) {
  EvaluatorOptions options;
  options.divergence = divergence;
  options.num_threads = num_threads;
  return MakeToyEvaluator(table, options);
}

/// The all-pairs oracle: every Distance in upper-triangle order, summed
/// left to right.
double PairwiseMean(const UnfairnessEvaluator& eval,
                    const std::vector<Histogram>& h) {
  double sum = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < h.size(); ++i) {
    for (size_t j = i + 1; j < h.size(); ++j) {
      sum += eval.Distance(h[i], h[j]).value();
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs);
}

/// The documented agreement of the sorted form with PairwiseMean over k
/// histograms of B bins (DESIGN.md): 16 (k + B) ulps of 1. The pairwise
/// mean's own rounding grows with the k(k-1)/2 terms it adds.
double SortedTolerance(size_t k, int bins) {
  return 16.0 * static_cast<double>(k + static_cast<size_t>(bins)) *
         DBL_EPSILON;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SortedAverageTest, MatchesPairwiseOracle) {
  Table table = MakeToyTable().value();
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    for (size_t k : {2u, 3u, 50u, 1770u}) {
      std::vector<Histogram> h = RandomHistograms(k, 10, 100 + k);
      const double sorted = eval.AveragePairwise(h).value();
      EXPECT_NEAR(sorted, PairwiseMean(eval, h), SortedTolerance(k, 10))
          << divergence << " k=" << k;
      EXPECT_GT(sorted, 0.0);
    }
  }
}

TEST(SortedAverageTest, MatchesGeneralEmdOnSmallSets) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator emd = MakeToyEvaluatorFor(&table, "emd");
  UnfairnessEvaluator general = MakeToyEvaluatorFor(&table, "emd-general");
  for (size_t k : {2u, 3u, 7u}) {
    std::vector<Histogram> h = RandomHistograms(k, 10, 7 + k);
    EXPECT_NEAR(emd.AveragePairwise(h).value(),
                general.AveragePairwise(h).value(), 1e-12)
        << "k=" << k;
  }
}

TEST(SortedAverageTest, TiesOneBinAndIdenticalSets) {
  Table table = MakeToyTable().value();
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    // One bin: every histogram is the same point mass.
    std::vector<Histogram> one_bin;
    for (double v : {0.1, 0.9, 2.0, -1.0}) {
      Histogram h(1, 0.0, 1.0);
      h.Add(v);
      one_bin.push_back(std::move(h));
    }
    EXPECT_EQ(eval.AveragePairwise(one_bin).value(), 0.0) << divergence;
    // All copies of one histogram.
    std::vector<Histogram> same(40, RandomHistograms(1, 10, 3)[0]);
    EXPECT_NEAR(eval.AveragePairwise(same).value(), 0.0, 1e-15)
        << divergence;
    // Two groups of copies: a heavily tied sort.
    std::vector<Histogram> groups(30, RandomHistograms(1, 10, 4)[0]);
    groups.resize(60, RandomHistograms(1, 10, 5)[0]);
    EXPECT_NEAR(eval.AveragePairwise(groups).value(),
                PairwiseMean(eval, groups), SortedTolerance(60, 10))
        << divergence;
  }
}

TEST(SortedAverageTest, BitIdenticalAcrossThreadCounts) {
  Table table = MakeToyTable().value();
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator serial = MakeToyEvaluatorFor(&table, divergence, 1);
    UnfairnessEvaluator parallel = MakeToyEvaluatorFor(&table, divergence, 4);
    // 10 bins run inline; 300 bins split across the four workers.
    for (int bins : {10, 300}) {
      std::vector<Histogram> h = RandomHistograms(500, bins, 21);
      const double a = serial.AveragePairwise(h).value();
      const double b = parallel.AveragePairwise(h).value();
      EXPECT_TRUE(SameBits(a, b)) << divergence << " bins=" << bins;
    }
  }
}

TEST(SortedAverageTest, CountsPairTermsCovered) {
  Table table = MakeToyTable().value();
  UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, "emd");
  const uint64_t num_pairs = 50u * 49u / 2u;
  ASSERT_TRUE(eval.AveragePairwise(RandomHistograms(50, 10, 1)).ok());
  EXPECT_EQ(eval.cache_stats().divergence_misses, num_pairs);
  // TopPairs adds the pairs it computed, which its bound may make fewer
  // than all of them.
  ASSERT_TRUE(eval.TopPairs(RandomHistograms(50, 10, 1), 3).ok());
  const uint64_t evaluated =
      eval.cache_stats().divergence_misses - num_pairs;
  EXPECT_GT(evaluated, 0u);
  EXPECT_LE(evaluated, num_pairs);
}

TEST(SortedAverageTest, BadPairsFailLikeDistance) {
  Table table = MakeToyTable().value();
  for (const char* divergence : {"emd", "tv", "js"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    std::vector<Histogram> good = RandomHistograms(6, 10, 9);
    const Histogram empty(10, 0.0, 1.0);
    const Histogram narrow = RandomHistograms(1, 5, 9)[0];
    // (position, replacement): an empty or differently shaped histogram
    // first, in the middle, or last.
    const std::vector<std::pair<size_t, Histogram>> cases = {
        {0, empty}, {3, empty}, {5, empty}, {0, narrow}, {4, narrow}};
    for (const auto& [position, bad] : cases) {
      std::vector<Histogram> h = good;
      h[position] = bad;
      // The first failing pair in upper-triangle order.
      Status expected;
      for (size_t i = 0; i < h.size() && expected.ok(); ++i) {
        for (size_t j = i + 1; j < h.size() && expected.ok(); ++j) {
          expected = eval.Distance(h[i], h[j]).status();
        }
      }
      ASSERT_FALSE(expected.ok());
      Status average = eval.AveragePairwise(h).status();
      EXPECT_EQ(average.code(), expected.code())
          << divergence << " at " << position;
      EXPECT_EQ(average.message(), expected.message());
      EXPECT_EQ(eval.TopPairs(h, 3).status().code(), expected.code())
          << divergence << " at " << position;
    }
  }
}

/// TopPairs' reference: every pair's Distance in (i, j) order, stable-sorted
/// by descending distance, cut to n.
std::vector<DivergentPair> ReferenceTopPairs(const UnfairnessEvaluator& eval,
                                             const std::vector<Histogram>& h,
                                             size_t n) {
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
  if (all.size() > n) all.resize(n);
  return all;
}

TEST(TopDivergentPairsTest, MatchesStableSortOfAllPairsBitForBit) {
  Table table = MakeToyTable().value();
  // 150 histograms span several 64-pair blocks per row; every third is a
  // copy, so distances tie.
  std::vector<Histogram> h = RandomHistograms(150, 10, 77);
  const size_t num_pairs = 150 * 149 / 2;
  for (const char* divergence : {"emd", "tv", "js"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, num_pairs + 10}) {
      std::vector<DivergentPair> top = eval.TopPairs(h, n).value();
      std::vector<DivergentPair> want = ReferenceTopPairs(eval, h, n);
      ASSERT_EQ(top.size(), want.size()) << divergence << " n=" << n;
      for (size_t r = 0; r < top.size(); ++r) {
        EXPECT_EQ(top[r].index_a, want[r].index_a) << divergence << " " << r;
        EXPECT_EQ(top[r].index_b, want[r].index_b) << divergence << " " << r;
        EXPECT_TRUE(SameBits(top[r].distance, want[r].distance))
            << divergence << " " << r;
      }
    }
  }
}

TEST(TopDivergentPairsTest, DistancesEqualDistanceBitForBit) {
  Table table = MakeToyTable().value();
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    for (int bins : {1, 10, 37}) {
      std::vector<Histogram> h = RandomHistograms(90, bins, 5);
      const std::vector<DivergentPair> top =
          eval.TopPairs(h, 90 * 89 / 2).value();
      ASSERT_EQ(top.size(), 90u * 89u / 2u);
      for (const DivergentPair& pair : top) {
        const double d =
            eval.Distance(h[pair.index_a], h[pair.index_b]).value();
        ASSERT_TRUE(SameBits(pair.distance, d))
            << divergence << " bins=" << bins << " (" << pair.index_a << ", "
            << pair.index_b << ")";
      }
    }
  }
}

/// Pairs computed by one TopPairs call, read off the work counter.
uint64_t PairsEvaluated(const UnfairnessEvaluator& eval,
                        const std::vector<Histogram>& h, size_t n,
                        std::vector<DivergentPair>* top) {
  const uint64_t before = eval.cache_stats().divergence_misses;
  *top = eval.TopPairs(h, n).value();
  return eval.cache_stats().divergence_misses - before;
}

/// Checks TopPairs(h, n) against the stable-sorted reference, bit for bit,
/// for every n in `ns`; returns the pairs the n = ns[0] call computed.
uint64_t ExpectMatchesReference(const UnfairnessEvaluator& eval,
                                const std::vector<Histogram>& h,
                                const std::vector<size_t>& ns,
                                const std::string& label) {
  const std::vector<DivergentPair> all =
      ReferenceTopPairs(eval, h, h.size() * h.size());
  uint64_t first = 0;
  for (size_t n : ns) {
    std::vector<DivergentPair> top;
    const uint64_t evaluated = PairsEvaluated(eval, h, n, &top);
    if (n == ns[0]) first = evaluated;
    EXPECT_LE(evaluated, all.size()) << label << " n=" << n;
    const size_t want = std::min(n, all.size());
    EXPECT_EQ(top.size(), want) << label << " n=" << n;
    for (size_t r = 0; r < std::min(top.size(), want); ++r) {
      if (top[r].index_a != all[r].index_a ||
          top[r].index_b != all[r].index_b ||
          !SameBits(top[r].distance, all[r].distance)) {
        ADD_FAILURE() << label << " n=" << n << " rank " << r << ": got ("
                      << top[r].index_a << ", " << top[r].index_b << ", "
                      << top[r].distance << "), want (" << all[r].index_a
                      << ", " << all[r].index_b << ", " << all[r].distance
                      << ")";
        break;
      }
    }
  }
  return first;
}

/// `k` histograms of one to four uniform scores each, on 10 bins: about
/// one in forty is a point mass in the first bin and as many in the last,
/// so thousands of pairs tie exactly at the largest distance.
std::vector<Histogram> FewPointHistograms(size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<Histogram> out;
  for (size_t i = 0; i < k; ++i) {
    Histogram h(10, 0.0, 1.0);
    const int64_t points = rng.UniformInt(1, 4);
    for (int64_t s = 0; s < points; ++s) h.Add(rng.NextDouble());
    out.push_back(std::move(h));
  }
  return out;
}

TEST(TopDivergentPairsTest, PrunedScanMatchesReferenceOnHeavyTies) {
  Table table = MakeToyTable().value();
  const std::vector<Histogram> h = FewPointHistograms(2000, 31);
  const size_t num_pairs = 2000 * 1999 / 2;
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    const uint64_t evaluated =
        ExpectMatchesReference(eval, h, {3, 1, 64, num_pairs + 1}, divergence);
    if (std::string(divergence) == "emd") {
      EXPECT_LT(evaluated, num_pairs / 100) << divergence;
    } else {
      EXPECT_LE(evaluated, num_pairs) << divergence;
    }
  }
  // Without a per-bin L1 form every pair is computed.
  UnfairnessEvaluator js = MakeToyEvaluatorFor(&table, "js");
  std::vector<DivergentPair> top;
  EXPECT_EQ(PairsEvaluated(js, h, 3, &top), num_pairs);
}

TEST(TopDivergentPairsTest, PrunedScanMatchesReferenceOnDenseHistograms) {
  Table table = MakeToyTable().value();
  const std::vector<Histogram> h = RandomHistograms(600, 10, 13);
  const size_t num_pairs = 600 * 599 / 2;
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    const uint64_t evaluated =
        ExpectMatchesReference(eval, h, {3, 1, 64, num_pairs + 1}, divergence);
    EXPECT_LT(evaluated, num_pairs) << divergence;
  }
}

TEST(TopDivergentPairsTest, IdenticalHistogramsPruneNothing) {
  Table table = MakeToyTable().value();
  const std::vector<Histogram> h(300, RandomHistograms(1, 10, 8)[0]);
  const size_t num_pairs = 300 * 299 / 2;
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    const uint64_t evaluated =
        ExpectMatchesReference(eval, h, {3, 1, 64, num_pairs + 1}, divergence);
    EXPECT_EQ(evaluated, num_pairs) << divergence;
  }
}

TEST(TopDivergentPairsTest, TiesFarApartInPivotOrder) {
  // Point masses at the ends tie at the largest distance. Between them in
  // pivot order sit many half-and-half histograms, closer to the ends'
  // pivot than the first bin's points and farther than the last bin's, so
  // every winning pair spans them.
  Table table = MakeToyTable().value();
  Histogram low(10, 0.0, 1.0);
  low.Add(0.05);
  Histogram high(10, 0.0, 1.0);
  high.Add(0.95);
  Histogram middle(10, 0.0, 1.0);
  middle.Add(0.55);
  Histogram split(10, 0.0, 1.0);
  split.Add(0.05);
  split.Add(0.95);
  std::vector<Histogram> h;
  for (size_t i = 0; i < 400; ++i) {
    if (i % 97 == 5) {
      h.push_back(low);
    } else if (i % 89 == 7) {
      h.push_back(high);
    } else if (i % 2 == 0) {
      h.push_back(middle);
    } else {
      h.push_back(split);
    }
  }
  const size_t num_pairs = 400 * 399 / 2;
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    ExpectMatchesReference(eval, h, {3, 1, 64, num_pairs + 1}, divergence);
  }
}

TEST(TopDivergentPairsTest, SmallInputs) {
  Table table = MakeToyTable().value();
  for (const char* divergence : {"emd", "tv"}) {
    UnfairnessEvaluator eval = MakeToyEvaluatorFor(&table, divergence);
    for (size_t k : {2u, 3u, 5u, 65u, 130u}) {
      const std::vector<Histogram> h = RandomHistograms(k, 10, 40 + k);
      const size_t num_pairs = k * (k - 1) / 2;
      ExpectMatchesReference(eval, h, {3, 1, 64, num_pairs + 1},
                             std::string(divergence) + " k=" +
                                 std::to_string(k));
    }
  }
}

TEST(EvaluatorTest, DivergenceOptionChangesMeasure) {
  Table table = MakeToyTable().value();
  EvaluatorOptions emd_options;
  EvaluatorOptions tv_options;
  tv_options.divergence = "tv";
  UnfairnessEvaluator emd_eval = MakeToyEvaluator(&table, emd_options);
  UnfairnessEvaluator tv_eval = MakeToyEvaluator(&table, tv_options);
  size_t gender = table.schema().FindIndex("Gender").value();
  auto children =
      SplitPartition(table, MakeRootPartition(table.num_rows()), gender);
  Partitioning p(children.begin(), children.end());
  EXPECT_NE(emd_eval.AveragePairwiseUnfairness(p).value(),
            tv_eval.AveragePairwiseUnfairness(p).value());
}

}  // namespace
}  // namespace fairrank
