#include "fairness/evaluator.h"

#include <gtest/gtest.h>

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

TEST(EvaluatorTest, OutOfRangeScoresRejectedUnderRejectPolicy) {
  Table table = MakeToyTable().value();
  std::vector<double> scores = ToyScores(table);
  scores[0] = 1.5;
  EvaluatorOptions options;
  options.out_of_range = OutOfRangePolicy::kReject;
  StatusOr<UnfairnessEvaluator> eval =
      UnfairnessEvaluator::Make(&table, scores, options);
  EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
  // The boundary itself is in range (hi is inclusive).
  scores[0] = 1.0;
  EXPECT_TRUE(UnfairnessEvaluator::Make(&table, scores, options).ok());
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
  EvaluatorOptions reject;
  reject.out_of_range = OutOfRangePolicy::kReject;
  EXPECT_TRUE(make(histograms, reject).ok());
  histograms[0].Add(-3.0);
  EXPECT_EQ(make(histograms, reject).code(), StatusCode::kInvalidArgument);
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
