#include "stats/emd.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace fairrank {
namespace {

Histogram FromValues(const std::vector<double>& values, int bins = 10,
                     double lo = 0.0, double hi = 1.0) {
  Histogram h(bins, lo, hi);
  for (double v : values) h.Add(v);
  return h;
}

TEST(Emd1DTest, IdenticalHistogramsAreZero) {
  Histogram a = FromValues({0.1, 0.5, 0.9});
  ASSERT_TRUE(Emd1D(a, a).ok());
  EXPECT_DOUBLE_EQ(Emd1D(a, a).value(), 0.0);
}

TEST(Emd1DTest, AdjacentBinsSingleMass) {
  // All mass one bin apart: EMD = bin width.
  Histogram a = FromValues({0.05});
  Histogram b = FromValues({0.15});
  EXPECT_NEAR(Emd1D(a, b).value(), 0.1, 1e-12);
}

TEST(Emd1DTest, ExtremeBins) {
  // All mass at opposite ends of [0,1] with 10 bins: EMD = 0.9 (9 bins).
  Histogram a = FromValues({0.0});
  Histogram b = FromValues({1.0});
  EXPECT_NEAR(Emd1D(a, b).value(), 0.9, 1e-12);
}

TEST(Emd1DTest, Symmetry) {
  Histogram a = FromValues({0.1, 0.2, 0.3, 0.35});
  Histogram b = FromValues({0.6, 0.7, 0.95});
  EXPECT_DOUBLE_EQ(Emd1D(a, b).value(), Emd1D(b, a).value());
}

TEST(Emd1DTest, NormalizationMakesSizesIrrelevant) {
  // b has every value duplicated; distribution identical.
  Histogram a = FromValues({0.1, 0.5});
  Histogram b = FromValues({0.1, 0.1, 0.5, 0.5});
  EXPECT_NEAR(Emd1D(a, b).value(), 0.0, 1e-12);
}

TEST(Emd1DTest, PaperF6Scenario) {
  // f6: males uniform in (0.8, 1], females uniform in [0, 0.2). With 10
  // bins the distance is ~0.8 — exactly the balanced row of Table 3.
  Rng rng(99);
  std::vector<double> male;
  std::vector<double> female;
  for (int i = 0; i < 5000; ++i) {
    male.push_back(rng.UniformDouble(0.8, 1.0));
    female.push_back(rng.UniformDouble(0.0, 0.2));
  }
  double emd = Emd1D(FromValues(male), FromValues(female)).value();
  EXPECT_NEAR(emd, 0.8, 0.01);
}

TEST(Emd1DTest, ShapeMismatchFails) {
  Histogram a(10, 0.0, 1.0);
  a.Add(0.5);
  Histogram b(5, 0.0, 1.0);
  b.Add(0.5);
  EXPECT_EQ(Emd1D(a, b).status().code(), StatusCode::kInvalidArgument);
  Histogram c(10, 0.0, 2.0);
  c.Add(0.5);
  EXPECT_EQ(Emd1D(a, c).status().code(), StatusCode::kInvalidArgument);
}

TEST(Emd1DTest, EmptyHistogramFails) {
  Histogram a(10, 0.0, 1.0);
  Histogram b(10, 0.0, 1.0);
  b.Add(0.5);
  EXPECT_EQ(Emd1D(a, b).status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Emd1D(b, a).status().code(), StatusCode::kFailedPrecondition);
}

TEST(Emd1DMassTest, ClosedForm) {
  // Mass 1 at bin 0 vs mass 1 at bin 2 with width 0.5: EMD = 1.0.
  EXPECT_NEAR(Emd1DMass({1, 0, 0}, {0, 0, 1}, 0.5), 1.0, 1e-12);
  // Split mass: {0.5, 0.5, 0} vs {0, 0.5, 0.5} moves 0.5 by one bin twice.
  EXPECT_NEAR(Emd1DMass({0.5, 0.5, 0.0}, {0.0, 0.5, 0.5}, 0.5), 0.5, 1e-12);
}

TEST(Emd1DMassTest, UnnormalizedMassImbalanceIsNotDropped) {
  // The final CDF term used to be skipped, silently discarding whatever
  // mass imbalance accumulated through the last bin. {1, 0} vs {0, 0.5}
  // with width 1: CDF differences are 1 (after bin 0) and 0.5 (after bin
  // 1), so the cost is 1.5 — not the 1.0 the truncated loop reported.
  EXPECT_NEAR(Emd1DMass({1.0, 0.0}, {0.0, 0.5}, 1.0), 1.5, 1e-12);
  // Pure mass difference in a single bin: the whole cost is the final term.
  EXPECT_NEAR(Emd1DMass({1.0}, {0.25}, 2.0), 1.5, 1e-12);
  // Drifted "normalized" masses: a rounding-sized imbalance must surface as
  // a rounding-sized cost, not zero-by-construction.
  EXPECT_NEAR(Emd1DMass({0.5, 0.5 + 1e-9}, {0.5, 0.5}, 1.0), 1e-9, 1e-12);
  // Equal-mass inputs are unchanged by the fix: final CDF term is zero.
  EXPECT_NEAR(Emd1DMass({0.5, 0.5}, {0.5, 0.5}, 1.0), 0.0, 1e-15);
}

TEST(Emd1DTest, EqualsMassFormOfNormalizedHistogramsBitForBit) {
  // Emd1D normalizes bin by bin instead of materializing Normalized(); the
  // audit's results stay bit-identical only if both forms agree exactly.
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Histogram a(10, 0.0, 1.0);
    Histogram b(10, 0.0, 1.0);
    for (int i = 0; i < 1 + trial * 7; ++i) a.Add(rng.UniformDouble(0.0, 1.0));
    for (int i = 0; i < 3 + trial * 5; ++i) b.Add(rng.UniformDouble(0.0, 1.0));
    EXPECT_EQ(Emd1D(a, b).value(),
              Emd1DMass(a.Normalized(), b.Normalized(), a.bin_width()))
        << trial;
  }
}

TEST(EmdGeneralTest, MatchesClosedFormOnRandomHistograms) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    Histogram a(10, 0.0, 1.0);
    Histogram b(10, 0.0, 1.0);
    int na = static_cast<int>(rng.UniformInt(1, 60));
    int nb = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < na; ++i) a.Add(rng.NextDouble());
    for (int i = 0; i < nb; ++i) b.Add(rng.NextDouble());
    double closed = Emd1D(a, b).value();
    double general = EmdGeneral1DCost(a, b).value();
    EXPECT_NEAR(closed, general, 1e-9)
        << "trial " << trial << " na=" << na << " nb=" << nb;
  }
}

TEST(EmdGeneralTest, CustomCostMatrix) {
  // Two bins; cost 0 everywhere makes any plan free.
  Histogram a(2, 0.0, 1.0);
  a.Add(0.1);
  Histogram b(2, 0.0, 1.0);
  b.Add(0.9);
  std::vector<std::vector<double>> zero_cost = {{0.0, 0.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(EmdGeneral(a, b, zero_cost).value(), 0.0);
}

TEST(EmdGeneralTest, RejectsNegativeCost) {
  Histogram a(2, 0.0, 1.0);
  a.Add(0.1);
  Histogram b(2, 0.0, 1.0);
  b.Add(0.9);
  std::vector<std::vector<double>> bad = {{0.0, -1.0}, {1.0, 0.0}};
  EXPECT_FALSE(EmdGeneral(a, b, bad).ok());
}

TEST(EmdThresholdedTest, LargeThresholdEqualsPlainEmd) {
  Histogram a = FromValues({0.05, 0.15, 0.25});
  Histogram b = FromValues({0.75, 0.85, 0.95});
  double plain = Emd1D(a, b).value();
  double thresholded = EmdThresholded(a, b, 10.0).value();
  EXPECT_NEAR(plain, thresholded, 1e-9);
}

TEST(EmdThresholdedTest, SmallThresholdCapsDistance) {
  Histogram a = FromValues({0.0});
  Histogram b = FromValues({1.0});
  // Plain distance 0.9; threshold 0.2 caps it.
  EXPECT_NEAR(EmdThresholded(a, b, 0.2).value(), 0.2, 1e-9);
}

TEST(EmdThresholdedTest, RejectsNonPositiveThreshold) {
  Histogram a = FromValues({0.5});
  EXPECT_FALSE(EmdThresholded(a, a, 0.0).ok());
  EXPECT_FALSE(EmdThresholded(a, a, -1.0).ok());
}

TEST(EmdSamples1DTest, PointMasses) {
  // Point masses at 0.2 and 0.7: W1 = 0.5 exactly (no binning error).
  EXPECT_NEAR(EmdSamples1D({0.2}, {0.7}).value(), 0.5, 1e-12);
}

TEST(EmdSamples1DTest, IdenticalSamplesAreZero) {
  std::vector<double> v = {0.1, 0.4, 0.4, 0.9};
  EXPECT_NEAR(EmdSamples1D(v, v).value(), 0.0, 1e-12);
}

TEST(EmdSamples1DTest, DifferentSizes) {
  // {0, 1} vs {0.5}: F_a steps 0.5 at 0 and 1; F_b steps 1 at 0.5.
  // Integral |Fa - Fb| = 0.5 * 0.5 + 0.5 * 0.5 = 0.5.
  EXPECT_NEAR(EmdSamples1D({0.0, 1.0}, {0.5}).value(), 0.5, 1e-12);
}

TEST(EmdSamples1DTest, ShiftedUniformGrids) {
  // Uniform grid shifted by delta: W1 = delta.
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(i * 0.01);
    b.push_back(i * 0.01 + 0.03);
  }
  EXPECT_NEAR(EmdSamples1D(a, b).value(), 0.03, 1e-12);
}

TEST(EmdSamples1DTest, EmptySampleFails) {
  EXPECT_FALSE(EmdSamples1D({}, {0.5}).ok());
  EXPECT_FALSE(EmdSamples1D({0.5}, {}).ok());
}

TEST(EmdSamples1DTest, HistogramEmdConvergesToSampleEmd) {
  Rng rng(123);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(rng.UniformDouble(0.0, 0.6));
    b.push_back(rng.UniformDouble(0.4, 1.0));
  }
  double exact = EmdSamples1D(a, b).value();
  double previous_error = 1e9;
  for (int bins : {5, 20, 80, 320}) {
    Histogram ha(bins, 0.0, 1.0);
    Histogram hb(bins, 0.0, 1.0);
    for (double v : a) ha.Add(v);
    for (double v : b) hb.Add(v);
    double binned = Emd1D(ha, hb).value();
    double error = std::abs(binned - exact);
    EXPECT_LE(error, previous_error + 1e-9) << bins;
    previous_error = error;
  }
  EXPECT_LT(previous_error, 0.01);
}

TEST(EmdSamples1DTest, Symmetry) {
  Rng rng(5);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(rng.NextDouble());
    b.push_back(rng.NextDouble());
  }
  EXPECT_DOUBLE_EQ(EmdSamples1D(a, b).value(), EmdSamples1D(b, a).value());
}

TEST(Make1DCostMatrixTest, Dimensions) {
  Histogram a(4, 0.0, 1.0);
  Histogram b(4, 0.0, 1.0);
  auto cost = Make1DCostMatrix(a, b);
  ASSERT_EQ(cost.size(), 4u);
  ASSERT_EQ(cost[0].size(), 4u);
  EXPECT_DOUBLE_EQ(cost[0][0], 0.0);
  EXPECT_NEAR(cost[0][3], 0.75, 1e-12);
  EXPECT_NEAR(cost[3][0], 0.75, 1e-12);
}

// --- Property sweep: metric axioms of Emd1D on random histograms ---

class EmdPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmdPropertyTest, MetricAxioms) {
  Rng rng(GetParam());
  auto random_hist = [&]() {
    Histogram h(10, 0.0, 1.0);
    int n = static_cast<int>(rng.UniformInt(1, 40));
    for (int i = 0; i < n; ++i) h.Add(rng.NextDouble());
    return h;
  };
  Histogram a = random_hist();
  Histogram b = random_hist();
  Histogram c = random_hist();
  double ab = Emd1D(a, b).value();
  double ba = Emd1D(b, a).value();
  double ac = Emd1D(a, c).value();
  double cb = Emd1D(c, b).value();
  // Non-negativity, symmetry, identity, triangle inequality, upper bound.
  EXPECT_GE(ab, 0.0);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_NEAR(Emd1D(a, a).value(), 0.0, 1e-12);
  EXPECT_LE(ab, ac + cb + 1e-9);
  EXPECT_LE(ab, 0.9 + 1e-9);  // Max distance: extreme bins, 10 bins.
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, EmdPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{26}));

}  // namespace
}  // namespace fairrank
