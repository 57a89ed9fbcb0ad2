#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

namespace fairrank {
namespace {

TEST(HistogramTest, MakeValidation) {
  EXPECT_TRUE(Histogram::Make(10, 0.0, 1.0).ok());
  EXPECT_FALSE(Histogram::Make(0, 0.0, 1.0).ok());
  EXPECT_FALSE(Histogram::Make(5, 1.0, 1.0).ok());
  EXPECT_FALSE(Histogram::Make(5, 2.0, 1.0).ok());
}

TEST(HistogramTest, BinAssignment) {
  Histogram h(10, 0.0, 1.0);
  EXPECT_EQ(h.BinOf(0.0), 0);
  EXPECT_EQ(h.BinOf(0.05), 0);
  EXPECT_EQ(h.BinOf(0.1), 1);
  EXPECT_EQ(h.BinOf(0.95), 9);
  EXPECT_EQ(h.BinOf(1.0), 9);  // Upper bound inclusive in last bin.
}

TEST(HistogramTest, OutOfRangeClampsToEdgeBins) {
  Histogram h(10, 0.0, 1.0);
  EXPECT_EQ(h.BinOf(-0.5), 0);
  EXPECT_EQ(h.BinOf(2.0), 9);
}

// Values whose bin index lies beyond int's range are clamped in double
// before any cast, so they reach the edge bins instead of wrapping.
TEST(HistogramTest, HugeValuesLandInEdgeBinsAndCountClamped) {
  const double max = std::numeric_limits<double>::max();
  for (double value : {1e12, max, 1e300}) {
    Histogram h(10, 0.0, 1.0);
    EXPECT_EQ(h.BinOf(value), 9) << value;
    h.Add(value);
    EXPECT_DOUBLE_EQ(h.counts()[9], 1.0) << value;
    EXPECT_DOUBLE_EQ(h.clamped_count(), 1.0) << value;
  }
  for (double value : {-1e12, -max, -1e300}) {
    Histogram h(10, 0.0, 1.0);
    EXPECT_EQ(h.BinOf(value), 0) << value;
    h.Add(value);
    EXPECT_DOUBLE_EQ(h.counts()[0], 1.0) << value;
    EXPECT_DOUBLE_EQ(h.clamped_count(), 1.0) << value;
  }
}

// Exactly `hi` is inside [lo, hi]: it lands in the last bin and is not
// clamped, on ranges whose width does not divide evenly.
TEST(HistogramTest, ExactlyHiLandsInLastBinUnclamped) {
  for (auto [lo, hi, bins] : {std::tuple{0.0, 1.0, 10}, {0.0, 1.0, 3},
                              {-2.5, 0.7, 7}, {0.1, 0.3, 1000}}) {
    Histogram h(bins, lo, hi);
    EXPECT_EQ(h.BinOf(hi), bins - 1) << lo << " " << hi;
    h.Add(hi);
    EXPECT_DOUBLE_EQ(h.counts()[bins - 1], 1.0);
    EXPECT_DOUBLE_EQ(h.clamped_count(), 0.0);
  }
}

TEST(HistogramTest, InRangeValuesAreNotCountedClamped) {
  Histogram h(10, 0.0, 1.0);
  h.Add(0.0);
  h.Add(0.5);
  h.Add(1.0);  // Upper bound is inclusive, not out of range.
  EXPECT_DOUBLE_EQ(h.clamped_count(), 0.0);
}

TEST(HistogramTest, ClampedCountTracksOutOfRangeMass) {
  Histogram h(10, 0.0, 1.0);
  h.Add(-0.5);
  h.Add(2.0);
  h.AddWeighted(1.5, 2.5);
  h.Add(0.5);
  EXPECT_DOUBLE_EQ(h.clamped_count(), 4.5);
  // Clamped mass still lands in edge bins and counts toward the total.
  EXPECT_DOUBLE_EQ(h.total(), 5.5);
  EXPECT_DOUBLE_EQ(h.counts()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.counts()[9], 3.5);
}

TEST(HistogramTest, MergeSumsClampedCounts) {
  Histogram a(10, 0.0, 1.0);
  Histogram b(10, 0.0, 1.0);
  a.Add(-1.0);
  b.Add(2.0);
  b.Add(3.0);
  ASSERT_TRUE(a.MergeWith(b).ok());
  EXPECT_DOUBLE_EQ(a.clamped_count(), 3.0);
}

TEST(HistogramTest, AddCounts) {
  Histogram h(4, 0.0, 1.0);
  h.Add(0.1);
  h.Add(0.1);
  h.Add(0.6);
  EXPECT_DOUBLE_EQ(h.total(), 3.0);
  EXPECT_DOUBLE_EQ(h.counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(h.counts()[2], 1.0);
  EXPECT_FALSE(h.empty());
}

TEST(HistogramTest, AddWeighted) {
  Histogram h(2, 0.0, 1.0);
  h.AddWeighted(0.25, 2.5);
  h.AddWeighted(0.75, 1.5);
  EXPECT_DOUBLE_EQ(h.total(), 4.0);
  EXPECT_DOUBLE_EQ(h.counts()[0], 2.5);
}

TEST(HistogramTest, NormalizedSumsToOne) {
  Histogram h(5, 0.0, 1.0);
  for (double v : {0.05, 0.25, 0.25, 0.45, 0.95}) h.Add(v);
  std::vector<double> p = h.Normalized();
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(p[1], 0.4);
}

TEST(HistogramTest, CdfIsMonotoneAndEndsAtOne) {
  Histogram h(8, 0.0, 1.0);
  for (int i = 0; i < 50; ++i) h.Add(static_cast<double>(i % 10) / 10.0);
  std::vector<double> cdf = h.Cdf();
  for (size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
}

TEST(HistogramTest, EmptyHistogram) {
  Histogram h(3, 0.0, 1.0);
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.total(), 0.0);
}

TEST(HistogramTest, BinCenters) {
  Histogram h(10, 0.0, 1.0);
  EXPECT_NEAR(h.BinCenter(0), 0.05, 1e-12);
  EXPECT_NEAR(h.BinCenter(9), 0.95, 1e-12);
}

TEST(HistogramTest, NonUnitRange) {
  Histogram h(5, 25.0, 100.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 15.0);
  EXPECT_EQ(h.BinOf(25.0), 0);
  EXPECT_EQ(h.BinOf(39.9), 0);
  EXPECT_EQ(h.BinOf(40.0), 1);
  EXPECT_EQ(h.BinOf(100.0), 4);
}

TEST(HistogramTest, SameShape) {
  Histogram a(10, 0.0, 1.0);
  Histogram b(10, 0.0, 1.0);
  Histogram c(9, 0.0, 1.0);
  Histogram d(10, 0.0, 2.0);
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
  EXPECT_FALSE(a.SameShape(d));
}

TEST(HistogramTest, MergeWithSumsCounts) {
  Histogram a(4, 0.0, 1.0);
  a.Add(0.1);
  a.Add(0.6);
  Histogram b(4, 0.0, 1.0);
  b.Add(0.1);
  b.Add(0.9);
  ASSERT_TRUE(a.MergeWith(b).ok());
  EXPECT_DOUBLE_EQ(a.total(), 4.0);
  EXPECT_DOUBLE_EQ(a.counts()[0], 2.0);
  EXPECT_DOUBLE_EQ(a.counts()[2], 1.0);
  EXPECT_DOUBLE_EQ(a.counts()[3], 1.0);
}

TEST(HistogramTest, MergeWithShapeMismatchFails) {
  Histogram a(4, 0.0, 1.0);
  Histogram b(5, 0.0, 1.0);
  EXPECT_EQ(a.MergeWith(b).code(), StatusCode::kInvalidArgument);
  Histogram c(4, 0.0, 2.0);
  EXPECT_FALSE(a.MergeWith(c).ok());
}

TEST(HistogramTest, MergeWithEmptyIsNoOp) {
  Histogram a(4, 0.0, 1.0);
  a.Add(0.5);
  Histogram empty(4, 0.0, 1.0);
  ASSERT_TRUE(a.MergeWith(empty).ok());
  EXPECT_DOUBLE_EQ(a.total(), 1.0);
}

TEST(HistogramTest, ToAsciiRendersBars) {
  Histogram h(2, 0.0, 1.0);
  h.Add(0.1);
  h.Add(0.1);
  h.Add(0.9);
  std::string art = h.ToAscii(10);
  EXPECT_NE(art.find("##########"), std::string::npos);  // Full bar.
  EXPECT_NE(art.find("#####"), std::string::npos);       // Half bar.
}

TEST(HistogramTest, ToAsciiEmptyDoesNotCrash) {
  Histogram h(3, 0.0, 1.0);
  EXPECT_FALSE(h.ToAscii().empty());
}

}  // namespace
}  // namespace fairrank
