#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace fairrank {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1'000'000) != b.UniformInt(0, 1'000'000)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 40);
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, UniformIntHitsBothEndpoints) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, UniformDoubleRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

/// libstdc++'s generate_canonical<double, 53> of one 64-bit output: the
/// direct conversion, scaled, with 1.0 clamped below 1.
double ReferenceUnitDouble(uint64_t x) {
  double u = static_cast<double>(x) / 0x1p64;
  return u >= 1.0 ? std::nextafter(1.0, 0.0) : u;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(RngTest, UnitDoubleOfMatchesDirectConversion) {
  const uint64_t top = UINT64_MAX;
  const uint64_t edges[] = {
      0, 1, 2, 3,
      (uint64_t{1} << 53) - 1, uint64_t{1} << 53,
      (uint64_t{1} << 53) + 1,  // Tie: rounds to even, down.
      (uint64_t{1} << 53) + 3,  // Tie: rounds to even, up.
      (uint64_t{1} << 63) - 1, uint64_t{1} << 63, (uint64_t{1} << 63) + 1,
      (uint64_t{1} << 63) + 1024,  // Tie at the 2^11 ulp of [2^63, 2^64).
      (uint64_t{1} << 63) + 3072,
      uint64_t{0xFFFFFFFF}, uint64_t{0x100000000}, uint64_t{0x1FFFFFFFF},
      top - 3072,  // Rounds down to 2^64 - 4096.
      top - 1024,  // Last value that rounds down, to 2^64 - 2048.
      top - 1023,  // Tie: rounds up to 2^64, so the clamp applies.
      top - 1, top};
  for (uint64_t x : edges) {
    EXPECT_TRUE(SameBits(UnitDoubleOf(x), ReferenceUnitDouble(x))) << x;
    EXPECT_LT(UnitDoubleOf(x), 1.0) << x;
  }
  EXPECT_EQ(UnitDoubleOf(0), 0.0);
  EXPECT_EQ(UnitDoubleOf(top - 3072), 1.0 - 0x1p-52);
  EXPECT_EQ(UnitDoubleOf(top - 1024), std::nextafter(1.0, 0.0));
  for (uint64_t x = top - 1023; x != 0; ++x) {
    ASSERT_EQ(UnitDoubleOf(x), std::nextafter(1.0, 0.0)) << x;
  }
  std::mt19937_64 engine(99);
  size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    uint64_t x = engine();
    mismatches += SameBits(UnitDoubleOf(x), ReferenceUnitDouble(x)) ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(RngTest, UniformDoubleIsTheStandardDistributionBitForBit) {
  // The stream every seeded score draws from: Rng::UniformDouble must stay
  // bit-identical to std::uniform_real_distribution on the same engine.
  const std::pair<double, double> ranges[] = {
      {0.0, 1.0},     {0.8, 1.0},       {0.0, 0.2},   {0.5, 0.7},
      {-3.5, 7.25},   {1e-300, 2e-300}, {-1e300, 1e300},
      {25.0, 100.0},  {1950.0, 2009.0}, {0.0, 1e-9},  {-2.0, -1.0}};
  const size_t num_ranges = sizeof(ranges) / sizeof(ranges[0]);
  for (uint64_t seed : {uint64_t{1}, uint64_t{7}, uint64_t{20190326}}) {
    Rng rng(seed);
    std::mt19937_64 twin(seed);
    size_t mismatches = 0;
    for (size_t i = 0; i < 4'000'000; ++i) {
      const auto& [lo, hi] = ranges[(i * 7 + i / 13) % num_ranges];
      std::uniform_real_distribution<double> dist(lo, hi);
      mismatches += SameBits(rng.UniformDouble(lo, hi), dist(twin)) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(rng.engine()(), twin());  // Same number of draws consumed.
  }
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(13);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.UniformIndex(5)];
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 each.
}

TEST(RngTest, BernoulliApproximatesP) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian(2.0, 0.5);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.02);
  EXPECT_NEAR(var, 0.25, 0.02);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.WeightedIndex(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, WeightedIndexSingleElement) {
  Rng rng(29);
  EXPECT_EQ(rng.WeightedIndex({5.0}), 0u);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(31);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = items;
  rng.Shuffle(&items);
  EXPECT_TRUE(std::is_permutation(items.begin(), items.end(),
                                  original.begin()));
}

TEST(RngTest, ShuffleHandlesSmallInputs) {
  Rng rng(37);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.Fork();
  // Child stream differs from the parent's continued stream.
  int differences = 0;
  for (int i = 0; i < 20; ++i) {
    if (parent.UniformInt(0, 1'000'000) != child.UniformInt(0, 1'000'000)) {
      ++differences;
    }
  }
  EXPECT_GT(differences, 15);
}

TEST(RngTest, ForkIsDeterministic) {
  Rng a(43);
  Rng b(43);
  Rng ca = a.Fork();
  Rng cb = b.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(ca.UniformInt(0, 1000), cb.UniformInt(0, 1000));
  }
}

}  // namespace
}  // namespace fairrank
