#ifndef FAIRRANK_COMMON_RNG_H_
#define FAIRRANK_COMMON_RNG_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <vector>

namespace fairrank {

/// The [0, 1) double that std::uniform_real_distribution<double> makes of
/// one std::mt19937_64 output `x` under libstdc++ (generate_canonical<double,
/// 53>): x / 2^64 rounded once to nearest, with a result of 1.0 clamped to
/// the largest double below 1.
///
/// A direct uint64 -> double conversion branches on the top bit, which is
/// random on random data. Both 32-bit halves convert exactly instead, so the
/// one rounding of their sum is the same correctly rounded value; scaling by
/// 2^-64 is exact.
inline double UnitDoubleOf(uint64_t x) {
  const double high = static_cast<double>(static_cast<uint32_t>(x >> 32));
  const double low = static_cast<double>(static_cast<uint32_t>(x));
  return std::min((high * 0x1p32 + low) * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Deterministic 64-bit random number generator. Every stochastic component
/// in the library takes an explicit seed so experiments are reproducible;
/// benches print the seeds they use.
///
/// Wraps std::mt19937_64 with convenience samplers. Not thread-safe; create
/// one Rng per thread (fork child streams with `Fork`).
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi). Requires lo < hi. Bit for bit the value
  /// std::uniform_real_distribution<double>(lo, hi) draws from the same
  /// engine state (UnitDoubleOf), inline and branch-free.
  double UniformDouble(double lo, double hi) {
    assert(lo < hi);
    return UnitDoubleOf(engine_()) * (hi - lo) + lo;
  }

  /// Uniform double in [0, 1).
  double NextDouble() { return UniformDouble(0.0, 1.0); }

  /// Uniform index in [0, n). Requires n > 0.
  size_t UniformIndex(size_t n);

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  /// Gaussian sample with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->size() < 2) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = UniformIndex(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  /// Derives an independent child generator. Deterministic given this
  /// generator's current state.
  Rng Fork();

  /// Access to the underlying engine for std::distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace fairrank

#endif  // FAIRRANK_COMMON_RNG_H_
