#include "common/rng.h"

namespace fairrank {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

size_t Rng::UniformIndex(size_t n) {
  assert(n > 0);
  std::uniform_int_distribution<size_t> dist(0, n - 1);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double x = UniformDouble(0.0, total);
  double cum = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cum += weights[i];
    if (x < cum) return i;
  }
  // Floating-point slack: fall back to the last positive weight.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() {
  uint64_t child_seed = engine_();
  return Rng(child_seed);
}

}  // namespace fairrank
