#include "tensor/rng.h"

#include <cmath>
#include <numeric>

#include "common/check.h"

namespace lasagne {

uint64_t Rng::NextUint64() {
  state_ += kGamma;
  return Mix(state_);
}

double Rng::Uniform() { return ToUnit(NextUint64()); }

double Rng::Uniform(double lo, double hi) {
  LASAGNE_CHECK_LE(lo, hi);
  return lo + (hi - lo) * Uniform();
}

uint64_t Rng::UniformInt(uint64_t n) {
  LASAGNE_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = Uniform();
  } while (u1 <= 1e-300);
  double u2 = Uniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  LASAGNE_CHECK_GT(total, 0.0);
  double target = Uniform() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += (weights[i] > 0.0 ? weights[i] : 0.0);
    if (target < cumulative) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  LASAGNE_CHECK_LE(k, n);
  std::vector<size_t> pool(n);
  std::iota(pool.begin(), pool.end(), size_t{0});
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

Rng Rng::Split() { return Rng(NextUint64()); }

}  // namespace lasagne
