#ifndef LASAGNE_TENSOR_RNG_H_
#define LASAGNE_TENSOR_RNG_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lasagne {

/// Complete snapshot of an `Rng`'s internal state, used by the
/// checkpointing layer so a resumed training run replays the exact
/// random stream it would have seen uninterrupted.
struct RngState {
  uint64_t state = 0;
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

/// Deterministic pseudo-random number generator (SplitMix64 core).
///
/// All randomness in the library flows through explicit `Rng` instances
/// seeded by the caller, so every experiment is reproducible. SplitMix64
/// passes BigCrush, has a single 64-bit word of state, and is cheap enough
/// for per-edge sampling in hot loops.
class Rng {
 public:
  /// SplitMix64 state increment. Every raw draw adds it to the state
  /// and returns Mix(new state), so draw i (0-based) of a stream whose
  /// state was `s` is Mix(s + (i + 1) * kGamma), computable without the
  /// draws before it.
  static constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

  /// SplitMix64 output function of a post-increment state.
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// 53 random bits of a raw draw into the mantissa: uniform on [0, 1).
  static double ToUnit(uint64_t raw) {
    return static_cast<double>(raw >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Integer form of `ToUnit(raw) < p`: for every raw draw,
  /// `(raw >> 11) < BernoulliThreshold(p)` gives the same answer.
  /// ToUnit is exact, so the test is `u < p * 2^53` for the integer
  /// u = raw >> 11, i.e. `u < ceil(p * 2^53)`; p <= 0 and NaN never
  /// succeed and p >= 1 always does.
  static uint64_t BernoulliThreshold(double p) {
    constexpr uint64_t kTwo53 = uint64_t{1} << 53;
    if (!(p > 0.0)) return 0;
    if (p >= 1.0) return kTwo53;
    return static_cast<uint64_t>(std::ceil(p * static_cast<double>(kTwo53)));
  }

  /// Creates a generator. Identical seeds yield identical streams.
  explicit Rng(uint64_t seed = kGamma) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Standard normal via Box-Muller (caches the second deviate).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Bernoulli draw with success probability p: `Uniform() < p`.
  bool Bernoulli(double p);

  /// Skip-ahead: returns the current state and advances the generator
  /// as if `n` raw draws had been taken. Draw i < n of the skipped
  /// stretch is Mix(returned + (i + 1) * kGamma), so callers can take
  /// the n draws in any order or on any threads and leave the generator
  /// exactly where n serial draws would (docs/THREADING.md).
  uint64_t SkipAhead(uint64_t n) {
    const uint64_t base = state_;
    state_ += n * kGamma;
    return base;
  }

  /// Draws an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive weights are treated as zero; requires a positive total.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) without replacement
  /// (reservoir when k << n would be overkill; partial Fisher-Yates).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent generator; handy for giving each repeat or
  /// each worker its own stream.
  Rng Split();

  /// Captures the full generator state for checkpointing.
  RngState SaveState() const {
    return RngState{state_, has_cached_normal_, cached_normal_};
  }

  /// Restores a state captured by SaveState; the stream continues
  /// bitwise-identically from the capture point.
  void RestoreState(const RngState& s) {
    state_ = s.state;
    has_cached_normal_ = s.has_cached_normal;
    cached_normal_ = s.cached_normal;
  }

 private:
  uint64_t state_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace lasagne

#endif  // LASAGNE_TENSOR_RNG_H_
