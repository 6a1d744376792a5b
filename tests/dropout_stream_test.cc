// Parallel Dropout and BernoulliStraightThrough draw their masks on the
// thread pool by skipping ahead in the SplitMix64 stream. Each case
// checks the op against a serial `rng.Bernoulli` loop written here: the
// output, the mask and the generator state after the op (hence every
// later draw) must be bitwise equal to the reference at 1, 2, 4 and 8
// threads, for empty, single-element, around-the-grain and GAT-sized
// inputs and for low to extreme drop rates.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/parallel_config.h"
#include "common/thread_pool.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace lasagne {
namespace {

constexpr uint64_t kSeed = 20240917;
constexpr size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr float kRates[] = {0.1f, 0.5f, 0.9f, 0.999f};

class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetNumThreads(0); }
};

struct Shape {
  size_t rows;
  size_t cols;
};

/// Sizes 0, 1, kGrain - 1, kGrain + 1 and the 5600 x 256 GAT input.
std::vector<Shape> Shapes() {
  return {{0, 3}, {1, 1}, {kGrain - 1, 1}, {1, kGrain + 1}, {5600, 256}};
}

std::string Label(const Shape& s, float rate, size_t threads) {
  return std::to_string(s.rows) + "x" + std::to_string(s.cols) + " rate " +
         std::to_string(rate) + " threads " + std::to_string(threads);
}

bool BitwiseEqual(const float* a, const float* b, size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool SameState(const RngState& a, const RngState& b) {
  return a.state == b.state && a.has_cached_normal == b.has_cached_normal &&
         std::memcmp(&a.cached_normal, &b.cached_normal, sizeof(double)) == 0;
}

/// Inputs with negative entries (so dropped elements read -0) and a
/// cached normal deviate in the generator, which the op must leave as is.
Tensor Input(const Shape& s) {
  Rng rng(kSeed ^ s.rows ^ (s.cols << 20));
  return Tensor::Uniform(s.rows, s.cols, -1.5f, 1.5f, rng);
}

Rng SeededRng() {
  Rng rng(kSeed);
  rng.Normal();  // leaves one cached deviate
  return rng;
}

struct Reference {
  Tensor out;
  Tensor mask;
  RngState after;
  uint64_t next_draw;
};

/// The serial Dropout the op must reproduce: one rng.Bernoulli(keep)
/// per element in index order.
Reference SerialDropout(const Tensor& x, float rate) {
  Rng rng = SeededRng();
  const float keep = 1.0f - rate;
  const float scale = 1.0f / keep;
  Reference ref{x, Tensor(x.rows(), x.cols()), {}, 0};
  for (size_t i = 0; i < x.size(); ++i) {
    const float m = rng.Bernoulli(keep) ? scale : 0.0f;
    ref.mask.data()[i] = m;
    ref.out.data()[i] = x.data()[i] * m;
  }
  ref.after = rng.SaveState();
  ref.next_draw = rng.NextUint64();
  return ref;
}

TEST(DropoutStreamTest, MatchesSerialStreamAtEveryThreadCount) {
  ThreadCountGuard guard;
  for (const Shape& shape : Shapes()) {
    const Tensor x = Input(shape);
    for (float rate : kRates) {
      const Reference ref = SerialDropout(x, rate);
      for (size_t threads : kThreadCounts) {
        SetNumThreads(threads);
        const std::string what = Label(shape, rate, threads);
        Rng rng = SeededRng();
        ag::Variable input = ag::MakeParameter(x);
        ag::Variable out = ag::Dropout(input, rate, rng, /*training=*/true);
        ASSERT_TRUE(SameState(rng.SaveState(), ref.after)) << what;
        EXPECT_EQ(rng.NextUint64(), ref.next_draw) << what;
        ASSERT_EQ(out->rows(), x.rows()) << what;
        ASSERT_EQ(out->cols(), x.cols()) << what;
        EXPECT_TRUE(BitwiseEqual(out->value().data(), ref.out.data(),
                                 x.size()))
            << what << ": output differs from the serial stream";
        // A ones upstream gradient routes the mask itself into x.grad.
        ag::BackwardWithGrad(out, Tensor::Ones(x.rows(), x.cols()));
        if (x.size() > 0) {
          EXPECT_TRUE(
              BitwiseEqual(input->grad().data(), ref.mask.data(), x.size()))
              << what << ": mask differs from the serial stream";
        }
      }
    }
  }
}

TEST(DropoutStreamTest, InactiveDropoutDrawsNothing) {
  const Tensor x = Input({64, 8});
  for (bool training : {false, true}) {
    Rng rng = SeededRng();
    const RngState before = rng.SaveState();
    ag::Variable input = ag::MakeConstant(x);
    const float rate = training ? 0.0f : 0.5f;
    ag::Variable out = ag::Dropout(input, rate, rng, training);
    EXPECT_EQ(out.get(), input.get());
    EXPECT_TRUE(SameState(rng.SaveState(), before));
  }
}

TEST(DropoutStreamTest, SkipAheadLandsWhereSerialDrawsDo) {
  for (uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{1000}}) {
    Rng serial(kSeed);
    Rng skipped(kSeed);
    std::vector<uint64_t> draws;
    for (uint64_t i = 0; i < n; ++i) draws.push_back(serial.NextUint64());
    const uint64_t base = skipped.SkipAhead(n);
    EXPECT_EQ(base, Rng(kSeed).SaveState().state);
    for (uint64_t i = 0; i < n; ++i) {
      EXPECT_EQ(Rng::Mix(base + (i + 1) * Rng::kGamma), draws[i]) << i;
    }
    EXPECT_EQ(skipped.SaveState().state, serial.SaveState().state) << n;
    EXPECT_EQ(skipped.NextUint64(), serial.NextUint64()) << n;
  }
}

TEST(DropoutStreamTest, IntegerThresholdIsTheUniformComparison) {
  constexpr double kTwo53 = 9007199254740992.0;
  const double probs[] = {-0.5, 0.0, 1e-300, 1.0 / kTwo53, 0.1, 0.5,
                          1.0 / 3.0, 0.999, 1.0 - 1.0 / kTwo53, 1.0, 1.5,
                          std::nan("")};
  Rng rng(kSeed);
  for (double p : probs) {
    const uint64_t threshold = Rng::BernoulliThreshold(p);
    // Raw draws whose top 53 bits sit on and around the threshold, plus
    // the extremes and random draws.
    std::vector<uint64_t> raws = {0, ~uint64_t{0}};
    for (uint64_t u : {threshold - 1, threshold, threshold + 1}) {
      if (u < (uint64_t{1} << 53)) {
        raws.push_back(u << 11);
        raws.push_back((u << 11) | 0x7ff);
      }
    }
    for (int i = 0; i < 1000; ++i) raws.push_back(rng.NextUint64());
    for (uint64_t raw : raws) {
      EXPECT_EQ((raw >> 11) < threshold, Rng::ToUnit(raw) < p)
          << "p " << p << " raw " << raw;
    }
  }
}

TEST(DropoutStreamTest, BernoulliStraightThroughMatchesSerialStream) {
  ThreadCountGuard guard;
  for (const Shape& shape : Shapes()) {
    // Probabilities outside [0, 1] exercise the clamp.
    Rng init(kSeed + shape.rows + shape.cols);
    const Tensor probs =
        Tensor::Uniform(shape.rows, shape.cols, -0.2f, 1.2f, init);
    Rng serial = SeededRng();
    Tensor expected(shape.rows, shape.cols);
    for (size_t i = 0; i < probs.size(); ++i) {
      const float p = std::clamp(probs.data()[i], 0.0f, 1.0f);
      expected.data()[i] = serial.Bernoulli(p) ? 1.0f : 0.0f;
    }
    const RngState after = serial.SaveState();
    const uint64_t next_draw = serial.NextUint64();
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      const std::string what = Label(shape, 0.0f, threads);
      Rng rng = SeededRng();
      ag::Variable out = ag::BernoulliStraightThrough(
          ag::MakeParameter(probs), rng, /*training=*/true);
      ASSERT_TRUE(SameState(rng.SaveState(), after)) << what;
      EXPECT_EQ(rng.NextUint64(), next_draw) << what;
      EXPECT_TRUE(BitwiseEqual(out->value().data(), expected.data(),
                               probs.size()))
          << what << ": samples differ from the serial stream";
    }
  }
}

}  // namespace
}  // namespace lasagne
