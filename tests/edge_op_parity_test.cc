// The eager per-edge ops (GatherEdgeScores, EdgeSoftmax,
// EdgeWeightedAggregate) run as row-parallel sweeps, with the feature
// gradient as a column-partitioned transposed SpMM. Each forward and
// every gradient must be bitwise equal to the serial loops written here
// at 1, 2 and 8 threads, on a graph with isolated destinations,
// self-loops and duplicate edges, and at feature widths on and off the
// SIMD tile (1, 7, 16, 17, 64).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/edge_ops.h"
#include "autograd/variable.h"
#include "common/thread_pool.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace lasagne {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};
constexpr size_t kWidths[] = {1, 7, 16, 17, 64};
// Enough destinations that a width-1 row sweep splits into several
// CsrRowGrain chunks.
constexpr size_t kNodes = 30000;

class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetNumThreads(0); }
};

void ExpectBitwiseEqual(const Tensor& actual, const Tensor& expected,
                        const std::string& what) {
  ASSERT_EQ(actual.rows(), expected.rows()) << what;
  ASSERT_EQ(actual.cols(), expected.cols()) << what;
  if (actual.size() == 0) return;
  EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(),
                           actual.size() * sizeof(float)))
      << what << " differs from the serial loop";
}

std::string Label(const char* what, size_t threads, size_t d = 1) {
  return std::string(what) + " (threads " + std::to_string(threads) +
         ", d " + std::to_string(d) + ")";
}

/// Destination-grouped structure in which about one row in six is
/// isolated, about one in four has a self-loop, and every row with
/// edges repeats one of its sources now and then.
std::shared_ptr<const ag::EdgeStructure> AwkwardEdges(uint64_t seed) {
  Rng rng(seed);
  auto edges = std::make_shared<ag::EdgeStructure>();
  edges->num_nodes = kNodes;
  edges->row_ptr.assign(kNodes + 1, 0);
  for (size_t i = 0; i < kNodes; ++i) {
    const uint64_t fan = rng.UniformInt(6);  // 0 = isolated
    if (fan > 0 && rng.Bernoulli(0.25)) {
      edges->src.push_back(static_cast<uint32_t>(i));
    }
    for (uint64_t k = 0; k < fan; ++k) {
      edges->src.push_back(static_cast<uint32_t>(rng.UniformInt(kNodes)));
    }
    if (fan > 0 && rng.Bernoulli(0.3)) {
      edges->src.push_back(edges->src[edges->row_ptr[i]]);
    }
    edges->row_ptr[i + 1] = edges->src.size();
  }
  return edges;
}

/// Values with both signs, so any change in accumulation order or
/// rounding shows in the low bits.
Tensor Values(size_t rows, size_t cols, uint64_t seed, float scale = 2.0f) {
  Rng rng(seed);
  return Tensor::Uniform(rows, cols, -scale, scale, rng);
}

// -- Serial references ------------------------------------------------------

Tensor RefGather(const Tensor& dst, const Tensor& src,
                 const ag::EdgeStructure& e) {
  Tensor y(e.num_edges(), 1);
  for (size_t i = 0; i < e.num_nodes; ++i) {
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) {
      y(k, 0) = dst(i, 0) + src(e.src[k], 0);
    }
  }
  return y;
}

Tensor RefGatherDstGrad(const Tensor& g, const ag::EdgeStructure& e) {
  Tensor dd(e.num_nodes, 1);
  for (size_t i = 0; i < e.num_nodes; ++i) {
    double acc = 0.0;
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) acc += g(k, 0);
    dd(i, 0) = static_cast<float>(acc);
  }
  return dd;
}

Tensor RefGatherSrcGrad(const Tensor& g, const ag::EdgeStructure& e) {
  Tensor ds(e.num_nodes, 1);
  for (size_t k = 0; k < e.num_edges(); ++k) ds(e.src[k], 0) += g(k, 0);
  return ds;
}

Tensor RefSoftmax(const Tensor& x, const ag::EdgeStructure& e) {
  Tensor y = x;
  for (size_t i = 0; i < e.num_nodes; ++i) {
    const size_t begin = e.row_ptr[i];
    const size_t end = e.row_ptr[i + 1];
    if (begin == end) continue;
    float max_v = y(begin, 0);
    for (size_t k = begin + 1; k < end; ++k) max_v = std::max(max_v, y(k, 0));
    double total = 0.0;
    for (size_t k = begin; k < end; ++k) {
      y(k, 0) = std::exp(y(k, 0) - max_v);
      total += y(k, 0);
    }
    const float inv = static_cast<float>(1.0 / total);
    for (size_t k = begin; k < end; ++k) y(k, 0) *= inv;
  }
  return y;
}

Tensor RefSoftmaxGrad(const Tensor& g, const Tensor& probs,
                      const ag::EdgeStructure& e) {
  Tensor dx(e.num_edges(), 1);
  for (size_t i = 0; i < e.num_nodes; ++i) {
    double dot = 0.0;
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) {
      dot += static_cast<double>(g(k, 0)) * probs(k, 0);
    }
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) {
      dx(k, 0) = probs(k, 0) * (g(k, 0) - static_cast<float>(dot));
    }
  }
  return dx;
}

Tensor RefAggregate(const Tensor& w, const Tensor& f,
                    const ag::EdgeStructure& e) {
  const size_t d = f.cols();
  Tensor y(e.num_nodes, d);
  for (size_t i = 0; i < e.num_nodes; ++i) {
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) {
      for (size_t j = 0; j < d; ++j) y(i, j) += w(k, 0) * f(e.src[k], j);
    }
  }
  return y;
}

Tensor RefAggregateWeightGrad(const Tensor& g, const Tensor& f,
                              const ag::EdgeStructure& e) {
  const size_t d = f.cols();
  Tensor dw(e.num_edges(), 1);
  for (size_t i = 0; i < e.num_nodes; ++i) {
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) {
      double acc = 0.0;
      for (size_t j = 0; j < d; ++j) acc += g(i, j) * f(e.src[k], j);
      dw(k, 0) = static_cast<float>(acc);
    }
  }
  return dw;
}

Tensor RefAggregateFeatureGrad(const Tensor& g, const Tensor& w,
                               const ag::EdgeStructure& e) {
  const size_t d = g.cols();
  Tensor df(e.num_nodes, d);
  for (size_t i = 0; i < e.num_nodes; ++i) {
    for (size_t k = e.row_ptr[i]; k < e.row_ptr[i + 1]; ++k) {
      for (size_t j = 0; j < d; ++j) df(e.src[k], j) += w(k, 0) * g(i, j);
    }
  }
  return df;
}

// -- Parity -----------------------------------------------------------------

TEST(EdgeOpParityTest, GatherEdgeScoresMatchesSerialLoops) {
  ThreadCountGuard guard;
  const auto edges = AwkwardEdges(11);
  const Tensor dst = Values(kNodes, 1, 12);
  const Tensor src = Values(kNodes, 1, 13);
  const Tensor g = Values(edges->num_edges(), 1, 14);
  const Tensor y_ref = RefGather(dst, src, *edges);
  const Tensor dd_ref = RefGatherDstGrad(g, *edges);
  const Tensor ds_ref = RefGatherSrcGrad(g, *edges);
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    ag::Variable pd = ag::MakeParameter(dst);
    ag::Variable ps = ag::MakeParameter(src);
    ag::Variable out = ag::GatherEdgeScores(pd, ps, edges);
    ExpectBitwiseEqual(out->value(), y_ref, Label("forward", threads));
    ag::BackwardWithGrad(out, g);
    ExpectBitwiseEqual(pd->grad(), dd_ref, Label("dst grad", threads));
    ExpectBitwiseEqual(ps->grad(), ds_ref, Label("src grad", threads));
  }
}

TEST(EdgeOpParityTest, EdgeSoftmaxMatchesSerialLoops) {
  ThreadCountGuard guard;
  const auto edges = AwkwardEdges(21);
  // Wide logits: saturating rows put almost all weight on one edge.
  const Tensor x = Values(edges->num_edges(), 1, 22, /*scale=*/40.0f);
  const Tensor g = Values(edges->num_edges(), 1, 23);
  const Tensor y_ref = RefSoftmax(x, *edges);
  const Tensor dx_ref = RefSoftmaxGrad(g, y_ref, *edges);
  for (size_t threads : kThreadCounts) {
    SetNumThreads(threads);
    ag::Variable px = ag::MakeParameter(x);
    ag::Variable out = ag::EdgeSoftmax(px, edges);
    ExpectBitwiseEqual(out->value(), y_ref, Label("forward", threads));
    ag::BackwardWithGrad(out, g);
    ExpectBitwiseEqual(px->grad(), dx_ref, Label("score grad", threads));
  }
}

TEST(EdgeOpParityTest, EdgeWeightedAggregateMatchesSerialLoops) {
  ThreadCountGuard guard;
  const auto edges = AwkwardEdges(31);
  const Tensor w = Values(edges->num_edges(), 1, 32);
  for (size_t d : kWidths) {
    const Tensor f = Values(kNodes, d, 33 + d);
    const Tensor g = Values(kNodes, d, 34 + d);
    const Tensor y_ref = RefAggregate(w, f, *edges);
    const Tensor dw_ref = RefAggregateWeightGrad(g, f, *edges);
    const Tensor df_ref = RefAggregateFeatureGrad(g, w, *edges);
    for (size_t threads : kThreadCounts) {
      SetNumThreads(threads);
      ag::Variable pw = ag::MakeParameter(w);
      ag::Variable pf = ag::MakeParameter(f);
      ag::Variable out = ag::EdgeWeightedAggregate(pw, pf, edges);
      ExpectBitwiseEqual(out->value(), y_ref, Label("forward", threads, d));
      ag::BackwardWithGrad(out, g);
      ExpectBitwiseEqual(pw->grad(), dw_ref,
                         Label("weight grad", threads, d));
      ExpectBitwiseEqual(pf->grad(), df_ref,
                         Label("feature grad", threads, d));
    }
  }
}

}  // namespace
}  // namespace lasagne
