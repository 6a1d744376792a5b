// Systematic finite-difference gradient verification of every
// differentiable op, layer and aggregator in the library.
//
// Unlike the quick float checker in test_util.h, this harness does all
// finite-difference arithmetic in double and aims for a tight relative
// error (< 1e-3) so a subtly wrong backward (off by a factor, missing a
// term, transposed) cannot hide inside a loose tolerance. The final
// test deliberately installs a broken backward and asserts the harness
// flags it.

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/edge_ops.h"
#include "autograd/fm_op.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/aggregators.h"
#include "core/gcfm.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "nn/layers.h"
#include "sparse/csr_matrix.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace lasagne {
namespace {

// Relative-error tolerance: forward passes are float32, so central
// differences carry ~eps_f32 * |loss| / (2h) of rounding noise; with
// |loss| kept O(1) and h = 2e-3 that noise sits well below 1e-3.
constexpr double kTol = 1e-3;
constexpr double kStep = 2e-3;

/// Central-difference gradient check with double arithmetic.
///
/// `build_loss` must rebuild the graph from scratch and return a scalar
/// (1x1) loss; any RNG it consumes must be re-seeded inside the closure
/// so repeated evaluations see identical random draws. Returns the max
/// relative error |analytic - numeric| / max(1, |analytic|, |numeric|)
/// over every entry of every parameter.
double GradCheckDouble(const std::function<ag::Variable()>& build_loss,
                       const std::vector<ag::Variable>& params,
                       double step = kStep) {
  for (const ag::Variable& p : params) p->ZeroGrad();
  ag::Variable loss = build_loss();
  EXPECT_EQ(loss->rows(), 1u);
  EXPECT_EQ(loss->cols(), 1u);
  ag::Backward(loss);
  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (const ag::Variable& p : params) {
    analytic.push_back(p->grad().empty()
                           ? Tensor::Zeros(p->rows(), p->cols())
                           : p->grad());
  }
  double max_err = 0.0;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    const ag::Variable& p = params[pi];
    for (size_t r = 0; r < p->rows(); ++r) {
      for (size_t c = 0; c < p->cols(); ++c) {
        const double original = p->value()(r, c);
        p->mutable_value()(r, c) = static_cast<float>(original + step);
        const double plus = build_loss()->value()(0, 0);
        p->mutable_value()(r, c) = static_cast<float>(original - step);
        const double minus = build_loss()->value()(0, 0);
        p->mutable_value()(r, c) = static_cast<float>(original);
        const double numeric = (plus - minus) / (2.0 * step);
        const double a = analytic[pi](r, c);
        const double denom =
            std::max({1.0, std::fabs(a), std::fabs(numeric)});
        max_err = std::max(max_err, std::fabs(a - numeric) / denom);
      }
    }
  }
  return max_err;
}

/// Scalarizes an op output with fixed pseudo-random weights so the
/// check exercises non-uniform output gradients (a plain Sum would let
/// row/column mix-ups cancel out).
ag::Variable Scalarize(const ag::Variable& v) {
  Rng rng(0xC0FFEE);
  Tensor w = Tensor::Uniform(v->rows(), v->cols(), 0.5f, 1.5f, rng);
  return ag::Sum(ag::Mul(v, ag::MakeConstant(std::move(w))));
}

ag::Variable Param(size_t rows, size_t cols, uint64_t seed,
                   float stddev = 0.6f) {
  Rng rng(seed);
  return ag::MakeParameter(Tensor::Normal(rows, cols, 0.0f, stddev, rng));
}

std::shared_ptr<const CsrMatrix> TinyAHat() {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  return std::make_shared<CsrMatrix>(g.NormalizedAdjacency());
}

std::shared_ptr<const ag::EdgeStructure> TinyEdges() {
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});
  return ag::EdgeStructure::FromGraph(g, /*add_self_loops=*/true);
}

// -- Elementwise and arithmetic ops -----------------------------------------

TEST(GradCheckTest, ElementwiseArithmetic) {
  ag::Variable a = Param(3, 4, 1);
  ag::Variable b = Param(3, 4, 2);
  ag::Variable c = Param(3, 4, 3);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::Add(a, b)); }, {a, b}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::AddMany({a, b, c})); },
                {a, b, c}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::Sub(a, b)); }, {a, b}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::Mul(a, b)); }, {a, b}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::ScalarMul(a, -1.7f)); }, {a}),
            kTol);
}

TEST(GradCheckTest, SmoothActivations) {
  ag::Variable a = Param(3, 4, 4);
  EXPECT_LT(
      GradCheckDouble([&] { return Scalarize(ag::Sigmoid(a)); }, {a}),
      kTol);
  EXPECT_LT(GradCheckDouble([&] { return Scalarize(ag::Tanh(a)); }, {a}),
            kTol);
  EXPECT_LT(GradCheckDouble([&] { return Scalarize(ag::Exp(a)); }, {a}),
            kTol);
  // Log needs positive inputs well away from the eps clamp.
  Rng rng(5);
  ag::Variable pos =
      ag::MakeParameter(Tensor::Uniform(3, 4, 0.5f, 2.0f, rng));
  EXPECT_LT(
      GradCheckDouble([&] { return Scalarize(ag::Log(pos)); }, {pos}),
      kTol);
}

TEST(GradCheckTest, PiecewiseActivationsAwayFromKinks) {
  // ReLU/LeakyReLU are non-differentiable at 0; keep every entry at
  // least 10x the FD step away from the kink.
  Rng rng(6);
  Tensor vals = Tensor::Uniform(3, 4, 0.1f, 1.0f, rng);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i % 2 == 0) vals.data()[i] = -vals.data()[i];
  }
  ag::Variable x = ag::MakeParameter(vals);
  EXPECT_LT(GradCheckDouble([&] { return Scalarize(ag::Relu(x)); }, {x}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::LeakyRelu(x, 0.3f)); }, {x}),
            kTol);
}

// -- Linear algebra ---------------------------------------------------------

TEST(GradCheckTest, MatMulAndTranspose) {
  ag::Variable a = Param(3, 4, 7);
  ag::Variable b = Param(4, 2, 8);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::MatMul(a, b)); }, {a, b}),
            kTol);
  EXPECT_LT(
      GradCheckDouble([&] { return Scalarize(ag::Transpose(a)); }, {a}),
      kTol);
}

TEST(GradCheckTest, MatMulOddShapesExerciseBlockedTiles) {
  // Shapes straddling the 16-wide column tile and the vector width, so
  // the packed main loop, the register tail and the scalar tail of the
  // blocked GEMM all carry gradient (docs/KERNELS.md).
  const size_t shapes[][3] = {{1, 1, 1}, {3, 5, 2}, {2, 3, 17},
                              {5, 16, 16}, {4, 7, 33}};
  uint64_t seed = 100;
  for (const auto& s : shapes) {
    ag::Variable a = Param(s[0], s[1], seed++);
    ag::Variable b = Param(s[1], s[2], seed++);
    EXPECT_LT(GradCheckDouble(
                  [&] { return Scalarize(ag::MatMul(a, b)); }, {a, b}),
              kTol)
        << s[0] << "x" << s[1] << " @ " << s[1] << "x" << s[2];
  }
}

TEST(GradCheckTest, AddRowVector) {
  ag::Variable x = Param(4, 3, 120);
  ag::Variable bias = Param(1, 3, 121);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::AddRowVector(x, bias)); },
                {x, bias}),
            kTol);
  // Width past one vector register, odd remainder.
  ag::Variable x2 = Param(3, 17, 122);
  ag::Variable bias2 = Param(1, 17, 123);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::AddRowVector(x2, bias2)); },
                {x2, bias2}),
            kTol);
}

TEST(GradCheckTest, SpMM) {
  auto a_hat = TinyAHat();
  ag::Variable x = Param(5, 3, 9);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::SpMM(a_hat, x)); }, {x}),
            kTol);
}

// -- Broadcasting / shaping -------------------------------------------------

TEST(GradCheckTest, RowOps) {
  ag::Variable x = Param(4, 3, 10);
  ag::Variable c = Param(4, 1, 11);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::RowScale(x, c)); }, {x, c}),
            kTol);
  Rng rng(12);
  ag::Variable d =
      ag::MakeParameter(Tensor::Uniform(4, 1, 0.5f, 2.0f, rng));
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::RowDivide(x, d)); }, {x, d}),
            kTol);
  // RowMax routes the gradient to the per-row argmax; Normal draws make
  // ties (the non-differentiable case) measure-zero.
  EXPECT_LT(GradCheckDouble([&] { return Scalarize(ag::RowMax(x)); }, {x}),
            kTol);
  EXPECT_LT(
      GradCheckDouble([&] { return Scalarize(ag::MeanRows(x)); }, {x}),
      kTol);
}

TEST(GradCheckTest, ConcatSliceGather) {
  ag::Variable a = Param(4, 2, 13);
  ag::Variable b = Param(4, 3, 14);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::ConcatCols({a, b})); }, {a, b}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::SliceCols(b, 1, 2)); }, {b}),
            kTol);
  // Repeated index exercises the scatter-add in backward.
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return Scalarize(ag::GatherRows(b, {0, 2, 2, 3}));
                },
                {b}),
            kTol);
}

TEST(GradCheckTest, MaxOverSet) {
  ag::Variable a = Param(3, 4, 15);
  ag::Variable b = Param(3, 4, 16);
  ag::Variable c = Param(3, 4, 17);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::MaxOverSet({a, b, c})); },
                {a, b, c}),
            kTol);
}

// -- Reductions -------------------------------------------------------------

TEST(GradCheckTest, Reductions) {
  ag::Variable x = Param(3, 4, 18);
  EXPECT_LT(GradCheckDouble([&] { return ag::Sum(x); }, {x}), kTol);
  EXPECT_LT(GradCheckDouble([&] { return ag::Mean(x); }, {x}), kTol);
  EXPECT_LT(GradCheckDouble([&] { return ag::SquaredSum(x); }, {x}), kTol);
}

// -- Normalization ----------------------------------------------------------

TEST(GradCheckTest, PairNorm) {
  ag::Variable x = Param(5, 3, 19);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::PairNorm(x, 1.3f)); }, {x}),
            kTol);
}

TEST(GradCheckTest, BatchNormColumns) {
  ag::Variable x = Param(6, 3, 20, /*stddev=*/1.0f);
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::BatchNormColumns(x)); }, {x}),
            kTol);
}

// -- Stochastic ops ---------------------------------------------------------

TEST(GradCheckTest, DropoutWithFixedStream) {
  // The closure re-seeds its Rng on every call, so both the analytic
  // pass and every FD evaluation see the identical dropout mask.
  ag::Variable x = Param(4, 5, 21);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng rng(99);
                  return Scalarize(
                      ag::Dropout(x, 0.4f, rng, /*training=*/true));
                },
                {x}),
            kTol);
}

TEST(GradCheckTest, BernoulliStraightThroughEval) {
  // In eval mode the op passes probabilities through, so the identity
  // (straight-through) backward is exactly right and checkable; the
  // training-mode sampling step is discontinuous by design.
  Rng rng(22);
  ag::Variable probs =
      ag::MakeParameter(Tensor::Uniform(4, 3, 0.2f, 0.8f, rng));
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng r(7);
                  return Scalarize(ag::BernoulliStraightThrough(
                      probs, r, /*training=*/false));
                },
                {probs}),
            kTol);
}

// -- Losses -----------------------------------------------------------------

TEST(GradCheckTest, SoftmaxCrossEntropy) {
  ag::Variable logits = Param(5, 3, 23);
  const std::vector<int32_t> labels = {0, 2, 1, 1, 0};
  const std::vector<float> mask = {1, 1, 0, 1, 1};
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return ag::SoftmaxCrossEntropy(logits, labels, mask);
                },
                {logits}),
            kTol);
}

TEST(GradCheckTest, WeightedSoftmaxCrossEntropy) {
  ag::Variable logits = Param(5, 3, 24);
  const std::vector<int32_t> labels = {2, 0, 1, 2, 1};
  const std::vector<float> weights = {0.5f, 1.5f, 0.0f, 2.0f, 1.0f};
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return ag::WeightedSoftmaxCrossEntropy(logits, labels,
                                                         weights);
                },
                {logits}),
            kTol);
}

TEST(GradCheckTest, BinaryCrossEntropyWithLogits) {
  ag::Variable logits = Param(4, 3, 25);
  Tensor targets(4, 3);
  Rng rng(26);
  for (size_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return ag::BinaryCrossEntropyWithLogits(logits, targets);
                },
                {logits}),
            kTol);
}

TEST(GradCheckTest, MeanCosineDistance) {
  ag::Variable x = Param(5, 4, 27, /*stddev=*/1.0f);
  const std::vector<std::pair<uint32_t, uint32_t>> pairs = {
      {0, 1}, {1, 2}, {3, 4}, {0, 4}};
  EXPECT_LT(GradCheckDouble(
                [&] { return ag::MeanCosineDistance(x, pairs); }, {x}),
            kTol);
}

// -- Edge (attention) ops ---------------------------------------------------

TEST(GradCheckTest, GatherEdgeScoresAndSoftmax) {
  auto edges = TinyEdges();
  const size_t n = edges->num_nodes;
  ag::Variable dst = Param(n, 1, 28);
  ag::Variable src = Param(n, 1, 29);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return Scalarize(ag::GatherEdgeScores(dst, src, edges));
                },
                {dst, src}),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  ag::Variable scores =
                      ag::GatherEdgeScores(dst, src, edges);
                  return Scalarize(ag::EdgeSoftmax(scores, edges));
                },
                {dst, src}),
            kTol);
}

TEST(GradCheckTest, AddEdgeBias) {
  auto edges = TinyEdges();
  ag::Variable scores = Param(edges->num_edges(), 1, 30);
  auto bias = std::make_shared<std::vector<float>>();
  Rng rng(31);
  for (size_t e = 0; e < edges->num_edges(); ++e) {
    bias->push_back(static_cast<float>(rng.Normal(0.0, 0.5)));
  }
  EXPECT_LT(GradCheckDouble(
                [&] { return Scalarize(ag::AddEdgeBias(scores, bias)); },
                {scores}),
            kTol);
}

TEST(GradCheckTest, EdgeWeightedAggregate) {
  auto edges = TinyEdges();
  ag::Variable weights = Param(edges->num_edges(), 1, 32);
  ag::Variable features = Param(edges->num_nodes, 3, 33);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return Scalarize(ag::EdgeWeightedAggregate(
                      weights, features, edges));
                },
                {weights, features}),
            kTol);
}

// -- Factorization-machine op -----------------------------------------------

TEST(GradCheckTest, FmInteraction) {
  const std::vector<size_t> offsets = {0, 3, 5};  // two fields, M = 5
  ag::Variable x = Param(4, 5, 34, /*stddev=*/0.5f);
  ag::Variable w = Param(5, 2, 35, /*stddev=*/0.4f);
  ag::Variable v = Param(5, 2 * 2, 36, /*stddev=*/0.4f);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  return Scalarize(
                      ag::FmInteraction(x, w, v, offsets, /*k=*/2));
                },
                {x, w, v}),
            kTol);
}

// -- nn layers --------------------------------------------------------------

TEST(GradCheckTest, LinearLayer) {
  Rng rng(37);
  nn::Linear layer(4, 3, rng, /*bias=*/true);
  ag::Variable x = Param(5, 4, 38);
  std::vector<ag::Variable> params = layer.Parameters();
  params.push_back(x);
  EXPECT_LT(
      GradCheckDouble([&] { return Scalarize(layer.Forward(x)); }, params),
      kTol);
}

TEST(GradCheckTest, GraphConvolutionLayer) {
  Rng rng(39);
  nn::GraphConvolution layer(3, 4, rng);
  auto a_hat = TinyAHat();
  ag::Variable x = Param(5, 3, 40);
  std::vector<ag::Variable> params = layer.Parameters();
  params.push_back(x);
  // Identity activation first (no kinks anywhere), then ReLU (the seed
  // keeps every pre-activation comfortably away from zero).
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng fwd(1);
                  nn::ForwardContext ctx{/*training=*/true, &fwd};
                  return Scalarize(layer.Forward(a_hat, x, ctx,
                                                 /*dropout=*/0.3f,
                                                 /*relu=*/false));
                },
                params),
            kTol);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng fwd(2);
                  nn::ForwardContext ctx{/*training=*/false, &fwd};
                  return Scalarize(layer.Forward(a_hat, x, ctx,
                                                 /*dropout=*/0.0f,
                                                 /*relu=*/true));
                },
                params),
            kTol);
}

TEST(GradCheckTest, GatHeadLayer) {
  Rng rng(41);
  nn::GatHead head(3, 4, rng);
  auto edges = TinyEdges();
  ag::Variable x = Param(5, 3, 42);
  std::vector<ag::Variable> params = head.Parameters();
  params.push_back(x);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng fwd(3);
                  nn::ForwardContext ctx{/*training=*/false, &fwd};
                  return Scalarize(head.Forward(edges, x, ctx));
                },
                params),
            kTol);
}

TEST(GradCheckTest, GatMultiHeadLayer) {
  Rng rng(43);
  nn::GatMultiHead layer(3, 2, /*num_heads=*/2, /*concat=*/true, rng);
  auto edges = TinyEdges();
  ag::Variable x = Param(5, 3, 44);
  std::vector<ag::Variable> params = layer.Parameters();
  params.push_back(x);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng fwd(4);
                  nn::ForwardContext ctx{/*training=*/false, &fwd};
                  return Scalarize(layer.Forward(edges, x, ctx));
                },
                params),
            kTol);
}

// -- Node-aware aggregators and GC-FM ---------------------------------------

class GradCheckAggregatorTest
    : public ::testing::TestWithParam<AggregatorKind> {};

TEST_P(GradCheckAggregatorTest, HistoryAggregation) {
  const size_t n = 5;
  const std::vector<size_t> dims = {3, 3};
  Rng rng(45);
  ag::Variable shared_p = ag::MakeParameter(
      Tensor::Normal(n, dims.size(), 0.0f, 0.1f, rng));
  auto agg = MakeAggregator(GetParam(), n, dims.size(), dims, shared_p,
                            rng);
  auto a_hat = TinyAHat();
  std::vector<ag::Variable> history = {Param(n, 3, 46), Param(n, 3, 47)};
  std::vector<ag::Variable> params = agg->Parameters();
  for (const ag::Variable& h : history) params.push_back(h);
  // Eval mode: the stochastic aggregator then uses the differentiable
  // expectation instead of discrete Bernoulli draws.
  EXPECT_LT(GradCheckDouble(
                [&] {
                  Rng fwd(5);
                  nn::ForwardContext ctx{/*training=*/false, &fwd};
                  return Scalarize(agg->Aggregate(a_hat, history, ctx));
                },
                params),
            kTol)
      << "aggregator " << agg->name();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, GradCheckAggregatorTest,
    ::testing::Values(AggregatorKind::kWeighted, AggregatorKind::kMaxPooling,
                      AggregatorKind::kStochastic, AggregatorKind::kMean,
                      AggregatorKind::kLstm),
    [](const ::testing::TestParamInfo<AggregatorKind>& info) {
      return AggregatorKindName(info.param);
    });

TEST(GradCheckTest, GcFmEndToEnd) {
  // Full last-layer stack on a synthetic graph: hidden layers -> GC-FM
  // (linear + cross-layer FM + spectral filter) -> masked loss.
  Rng rng(48);
  GcFmLayer layer({3, 2}, /*num_classes=*/2, /*fm_rank=*/2, rng,
                  /*final_relu=*/false);
  auto a_hat = TinyAHat();
  std::vector<ag::Variable> hidden = {Param(5, 3, 49, 0.5f),
                                      Param(5, 2, 50, 0.5f)};
  const std::vector<int32_t> labels = {0, 1, 0, 1, 1};
  const std::vector<float> mask = {1, 1, 1, 0, 1};
  std::vector<ag::Variable> params = layer.Parameters();
  for (const ag::Variable& h : hidden) params.push_back(h);
  EXPECT_LT(GradCheckDouble(
                [&] {
                  ag::Variable logits = layer.Forward(a_hat, hidden);
                  return ag::SoftmaxCrossEntropy(logits, labels, mask);
                },
                params),
            kTol);
}

// -- The canary: a wrong backward must be caught ----------------------------

TEST(GradCheckTest, BrokenBackwardIsCaught) {
  // Forward doubles the input but backward claims the factor is 3. The
  // checker must report a large relative error, proving it has the
  // power to reject, not just accept.
  ag::Variable x = Param(3, 3, 51);
  auto broken_double = [](const ag::Variable& in) {
    ag::Variable out =
        ag::MakeOpNode(in->value() * 2.0f, {in}, "BrokenDouble");
    ag::Node* raw = in.get();
    out->set_backward_fn([raw](const Tensor& g) {
      if (raw->requires_grad()) raw->AccumulateGrad(g * 3.0f);
    });
    return out;
  };
  const double err = GradCheckDouble(
      [&] { return Scalarize(broken_double(x)); }, {x});
  EXPECT_GT(err, 0.2);
}

}  // namespace
}  // namespace lasagne
