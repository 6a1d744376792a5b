// Micro-benchmarks of the kernels everything else is built on: SpMM,
// dense GEMM, graph-convolution forward/backward, the three Lasagne
// aggregators, GC-FM, edge softmax (GAT) and the MI estimator.

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "autograd/edge_ops.h"
#include "autograd/fm_op.h"
#include "autograd/ops.h"
#include "common/bench_util.h"
#include "common/buffer_pool.h"
#include "common/parallel_config.h"
#include "common/thread_pool.h"
#include "core/aggregators.h"
#include "core/gcfm.h"
#include "data/registry.h"
#include "metrics/mutual_info.h"
#include "nn/layers.h"
#include "tensor/kernels.h"
#include "train/optimizer.h"

namespace lasagne {
namespace {

struct Fixture {
  Fixture() : data(LoadDataset("cora", 1.0, 1)) {
    a_hat = std::make_shared<CsrMatrix>(data.graph.NormalizedAdjacency());
    Rng rng(1);
    h = Tensor::Normal(data.num_nodes(), 32, 0.0f, 1.0f, rng);
  }
  Dataset data;
  std::shared_ptr<CsrMatrix> a_hat;
  Tensor h;
};

Fixture& GetFixture() {
  static Fixture& fixture = *new Fixture();
  return fixture;
}

void BM_SpMM(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.a_hat->Multiply(f.h));
  }
  state.SetItemsProcessed(state.iterations() * f.a_hat->nnz());
}
BENCHMARK(BM_SpMM);

void BM_DenseGemm(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(2);
  Tensor w = Tensor::Normal(32, 32, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.h.MatMul(w));
  }
}
BENCHMARK(BM_DenseGemm);

void BM_GraphConvForwardBackward(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(3);
  nn::GraphConvolution conv(32, 32, rng);
  nn::ForwardContext ctx{true, &rng};
  ag::Variable x = ag::MakeParameter(f.h);
  for (auto _ : state) {
    x->ZeroGrad();
    for (const auto& p : conv.Parameters()) p->ZeroGrad();
    ag::Variable out = conv.Forward(f.a_hat, x, ctx, 0.0f, true);
    ag::BackwardWithGrad(out, Tensor::Ones(out->rows(), out->cols()));
    benchmark::DoNotOptimize(out->value().data());
  }
}
BENCHMARK(BM_GraphConvForwardBackward);

template <AggregatorKind kKind>
void BM_Aggregator(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(4);
  const size_t layers = static_cast<size_t>(state.range(0));
  ag::Variable shared_p = ag::MakeParameter(
      Tensor::Normal(f.data.num_nodes(), layers, 0.0f, 0.1f, rng));
  std::vector<size_t> dims(layers, 32);
  auto agg = MakeAggregator(kKind, f.data.num_nodes(), layers, dims,
                            shared_p, rng);
  std::vector<ag::Variable> history;
  for (size_t l = 0; l < layers; ++l) {
    history.push_back(ag::MakeConstant(f.h));
  }
  nn::ForwardContext ctx{false, &rng};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        agg->Aggregate(f.a_hat, history, ctx)->value().data());
  }
}
BENCHMARK(BM_Aggregator<AggregatorKind::kWeighted>)->Arg(4)->Arg(8);
BENCHMARK(BM_Aggregator<AggregatorKind::kMaxPooling>)->Arg(4)->Arg(8);
BENCHMARK(BM_Aggregator<AggregatorKind::kStochastic>)->Arg(4)->Arg(8);

void BM_GcFmLayer(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(5);
  const size_t layers = static_cast<size_t>(state.range(0));
  std::vector<size_t> dims(layers, 32);
  GcFmLayer layer(dims, f.data.num_classes, 5, rng);
  std::vector<ag::Variable> hidden;
  for (size_t l = 0; l < layers; ++l) {
    hidden.push_back(ag::MakeConstant(f.h));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layer.Forward(f.a_hat, hidden)->value().data());
  }
}
BENCHMARK(BM_GcFmLayer)->Arg(3)->Arg(9);

void BM_EdgeSoftmaxAggregate(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(6);
  auto edges = ag::EdgeStructure::FromGraph(f.data.graph, true);
  ag::Variable scores = ag::MakeParameter(
      Tensor::Normal(edges->num_edges(), 1, 0.0f, 1.0f, rng));
  ag::Variable feats = ag::MakeConstant(f.h);
  for (auto _ : state) {
    ag::Variable alpha = ag::EdgeSoftmax(scores, edges);
    benchmark::DoNotOptimize(
        ag::EdgeWeightedAggregate(alpha, feats, edges)->value().data());
  }
}
BENCHMARK(BM_EdgeSoftmaxAggregate);

void BM_RepresentationMI(benchmark::State& state) {
  Fixture& f = GetFixture();
  Rng rng(7);
  for (auto _ : state) {
    Rng mi_rng = rng.Split();
    benchmark::DoNotOptimize(RepresentationMutualInformation(
        f.data.features, f.h, 8, mi_rng));
  }
}
BENCHMARK(BM_RepresentationMI);

void BM_NormalizedAdjacency(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.data.graph.NormalizedAdjacency().nnz());
  }
}
BENCHMARK(BM_NormalizedAdjacency);

// -- Thread-count sweeps on a >= 10k-node graph ----------------------------
//
// The sweep drives the parallel compute layer (docs/THREADING.md); the
// benchmark argument is the thread count. Outputs are
// bitwise-identical across thread counts (asserted in
// tests/parallel_determinism_test.cc); only wall clock should move, and
// only on machines with that many physical cores.

struct LargeFixture {
  LargeFixture() : data(LoadDataset("pubmed", 1.0, 1)) {
    a_hat = std::make_shared<CsrMatrix>(data.graph.NormalizedAdjacency());
    Rng rng(11);
    h = Tensor::Normal(data.num_nodes(), 64, 0.0f, 1.0f, rng);
    w = Tensor::Normal(64, 64, 0.0f, 1.0f, rng);
  }
  Dataset data;
  std::shared_ptr<CsrMatrix> a_hat;
  Tensor h;
  Tensor w;
};

LargeFixture& GetLargeFixture() {
  static LargeFixture& fixture = *new LargeFixture();
  return fixture;
}

void BM_DenseGemmLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.h.MatMul(f.w));
  }
  state.SetItemsProcessed(state.iterations() * f.h.rows() * 64 * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_DenseGemmLarge)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SpMMLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.a_hat->Multiply(f.h));
  }
  state.SetItemsProcessed(state.iterations() * f.a_hat->nnz() * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_SpMMLarge)->ArgName("threads")->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_TransposedSpMMLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.a_hat->TransposedMultiply(f.h));
  }
  state.SetItemsProcessed(state.iterations() * f.a_hat->nnz() * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_TransposedSpMMLarge)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// The single-pass fused attention kernel (the execution plan's
// EdgeAttention step, docs/KERNELS.md) vs the four-op eager chain it
// replaces. Same float semantics, same output bits; the contrast is
// edge-array traffic: one CSR sweep instead of four.
void BM_EdgeAttentionFusedLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  Rng rng(19);
  auto edges = ag::EdgeStructure::FromGraph(f.data.graph, true);
  const size_t n = f.data.num_nodes();
  const size_t d = f.h.cols();
  const Tensor dst = Tensor::Normal(n, 1, 0.0f, 1.0f, rng);
  const Tensor src = Tensor::Normal(n, 1, 0.0f, 1.0f, rng);
  for (auto _ : state) {
    Tensor out = Tensor::Uninitialized(n, d);
    internal::PoolBuffer probs(edges->num_edges());
    ParallelFor(0, n, CsrRowGrain(edges->num_edges(), n, d),
                [&](size_t row_begin, size_t row_end) {
                  kernels::EdgeAttentionForward(
                      edges->row_ptr.data(), edges->src.data(), dst.data(),
                      src.data(), nullptr, 0.2f, f.h.data(), d, probs.data(),
                      out.data(), row_begin, row_end);
                });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * edges->num_edges() * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_EdgeAttentionFusedLarge)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

void BM_EdgeChainUnfusedLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  Rng rng(19);
  auto edges = ag::EdgeStructure::FromGraph(f.data.graph, true);
  const size_t n = f.data.num_nodes();
  ag::Variable dst =
      ag::MakeConstant(Tensor::Normal(n, 1, 0.0f, 1.0f, rng));
  ag::Variable src =
      ag::MakeConstant(Tensor::Normal(n, 1, 0.0f, 1.0f, rng));
  ag::Variable feats = ag::MakeConstant(f.h);
  for (auto _ : state) {
    ag::Variable e = ag::GatherEdgeScores(dst, src, edges);
    e = ag::LeakyRelu(e, 0.2f);
    ag::Variable alpha = ag::EdgeSoftmax(e, edges);
    benchmark::DoNotOptimize(
        ag::EdgeWeightedAggregate(alpha, feats, edges)->value().data());
  }
  state.SetItemsProcessed(state.iterations() * edges->num_edges() * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_EdgeChainUnfusedLarge)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8);

// Sparse x sparse A_hat^2 through the blocked row merge
// (kSpGemmColBlock-wide column windows over the accumulator); serial
// by design, so a single-thread row only.
void BM_SpGemmLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.a_hat->Multiply(*f.a_hat, 0.0f, 0).nnz());
  }
  state.SetItemsProcessed(state.iterations() * f.a_hat->nnz());
}
BENCHMARK(BM_SpGemmLarge)->ArgName("threads")->Arg(1);

// -- Fused kernels and the buffer pool -------------------------------------

void BM_MatMulTransposedLarge(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  SetNumThreads(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.h.MatMulTransposed(f.w));
  }
  state.SetItemsProcessed(state.iterations() * f.h.rows() * 64 * 64);
  SetNumThreads(0);
}
BENCHMARK(BM_MatMulTransposedLarge)->ArgName("threads")->Arg(1)->Arg(8);

void BM_AdamStepFused(benchmark::State& state) {
  Rng rng(13);
  std::vector<ag::Variable> params;
  for (int i = 0; i < 4; ++i) {
    params.push_back(
        ag::MakeParameter(Tensor::Normal(1433, 64, 0.0f, 0.1f, rng)));
  }
  AdamOptimizer opt(params, 0.01f, 5e-4f);
  for (const ag::Variable& p : params) {
    p->AccumulateGrad(Tensor::Normal(1433, 64, 0.0f, 0.1f, rng));
  }
  for (auto _ : state) {
    opt.Step();
  }
  state.SetItemsProcessed(state.iterations() * params.size() * 1433 * 64);
}
BENCHMARK(BM_AdamStepFused);

void BM_LinearBiasForward(benchmark::State& state) {
  // Fused AddRowVector bias broadcast vs the retired ones @ bias GEMM.
  Fixture& f = GetFixture();
  Rng rng(17);
  nn::Linear linear(32, 32, rng, /*bias=*/true);
  ag::Variable x = ag::MakeConstant(f.h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear.Forward(x)->value().data());
  }
  state.SetItemsProcessed(state.iterations() * f.h.rows() * 32);
}
BENCHMARK(BM_LinearBiasForward);

void BM_ReluForwardBackwardFused(benchmark::State& state) {
  LargeFixture& f = GetLargeFixture();
  ag::Variable x = ag::MakeParameter(f.h);
  const Tensor g = Tensor::Ones(f.h.rows(), f.h.cols());
  for (auto _ : state) {
    x->ZeroGrad();
    ag::Variable y = ag::Relu(x);
    ag::BackwardWithGrad(y, g);
    benchmark::DoNotOptimize(x->grad().data());
  }
  state.SetItemsProcessed(state.iterations() * f.h.size() * 2);
}
BENCHMARK(BM_ReluForwardBackwardFused);

void BM_PoolAllocationChurn(benchmark::State& state) {
  // Steady-state temporary churn: the pattern autograd generates every
  // epoch. With the pool warm this is freelist checkout, not malloc.
  for (auto _ : state) {
    Tensor a = Tensor::Uninitialized(2708, 64);
    Tensor b = Tensor::Uninitialized(2708, 16);
    Tensor c = Tensor::Uninitialized(1, 64);
    benchmark::DoNotOptimize(a.data());
    benchmark::DoNotOptimize(b.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_PoolAllocationChurn);

}  // namespace
}  // namespace lasagne

int main(int argc, char** argv) {
  lasagne::bench::ApplyThreadsFlag(argc, argv);
  lasagne::bench::ApplyObservabilityFlags(argc, argv);
  // Strip our own flags before handing argv to google-benchmark, which
  // rejects flags it does not know.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 < argc && (arg == "--threads" || arg == "--trace-out" ||
                         arg == "--metrics-out")) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
