// Execution-plan op-chain fusion (docs/INFERENCE.md): a differential
// fuzz harness over random layer stacks proving fused plans are
// bitwise-identical to the eager forward (1/2/8 threads, obs on/off,
// zero warm workspace misses), a coverage matrix pinning exactly which
// chains fuse in each zoo model, and negative cases — multi-consumer
// intermediates must not fuse, untraced ops break chains cleanly, and
// every opt-out flag still bypasses the pass.
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/edge_ops.h"
#include "autograd/forward_trace.h"
#include "autograd/inference.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "data/registry.h"
#include "infer/plan.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "sparse/csr_matrix.h"
#include "tensor/rng.h"

namespace lasagne {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetNumThreads(0); }
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": fused-plan values differ from the eager forward";
}

ModelConfig SmallConfig(uint64_t seed = 3) {
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.dropout = 0.4f;
  config.seed = seed;
  return config;
}

Tensor EagerLogits(Model& model) {
  Rng rng(9);
  nn::ForwardContext ctx{/*training=*/false, &rng};
  return model.Forward(ctx)->value();
}

Tensor PlanLogits(Model& model) {
  Rng rng(9);
  nn::ForwardContext ctx{/*training=*/false, &rng};
  return model.Predict(ctx);
}

// -- Differential fuzz ------------------------------------------------------

enum class Act { kNone, kRelu, kLeakyRelu, kTanh };

struct LayerSpec {
  size_t width = 0;
  bool bias = false;
  bool aggregate = false;  // SpMM with a_hat after the linear part
  Act act = Act::kNone;
};

/// Random linear/aggregate/activation stack drawn from a seed:
///   h = act(SpMM?(h @ W (+ bias)))  per layer.
/// Covers every fusion rule the pass implements for dense chains
/// (MatMul+Bias, MatMul+Bias+act, SpMM+act), plus deliberate
/// non-fusible material (Tanh, bias-less MatMul, SpMM without act).
class RandomStackModel : public Model {
 public:
  RandomStackModel(const Dataset& data, uint64_t seed)
      : Model("fuzz-stack-" + std::to_string(seed), data) {
    Rng rng(seed * 977 + 11);
    a_hat_ = std::make_shared<CsrMatrix>(data.graph.NormalizedAdjacency());
    features_ = ag::MakeConstant(data.features);
    const size_t depth = 1 + rng.UniformInt(4);
    size_t in_dim = data.feature_dim();
    for (size_t l = 0; l < depth; ++l) {
      LayerSpec spec;
      spec.width = 3 + rng.UniformInt(38);
      spec.bias = rng.UniformInt(2) == 0;
      spec.aggregate = rng.UniformInt(2) == 0;
      spec.act = static_cast<Act>(rng.UniformInt(4));
      weights_.push_back(ag::MakeParameter(
          Tensor::GlorotUniform(in_dim, spec.width, rng)));
      biases_.push_back(spec.bias
                            ? ag::MakeParameter(Tensor::Normal(
                                  1, spec.width, 0.0f, 0.1f, rng))
                            : ag::Variable());
      specs_.push_back(spec);
      in_dim = spec.width;
    }
  }

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable h = features_;
    for (size_t l = 0; l < specs_.size(); ++l) {
      h = ag::MatMul(h, weights_[l]);
      if (specs_[l].bias) h = ag::AddRowVector(h, biases_[l]);
      if (specs_[l].aggregate) h = ag::SpMM(a_hat_, h);
      switch (specs_[l].act) {
        case Act::kNone:
          break;
        case Act::kRelu:
          h = ag::Relu(h);
          break;
        case Act::kLeakyRelu:
          h = ag::LeakyRelu(h, 0.2f);
          break;
        case Act::kTanh:
          h = ag::Tanh(h);
          break;
      }
    }
    return h;
  }

  std::vector<ag::Variable> Parameters() const override {
    std::vector<ag::Variable> params = weights_;
    for (const ag::Variable& b : biases_) {
      if (b != nullptr) params.push_back(b);
    }
    return params;
  }

  /// What the fusion pass must do to this stack, derived independently
  /// from the layer specs: {fused steps, traced ops fused away}.
  std::pair<size_t, size_t> ExpectedFusion() const {
    size_t fused_steps = 0;
    size_t fused_away = 0;
    for (const LayerSpec& s : specs_) {
      const bool fusible_act = s.act == Act::kRelu || s.act == Act::kLeakyRelu;
      if (s.bias) {
        // MatMul→AddRowVector always pairs; the activation joins the
        // triple only when no aggregate sits between them.
        ++fused_steps;
        fused_away += (!s.aggregate && fusible_act) ? 2 : 1;
      }
      if (s.aggregate && fusible_act) {
        ++fused_steps;
        ++fused_away;
      }
    }
    return {fused_steps, fused_away};
  }

 private:
  std::shared_ptr<const CsrMatrix> a_hat_;
  ag::Variable features_;
  std::vector<ag::Variable> weights_;
  std::vector<ag::Variable> biases_;
  std::vector<LayerSpec> specs_;
};

TEST(PlanFusionFuzzTest, RandomStacksMatchEagerBitwise) {
  ThreadCountGuard guard;
  Dataset data = LoadDataset("cora", 0.15, 53);
  constexpr uint64_t kStacks = 50;
  size_t stacks_with_fusion = 0;
  for (uint64_t seed = 1; seed <= kStacks; ++seed) {
    RandomStackModel model(data, seed);
    const std::string tag = "stack seed " + std::to_string(seed);

    obs::DisableMetrics();
    for (size_t threads : {1u, 2u, 8u}) {
      SetNumThreads(threads);
      const Tensor reference = EagerLogits(model);
      ExpectBitwiseEqual(reference, PlanLogits(model),
                         tag + " @ " + std::to_string(threads) + " threads");
      // Observability must not perturb the fused kernels.
      obs::EnableMetrics();
      ExpectBitwiseEqual(reference, PlanLogits(model),
                         tag + " @ " + std::to_string(threads) +
                             " threads, obs on");
      obs::DisableMetrics();
    }

    // The pass must fire exactly where the layer specs predict — no
    // missed chains, no over-eager rewrites.
    ASSERT_NE(model.execution_plan(), nullptr)
        << tag << ": " << model.plan_status().ToString();
    const infer::PlanInfo info = model.execution_plan()->info();
    const auto [want_fused, want_away] = model.ExpectedFusion();
    EXPECT_EQ(info.fused_steps, want_fused)
        << tag << ": " << model.execution_plan()->OpSummary().ToString();
    EXPECT_EQ(info.ops_fused_away, want_away)
        << tag << ": " << model.execution_plan()->OpSummary().ToString();
    EXPECT_EQ(info.steps, info.traced_ops - info.ops_fused_away) << tag;
    if (info.fused_steps > 0) ++stacks_with_fusion;

    // Steady state: the fused plan serves every intermediate from its
    // pre-reserved workspace — zero global-pool misses on warm runs.
    if (BufferPool::kCachesBuffers) {
      (void)PlanLogits(model);
      const BufferPool::ThreadStats before = BufferPool::GetThreadStats();
      (void)PlanLogits(model);
      const BufferPool::ThreadStats after = BufferPool::GetThreadStats();
      EXPECT_EQ(after.misses - before.misses, 0u) << tag;
      EXPECT_EQ(model.execution_plan()->overflow_acquires(), 0u) << tag;
    }
  }
  // The draw must actually exercise the pass (deterministic seeds, so
  // this is a property of the harness, not luck).
  EXPECT_GT(stacks_with_fusion, kStacks / 2);
}

// -- Coverage matrix --------------------------------------------------------

struct ExpectedCoverage {
  std::string model;
  std::vector<std::pair<std::string, size_t>> fused_counts;
  size_t fused_steps;
  size_t ops_fused_away;
};

TEST(PlanFusionCoverageTest, ZooModelsFuseExpectedChains) {
  // Exact per-model fusion census. A change that silently de-fuses a
  // chain (or fuses a new one) must fail here, not just get slower.
  // gcn: depth-2 conv, relu on the hidden layer only -> 1 SpMM+Relu.
  // gat: 4 heads + 1 output head, each head super-fusing its whole
  //      4-op attention chain (Gather→LeakyRelu→Softmax→Aggregate)
  //      into one EdgeAttention step — NOT the older pairwise
  //      two-step split, which was slower than the raw chain.
  // adsf: same 5 heads, each chain carrying the structural-fingerprint
  //      AddEdgeBias too, so every EdgeAttention step covers 5 ops.
  // graphsage: its Linears carry no bias, so the only fusible chain is
  //      the hidden layer's self+neighbor Add into its Relu.
  // lasagne-weighted: the hidden conv's SpMM+Relu; the GC-FM tail
  //      (SliceCols, FmInteraction, RowScale) stays opaque and the
  //      output conv has no activation.
  const std::vector<ExpectedCoverage> expectations = {
      {"gcn", {{"SpMM+Relu", 1}}, 1, 1},
      {"gat", {{"EdgeAttention", 5}}, 5, 15},
      {"adsf", {{"EdgeAttention", 5}}, 5, 20},
      {"graphsage", {{"Add+Relu", 1}}, 1, 1},
      {"lasagne-weighted", {{"SpMM+Relu", 1}}, 1, 1},
  };
  Dataset data = LoadDataset("cora", 0.3, 17);
  for (const ExpectedCoverage& want : expectations) {
    std::unique_ptr<Model> model = MakeModel(want.model, data, SmallConfig());
    (void)PlanLogits(*model);
    ASSERT_NE(model->execution_plan(), nullptr)
        << want.model << ": " << model->plan_status().ToString();
    const infer::PlanOpSummary summary = model->execution_plan()->OpSummary();
    for (const auto& [op_name, count] : want.fused_counts) {
      EXPECT_EQ(summary.Count(op_name), count)
          << want.model << " '" << op_name << "': " << summary.ToString();
    }
    EXPECT_EQ(summary.fused_steps, want.fused_steps)
        << want.model << ": " << summary.ToString();
    EXPECT_EQ(summary.ops_fused_away, want.ops_fused_away)
        << want.model << ": " << summary.ToString();
    // Every zoo model must see a nonzero fusion win.
    EXPECT_GT(summary.fused_steps, 0u) << want.model;
    // Census bookkeeping is self-consistent.
    EXPECT_EQ(summary.steps, summary.traced_ops - summary.ops_fused_away)
        << want.model;
    size_t total = 0;
    for (const auto& [op_name, count] : summary.op_counts) total += count;
    EXPECT_EQ(total, summary.steps) << want.model;
  }
}

TEST(PlanFusionCoverageTest, FusionShrinksStepCountAndWorkspace) {
  // The same model compiled with and without the pass: fusion must
  // remove steps, and the fused-away intermediates must leave the
  // workspace sizing run (never grow it).
  Dataset data = LoadDataset("cora", 0.3, 17);
  for (const char* name :
       {"gcn", "gat", "adsf", "graphsage", "lasagne-weighted"}) {
    std::unique_ptr<Model> fused = MakeModel(name, data, SmallConfig());
    std::unique_ptr<Model> unfused = MakeModel(name, data, SmallConfig());
    unfused->set_use_plan_fusion(false);
    (void)PlanLogits(*fused);
    (void)PlanLogits(*unfused);
    ASSERT_NE(fused->execution_plan(), nullptr) << name;
    ASSERT_NE(unfused->execution_plan(), nullptr) << name;
    const infer::PlanInfo with = fused->execution_plan()->info();
    const infer::PlanInfo without = unfused->execution_plan()->info();
    EXPECT_LT(with.steps, without.steps) << name;
    EXPECT_EQ(with.traced_ops, without.traced_ops) << name;
    EXPECT_EQ(without.fused_steps, 0u) << name;
    EXPECT_EQ(without.ops_fused_away, 0u) << name;
    EXPECT_LE(with.workspace_bytes, without.workspace_bytes) << name;
    EXPECT_EQ(with.slots + with.ops_fused_away, without.slots) << name;
  }
}

// -- Negative cases ---------------------------------------------------------

/// z = x @ W is consumed by BOTH the bias add and the final Add: the
/// intermediate has two consumers, so the MatMul+Bias rule must not
/// fire (fusing it would skip materializing a value the Add reads).
class TwoConsumerModel : public Model {
 public:
  explicit TwoConsumerModel(const Dataset& data)
      : Model("two-consumer", data) {
    Rng rng(5);
    features_ = ag::MakeConstant(data.features);
    weight_ = ag::MakeParameter(
        Tensor::GlorotUniform(data.feature_dim(), 8, rng));
    bias_ = ag::MakeParameter(Tensor::Normal(1, 8, 0.0f, 0.1f, rng));
  }

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable z = ag::MatMul(features_, weight_);
    ag::Variable y = ag::AddRowVector(z, bias_);
    return ag::Add(y, z);
  }

  std::vector<ag::Variable> Parameters() const override {
    return {weight_, bias_};
  }

 private:
  ag::Variable features_;
  ag::Variable weight_;
  ag::Variable bias_;
};

/// h = SpMM(a_hat, x) feeds Relu AND the final Add — SpMM+Relu must
/// not fire either.
class TwoConsumerSpmmModel : public Model {
 public:
  explicit TwoConsumerSpmmModel(const Dataset& data)
      : Model("two-consumer-spmm", data) {
    Rng rng(7);
    a_hat_ = std::make_shared<CsrMatrix>(data.graph.NormalizedAdjacency());
    features_ = ag::MakeConstant(data.features);
    weight_ = ag::MakeParameter(
        Tensor::GlorotUniform(data.feature_dim(), 6, rng));
  }

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable h = ag::SpMM(a_hat_, ag::MatMul(features_, weight_));
    return ag::Add(ag::Relu(h), h);
  }

  std::vector<ag::Variable> Parameters() const override { return {weight_}; }

 private:
  std::shared_ptr<const CsrMatrix> a_hat_;
  ag::Variable features_;
  ag::Variable weight_;
};

TEST(PlanFusionNegativeTest, TwoConsumerIntermediateDoesNotFuse) {
  Dataset data = LoadDataset("cora", 0.2, 41);
  {
    TwoConsumerModel model(data);
    const Tensor reference = EagerLogits(model);
    ExpectBitwiseEqual(reference, PlanLogits(model), "two-consumer matmul");
    ASSERT_NE(model.execution_plan(), nullptr)
        << model.plan_status().ToString();
    const infer::PlanOpSummary summary = model.execution_plan()->OpSummary();
    EXPECT_EQ(summary.fused_steps, 0u) << summary.ToString();
    EXPECT_EQ(summary.Count("MatMul"), 1u) << summary.ToString();
    EXPECT_EQ(summary.Count("AddRowVector"), 1u) << summary.ToString();
    EXPECT_EQ(summary.Count("MatMul+Bias"), 0u) << summary.ToString();
  }
  {
    TwoConsumerSpmmModel model(data);
    const Tensor reference = EagerLogits(model);
    ExpectBitwiseEqual(reference, PlanLogits(model), "two-consumer spmm");
    ASSERT_NE(model.execution_plan(), nullptr)
        << model.plan_status().ToString();
    const infer::PlanOpSummary summary = model.execution_plan()->OpSummary();
    EXPECT_EQ(summary.fused_steps, 0u) << summary.ToString();
    EXPECT_EQ(summary.Count("SpMM"), 1u) << summary.ToString();
    EXPECT_EQ(summary.Count("Relu"), 1u) << summary.ToString();
    EXPECT_EQ(summary.Count("SpMM+Relu"), 0u) << summary.ToString();
  }
}

/// The attention softmax feeds TWO aggregates: the EdgeAttention rule
/// must not swallow the chain (alpha is externally visible), and no
/// part of the partial chain fuses — it replays op by op.
class SharedAlphaModel : public Model {
 public:
  explicit SharedAlphaModel(const Dataset& data)
      : Model("shared-alpha", data) {
    Rng rng(13);
    edges_ = ag::EdgeStructure::FromGraph(data.graph, /*add_self_loops=*/true);
    features_ = ag::MakeConstant(data.features);
    weight_ = ag::MakeParameter(
        Tensor::GlorotUniform(data.feature_dim(), 8, rng));
    attn_dst_ = ag::MakeParameter(Tensor::GlorotUniform(8, 1, rng));
    attn_src_ = ag::MakeParameter(Tensor::GlorotUniform(8, 1, rng));
  }

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable wh = ag::MatMul(features_, weight_);
    ag::Variable e = ag::GatherEdgeScores(ag::MatMul(wh, attn_dst_),
                                          ag::MatMul(wh, attn_src_), edges_);
    e = ag::LeakyRelu(e, 0.2f);
    ag::Variable alpha = ag::EdgeSoftmax(e, edges_);
    return ag::Add(ag::EdgeWeightedAggregate(alpha, wh, edges_),
                   ag::EdgeWeightedAggregate(alpha, wh, edges_));
  }

  std::vector<ag::Variable> Parameters() const override {
    return {weight_, attn_dst_, attn_src_};
  }

 private:
  std::shared_ptr<const ag::EdgeStructure> edges_;
  ag::Variable features_;
  ag::Variable weight_;
  ag::Variable attn_dst_;
  ag::Variable attn_src_;
};

TEST(PlanFusionNegativeTest, PartialAttentionChainRunsUnfused) {
  Dataset data = LoadDataset("cora", 0.2, 41);
  SharedAlphaModel model(data);
  const Tensor reference = EagerLogits(model);
  ExpectBitwiseEqual(reference, PlanLogits(model), "shared-alpha");
  ASSERT_NE(model.execution_plan(), nullptr)
      << model.plan_status().ToString();
  const infer::PlanOpSummary summary = model.execution_plan()->OpSummary();
  EXPECT_EQ(summary.Count("EdgeAttention"), 0u) << summary.ToString();
  EXPECT_EQ(summary.Count("GatherEdgeScores"), 1u) << summary.ToString();
  EXPECT_EQ(summary.Count("LeakyRelu"), 1u) << summary.ToString();
  EXPECT_EQ(summary.Count("EdgeSoftmax"), 1u) << summary.ToString();
  EXPECT_EQ(summary.Count("EdgeWeightedAggregate"), 2u) << summary.ToString();
  EXPECT_EQ(summary.fused_steps, 0u) << summary.ToString();
  EXPECT_EQ(summary.ops_fused_away, 0u) << summary.ToString();
}

/// A fusible MatMul→AddRowVector prefix followed by an untraced op
/// (the loss): the whole compile must fall back to the eager path —
/// fusion never produces a partial plan across an untraced boundary.
class UntracedTailModel : public Model {
 public:
  explicit UntracedTailModel(const Dataset& data)
      : Model("untraced-tail", data) {
    Rng rng(11);
    features_ = ag::MakeConstant(data.features);
    weight_ = ag::MakeParameter(Tensor::GlorotUniform(
        data.feature_dim(), data.num_classes, rng));
    bias_ = ag::MakeParameter(Tensor::Normal(
        1, data.num_classes, 0.0f, 0.1f, rng));
  }

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable logits =
        ag::AddRowVector(ag::MatMul(features_, weight_), bias_);
    return ag::SoftmaxCrossEntropy(logits, data_.labels, data_.train_mask);
  }

  std::vector<ag::Variable> Parameters() const override {
    return {weight_, bias_};
  }

 private:
  ag::Variable features_;
  ag::Variable weight_;
  ag::Variable bias_;
};

TEST(PlanFusionNegativeTest, UntracedBoundaryFallsBackCleanly) {
  Dataset data = LoadDataset("cora", 0.2, 43);
  UntracedTailModel model(data);
  const Tensor reference = EagerLogits(model);
  ExpectBitwiseEqual(reference, PlanLogits(model), "untraced-tail fallback");
  EXPECT_EQ(model.execution_plan(), nullptr);
  EXPECT_EQ(model.plan_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(model.plan_status().ToString().find("SoftmaxCrossEntropy"),
            std::string::npos)
      << model.plan_status().ToString();
}

// -- Opt-outs ---------------------------------------------------------------

TEST(PlanFusionOptOutTest, InstanceAndDefaultFlagsDisableFusionOnly) {
  Dataset data = LoadDataset("cora", 0.2, 47);

  // Plans and fusion are on by default. Instance flag: plan still
  // compiles, nothing fuses, parity holds.
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  EXPECT_TRUE(model->use_execution_plan());
  EXPECT_TRUE(model->use_plan_fusion());
  model->set_use_plan_fusion(false);
  const Tensor reference = EagerLogits(*model);
  ExpectBitwiseEqual(reference, PlanLogits(*model), "fusion opt-out");
  ASSERT_NE(model->execution_plan(), nullptr)
      << model->plan_status().ToString();
  EXPECT_EQ(model->execution_plan()->info().fused_steps, 0u);
  EXPECT_EQ(model->execution_plan()->info().ops_fused_away, 0u);
}

TEST(PlanFusionOptOutTest, PlanOptOutsStillBypassEverything) {
  Dataset data = LoadDataset("cora", 0.2, 47);

  // set_use_execution_plan(false) bypasses plan AND fusion.
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  model->set_use_execution_plan(false);
  ExpectBitwiseEqual(EagerLogits(*model), PlanLogits(*model),
                     "plan instance opt-out");
  EXPECT_EQ(model->execution_plan(), nullptr);
  EXPECT_TRUE(model->plan_status().ok());
}

}  // namespace
}  // namespace lasagne
