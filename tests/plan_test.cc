// Static execution-plan compiler (infer::ExecutionPlan): trace capture,
// bitwise plan-vs-eager parity across models and thread counts, the
// pre-reserved workspace serving warm runs without pool traffic, and the
// eager fallback for models the compiler cannot plan.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
      << what << ": plan-interpreted values differ from the eager forward";
}

ModelConfig SmallConfig(uint64_t seed = 3) {
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.dropout = 0.4f;
  config.seed = seed;
  return config;
}

/// Eval-mode eager reference logits (Forward never uses the plan).
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

// -- Bitwise parity --------------------------------------------------------

TEST(PlanParityTest, PlanMatchesEagerBitwiseAcrossModelsAndThreads) {
  ThreadCountGuard guard;
  Dataset data = LoadDataset("cora", 0.3, 17);
  // One representative per architecture family: plain spectral conv,
  // attention (edge ops), neighbor aggregation, and the paper's
  // node-aware multi-layer model with GC-FM units.
  const std::vector<std::string> names = {"gcn", "gat", "graphsage",
                                          "lasagne-weighted"};
  for (const std::string& name : names) {
    std::unique_ptr<Model> model = MakeModel(name, data, SmallConfig());
    for (size_t threads : {1u, 2u, 8u}) {
      SetNumThreads(threads);
      const Tensor reference = EagerLogits(*model);

      Rng rng(9);
      nn::ForwardContext ctx{/*training=*/false, &rng};
      ag::ResetTapeStats();
      Tensor predicted = model->Predict(ctx);
      // These four models must actually be plan-compiled, not silently
      // served by the eager fallback.
      ASSERT_NE(model->execution_plan(), nullptr)
          << name << ": " << model->plan_status().ToString();
      EXPECT_TRUE(model->plan_status().ok()) << name;
      // Plan replay builds no autograd nodes at all.
      ag::TapeStats stats = ag::GetTapeStats();
      EXPECT_EQ(stats.nodes_created, 0u) << name;
      EXPECT_EQ(stats.closures_retained, 0u) << name;
      EXPECT_EQ(stats.parent_links, 0u) << name;
      ExpectBitwiseEqual(reference, predicted,
                         name + " @ " + std::to_string(threads) +
                             " threads (cold)");
      // Warm run: the finalized workspace serves intermediates.
      ExpectBitwiseEqual(reference, PlanLogits(*model),
                         name + " @ " + std::to_string(threads) +
                             " threads (warm)");
    }
  }
}

TEST(PlanParityTest, ParityUnaffectedByObservability) {
  ThreadCountGuard guard;
  Dataset data = LoadDataset("cora", 0.25, 19);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  SetNumThreads(2);

  obs::DisableMetrics();
  const Tensor reference = EagerLogits(*model);
  Tensor plain = PlanLogits(*model);
  ASSERT_NE(model->execution_plan(), nullptr)
      << model->plan_status().ToString();

  obs::EnableMetrics();
  Tensor instrumented = PlanLogits(*model);
  obs::DisableMetrics();

  ExpectBitwiseEqual(reference, plain, "plan with metrics disabled");
  ExpectBitwiseEqual(reference, instrumented, "plan with metrics enabled");
}

TEST(PlanParityTest, AllKnownModelsPredictMatchesForward) {
  // Safety net over the whole zoo: whether a model plan-compiles or
  // falls back to the eager path, Predict must stay bitwise identical
  // to Forward.
  Dataset data = LoadDataset("cora", 0.3, 23);
  for (const std::string& name : KnownModelNames()) {
    std::unique_ptr<Model> model = MakeModel(name, data, SmallConfig());
    const Tensor reference = EagerLogits(*model);
    ExpectBitwiseEqual(reference, PlanLogits(*model), name);
    // A compiled plan implies an OK status and vice versa.
    EXPECT_EQ(model->execution_plan() != nullptr, model->plan_status().ok())
        << name << ": " << model->plan_status().ToString();
  }
}

TEST(PlanParityTest, InvalidateForcesRecompile) {
  Dataset data = LoadDataset("cora", 0.2, 29);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  const Tensor reference = EagerLogits(*model);
  ExpectBitwiseEqual(reference, PlanLogits(*model), "initial plan");
  const infer::ExecutionPlan* first = model->execution_plan();
  ASSERT_NE(first, nullptr);

  model->InvalidateExecutionPlan();
  EXPECT_EQ(model->execution_plan(), nullptr);
  ExpectBitwiseEqual(reference, PlanLogits(*model), "recompiled plan");
  EXPECT_NE(model->execution_plan(), nullptr);
}

// -- Workspace behavior ----------------------------------------------------

TEST(PlanWorkspaceTest, WarmRunsTouchNoGlobalPool) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  Dataset data = LoadDataset("cora", 0.3, 31);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());

  // First Predict compiles (sizing run allocates through the global
  // pool); second run settles the freelist for the output copy.
  (void)PlanLogits(*model);
  (void)PlanLogits(*model);
  const infer::ExecutionPlan* plan = model->execution_plan();
  ASSERT_NE(plan, nullptr) << model->plan_status().ToString();
  EXPECT_GT(plan->info().steps, 0u);
  EXPECT_GT(plan->info().workspace_bytes, 0u);

  const BufferPool::ThreadStats before = BufferPool::GetThreadStats();
  (void)PlanLogits(*model);
  const BufferPool::ThreadStats after = BufferPool::GetThreadStats();
  // Zero misses: every intermediate is served by the pre-reserved
  // workspace slab, and the only global-pool touch (the returned
  // output copy) reuses a warmed freelist bucket.
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(plan->overflow_acquires(), 0u);
}

TEST(PlanWorkspaceTest, PlanSurvivesInPlaceParameterUpdates) {
  Dataset data = LoadDataset("cora", 0.25, 37);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  const Tensor before = PlanLogits(*model);
  ASSERT_NE(model->execution_plan(), nullptr)
      << model->plan_status().ToString();

  // An in-place update (what an optimizer step or checkpoint restore
  // does) must flow into the next Run without recompiling: leaf slots
  // are bound by reference to the model's parameter nodes.
  std::vector<ag::Variable> params = model->Parameters();
  ASSERT_FALSE(params.empty());
  Tensor& w = params[0]->mutable_value();
  for (size_t i = 0; i < w.size(); ++i) w.data()[i] *= 1.5f;

  const infer::ExecutionPlan* plan = model->execution_plan();
  const Tensor reference = EagerLogits(*model);
  const Tensor after = PlanLogits(*model);
  EXPECT_EQ(model->execution_plan(), plan) << "plan was recompiled";
  ExpectBitwiseEqual(reference, after, "plan after parameter update");
  EXPECT_NE(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(float)))
      << "parameter update did not change the logits";
}

// -- Eager fallback --------------------------------------------------------

/// Forward ends in a loss op, which deliberately has no replay closure:
/// the trace comes back incomplete and Predict must stay on the eager
/// path, permanently and correctly.
class LossRootModel : public Model {
 public:
  explicit LossRootModel(const Dataset& data)
      : Model("loss-root", data) {
    Rng rng(5);
    features_ = ag::MakeConstant(data.features);
    weight_ = ag::MakeParameter(Tensor::GlorotUniform(
        data.feature_dim(), data.num_classes, rng));
  }

  ag::Variable Forward(const nn::ForwardContext&) override {
    ag::Variable logits = ag::MatMul(features_, weight_);
    return ag::SoftmaxCrossEntropy(logits, data_.labels, data_.train_mask);
  }

  std::vector<ag::Variable> Parameters() const override { return {weight_}; }

 private:
  ag::Variable features_;
  ag::Variable weight_;
};

/// Forward returns a node created at construction time — nothing for
/// the trace to replay.
class CachedRootModel : public Model {
 public:
  explicit CachedRootModel(const Dataset& data)
      : Model("cached-root", data) {
    cached_ = ag::MakeConstant(Tensor::Zeros(data.num_nodes(),
                                             data.num_classes));
  }

  ag::Variable Forward(const nn::ForwardContext&) override { return cached_; }

  std::vector<ag::Variable> Parameters() const override { return {}; }

 private:
  ag::Variable cached_;
};

TEST(PlanFallbackTest, UntracedOpFallsBackToEager) {
  Dataset data = LoadDataset("cora", 0.2, 41);
  LossRootModel model(data);
  const Tensor reference = EagerLogits(model);
  obs::EnableMetrics();
  obs::Counter& fallbacks =
      obs::MetricsRegistry::Global().GetCounter("infer.plan.fallbacks");
  const uint64_t fallbacks_before = fallbacks.Value();
  ExpectBitwiseEqual(reference, PlanLogits(model), "loss-root fallback");
  EXPECT_EQ(model.execution_plan(), nullptr);
  EXPECT_EQ(model.plan_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(model.plan_status().ToString().find("SoftmaxCrossEntropy"),
            std::string::npos)
      << model.plan_status().ToString();
  // The compile attempt is remembered, not repeated: the status object
  // is stable across further Predicts, and the fallback counts once.
  (void)PlanLogits(model);
  obs::DisableMetrics();
  EXPECT_EQ(model.plan_status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fallbacks.Value() - fallbacks_before, 1u);
}

TEST(PlanFallbackTest, UntracedRootFallsBackToEager) {
  Dataset data = LoadDataset("cora", 0.2, 43);
  CachedRootModel model(data);
  const Tensor reference = EagerLogits(model);
  ExpectBitwiseEqual(reference, PlanLogits(model), "cached-root fallback");
  EXPECT_EQ(model.execution_plan(), nullptr);
  EXPECT_EQ(model.plan_status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanFallbackTest, OptOutFlagsForceEager) {
  Dataset data = LoadDataset("cora", 0.2, 47);

  // Instance opt-out: never compiles.
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  model->set_use_execution_plan(false);
  const Tensor reference = EagerLogits(*model);
  ExpectBitwiseEqual(reference, PlanLogits(*model), "instance opt-out");
  EXPECT_EQ(model->execution_plan(), nullptr);
  EXPECT_TRUE(model->plan_status().ok());
}

// -- Trace capture ---------------------------------------------------------

TEST(PlanTraceTest, TraceRecordsEvalOpsInExecutionOrder) {
  Rng rng(1);
  ag::Variable w = ag::MakeParameter(Tensor::Normal(4, 4, 0.0f, 1.0f, rng));
  ag::Variable x = ag::MakeConstant(Tensor::Normal(4, 4, 0.0f, 1.0f, rng));

  ag::NoGradGuard guard;
  ag::ForwardTrace trace;
  ag::Variable y = ag::Relu(ag::MatMul(x, w));
  EXPECT_TRUE(trace.complete());
  EXPECT_EQ(trace.untraced_ops(), 0u);
  EXPECT_EQ(trace.first_untraced_op(), "");
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_STREQ(trace.records()[0].op_name, "MatMul");
  EXPECT_STREQ(trace.records()[1].op_name, "Relu");
  EXPECT_EQ(trace.records()[1].output.get(), y.get());
  EXPECT_EQ(trace.records()[1].inputs.size(), 1u);
  EXPECT_EQ(trace.records()[1].inputs[0].get(),
            trace.records()[0].output.get());
}

TEST(PlanTraceTest, LossOpLeavesTraceIncomplete) {
  Rng rng(2);
  ag::Variable logits =
      ag::MakeConstant(Tensor::Normal(6, 3, 0.0f, 1.0f, rng));
  const std::vector<int32_t> labels = {0, 1, 2, 0, 1, 2};
  const std::vector<float> mask(6, 1.0f);

  ag::NoGradGuard guard;
  ag::ForwardTrace trace;
  (void)ag::SoftmaxCrossEntropy(logits, labels, mask);
  EXPECT_FALSE(trace.complete());
  EXPECT_GE(trace.untraced_ops(), 1u);
  EXPECT_EQ(trace.first_untraced_op(), "SoftmaxCrossEntropy");
}

TEST(PlanTraceTest, TraceRequiresNoGradGuard) {
  EXPECT_DEATH(ag::ForwardTrace trace, "NoGradGuard");
}

TEST(PlanTraceTest, NestedTraceShadowsOuter) {
  Rng rng(3);
  ag::Variable x = ag::MakeConstant(Tensor::Normal(4, 4, 0.0f, 1.0f, rng));

  ag::NoGradGuard guard;
  ag::ForwardTrace outer;
  (void)ag::Relu(x);
  {
    ag::ForwardTrace inner;
    (void)ag::Relu(x);
    (void)ag::Relu(x);
    EXPECT_EQ(inner.records().size(), 2u);
  }
  (void)ag::Relu(x);
  EXPECT_TRUE(outer.complete());
  EXPECT_EQ(outer.records().size(), 2u);  // inner ops not double-counted
}

}  // namespace
}  // namespace lasagne
