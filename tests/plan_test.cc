// Static execution-plan compiler (infer::ExecutionPlan): trace capture,
// bitwise plan-vs-eager parity across models and thread counts, the
// pre-reserved workspace serving warm runs without pool traffic, and the
// eager fallback for models the compiler cannot plan.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/edge_ops.h"
#include "autograd/fm_op.h"
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

// -- One forward per op -------------------------------------------------

/// A call of one op on leaves made beforehand, so the call itself is the
/// only op that runs. `name` is both the ag:: function and its node name.
struct OpCall {
  std::string name;
  std::function<ag::Variable()> call;
};

/// Every traceable op of ops.h, edge_ops.h and fm_op.h on an input of
/// `rows` x `cols` (a single row, odd widths), with clamped values, ties,
/// an SpMM row with no entries and edge destinations with no edges.
std::vector<OpCall> TracedOpCalls(size_t rows, size_t cols, Rng& rng) {
  auto values = [&rng](size_t r, size_t c) {
    return ag::MakeConstant(Tensor::Normal(r, c, 0.0f, 1.0f, rng));
  };
  const ag::Variable x = values(rows, cols);
  const ag::Variable y = values(rows, cols);
  const ag::Variable column = values(rows, 1);
  // Rounded copies give RowMax and MaxOverSet ties and RowDivide zeros.
  const ag::Variable ties = ag::MakeConstant(
      x->value().Map([](float v) { return std::round(v); }));
  const ag::Variable zeros_in_column = ag::MakeConstant(
      column->value().Map([](float v) { return std::round(v); }));
  const ag::Variable w = values(cols, 3);
  const ag::Variable bias = values(1, cols);
  const ag::Variable probs = ag::MakeConstant(
      x->value().Map([](float v) { return 1.0f / (1.0f + std::exp(-v)); }));
  const ag::Variable tall = values(rows + 1, cols);  // BatchNorm needs 2+

  Tensor dense = Tensor::Normal(rows, rows, 0.0f, 1.0f, rng);
  for (size_t j = 0; j < rows; ++j) dense(rows / 2, j) = 0.0f;  // empty row
  auto matrix =
      std::make_shared<const CsrMatrix>(CsrMatrix::FromDense(dense));

  // Destination i receives from i + 1 (mod rows) unless i % 3 == 1, plus
  // a self-loop on even rows, and repeats its first source on rows
  // divisible by 4: isolated rows, self-loops and duplicate edges.
  auto edges = std::make_shared<ag::EdgeStructure>();
  edges->num_nodes = rows;
  edges->row_ptr.assign(rows + 1, 0);
  for (size_t i = 0; i < rows; ++i) {
    const size_t first = edges->src.size();
    if (i % 3 != 1) edges->src.push_back(static_cast<uint32_t>((i + 1) % rows));
    if (i % 2 == 0) edges->src.push_back(static_cast<uint32_t>(i));
    if (i % 4 == 0) edges->src.push_back(edges->src[first]);
    edges->row_ptr[i + 1] = edges->src.size();
  }
  const size_t num_edges = edges->num_edges();
  const ag::Variable edge_scores = values(num_edges, 1);
  auto edge_bias = std::make_shared<const std::vector<float>>(
      std::vector<float>(num_edges, 0.25f));

  // Two fields of width `cols` each; zero entries take the FM skip path.
  Tensor fm_x = Tensor::Normal(rows, 2 * cols, 0.0f, 1.0f, rng);
  for (size_t i = 0; i < fm_x.size(); i += 3) fm_x.data()[i] = 0.0f;
  const ag::Variable fm_in = ag::MakeConstant(fm_x);
  const ag::Variable fm_w = values(2 * cols, 3);
  const ag::Variable fm_v = values(2 * cols, 3 * 2);

  Rng unused(1);
  return {
      {"Add", [=] { return ag::Add(x, y); }},
      {"AddMany", [=] { return ag::AddMany({x, y, x}); }},
      {"Sub", [=] { return ag::Sub(x, y); }},
      {"Mul", [=] { return ag::Mul(x, y); }},
      {"ScalarMul", [=] { return ag::ScalarMul(x, -0.37f); }},
      {"Relu", [=] { return ag::Relu(x); }},
      {"LeakyRelu", [=] { return ag::LeakyRelu(x, 0.13f); }},
      {"Sigmoid", [=] { return ag::Sigmoid(x); }},
      {"Tanh", [=] { return ag::Tanh(x); }},
      {"Exp", [=] { return ag::Exp(x); }},
      {"Log", [=] { return ag::Log(x); }},  // negatives clamp to eps
      {"MatMul", [=] { return ag::MatMul(x, w); }},
      {"Transpose", [=] { return ag::Transpose(x); }},
      {"SpMM", [=] { return ag::SpMM(matrix, x); }},
      {"AddRowVector", [=] { return ag::AddRowVector(x, bias); }},
      {"RowScale", [=] { return ag::RowScale(x, column); }},
      {"RowDivide", [=] { return ag::RowDivide(x, zeros_in_column); }},
      {"RowMax", [=] { return ag::RowMax(ties); }},
      {"ConcatCols", [=] { return ag::ConcatCols({x, column, y}); }},
      {"SliceCols",
       [=] { return ag::SliceCols(x, cols / 2, cols - cols / 2); }},
      {"GatherRows",
       [=] { return ag::GatherRows(x, {rows - 1, 0, rows - 1}); }},
      {"MaxOverSet", [=] { return ag::MaxOverSet({ties, x, ties}); }},
      {"MeanRows", [=] { return ag::MeanRows(x); }},
      {"Sum", [=] { return ag::Sum(x); }},
      {"Mean", [=] { return ag::Mean(x); }},
      {"SquaredSum", [=] { return ag::SquaredSum(x); }},
      {"BernoulliStraightThrough",
       [=]() mutable {
         return ag::BernoulliStraightThrough(probs, unused, false);
       }},
      {"PairNorm", [=] { return ag::PairNorm(x, 1.7f); }},
      {"BatchNormColumns", [=] { return ag::BatchNormColumns(tall); }},
      {"GatherEdgeScores",
       [=] { return ag::GatherEdgeScores(column, zeros_in_column, edges); }},
      {"AddEdgeBias", [=] { return ag::AddEdgeBias(edge_scores, edge_bias); }},
      {"EdgeSoftmax", [=] { return ag::EdgeSoftmax(edge_scores, edges); }},
      {"EdgeWeightedAggregate",
       [=] { return ag::EdgeWeightedAggregate(edge_scores, x, edges); }},
      {"FmInteraction",
       [=] {
         return ag::FmInteraction(fm_in, fm_w, fm_v, {0, cols, 2 * cols}, 2);
       }},
  };
}

/// The ops with no plan replay: they consume RNG state or produce a loss.
std::vector<OpCall> UntracedOpCalls(Rng& rng) {
  const ag::Variable x =
      ag::MakeConstant(Tensor::Normal(4, 3, 0.0f, 1.0f, rng));
  const ag::Variable probs = ag::MakeConstant(
      x->value().Map([](float v) { return 1.0f / (1.0f + std::exp(-v)); }));
  const std::vector<int32_t> labels = {0, 1, 2, 1};
  const std::vector<float> weights = {1.0f, 0.0f, 0.5f, 2.0f};
  const Tensor targets = Tensor::Full(4, 3, 1.0f);
  Rng draws(4);
  return {
      {"Dropout",
       [=]() mutable { return ag::Dropout(x, 0.5f, draws, true); }},
      {"BernoulliStraightThrough",
       [=]() mutable {
         return ag::BernoulliStraightThrough(probs, draws, true);
       }},
      {"SoftmaxCrossEntropy",
       [=] { return ag::SoftmaxCrossEntropy(x, labels, weights); }},
      {"WeightedSoftmaxCrossEntropy",
       [=] { return ag::WeightedSoftmaxCrossEntropy(x, labels, weights); }},
      {"BinaryCrossEntropyWithLogits",
       [=] { return ag::BinaryCrossEntropyWithLogits(x, targets); }},
      {"MeanCosineDistance",
       [=] { return ag::MeanCosineDistance(x, {{0, 1}, {2, 2}, {3, 0}}); }},
  };
}

/// Names of the functions returning a Variable declared in `header`
/// (relative to the source tree), minus the node-building helpers.
std::set<std::string> DeclaredOps(const std::string& header) {
  std::ifstream in(std::string(LASAGNE_SOURCE_DIR) + "/" + header);
  EXPECT_TRUE(static_cast<bool>(in)) << header;
  const std::regex decl("^Variable (\\w+)\\(");
  std::set<std::string> names;
  std::string line;
  std::smatch match;
  while (std::getline(in, line)) {
    if (std::regex_search(line, match, decl) &&
        match[1].str().rfind("Make", 0) != 0) {
      names.insert(match[1].str());
    }
  }
  return names;
}

// Every traceable op records exactly one record, in the same call that
// builds its node, and that record's replay is the function that computed
// the eager value: on the recorded inputs it reproduces it bit for bit.
// The untraced ops leave the trace incomplete under their own name. An op
// declared in the three headers but in neither list fails the test, so a
// new op cannot skip this check.
TEST(PlanTraceTest, EveryEvalOpRecordsItsOwnForward) {
  std::set<std::string> covered;
  const std::pair<size_t, size_t> shapes[] = {{1, 1}, {1, 7}, {6, 5}, {9, 17}};
  for (const auto& [rows, cols] : shapes) {
    Rng rng(rows * 100 + cols);
    for (const OpCall& op : TracedOpCalls(rows, cols, rng)) {
      const std::string what = op.name + " on " + std::to_string(rows) + "x" +
                               std::to_string(cols);
      ag::NoGradGuard guard;
      ag::ForwardTrace trace;
      const ag::Variable out = op.call();
      ASSERT_TRUE(trace.complete())
          << what << ": untraced " << trace.first_untraced_op();
      ASSERT_EQ(trace.records().size(), 1u) << what;
      const ag::TraceRecord& record = trace.records()[0];
      EXPECT_EQ(std::string(record.op_name), op.name) << what;
      EXPECT_EQ(record.output.get(), out.get()) << what;
      ag::TraceInputs inputs;
      for (const ag::Variable& v : record.inputs) inputs.push_back(&v->value());
      ExpectBitwiseEqual(record.replay(inputs), out->value(), what);
      covered.insert(op.name);
    }
  }

  Rng rng(11);
  for (const OpCall& op : UntracedOpCalls(rng)) {
    ag::NoGradGuard guard;
    ag::ForwardTrace trace;
    (void)op.call();
    EXPECT_FALSE(trace.complete()) << op.name;
    EXPECT_EQ(trace.untraced_ops(), 1u) << op.name;
    EXPECT_EQ(trace.first_untraced_op(), op.name);
    EXPECT_TRUE(trace.records().empty()) << op.name;
    covered.insert(op.name);
  }

  // Eval-mode Dropout is the identity: no node, nothing to record.
  {
    const ag::Variable x =
        ag::MakeConstant(Tensor::Normal(3, 2, 0.0f, 1.0f, rng));
    ag::NoGradGuard guard;
    ag::ForwardTrace trace;
    EXPECT_EQ(ag::Dropout(x, 0.5f, rng, false).get(), x.get());
    EXPECT_TRUE(trace.complete());
    EXPECT_TRUE(trace.records().empty());
  }

  for (const char* header : {"src/autograd/ops.h", "src/autograd/edge_ops.h",
                             "src/autograd/fm_op.h"}) {
    const std::set<std::string> declared = DeclaredOps(header);
    EXPECT_FALSE(declared.empty()) << header;
    for (const std::string& name : declared) {
      EXPECT_TRUE(covered.count(name) > 0)
          << header << " declares ag::" << name
          << ", which this test does not call";
    }
  }
}

// An untraced op is counted in the call that builds its node, so untraced
// ops before, between and after traced ones are all counted, and the
// traced ones record exactly themselves.
TEST(PlanTraceTest, UntracedOpsCountedBetweenTracedOnes) {
  Rng rng(5);
  const ag::Variable x =
      ag::MakeConstant(Tensor::Normal(4, 3, 0.0f, 1.0f, rng));
  const ag::Variable w =
      ag::MakeConstant(Tensor::Normal(3, 3, 0.0f, 1.0f, rng));
  const std::vector<int32_t> labels = {0, 1, 2, 0};
  const std::vector<float> mask(4, 1.0f);

  ag::NoGradGuard guard;
  ag::ForwardTrace trace;
  (void)ag::Dropout(x, 0.5f, rng, /*training=*/true);
  const ag::Variable hidden = ag::Relu(x);
  const ag::Variable logits = ag::MatMul(hidden, w);
  (void)ag::SoftmaxCrossEntropy(logits, labels, mask);

  EXPECT_FALSE(trace.complete());
  EXPECT_EQ(trace.untraced_ops(), 2u);
  EXPECT_EQ(trace.first_untraced_op(), "Dropout");
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_STREQ(trace.records()[0].op_name, "Relu");
  EXPECT_EQ(trace.records()[0].output.get(), hidden.get());
  EXPECT_STREQ(trace.records()[1].op_name, "MatMul");
  EXPECT_EQ(trace.records()[1].output.get(), logits.get());
}

}  // namespace
}  // namespace lasagne
