#ifndef LASAGNE_MODELS_MODEL_H_
#define LASAGNE_MODELS_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/status.h"
#include "data/dataset.h"
#include "nn/layers.h"

namespace lasagne {

namespace infer {
class ExecutionPlan;
}

/// Hyper-parameters shared across the model zoo. Individual models read
/// the subset they understand.
struct ModelConfig {
  size_t depth = 2;        // number of graph-convolution layers
  size_t hidden_dim = 32;  // hidden width
  float dropout = 0.5f;
  size_t heads = 4;              // GAT attention heads
  float appnp_alpha = 0.1f;      // APPNP teleport probability
  size_t appnp_iterations = 10;  // APPNP power-iteration steps
  size_t power_k = 2;            // SGC / MixHop adjacency powers
  float drop_edge_rate = 0.3f;   // DropEdge keep-rate complement
  float pairnorm_scale = 1.0f;
  float madreg_weight = 0.05f;   // MADReg regularizer strength
  size_t madreg_pairs = 256;     // sampled pair count per MAD term
  size_t num_partitions = 8;     // ClusterGCN / GPNN
  size_t fastgcn_sample = 160;   // FastGCN per-layer sample size
  size_t saint_root_count = 48;  // GraphSAINT walk roots per subgraph
  size_t saint_walk_length = 3;
  size_t sage_fanout = 8;        // GraphSAGE neighbor samples
  size_t lgcn_topk = 4;          // LGCN ranked-aggregation k
  uint64_t seed = 1;
};

/// Common interface of every node classifier in the zoo.
///
/// A model is bound to a `Dataset` at construction (the caller must keep
/// the dataset alive for the model's lifetime). `Forward` produces
/// full-graph logits (N x C); `TrainingLoss` defaults to masked softmax
/// cross-entropy over the training mask but is overridden by sampling
/// methods (ClusterGCN, GraphSAINT, FastGCN, GraphSAGE) that train on
/// sampled or partitioned subgraphs, and by regularized methods (MADReg)
/// that add auxiliary terms.
class Model {
 public:
  // Ctor/dtor are out-of-line: Model owns a unique_ptr to the
  // incomplete infer::ExecutionPlan type.
  Model(std::string name, const Dataset& data);
  virtual ~Model();

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Full-graph logits (N x num_classes). Also refreshes
  /// `hidden_states()` with the post-activation output of every hidden
  /// graph-convolution layer (used by the mutual-information analysis).
  virtual ag::Variable Forward(const nn::ForwardContext& ctx) = 0;

  /// Differentiable training objective for one step.
  virtual ag::Variable TrainingLoss(const nn::ForwardContext& ctx);

  /// Forward-only logits, bitwise identical to Forward(ctx)->value().
  /// This is the evaluation / serving entry point (EvaluateAccuracy,
  /// infer::InferenceSession).
  ///
  /// With execution plans enabled (the default; see
  /// set_use_execution_plan) the first eval-mode call compiles an
  /// infer::ExecutionPlan — a traced flat op list, its single-consumer
  /// chains fused unless set_use_plan_fusion(false), replayed through a
  /// pre-reserved workspace — and every later call interprets it,
  /// skipping the Forward re-walk and all BufferPool traffic
  /// (docs/INFERENCE.md). Models whose forward contains an op the plan
  /// compiler cannot replay fall back to the eager path below,
  /// permanently and silently (plan_status() says why). The eager path
  /// runs Forward under ag::NoGradGuard, so no autograd tape is built
  /// and every intermediate returns to the BufferPool as soon as its
  /// consumer has run.
  ///
  /// Note: a plan-served Predict does not refresh hidden_states()
  /// (the analysis path uses Forward directly).
  Tensor Predict(const nn::ForwardContext& ctx);

  /// Whether eval-mode Predict may compile and use an execution plan.
  /// On by default; off runs every Predict eagerly (the reference for
  /// plan parity tests and the "eager" serving baseline).
  void set_use_execution_plan(bool enabled) { use_execution_plan_ = enabled; }
  bool use_execution_plan() const { return use_execution_plan_; }

  /// Whether compiled plans run the op-chain fusion pass. On by
  /// default; takes effect at the next compile (call
  /// InvalidateExecutionPlan() to force one).
  void set_use_plan_fusion(bool enabled) { use_plan_fusion_ = enabled; }
  bool use_plan_fusion() const { return use_plan_fusion_; }

  /// The compiled plan, or nullptr when none has been compiled (plans
  /// disabled, Predict never called, or compilation failed).
  const infer::ExecutionPlan* execution_plan() const { return plan_.get(); }

  /// OK until a compile attempt fails; then the reason Predict is on
  /// the eager fallback.
  const Status& plan_status() const { return plan_status_; }

  /// Drops the compiled plan (and any remembered compile failure) so
  /// the next eval Predict recompiles. Call after structural changes —
  /// in-place parameter value updates do NOT need this: leaf slots are
  /// bound by reference.
  void InvalidateExecutionPlan();

  /// All trainable parameters.
  virtual std::vector<ag::Variable> Parameters() const = 0;

  const std::string& name() const { return name_; }
  const Dataset& data() const { return data_; }

  /// Hidden representations captured by the last Forward call.
  const std::vector<Tensor>& hidden_states() const { return hidden_states_; }

 protected:
  /// Stores a hidden representation snapshot for analysis.
  void RecordHidden(const ag::Variable& h) {
    hidden_states_.push_back(h->value());
  }
  void ClearHidden() { hidden_states_.clear(); }

  std::string name_;
  const Dataset& data_;
  std::vector<Tensor> hidden_states_;

 private:
  /// Compiles the plan on first use; remembers failure so a model that
  /// cannot be planned pays the compile attempt once, not per call.
  bool EnsureExecutionPlan();

  std::unique_ptr<infer::ExecutionPlan> plan_;
  Status plan_status_;
  bool plan_compile_failed_ = false;
  bool use_execution_plan_ = true;
  bool use_plan_fusion_ = true;
};

/// Builds a model by registry name. Known names:
///   "gcn", "resgcn", "densegcn", "jknet", "sgc", "gat", "appnp",
///   "mixhop", "gin", "dropedge", "pairnorm", "madreg", "stgcn",
///   "ngcn", "dgcn", "gpnn", "lgcn", "adsf", "graphsage", "fastgcn",
///   "clustergcn", "graphsaint",
///   "lasagne-weighted", "lasagne-stochastic", "lasagne-maxpool"
/// (plus Lasagne base-model variants "lasagne-stochastic-sgc",
/// "lasagne-stochastic-gat"). Aborts on unknown names.
std::unique_ptr<Model> MakeModel(const std::string& name,
                                 const Dataset& data,
                                 const ModelConfig& config);

/// Checks that `config` is usable with `name` (positive depth/width,
/// dropout in [0, 1), a non-empty dataset, a known name, ...) without
/// constructing anything. Returned errors name the offending field.
Status ValidateModelConfig(const std::string& name, const Dataset& data,
                           const ModelConfig& config);

/// Error-returning variant of MakeModel: NotFound for unknown names,
/// InvalidArgument for bad configs, instead of aborting. Preferred at
/// API boundaries (CLI flags, experiment drivers).
StatusOr<std::unique_ptr<Model>> TryMakeModel(const std::string& name,
                                              const Dataset& data,
                                              const ModelConfig& config);

/// Names accepted by MakeModel, in a stable order.
std::vector<std::string> KnownModelNames();

}  // namespace lasagne

#endif  // LASAGNE_MODELS_MODEL_H_
