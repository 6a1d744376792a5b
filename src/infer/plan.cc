#include "infer/plan.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "autograd/edge_ops.h"
#include "autograd/inference.h"
#include "common/check.h"
#include "common/parallel_config.h"
#include "common/thread_pool.h"
#include "models/model.h"
#include "nn/layers.h"
#include "sparse/csr_matrix.h"
#include "tensor/kernels.h"
#include "tensor/rng.h"

namespace lasagne::infer {

namespace {

using ag::TraceOpKind;

/// Activation closing a producer→epilogue step (kNone: bias only).
enum class FusedAct { kNone, kRelu, kLeakyRelu };

/// One execution-plan op after fusion: a TraceRecord whose replay may
/// cover several traced ops.
struct PlanOp {
  ag::Variable output;
  std::vector<ag::Variable> inputs;
  ag::TraceFn replay;
  std::string op_name;
  uint32_t fused_ops = 1;
};

/// The producers a producer→epilogue step can start from, and the
/// epilogues each one takes. The table pins the fused set exactly:
/// MatMul fuses only through its AddRowVector bias (an activation may
/// follow), SpMM and Add only into an activation, Add only into Relu.
struct ProducerRule {
  TraceOpKind kind;
  const char* name;
  bool bias;        // chain must (true) / must not (false) carry a bias
  bool leaky_relu;  // LeakyRelu may close the chain (Relu always may)
};

constexpr ProducerRule kProducerRules[] = {
    {TraceOpKind::kMatMul, "MatMul", true, true},
    {TraceOpKind::kSpMM, "SpMM", false, true},
    {TraceOpKind::kAdd, "Add", false, false},
};

const ProducerRule* ProducerRuleFor(const ag::TraceRecord& rec) {
  if (rec.meta.kind == TraceOpKind::kSpMM && rec.meta.spmm_matrix == nullptr) {
    return nullptr;
  }
  for (const ProducerRule& rule : kProducerRules) {
    if (rule.kind == rec.meta.kind) return &rule;
  }
  return nullptr;
}

/// The epilogue over rows [row_begin, row_end) of a `cols`-wide output
/// the producer just wrote: optional bias broadcast, then activation,
/// row by row while each row is still in L1 (a bias-less activation
/// sweeps the whole block). Elementwise single rounded ops, so any
/// partition reproduces the unfused chain bitwise.
void ApplyEpilogue(const float* bias, FusedAct act, float alpha, float* out,
                   size_t cols, size_t row_begin, size_t row_end) {
  auto activate = [act, alpha](float* x, size_t n) {
    if (act == FusedAct::kRelu) kernels::ReluForward(x, x, n);
    if (act == FusedAct::kLeakyRelu) kernels::LeakyReluForward(x, alpha, x, n);
  };
  if (bias == nullptr) {
    activate(out + row_begin * cols, (row_end - row_begin) * cols);
    return;
  }
  for (size_t r = row_begin; r < row_end; ++r) {
    float* row = out + r * cols;
    kernels::EwAddInPlace(row, bias, cols);
    activate(row, cols);
  }
}

/// inputs = the producer's inputs, then the bias row when `with_bias`.
/// Each producer replays its eager op's orchestration — MatMul: packed
/// panel over RowGrain rows (Tensor::MatMul); SpMM: CsrRowGrain rows
/// (CsrMatrix::Multiply); Add: flat kGrain elements (Tensor::operator+)
/// — and every chunk runs the epilogue on the range it just wrote, so
/// accumulation order and partition, hence every output bit, match the
/// unfused chain at any thread count.
ag::TraceFn MakeProducerEpilogueReplay(TraceOpKind producer,
                                       std::shared_ptr<const CsrMatrix> matrix,
                                       bool with_bias, FusedAct act,
                                       float alpha) {
  return [producer, matrix, with_bias, act,
          alpha](const std::vector<const Tensor*>& in) {
    const Tensor& x = *in[0];
    const float* bias = with_bias ? in.back()->data() : nullptr;
    auto run = [&](Tensor out, size_t range, size_t grain, size_t width,
                   const auto& produce) {
      ParallelFor(0, range, grain, [&](size_t begin, size_t end) {
        produce(out.data(), begin, end);
        ApplyEpilogue(bias, act, alpha, out.data(), width, begin, end);
      });
      return out;
    };
    if (producer == TraceOpKind::kMatMul) {
      const Tensor& w = *in[1];
      const size_t k_dim = x.cols();
      const size_t n_dim = w.cols();
      internal::PoolBuffer packed(kernels::PackedBSize(k_dim, n_dim));
      if (packed.data() != nullptr) {
        kernels::PackB(w.data(), k_dim, n_dim, packed.data());
      }
      return run(Tensor::Uninitialized(x.rows(), n_dim), x.rows(),
                 RowGrain(k_dim * n_dim), n_dim,
                 [&](float* out, size_t begin, size_t end) {
                   kernels::GemmRowsNN(x.data(), k_dim, n_dim, w.data(),
                                       packed.data(), out, begin, end);
                 });
    }
    if (producer == TraceOpKind::kSpMM) {
      const size_t d = x.cols();
      const size_t rows = matrix->rows();
      return run(Tensor::Uninitialized(rows, d), rows,
                 CsrRowGrain(matrix->nnz(), rows, d), d,
                 [&](float* out, size_t begin, size_t end) {
                   kernels::SpmmRows(matrix->row_ptr().data(),
                                     matrix->col_idx().data(),
                                     matrix->values().data(), x.data(), d,
                                     out, begin, end);
                 });
    }
    // Add: a flat element range, i.e. rows of width 1.
    const Tensor& y = *in[1];
    return run(Tensor::Uninitialized(x.rows(), x.cols()), x.size(), kGrain,
               1, [&](float* out, size_t begin, size_t end) {
                 kernels::EwAdd(x.data() + begin, y.data() + begin,
                                out + begin, end - begin);
               });
  };
}

/// inputs = {dst_scores, src_scores, features}: the whole attention
/// chain — score gather → optional bias → LeakyReLU → masked softmax →
/// weighted aggregation — as ONE row-partitioned sweep through
/// kernels::EdgeAttentionForward. None of the (E x 1) intermediates
/// materialize (per-edge weights live in one pooled E-float scratch
/// drawn from the plan workspace), the aggregation is register-blocked
/// like SpmmRows, and every stage keeps the eager float sequence, so
/// the step is bitwise the 4/5-op chain at any thread count.
ag::TraceFn MakeEdgeAttentionReplay(
    std::shared_ptr<const ag::EdgeStructure> edges, float slope,
    std::shared_ptr<const std::vector<float>> edge_bias) {
  return [edges, slope, edge_bias](const std::vector<const Tensor*>& in) {
    const Tensor& dst = *in[0];
    const Tensor& src = *in[1];
    const Tensor& feats = *in[2];
    const size_t d = feats.cols();
    Tensor out = Tensor::Uninitialized(edges->num_nodes, d);
    internal::PoolBuffer probs(edges->num_edges());
    ParallelFor(0, edges->num_nodes,
                CsrRowGrain(edges->num_edges(), edges->num_nodes, d),
                [&](size_t row_begin, size_t row_end) {
                  kernels::EdgeAttentionForward(
                      edges->row_ptr.data(), edges->src.data(), dst.data(),
                      src.data(),
                      edge_bias != nullptr ? edge_bias->data() : nullptr,
                      slope, feats.data(), d, probs.data(), out.data(),
                      row_begin, row_end);
                });
    return out;
  };
}

/// Peephole fusion over the execution-ordered trace, with two rules:
/// producer→epilogue (kProducerRules) and the EdgeAttention chain. A
/// chain fuses only when every intermediate (a) has exactly one
/// consumer in the whole trace, (b) is consumed as that op's first
/// input, and (c) is not the plan root (externally visible).
/// Everything else — every op when `fuse` is false — passes through
/// unchanged; in particular any op the trace marked kOpaque breaks a
/// chain, so fusion never reaches across an op it cannot prove.
std::vector<PlanOp> FuseTraceRecords(std::vector<ag::TraceRecord> records,
                                     const ag::Node* root, bool fuse) {
  std::unordered_map<const ag::Node*, size_t> uses;
  for (const ag::TraceRecord& rec : records) {
    for (const ag::Variable& input : rec.inputs) ++uses[input.get()];
  }
  // True when records[j] exists, has `kind`, and `prev`'s output is a
  // fusible intermediate feeding it: records[j]'s first input, with no
  // other consumer, and not the root.
  auto links = [&](size_t j, TraceOpKind kind, const ag::TraceRecord& prev) {
    if (j >= records.size() || records[j].meta.kind != kind) return false;
    const ag::Node* mid = prev.output.get();
    const std::vector<ag::Variable>& in = records[j].inputs;
    return !in.empty() && in[0].get() == mid && uses[mid] == 1 && mid != root;
  };

  std::vector<PlanOp> ops;
  ops.reserve(records.size());
  size_t i = 0;
  while (i < records.size()) {
    ag::TraceRecord& rec = records[i];

    // Producer→epilogue: MatMul / SpMM / Add, then an optional
    // AddRowVector bias, then an optional Relu / LeakyRelu, as one
    // range sweep of the producer kernel plus ApplyEpilogue.
    const ProducerRule* rule = fuse ? ProducerRuleFor(rec) : nullptr;
    if (rule != nullptr) {
      size_t j = i + 1;
      const ag::TraceRecord* last = &rec;
      ag::Variable bias;
      if (rule->bias && links(j, TraceOpKind::kAddRowVector, *last)) {
        bias = records[j].inputs[1];
        last = &records[j++];
      }
      FusedAct act = FusedAct::kNone;
      const char* act_name = "";
      float alpha = 0.0f;
      if (links(j, TraceOpKind::kRelu, *last)) {
        act = FusedAct::kRelu;
        act_name = "+Relu";
      } else if (rule->leaky_relu &&
                 links(j, TraceOpKind::kLeakyRelu, *last)) {
        act = FusedAct::kLeakyRelu;
        act_name = "+LeakyRelu";
        alpha = records[j].meta.alpha;
      }
      if (act != FusedAct::kNone) last = &records[j++];
      if (rule->bias ? bias != nullptr : act != FusedAct::kNone) {
        PlanOp op;
        op.output = last->output;
        op.inputs = rec.inputs;
        if (bias != nullptr) op.inputs.push_back(bias);
        op.replay = MakeProducerEpilogueReplay(
            rule->kind, rec.meta.spmm_matrix, bias != nullptr, act, alpha);
        op.op_name = std::string(rule->name) +
                     (bias != nullptr ? "+Bias" : "") + act_name;
        op.fused_ops = static_cast<uint32_t>(j - i);
        ops.push_back(std::move(op));
        i = j;
        continue;
      }
    }

    // GatherEdgeScores→[AddEdgeBias→]LeakyRelu→EdgeSoftmax→
    // EdgeWeightedAggregate: the whole attention chain of one GAT/ADSF
    // head super-fuses into a single kernels::EdgeAttentionForward
    // step. A partial chain runs unfused.
    if (fuse && rec.meta.kind == TraceOpKind::kGatherEdgeScores &&
        rec.meta.edges != nullptr) {
      size_t j = i + 1;
      std::shared_ptr<const std::vector<float>> edge_bias;
      const ag::TraceRecord* prev = &rec;
      if (links(j, TraceOpKind::kAddEdgeBias, *prev) &&
          records[j].meta.edge_bias != nullptr) {
        edge_bias = records[j].meta.edge_bias;
        prev = &records[j++];
      }
      const ag::EdgeStructure* edges = rec.meta.edges.get();
      if (links(j, TraceOpKind::kLeakyRelu, *prev) &&
          links(j + 1, TraceOpKind::kEdgeSoftmax, records[j]) &&
          records[j + 1].meta.edges.get() == edges &&
          links(j + 2, TraceOpKind::kEdgeWeightedAggregate, records[j + 1]) &&
          records[j + 2].meta.edges.get() == edges) {
        ag::TraceRecord& aggregate = records[j + 2];
        PlanOp op;
        op.output = aggregate.output;
        op.inputs = {rec.inputs[0], rec.inputs[1], aggregate.inputs[1]};
        op.replay = MakeEdgeAttentionReplay(rec.meta.edges,
                                            records[j].meta.alpha, edge_bias);
        op.op_name = "EdgeAttention";
        op.fused_ops = static_cast<uint32_t>(j + 3 - i);
        ops.push_back(std::move(op));
        i = j + 3;
        continue;
      }
    }

    PlanOp op;
    op.output = rec.output;
    op.inputs = std::move(rec.inputs);
    op.replay = std::move(rec.replay);
    op.op_name = rec.op_name;
    ops.push_back(std::move(op));
    ++i;
  }
  return ops;
}

}  // namespace

StatusOr<std::unique_ptr<ExecutionPlan>> ExecutionPlan::Compile(
    Model& model, bool fuse_ops) {
  auto plan = std::unique_ptr<ExecutionPlan>(new ExecutionPlan());

  // Phase 1: trace one evaluation-mode forward. The trace owns every
  // node it saw (records retain the Variables), so node addresses stay
  // unique for the lifetime of this function.
  ag::Variable root;
  std::vector<ag::TraceRecord> records;
  {
    ag::NoGradGuard guard;
    ag::ForwardTrace trace;
    Rng rng(1);
    nn::ForwardContext ctx;
    ctx.training = false;
    ctx.rng = &rng;
    root = model.Forward(ctx);
    LASAGNE_CHECK(root != nullptr);
    if (!trace.complete()) {
      return FailedPreconditionError(
          "model '" + model.name() + "' is not plan-compilable: op '" +
          trace.first_untraced_op() + "' has no replay closure (" +
          std::to_string(trace.untraced_ops()) + " untraced op(s))");
    }
    records = trace.TakeRecords();
  }
  plan->traced_ops_ = records.size();

  // Phase 1b: peephole fusion. Rewrites single-consumer chains into
  // fused-kernel ops BEFORE slot assignment, so fused-away
  // intermediates never get a slot — they are invisible to the
  // lifetime analysis and never enter the workspace sizing run.
  std::vector<PlanOp> fused_ops =
      FuseTraceRecords(std::move(records), root.get(), fuse_ops);

  // Phase 2: slot assignment. Ops are execution-ordered, so any input
  // not produced by an earlier op must be a leaf (a parameter or a
  // cached constant node owned by the model). Leaves get the
  // contiguous slot range [0, num_leaves) — they can appear anywhere
  // in the op stream (a deep model discovers the layer-2 weight after
  // the layer-1 output), so discovery needs its own pass before slots
  // are numbered.
  std::unordered_set<const ag::Node*> known;
  for (const PlanOp& op : fused_ops) {
    for (const ag::Variable& input : op.inputs) {
      if (known.insert(input.get()).second) plan->leaves_.push_back(input);
    }
    // An output node address can't collide with a leaf or an earlier
    // output: the ops retain every Variable, so addresses are not
    // reused while the trace is alive.
    if (!known.insert(op.output.get()).second) {
      return InternalError("trace produced the same node twice: " +
                           op.op_name);
    }
  }
  std::unordered_map<const ag::Node*, uint32_t> slot_of;
  slot_of.reserve(known.size());
  for (size_t i = 0; i < plan->leaves_.size(); ++i) {
    slot_of.emplace(plan->leaves_[i].get(), static_cast<uint32_t>(i));
  }
  for (const PlanOp& op : fused_ops) {
    slot_of.emplace(op.output.get(), static_cast<uint32_t>(slot_of.size()));
  }
  const size_t num_leaves = plan->leaves_.size();
  const size_t num_slots = slot_of.size();

  const auto root_it = slot_of.find(root.get());
  if (root_it == slot_of.end()) {
    // Possible only when the forward returned a node created before
    // tracing began — keep the degenerate case out of the interpreter.
    return FailedPreconditionError("model '" + model.name() +
                                   "' returned an untraced root node");
  }
  plan->root_slot_ = root_it->second;
  plan->root_is_leaf_ = plan->root_slot_ < num_leaves;

  // Phase 3: bind slot addresses. Leaf slots alias the model's node
  // values (in-place parameter updates flow through); intermediate
  // slots point into slot_values_, which never resizes.
  plan->slot_values_.resize(num_slots);
  plan->slot_ptr_.resize(num_slots);
  for (uint32_t s = 0; s < num_leaves; ++s) {
    plan->slot_ptr_[s] = &plan->leaves_[s]->value();
  }
  for (uint32_t s = static_cast<uint32_t>(num_leaves); s < num_slots; ++s) {
    plan->slot_ptr_[s] = &plan->slot_values_[s];
  }

  // Phase 4: lower ops to steps with pre-bound input addresses.
  plan->steps_.reserve(fused_ops.size());
  std::vector<uint32_t> last_use(num_slots, 0);
  std::vector<uint32_t> producer(num_slots, 0);
  for (size_t i = 0; i < fused_ops.size(); ++i) {
    PlanOp& op = fused_ops[i];
    Step step;
    step.replay = std::move(op.replay);
    step.op_name = std::move(op.op_name);
    step.fused_ops = op.fused_ops;
    step.input_ptrs.reserve(op.inputs.size());
    for (const ag::Variable& input : op.inputs) {
      const uint32_t slot = slot_of.at(input.get());
      step.input_ptrs.push_back(plan->slot_ptr_[slot]);
      last_use[slot] = static_cast<uint32_t>(i);
    }
    const uint32_t out_slot = slot_of.at(op.output.get());
    step.output_slot = out_slot;
    producer[out_slot] = static_cast<uint32_t>(i);
    plan->steps_.push_back(std::move(step));
  }

  // Phase 5: lifetime analysis. An intermediate dies after the later
  // of its producing step and its last consuming step (a produced-but-
  // never-read value is dropped immediately). The root survives the
  // whole pass; leaves are owned by the model and never released.
  for (uint32_t s = static_cast<uint32_t>(num_leaves); s < num_slots; ++s) {
    if (s == plan->root_slot_) continue;
    const uint32_t release_at = std::max(producer[s], last_use[s]);
    plan->steps_[release_at].release_after.push_back(s);
  }

  // Phase 6: pre-allocate the persistent output (global pool, outside
  // any workspace scope), then size the workspace with a recording run
  // and verify the interpreter reproduces the traced forward bitwise.
  const Tensor& root_value = root->value();
  plan->output_ = Tensor::Uninitialized(root_value.rows(), root_value.cols());
  {
    BufferPool::WorkspaceScope scope(&plan->workspace_);
    plan->ExecuteSteps();
  }
  if (std::memcmp(plan->output_.data(), root_value.data(),
                  root_value.size() * sizeof(float)) != 0) {
    return InternalError("plan self-check failed for model '" + model.name() +
                         "': interpreted logits differ from the eager "
                         "forward");
  }
  plan->workspace_.Finalize();
  return plan;
}

void ExecutionPlan::ExecuteSteps() {
  for (Step& step : steps_) {
    slot_values_[step.output_slot] = step.replay(step.input_ptrs);
    for (const uint32_t dead : step.release_after) {
      slot_values_[dead] = Tensor();
    }
  }
  const Tensor& root = *slot_ptr_[root_slot_];
  LASAGNE_DCHECK(root.SameShape(output_));
  std::memcpy(output_.data(), root.data(), root.size() * sizeof(float));
  if (!root_is_leaf_) slot_values_[root_slot_] = Tensor();
}

const Tensor& ExecutionPlan::Run() {
  BufferPool::WorkspaceScope scope(&workspace_);
  ExecuteSteps();
  return output_;
}

PlanInfo ExecutionPlan::info() const {
  PlanInfo info;
  info.steps = steps_.size();
  info.slots = slot_ptr_.size();
  info.leaves = leaves_.size();
  info.workspace_bytes = workspace_.reserved_bytes();
  info.traced_ops = traced_ops_;
  info.ops_fused_away = traced_ops_ - steps_.size();
  for (const Step& step : steps_) {
    if (step.fused_ops > 1) ++info.fused_steps;
  }
  return info;
}

PlanOpSummary ExecutionPlan::OpSummary() const {
  PlanOpSummary summary;
  summary.traced_ops = traced_ops_;
  summary.steps = steps_.size();
  summary.ops_fused_away = traced_ops_ - steps_.size();
  std::map<std::string, size_t> counts;
  for (const Step& step : steps_) {
    ++counts[step.op_name];
    if (step.fused_ops > 1) ++summary.fused_steps;
  }
  summary.op_counts.assign(counts.begin(), counts.end());
  return summary;
}

size_t PlanOpSummary::Count(const std::string& op_name) const {
  for (const auto& [name, count] : op_counts) {
    if (name == op_name) return count;
  }
  return 0;
}

std::string PlanOpSummary::ToString() const {
  std::string out = std::to_string(steps) + " steps / " +
                    std::to_string(traced_ops) + " traced ops (" +
                    std::to_string(fused_steps) + " fused, " +
                    std::to_string(ops_fused_away) + " ops fused away): ";
  bool first = true;
  for (const auto& [name, count] : op_counts) {
    if (!first) out += ", ";
    first = false;
    out += name + " x" + std::to_string(count);
  }
  return out;
}

}  // namespace lasagne::infer
