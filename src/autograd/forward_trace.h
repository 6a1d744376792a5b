#ifndef LASAGNE_AUTOGRAD_FORWARD_TRACE_H_
#define LASAGNE_AUTOGRAD_FORWARD_TRACE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"

namespace lasagne {
class CsrMatrix;
}

namespace lasagne::ag {

class ForwardTrace;
struct EdgeStructure;

/// Input values of one op, in the op's argument order.
using TraceInputs = std::vector<const Tensor*>;

/// The forward of one traced op: given the current input tensors, it
/// returns the op's output tensor. It is the op's only forward — the
/// eager op computes its value with it (ag::MakeTracedOp) and the trace
/// records the same function as the replay, so a replayed value is
/// bitwise the eager one. It must not retain Variables: side data (CSR
/// matrices, edge structures, index lists, scalars) is captured by
/// shared_ptr or value.
using TraceFn = std::function<Tensor(const TraceInputs&)>;

/// Structural identity of a traced op, for the execution-plan fusion
/// pass (src/infer/plan.cc). The replay closure is opaque, so ops that
/// participate in a fusion rule self-describe here; everything else
/// stays kOpaque and never fuses.
enum class TraceOpKind : uint8_t {
  kOpaque,
  kAdd,               // inputs {a, b}; same shape
  kMatMul,            // inputs {a, b}
  kSpMM,              // inputs {x}; meta.spmm_matrix set
  kAddRowVector,      // inputs {x, bias}
  kRelu,              // inputs {x}
  kLeakyRelu,         // inputs {x}; meta.alpha set
  kGatherEdgeScores,  // inputs {dst_scores, src_scores}; meta.edges set
  kAddEdgeBias,       // inputs {scores}; meta.edge_bias set
  kEdgeSoftmax,       // inputs {scores}; meta.edges set
  kEdgeWeightedAggregate,  // inputs {weights, features}; meta.edges set
};

/// Side data a fused replay closure needs to be rebuilt from scratch
/// (the original closures capture it privately). Cheap to copy: two
/// shared_ptrs and two scalars.
struct TraceOpMeta {
  TraceOpKind kind = TraceOpKind::kOpaque;
  std::shared_ptr<const CsrMatrix> spmm_matrix;   // kSpMM
  std::shared_ptr<const EdgeStructure> edges;     // edge ops
  std::shared_ptr<const std::vector<float>> edge_bias;  // kAddEdgeBias
  float alpha = 0.0f;                             // kLeakyRelu slope

  static TraceOpMeta Kind(TraceOpKind k) {
    TraceOpMeta m;
    m.kind = k;
    return m;
  }
  static TraceOpMeta Spmm(std::shared_ptr<const CsrMatrix> matrix) {
    TraceOpMeta m;
    m.kind = TraceOpKind::kSpMM;
    m.spmm_matrix = std::move(matrix);
    return m;
  }
  static TraceOpMeta LeakySlope(float alpha) {
    TraceOpMeta m;
    m.kind = TraceOpKind::kLeakyRelu;
    m.alpha = alpha;
    return m;
  }
  static TraceOpMeta Edge(TraceOpKind k,
                          std::shared_ptr<const EdgeStructure> edges) {
    TraceOpMeta m;
    m.kind = k;
    m.edges = std::move(edges);
    return m;
  }
  static TraceOpMeta EdgeBias(std::shared_ptr<const std::vector<float>> bias) {
    TraceOpMeta m;
    m.kind = TraceOpKind::kAddEdgeBias;
    m.edge_bias = std::move(bias);
    return m;
  }
};

/// One op captured by a ForwardTrace, in execution order.
struct TraceRecord {
  Variable output;
  std::vector<Variable> inputs;
  TraceFn replay;
  const char* op_name = "";
  TraceOpMeta meta;
};

namespace internal {

/// Appends the record of a traced op that just created `output`, when
/// the calling thread has a ForwardTrace installed (a no-op otherwise).
/// Ops covered by a fusion rule pass their structural `meta`; the
/// default (kOpaque) opts out of fusion but still replays.
void TraceRecordOp(const Variable& output, std::vector<Variable> inputs,
                   TraceFn replay, const char* op_name, TraceOpMeta meta);

/// Counts a node built without a replay (training-only ops, losses)
/// against the installed ForwardTrace, if any: the trace is then
/// incomplete.
void TraceUntracedOp(const char* op_name);

}  // namespace internal

/// RAII scope that records every autograd op the calling thread
/// executes into a flat, execution-ordered list of TraceRecords. This
/// is the capture half of the static execution-plan compiler
/// (src/infer/plan.h): one traced eval forward yields the op list the
/// plan interpreter replays without re-walking Forward.
///
/// Only valid under ag::NoGradGuard — tracing a tape-building forward
/// is meaningless (the tape itself is the trace) and the recorded
/// forwards replay evaluation-mode semantics. A traced op records
/// itself in the call that builds its node (ag::MakeTracedOp); a node
/// built by plain ag::MakeOpNode (training-mode Dropout, the losses)
/// is counted as untraced on the spot and leaves the trace incomplete,
/// so callers must then fall back to the eager forward. Nestable;
/// inner traces shadow outer ones.
class ForwardTrace {
 public:
  ForwardTrace();
  ~ForwardTrace();

  ForwardTrace(const ForwardTrace&) = delete;
  ForwardTrace& operator=(const ForwardTrace&) = delete;

  /// True when every op node created while this trace was active
  /// was recorded with its forward.
  bool complete() const;
  /// Number of nodes created without a recorded forward.
  size_t untraced_ops() const;
  /// Op name of the first untraced node ("" when complete).
  std::string first_untraced_op() const;

  const std::vector<TraceRecord>& records() const { return records_; }
  std::vector<TraceRecord> TakeRecords() { return std::move(records_); }

 private:
  friend void internal::TraceRecordOp(const Variable& output,
                                      std::vector<Variable> inputs,
                                      TraceFn replay, const char* op_name,
                                      TraceOpMeta meta);
  friend void internal::TraceUntracedOp(const char* op_name);

  std::vector<TraceRecord> records_;
  size_t untraced_ = 0;
  const char* first_untraced_ = "";
  ForwardTrace* previous_ = nullptr;
};

}  // namespace lasagne::ag

#endif  // LASAGNE_AUTOGRAD_FORWARD_TRACE_H_
