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

/// Pure recompute closure for one traced op: given pointers to the
/// current input tensors (in the op's argument order), it returns the
/// op's output tensor. Closures must run exactly the arithmetic of the
/// eager forward (same kernels, same accumulation order) so that a
/// replayed value is bitwise identical to the eager one, and must not
/// retain Variables — side data (CSR matrices, edge structures, index
/// lists, scalars) is captured by shared_ptr or value.
using TraceFn = std::function<Tensor(const std::vector<const Tensor*>&)>;

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

/// True while the calling thread has a ForwardTrace installed. Op
/// implementations branch on this before building trace arguments, so
/// the untraced hot path pays one thread-local load.
bool ForwardTraceActive();

/// Called by MakeOpNode for every inference-mode node while a trace is
/// active. Pairs with the TraceRecordOp the op issues right after; a
/// node that is noted but never recorded marks the trace incomplete
/// (the op has no replay closure yet).
void TraceNoteNode(const Node* node, const char* op_name);

/// Registers the replay closure for the op that just created `output`.
/// Ops covered by a fusion rule pass their structural `meta`; the
/// default (kOpaque) opts out of fusion but still replays.
void TraceRecordOp(const Variable& output, std::vector<Variable> inputs,
                   TraceFn replay, const char* op_name,
                   TraceOpMeta meta = TraceOpMeta());

}  // namespace internal

/// RAII scope that records every autograd op the calling thread
/// executes into a flat, execution-ordered list of TraceRecords. This
/// is the capture half of the static execution-plan compiler
/// (src/infer/plan.h): one traced eval forward yields the op list the
/// plan interpreter replays without re-walking Forward.
///
/// Only valid under ag::NoGradGuard — tracing a tape-building forward
/// is meaningless (the tape itself is the trace) and the registered
/// closures replay evaluation-mode semantics. Ops that create a node
/// without registering a closure (training-only or not-yet-instrumented
/// ops) leave the trace incomplete; callers must then fall back to the
/// eager forward. Nestable; inner traces shadow outer ones.
class ForwardTrace {
 public:
  ForwardTrace();
  ~ForwardTrace();

  ForwardTrace(const ForwardTrace&) = delete;
  ForwardTrace& operator=(const ForwardTrace&) = delete;

  /// True when every op node created while this trace was active
  /// registered a replay closure.
  bool complete() const;
  /// Number of nodes created without a replay closure.
  size_t untraced_ops() const;
  /// Op name of the first untraced node ("" when complete).
  std::string first_untraced_op() const;

  const std::vector<TraceRecord>& records() const { return records_; }
  std::vector<TraceRecord> TakeRecords() { return std::move(records_); }

 private:
  friend void internal::TraceNoteNode(const Node* node, const char* op_name);
  friend void internal::TraceRecordOp(const Variable& output,
                                      std::vector<Variable> inputs,
                                      TraceFn replay, const char* op_name,
                                      TraceOpMeta meta);

  /// Counts a noted-but-never-recorded node as untraced.
  void FlushPending();

  std::vector<TraceRecord> records_;
  size_t untraced_ = 0;
  const char* first_untraced_ = "";
  const Node* pending_node_ = nullptr;
  const char* pending_name_ = "";
  ForwardTrace* previous_ = nullptr;
};

}  // namespace lasagne::ag

#endif  // LASAGNE_AUTOGRAD_FORWARD_TRACE_H_
