#include "autograd/forward_trace.h"

#include "autograd/inference.h"
#include "common/check.h"

namespace lasagne::ag {

namespace {

thread_local ForwardTrace* t_active_trace = nullptr;

}  // namespace

ForwardTrace::ForwardTrace() : previous_(t_active_trace) {
  // Tracing captures evaluation-mode forwards; a tape-building
  // forward already has its own graph and several ops (Dropout) change
  // structure between modes.
  LASAGNE_CHECK_MSG(InferenceModeEnabled(),
                    "ForwardTrace requires an active ag::NoGradGuard");
  t_active_trace = this;
}

ForwardTrace::~ForwardTrace() { t_active_trace = previous_; }

bool ForwardTrace::complete() const { return untraced_ == 0; }

size_t ForwardTrace::untraced_ops() const { return untraced_; }

std::string ForwardTrace::first_untraced_op() const {
  return first_untraced_;
}

namespace internal {

void TraceRecordOp(const Variable& output, std::vector<Variable> inputs,
                   TraceFn replay, const char* op_name, TraceOpMeta meta) {
  ForwardTrace* trace = t_active_trace;
  if (trace == nullptr) return;
  trace->records_.push_back({output, std::move(inputs), std::move(replay),
                             op_name, std::move(meta)});
}

void TraceUntracedOp(const char* op_name) {
  ForwardTrace* trace = t_active_trace;
  if (trace == nullptr) return;
  if (trace->untraced_ == 0) trace->first_untraced_ = op_name;
  ++trace->untraced_;
}

}  // namespace internal

}  // namespace lasagne::ag
