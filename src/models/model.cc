#include "models/model.h"

#include <utility>

#include "autograd/inference.h"
#include "infer/plan.h"
#include "obs/metrics.h"

namespace lasagne {

Model::Model(std::string name, const Dataset& data)
    : name_(std::move(name)), data_(data) {}

Model::~Model() = default;

void Model::InvalidateExecutionPlan() {
  plan_.reset();
  plan_status_ = Status::OK();
  plan_compile_failed_ = false;
}

bool Model::EnsureExecutionPlan() {
  if (plan_ != nullptr) return true;
  if (plan_compile_failed_) return false;
  StatusOr<std::unique_ptr<infer::ExecutionPlan>> compiled =
      infer::ExecutionPlan::Compile(*this, use_plan_fusion_);
  if (!compiled.ok()) {
    plan_status_ = compiled.status();
    plan_compile_failed_ = true;
    // Counted once per failed compile: the failure is remembered, so
    // later Predicts fall back to eager without recounting.
    if (obs::MetricsEnabled()) {
      static obs::Counter& fallbacks =
          obs::MetricsRegistry::Global().GetCounter("infer.plan.fallbacks");
      fallbacks.Increment();
    }
    return false;
  }
  plan_ = std::move(compiled).value();
  plan_status_ = Status::OK();
  return true;
}

ag::Variable Model::TrainingLoss(const nn::ForwardContext& ctx) {
  ag::Variable logits = Forward(ctx);
  return ag::SoftmaxCrossEntropy(logits, data_.labels, data_.train_mask);
}

Tensor Model::Predict(const nn::ForwardContext& ctx) {
  if (!ctx.training && use_execution_plan_ && EnsureExecutionPlan()) {
    // Flat interpreter over the pre-reserved workspace: no Forward
    // walk, no tape, no pool traffic. Returns a copy of the plan's
    // persistent output buffer.
    return plan_->Run();
  }
  ag::NoGradGuard guard;
  ag::Variable logits = Forward(ctx);
  // Inference-mode nodes retain no children, so when this handle is
  // the only owner the value can be moved out instead of copied. A
  // model returning a cached member node keeps its tensor intact.
  if (logits.use_count() == 1) return std::move(logits->mutable_value());
  return logits->value();
}

}  // namespace lasagne
