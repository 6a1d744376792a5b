#include "train/trainer.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/check.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "train/optimizer.h"
#include "train/serialization.h"

namespace lasagne {

double MaskedAccuracy(const Tensor& logits,
                      const std::vector<int32_t>& labels,
                      const std::vector<float>& mask) {
  LASAGNE_CHECK_EQ(logits.rows(), labels.size());
  LASAGNE_CHECK_EQ(logits.rows(), mask.size());
  std::vector<size_t> predictions = logits.ArgMaxPerRow();
  double correct = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] <= 0.0f) continue;
    total += 1.0;
    if (static_cast<int32_t>(predictions[i]) == labels[i]) correct += 1.0;
  }
  return total > 0.0 ? correct / total : 0.0;
}

double EvaluateAccuracy(Model& model, const std::vector<float>& mask,
                        Rng& rng) {
  LASAGNE_TRACE_SCOPE("evaluate");
  nn::ForwardContext ctx{/*training=*/false, &rng};
  // Forward-only path: no autograd tape is built for evaluation (the
  // values are bitwise identical to the tape-building forward; see
  // tests/inference_test.cc).
  Tensor logits = model.Predict(ctx);
  return MaskedAccuracy(logits, model.data().labels, mask);
}

namespace {

/// Complete in-memory rollback point: everything needed to replay
/// training from the start of an epoch.
struct HealthySnapshot {
  size_t epoch = 0;  // epoch the restored run resumes at
  std::vector<Tensor> params;
  AdamState adam;
  RngState rng;
  size_t epochs_since_best = 0;
  double best_val_accuracy = 0.0;
  std::vector<Tensor> best_params;
};

bool GradientsFinite(const std::vector<ag::Variable>& params) {
  for (const ag::Variable& p : params) {
    if (!p->grad().empty() && !p->grad().AllFinite()) return false;
  }
  return true;
}

bool ParametersFinite(const std::vector<ag::Variable>& params) {
  for (const ag::Variable& p : params) {
    if (!p->value().AllFinite()) return false;
  }
  return true;
}

/// Global L2 norm over all parameter gradients.
double GradientGlobalNorm(const std::vector<ag::Variable>& params) {
  double squared = 0.0;
  for (const ag::Variable& p : params) {
    if (!p->grad().empty()) squared += p->grad().SquaredNorm();
  }
  return std::sqrt(squared);
}

/// Scales all gradients so their global L2 norm is at most `max_norm`.
void ClipGradientsByGlobalNorm(const std::vector<ag::Variable>& params,
                               float max_norm) {
  const double norm = GradientGlobalNorm(params);
  if (norm <= max_norm || norm == 0.0) return;
  const float scale = static_cast<float>(max_norm / norm);
  for (const ag::Variable& p : params) {
    if (!p->grad().empty()) p->mutable_grad() *= scale;
  }
}

}  // namespace

TrainResult TrainModel(Model& model, const TrainOptions& options) {
  Rng rng(options.seed);
  std::vector<ag::Variable> params = model.Parameters();
  AdamOptimizer optimizer(params, options.learning_rate,
                          options.weight_decay);
  TrainResult result;
  size_t epochs_since_best = 0;
  std::vector<Tensor> best_params;
  double total_time_ms = 0.0;
  size_t start_epoch = 0;

  if (options.resume && !options.checkpoint_path.empty()) {
    TrainerState saved;
    Status load = LoadCheckpoint(params, &saved, options.checkpoint_path);
    if (load.ok()) {
      Status import =
          saved.has_optimizer ? optimizer.ImportState(saved.adam)
                              : Status::OK();
      if (import.ok()) {
        if (saved.has_rng) rng.RestoreState(saved.rng);
        if (saved.learning_rate > 0.0f) {
          optimizer.set_learning_rate(saved.learning_rate);
        }
        start_epoch = saved.next_epoch;
        epochs_since_best = saved.epochs_since_best;
        result.best_val_accuracy = saved.best_val_accuracy;
        best_params = std::move(saved.best_params);
        result.resumed_from_epoch = start_epoch;
      } else {
        result.resume_status = import.WithContext("resume");
      }
    } else if (load.code() != StatusCode::kNotFound) {
      // A corrupt/mismatched checkpoint must not kill the run: report
      // it and start fresh (the file on disk is left untouched).
      result.resume_status = load.WithContext("resume");
    }
    if (!result.resume_status.ok() && options.verbose) {
      std::fprintf(stderr, "  resume failed, starting fresh: %s\n",
                   result.resume_status.ToString().c_str());
    }
  }

  auto capture_snapshot = [&](size_t next_epoch) {
    HealthySnapshot snap;
    snap.epoch = next_epoch;
    snap.params.reserve(params.size());
    for (const ag::Variable& p : params) snap.params.push_back(p->value());
    snap.adam = optimizer.ExportState();
    snap.rng = rng.SaveState();
    snap.epochs_since_best = epochs_since_best;
    snap.best_val_accuracy = result.best_val_accuracy;
    snap.best_params = best_params;
    return snap;
  };
  HealthySnapshot snapshot = capture_snapshot(start_epoch);
  size_t recoveries_used = 0;

  auto recover = [&](size_t epoch, const char* reason) {
    ++recoveries_used;
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->mutable_value() = snapshot.params[i];
    }
    Status import = optimizer.ImportState(snapshot.adam);
    LASAGNE_CHECK_MSG(import.ok(), import.ToString());
    rng.RestoreState(snapshot.rng);
    // Perturb the stream deterministically so the retry does not
    // replay the exact forward/backward pass that just diverged.
    for (size_t i = 0; i < recoveries_used; ++i) rng.NextUint64();
    epochs_since_best = snapshot.epochs_since_best;
    result.best_val_accuracy = snapshot.best_val_accuracy;
    best_params = snapshot.best_params;
    const float new_lr =
        optimizer.learning_rate() * options.recovery_lr_backoff;
    optimizer.set_learning_rate(new_lr);
    result.recoveries.push_back(RecoveryEvent{epoch, reason, new_lr});
    if (options.telemetry != nullptr) {
      options.telemetry->RecordRecovery(
          obs::RecoveryTelemetry{epoch, reason, new_lr});
    }
    if (obs::MetricsEnabled()) {
      static obs::Counter& recoveries =
          obs::MetricsRegistry::Global().GetCounter("train.recoveries");
      recoveries.Increment();
    }
    if (options.verbose) {
      std::fprintf(stderr,
                   "  recovery %zu at epoch %zu (%s): rollback to epoch "
                   "%zu, lr -> %g\n",
                   recoveries_used, epoch, reason, snapshot.epoch, new_lr);
    }
  };

  size_t epoch = start_epoch;
  while (epoch < options.max_epochs) {
    LASAGNE_TRACE_SCOPE("epoch");
    const auto start = std::chrono::steady_clock::now();
    nn::ForwardContext train_ctx{/*training=*/true, &rng};
    optimizer.ZeroGrad();
    ag::Variable loss = model.TrainingLoss(train_ctx);
    ag::Backward(loss);

    // Read-only probe for telemetry (pre-clipping); skipped entirely
    // when no sink is attached so plain runs pay nothing.
    const double grad_norm = options.telemetry != nullptr
                                 ? GradientGlobalNorm(params)
                                 : 0.0;

    if (FaultInjector::Global().ConsumeNanGradient(epoch)) {
      for (const ag::Variable& p : params) {
        if (!p->grad().empty()) {
          p->mutable_grad().data()[0] =
              std::numeric_limits<float>::quiet_NaN();
          break;
        }
      }
    }

    // Per-epoch numerical health scan: loss and gradients before the
    // step, parameters after it.
    const float loss_value = loss->value()(0, 0);
    const char* fault = nullptr;
    if (!std::isfinite(loss_value)) {
      fault = "non-finite loss";
    } else if (!GradientsFinite(params)) {
      fault = "non-finite gradient";
    } else {
      if (options.grad_clip_norm > 0.0f) {
        ClipGradientsByGlobalNorm(params, options.grad_clip_norm);
      }
      optimizer.Step();
      if (!ParametersFinite(params)) fault = "non-finite parameter";
    }

    if (fault != nullptr) {
      if (recoveries_used >= options.max_recoveries) {
        result.diverged = true;
        if (options.verbose) {
          std::fprintf(stderr,
                       "  divergence at epoch %zu (%s): recovery budget "
                       "(%zu) exhausted\n",
                       epoch, fault, options.max_recoveries);
        }
        break;
      }
      recover(epoch, fault);
      epoch = snapshot.epoch;
      continue;
    }

    const auto end = std::chrono::steady_clock::now();
    const double epoch_ms =
        std::chrono::duration<double, std::milli>(end - start).count();
    total_time_ms += epoch_ms;

    result.loss_history.push_back(loss_value);
    const double val_acc = EvaluateAccuracy(model, model.data().val_mask,
                                            rng);
    result.val_accuracy_history.push_back(val_acc);
    result.epochs_run = epoch + 1;

    if (options.telemetry != nullptr) {
      options.telemetry->RecordEpoch(obs::EpochTelemetry{
          epoch, loss_value, val_acc, grad_norm,
          optimizer.learning_rate(), epoch_ms});
    }
    if (obs::MetricsEnabled()) {
      static obs::Counter& epochs =
          obs::MetricsRegistry::Global().GetCounter("train.epochs");
      static obs::Histogram& epoch_hist =
          obs::MetricsRegistry::Global().GetHistogram("train.epoch_ms");
      epochs.Increment();
      epoch_hist.Record(epoch_ms);
    }

    if (val_acc > result.best_val_accuracy) {
      result.best_val_accuracy = val_acc;
      epochs_since_best = 0;
      if (options.restore_best) {
        best_params.clear();
        for (const ag::Variable& p : params) {
          best_params.push_back(p->value());
        }
      }
    } else {
      ++epochs_since_best;
    }
    if (options.verbose && epoch % 10 == 0) {
      std::printf("  epoch %3zu  loss %.4f  val %.4f\n", epoch,
                  result.loss_history.back(), val_acc);
    }
    if (options.epoch_callback) options.epoch_callback(epoch, model);

    snapshot = capture_snapshot(epoch + 1);

    if (!options.checkpoint_path.empty() && options.checkpoint_interval > 0 &&
        (epoch + 1) % options.checkpoint_interval == 0) {
      TrainerState state;
      state.next_epoch = epoch + 1;
      state.epochs_since_best = epochs_since_best;
      state.best_val_accuracy = result.best_val_accuracy;
      state.learning_rate = optimizer.learning_rate();
      state.has_optimizer = true;
      state.adam = optimizer.ExportState();
      state.has_rng = true;
      state.rng = rng.SaveState();
      state.best_params = best_params;
      Status saved =
          SaveCheckpoint(params, &state, options.checkpoint_path);
      if (!saved.ok()) {
        // Training survives checkpoint I/O failures; the atomic write
        // guarantees the previous checkpoint on disk is still valid.
        ++result.checkpoint_write_failures;
        if (options.verbose) {
          std::fprintf(stderr, "  checkpoint write failed: %s\n",
                       saved.ToString().c_str());
        }
      }
    }

    // Paper §5.1.3: terminate when validation accuracy has not improved
    // for `patience` consecutive checks.
    if (epochs_since_best >= options.patience) break;
    ++epoch;
  }

  if (options.restore_best && !best_params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->mutable_value() = best_params[i];
    }
  }
  result.final_loss =
      result.loss_history.empty() ? 0.0 : result.loss_history.back();
  // `total_time_ms` only covers epochs executed by THIS invocation, so
  // the mean must divide by that count, not by the absolute
  // `epochs_run` (which includes pre-resume epochs and would
  // underestimate the mean after --resume).
  result.epochs_executed =
      result.epochs_run > start_epoch ? result.epochs_run - start_epoch : 0;
  result.mean_epoch_time_ms =
      result.epochs_executed > 0
          ? total_time_ms / static_cast<double>(result.epochs_executed)
          : 0.0;
  result.test_accuracy =
      EvaluateAccuracy(model, model.data().test_mask, rng);
  result.train_accuracy =
      EvaluateAccuracy(model, model.data().train_mask, rng);
  return result;
}

}  // namespace lasagne
