// train-cora / train-pubmed: full-batch Adam training at the paper's
// Fig. 7(a) configuration (depth 4, 4 heads, dropout 0.5), a fixed
// number of epochs per training run with no early stop, repeated from
// the same initial parameters until the phase's time is spent.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autograd/inference.h"
#include "common/buffer_pool.h"
#include "data/registry.h"
#include "infer/plan.h"
#include "layers.h"
#include "models/model.h"
#include "train/optimizer.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {

using namespace lasagne;

namespace {

struct TrainSpec {
  const char* dataset;
  double scale;
  size_t hidden;
  size_t epochs;  // per training run
  int setup_reps;
};

TrainSpec SpecFor(const Args& args) {
  if (args.workload == "train-cora") {
    return args.tiny ? TrainSpec{"cora", 0.2, 16, 3, 2}
                     : TrainSpec{"cora", 1.0, 32, 20, 5};
  }
  return args.tiny ? TrainSpec{"pubmed", 0.2, 16, 3, 2}
                   : TrainSpec{"pubmed", 4.0, 64, 4, 5};
}

/// Attention models train at a lower learning rate, as everywhere else
/// in the repository's benches (bench::TuneForModel).
float LearningRate(const ModelSpec& m) {
  return std::string(m.tag) == "gat" ? 0.005f : TrainOptions().learning_rate;
}

ModelConfig ConfigFor(const TrainSpec& spec, uint64_t seed) {
  ModelConfig config;
  config.depth = 4;
  config.hidden_dim = spec.hidden;
  config.heads = 4;
  config.dropout = 0.5f;
  config.seed = seed;
  return config;
}

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

/// Time spent in each public call of one phase, summed over epochs.
struct EpochParts {
  double forward_ms = 0.0;
  double backward_ms = 0.0;
  double step_ms = 0.0;
  double eval_ms = 0.0;
};

struct EpochResult {
  bool healthy = false;
  float loss = 0.0f;
  double ms = 0.0;
};

/// One epoch as TrainModel runs it: forward, backward, health scan,
/// Adam step, validation accuracy.
EpochResult RunEpoch(Model& model, AdamOptimizer& optimizer, Rng& rng,
                     const std::vector<ag::Variable>& params,
                     EpochParts& parts) {
  EpochResult result;
  const Clock::time_point start = Clock::now();
  nn::ForwardContext ctx{/*training=*/true, &rng};
  optimizer.ZeroGrad();
  ag::Variable loss;
  parts.forward_ms += Timed("bench.training_loss",
                            [&] { loss = model.TrainingLoss(ctx); });
  parts.backward_ms += Timed("bench.backward", [&] { ag::Backward(loss); });
  result.loss = loss->value()(0, 0);
  result.healthy = std::isfinite(result.loss) && GradientsFinite(params);
  if (result.healthy) {
    parts.step_ms += Timed("bench.step", [&] { optimizer.Step(); });
    result.healthy = ParametersFinite(params);
  }
  if (result.healthy) {
    parts.eval_ms += Timed("bench.evaluate", [&] {
      EvaluateAccuracy(model, model.data().val_mask, rng);
    });
  }
  result.ms = MsSince(start);
  return result;
}

struct TrainedModel {
  std::unique_ptr<Model> model;
  std::vector<ag::Variable> params;
  std::vector<Tensor> initial;  // parameter values right after MakeModel

  void Restore() {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->mutable_value() = initial[i];
    }
  }
};

/// Final state of one training run, compared bit for bit across runs.
struct RunOutcome {
  bool healthy = true;
  float final_loss = 0.0f;
  double test_accuracy = 0.0;
};

/// Everything measured for one model.
struct Series {
  std::vector<double> epoch_ms;
  EpochParts parts;
  Counts counts;
  std::vector<RunOutcome> runs;
  uint64_t tape_nodes = 0;
};

std::string HexFloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

}  // namespace

void RunTrain(const Args& args, Report& report, Profiler& prof) {
  const TrainSpec spec = SpecFor(args);
  const ModelConfig config = ConfigFor(spec, args.seed);
  const TrainOptions defaults;

  // -- Setup, repeated: dataset, models, and one warm-up epoch each (the
  // first EvaluateAccuracy compiles the eval plan).
  std::unique_ptr<Dataset> data;
  std::vector<TrainedModel> models;
  std::vector<double> setup_s, load_ms, make_ms;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    models.clear();
    data.reset();
    ReleaseCachedMemory();
    const Clock::time_point start = Clock::now();
    load_ms.push_back(Timed("bench.load_dataset", [&] {
      data = std::make_unique<Dataset>(
          LoadDataset(spec.dataset, spec.scale, args.seed));
    }));
    for (const ModelSpec& m : kPaperModels) {
      TrainedModel tm;
      make_ms.push_back(Timed("bench.make_model", [&] {
        tm.model = MakeModel(m.name, *data, config);
      }));
      tm.params = tm.model->Parameters();
      for (const ag::Variable& p : tm.params) tm.initial.push_back(p->value());
      models.push_back(std::move(tm));
    }
    for (size_t mi = 0; mi < models.size(); ++mi) {
      TrainedModel& tm = models[mi];
      AdamOptimizer optimizer(tm.params, LearningRate(kPaperModels[mi]),
                              defaults.weight_decay);
      Rng rng(args.seed);
      EpochParts ignored;
      RunEpoch(*tm.model, optimizer, rng, tm.params, ignored);
    }
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  prof.Flush("setup");
  ReportSetup(setup_s, load_ms, make_ms, data->num_nodes(),
              data->graph.num_edges(), data->feature_dim(), data->num_classes,
              report);
  report.Info("epochs_per_run", obs::JsonValue::Number(spec.epochs));

  // -- Measurement: rounds of one complete training run per model, until
  // the time is spent, so both series span the whole measured window.
  // Pool traffic is summed over the epochs only, not the test-set check
  // that ends each run.
  BufferPool::Stats pool_traffic;
  std::vector<Series> series(models.size());
  const Clock::time_point measure_start = Clock::now();
  while (series[0].runs.empty() ||
         MsSince(measure_start) < args.seconds * 1000.0) {
    for (size_t mi = 0; mi < models.size(); ++mi) {
      TrainedModel& tm = models[mi];
      Series& ser = series[mi];
      tm.Restore();
      AdamOptimizer optimizer(tm.params, LearningRate(kPaperModels[mi]),
                              defaults.weight_decay);
      Rng rng(args.seed);
      RunOutcome outcome;
      const uint64_t tape_before = ag::GetTapeStats().nodes_created;
      const BufferPool::Stats pool_before = BufferPool::Global().GetStats();
      for (size_t e = 0; e < spec.epochs; ++e) {
        const EpochResult r =
            RunEpoch(*tm.model, optimizer, rng, tm.params, ser.parts);
        prof.Flush(kPaperModels[mi].tag);
        ++ser.counts.attempted;
        if (!r.healthy) {
          ++ser.counts.failed;
          outcome.healthy = false;
          break;  // TrainModel would roll this epoch back
        }
        ++ser.counts.succeeded;
        ser.epoch_ms.push_back(r.ms);
        outcome.final_loss = r.loss;
      }
      ser.tape_nodes += ag::GetTapeStats().nodes_created - tape_before;
      AddPoolTraffic(pool_traffic, pool_before,
                     BufferPool::Global().GetStats());
      outcome.test_accuracy =
          EvaluateAccuracy(*tm.model, tm.model->data().test_mask, rng);
      prof.Flush("check");
      ser.runs.push_back(outcome);
    }
  }

  // Peak memory of set-up and measurement; the checks below allocate
  // reference outputs a user would not.
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);

  double total_epochs = 0.0;
  double total_epoch_ms = 0.0;
  Counts all;
  std::vector<std::string> phases;
  for (size_t mi = 0; mi < models.size(); ++mi) {
    const Series& ser = series[mi];
    const std::string tag = kPaperModels[mi].tag;
    phases.push_back(tag);
    const double epochs = static_cast<double>(ser.epoch_ms.size());
    report.Timing("epoch_ms." + tag, "epoch_ms." + tag + ".tail",
                  Summarize(ser.epoch_ms));
    report.Phase("train." + tag, ser.counts);
    all.attempted += ser.counts.attempted;
    all.succeeded += ser.counts.succeeded;
    all.failed += ser.counts.failed;
    total_epochs += epochs;
    for (double ms : ser.epoch_ms) total_epoch_ms += ms;

    // Every run starts from the same parameters and seed, so every run
    // must end in the same loss and accuracy, bit for bit.
    bool healthy = true;
    bool repeatable = true;
    for (const RunOutcome& o : ser.runs) {
      healthy = healthy && o.healthy;
      repeatable = repeatable && o.final_loss == ser.runs[0].final_loss &&
                   o.test_accuracy == ser.runs[0].test_accuracy;
    }
    report.Check("no_divergence." + tag, healthy);
    report.Check("repeatable_runs." + tag, repeatable,
                 std::to_string(ser.runs.size()) + " runs");

    if (prof.enabled()) {
      const EpochParts& parts = ser.parts;
      report.Layer("train.forward_ms." + tag, parts.forward_ms / epochs, "ms");
      report.Layer("autograd.backward_ms." + tag, parts.backward_ms / epochs,
                   "ms");
      report.Layer("train.optimizer_ms." + tag, parts.step_ms / epochs, "ms");
      report.Layer("train.eval_ms." + tag, parts.eval_ms / epochs, "ms");
      report.Layer("autograd.tape_nodes." + tag,
                   static_cast<double>(ser.tape_nodes) / epochs, "count");
      KernelLayers(prof, {tag}, epochs, tag, report);
    }
  }
  for (size_t mi = 0; mi < models.size(); ++mi) {
    TrainedModel& tm = models[mi];
    const std::string tag = kPaperModels[mi].tag;
    const RunOutcome& first = series[mi].runs[0];
    // TrainModel on the same start must reproduce the benchmark's loop
    // exactly and report no recovery.
    tm.Restore();
    TrainOptions options;
    options.max_epochs = spec.epochs;
    options.patience = spec.epochs + 1;
    options.restore_best = false;
    options.seed = args.seed;
    options.learning_rate = LearningRate(kPaperModels[mi]);
    const TrainResult trained = TrainModel(*tm.model, options);
    prof.Flush("check");
    report.Check("train_model_agrees." + tag,
                 !trained.diverged && trained.recoveries.empty() &&
                     trained.epochs_run == spec.epochs &&
                     trained.final_loss ==
                         static_cast<double>(first.final_loss) &&
                     trained.test_accuracy == first.test_accuracy,
                 "TrainModel loss " + HexFloat(trained.final_loss) + " vs " +
                     HexFloat(first.final_loss));
    obs::JsonValue result = obs::JsonValue::Object();
    result.Set("final_loss",
               obs::JsonValue::String(HexFloat(first.final_loss)));
    result.Set("test_accuracy", obs::JsonValue::Number(first.test_accuracy));
    report.Info("result." + tag, std::move(result));
  }

  report.Metric("failed_frac",
                static_cast<double>(all.failed) /
                    static_cast<double>(all.attempted),
                "fraction", all.attempted);
  report.Metric("goodput_per_s", total_epochs / (total_epoch_ms / 1000.0),
                "1/s", all.attempted);
  report.Phase("all", all);

  if (prof.enabled()) {
    ThreadPoolLayers(prof, phases, total_epochs, args.threads, report);
    BufferPoolLayers(pool_traffic, total_epochs, report);
    double overflow = 0.0;
    for (size_t mi = 0; mi < models.size(); ++mi) {
      Model& model = *models[mi].model;
      if (model.execution_plan() != nullptr) {
        overflow += static_cast<double>(
            model.execution_plan()->overflow_acquires());
      }
      PlanLayers(model, kPaperModels[mi].tag, report);
    }
    report.Layer("infer.plan.overflow_acquires", overflow, "count");
  }
}

}  // namespace perfbench
