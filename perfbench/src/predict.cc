// predict-pubmed: one client in a closed loop, back-to-back
// InferenceSession::ServeBatch calls of 64 seeded-uniform query nodes
// against each paper model over the pubmed x4 stand-in.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autograd/inference.h"
#include "common/buffer_pool.h"
#include "data/registry.h"
#include "infer/plan.h"
#include "infer/serving.h"
#include "layers.h"
#include "models/model.h"
#include "workloads.h"

namespace perfbench {

using namespace lasagne;

namespace {

constexpr size_t kQueryNodes = 64;
constexpr size_t kWarmupRequests = 3;
constexpr size_t kMaxSamples = 24;  // served batches kept for the check
constexpr size_t kGatherReps = 16;  // traced run: gathers timed per model

struct Served {
  std::unique_ptr<Model> model;
  std::unique_ptr<infer::InferenceSession> session;
};

/// Everything measured for one model.
struct Series {
  std::vector<double> latency_ms;
  Counts counts;
  uint64_t tape_nodes = 0;
  std::vector<Sample> samples;
};

std::vector<uint32_t> RandomQuery(Rng& rng, size_t num_nodes) {
  std::vector<uint32_t> ids(kQueryNodes);
  for (uint32_t& id : ids) {
    id = static_cast<uint32_t>(rng.UniformInt(num_nodes));
  }
  return ids;
}

}  // namespace

void RunPredict(const Args& args, Report& report, Profiler& prof) {
  const double scale = args.tiny ? 0.2 : 4.0;
  const int setup_reps = args.tiny ? 2 : 5;
  ModelConfig config;
  config.depth = 4;
  config.hidden_dim = args.tiny ? 16 : 64;
  config.heads = 4;
  config.dropout = 0.5f;
  config.seed = args.seed;

  // -- Setup, repeated: dataset, models, sessions, warm-up requests (the
  // first one compiles each model's plan).
  std::unique_ptr<Dataset> data;
  std::vector<Served> served;
  std::vector<double> setup_s, load_ms, make_ms;
  bool warmup_ok = true;
  for (int rep = 0; rep < setup_reps; ++rep) {
    served.clear();
    data.reset();
    ReleaseCachedMemory();
    const Clock::time_point start = Clock::now();
    load_ms.push_back(Timed("bench.load_dataset", [&] {
      data = std::make_unique<Dataset>(LoadDataset("pubmed", scale, args.seed));
    }));
    Rng warm_rng(args.seed);
    for (const ModelSpec& m : kPaperModels) {
      Served s;
      make_ms.push_back(Timed("bench.make_model", [&] {
        s.model = MakeModel(m.name, *data, config);
      }));
      s.session = std::make_unique<infer::InferenceSession>(*s.model);
      for (size_t i = 0; i < kWarmupRequests; ++i) {
        StatusOr<Tensor> out =
            s.session->ServeBatch(RandomQuery(warm_rng, data->num_nodes()));
        warmup_ok = warmup_ok && out.ok();
      }
      served.push_back(std::move(s));
    }
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  prof.Flush("setup");
  report.Check("warmup_ok", warmup_ok);
  ReportSetup(setup_s, load_ms, make_ms, data->num_nodes(),
              data->graph.num_edges(), data->feature_dim(), data->num_classes,
              report);
  report.Info("query_nodes", obs::JsonValue::Number(kQueryNodes));

  for (size_t mi = 0; mi < served.size(); ++mi) {
    const Model& model = *served[mi].model;
    report.Check(std::string("plan_compiled.") + kPaperModels[mi].tag,
                 model.plan_status().ok() && model.execution_plan() != nullptr,
                 model.plan_status().ToString());
  }

  // -- Measurement: requests alternate between the models until the time
  // is spent, so both series span the whole measured window.
  const BufferPool::Stats pool_before = BufferPool::Global().GetStats();
  std::vector<Series> series(served.size());
  Rng query_rng(args.seed * 7919);
  Rng sample_rng(args.seed * 104729);
  const Clock::time_point measure_start = Clock::now();
  while (MsSince(measure_start) < args.seconds * 1000.0) {
    for (size_t mi = 0; mi < served.size(); ++mi) {
      Series& ser = series[mi];
      std::vector<uint32_t> ids = RandomQuery(query_rng, data->num_nodes());
      std::optional<StatusOr<Tensor>> out;
      const uint64_t tape_before = ag::GetTapeStats().nodes_created;
      const double ms = Timed("bench.serve_batch", [&] {
        out.emplace(served[mi].session->ServeBatch(ids));
      });
      ser.tape_nodes += ag::GetTapeStats().nodes_created - tape_before;
      prof.Flush(kPaperModels[mi].tag);
      ++ser.counts.attempted;
      if (!out->ok()) {
        ++ser.counts.failed;
        continue;
      }
      ++ser.counts.succeeded;
      ser.latency_ms.push_back(ms);
      const bool keep = ser.samples.empty() || sample_rng.UniformInt(16) == 0;
      if (keep && ser.samples.size() < kMaxSamples) {
        ser.samples.push_back(MakeSample(std::move(ids), out->value()));
      }
    }
  }
  BufferPool::Stats pool_traffic;
  AddPoolTraffic(pool_traffic, pool_before, BufferPool::Global().GetStats());

  // Peak memory of set-up and measurement; the checks below allocate
  // reference outputs a user would not.
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);

  // What ServeBatch adds to Predict: gathering the query rows. The
  // difference of the two calls' times is below their noise, so the
  // gather is timed on its own, outside the measured window.
  std::vector<double> gather_ms;
  if (prof.enabled()) {
    Rng gather_rng(args.seed * 15485863);
    for (Served& s : served) {
      for (size_t i = 0; i < kGatherReps; ++i) {
        const std::vector<uint32_t> ids =
            RandomQuery(gather_rng, data->num_nodes());
        const std::vector<size_t> rows(ids.begin(), ids.end());
        Rng rng(args.seed);
        nn::ForwardContext ctx{/*training=*/false, &rng};
        const Tensor logits = s.model->Predict(ctx);
        gather_ms.push_back(
            Timed("bench.gather", [&] { logits.GatherRows(rows); }));
      }
    }
    prof.Flush("check");
  }

  Counts all;
  double total_requests = 0.0;
  double total_ms = 0.0;
  std::vector<std::string> phases;
  for (size_t mi = 0; mi < served.size(); ++mi) {
    Series& ser = series[mi];
    const std::string tag = kPaperModels[mi].tag;
    phases.push_back(tag);
    const Summary sum = Summarize(ser.latency_ms);
    report.Timing("predict_ms." + tag + ".p50", "predict_ms." + tag + ".tail",
                  sum);
    report.Phase("predict." + tag, ser.counts);
    all.attempted += ser.counts.attempted;
    all.succeeded += ser.counts.succeeded;
    all.failed += ser.counts.failed;
    total_requests += static_cast<double>(ser.latency_ms.size());
    for (double ms : ser.latency_ms) total_ms += ms;

    // Served rows must equal the eager forward's rows bit for bit.
    Tensor full;
    {
      ag::NoGradGuard no_grad;
      Rng rng(args.seed);
      nn::ForwardContext ctx{/*training=*/false, &rng};
      full = served[mi].model->Forward(ctx)->value();
    }
    if (args.perturb && !ser.samples.empty()) {
      PerturbFirstLogit(ser.samples[0]);
    }
    report.Check("served_equals_eager." + tag,
                 AllRowsBitEqual(ser.samples, full),
                 std::to_string(ser.samples.size()) + " sampled requests");
    prof.Flush("check");

    if (prof.enabled()) {
      const double requests = static_cast<double>(ser.latency_ms.size());
      report.Layer("autograd.tape_nodes." + tag,
                   static_cast<double>(ser.tape_nodes) / requests, "count");
      KernelLayers(prof, {tag}, requests, tag, report);
    }
  }
  report.Metric("failed_frac",
                static_cast<double>(all.failed) /
                    static_cast<double>(all.attempted),
                "fraction", all.attempted);
  report.Metric("goodput_per_s", total_requests / (total_ms / 1000.0), "1/s",
                all.attempted);
  report.Phase("all", all);

  if (prof.enabled()) {
    ThreadPoolLayers(prof, phases, total_requests, args.threads, report);
    BufferPoolLayers(pool_traffic, total_requests, report);
    double overflow = 0.0;
    for (size_t mi = 0; mi < served.size(); ++mi) {
      Model& model = *served[mi].model;
      if (model.execution_plan() != nullptr) {
        overflow += static_cast<double>(
            model.execution_plan()->overflow_acquires());
      }
      PlanLayers(model, kPaperModels[mi].tag, report);
    }
    report.Layer("infer.plan.overflow_acquires", overflow, "count");
    report.Layer("infer.serving.gather_ms", Median(gather_ms), "ms");
  }
}

}  // namespace perfbench
