#include "layers.h"

#include <memory>

#include "infer/plan.h"

namespace perfbench {

namespace {

constexpr const char* kModelTags[] = {"lasagne", "gat"};
constexpr const char* kRates[] = {"low", "high"};

double PerUnit(double value, double units) {
  return units > 0.0 ? value / units : 0.0;
}

}  // namespace

void DefaultLayers(Report& r) {
  for (const char* name : {"data.load_ms", "models.make_ms",
                           "core.aggregate_ms", "nn.graph_conv_ms",
                           "nn.gat_head_ms", "common.thread_pool.region_ms",
                           "infer.serving.gather_ms"}) {
    r.Layer(name, 0.0, "ms");
  }
  for (const char* name :
       {"common.thread_pool.regions", "common.buffer_pool.acquires",
        "common.buffer_pool.misses", "common.buffer_pool.depot_exchanges",
        "infer.plan.overflow_acquires", "infer.server.refused",
        "infer.server.expired", "infer.server.failed", "obs.dropped_spans"}) {
    r.Layer(name, 0.0, "count");
  }
  for (const char* name :
       {"common.thread_pool.busy_frac", "common.buffer_pool.hit_ratio",
        "common.buffer_pool.magazine_hit_ratio", "obs.trace_overhead_frac"}) {
    r.Layer(name, 0.0, "fraction");
  }
  r.Layer("infer.server.submit_us", 0.0, "us");
  for (const std::string m : kModelTags) {
    for (const char* base :
         {"train.forward_ms.", "train.optimizer_ms.", "train.eval_ms.",
          "autograd.backward_ms.", "core.gcfm_ms.", "tensor.gemm_ms.",
          "sparse.spmm_ms.", "infer.plan.compile_ms.", "infer.plan.run_ms."}) {
      r.Layer(base + m, 0.0, "ms");
    }
    r.Layer("autograd.tape_nodes." + m, 0.0, "count");
    r.Layer("infer.plan.steps." + m, 0.0, "count");
    r.Layer("infer.plan.workspace_mb." + m, 0.0, "MB");
  }
  for (const std::string rate : kRates) {
    r.Layer("infer.server.queue_ms." + rate + ".p50", 0.0, "ms");
    r.Layer("infer.server.queue_ms." + rate + ".tail", 0.0, "ms");
    r.Layer("infer.server.compute_ms." + rate + ".p50", 0.0, "ms");
    r.Layer("infer.server.requests_per_batch." + rate, 0.0, "count");
    r.Layer("bench.gen_lag_ms." + rate, 0.0, "ms");
    r.Layer("bench.backlog." + rate, 0.0, "count");
  }
}

void KernelLayers(const Profiler& prof, const std::vector<std::string>& phases,
                  double units, const std::string& tag, Report& r) {
  auto self = [&](const std::vector<std::string>& names) {
    double sum = 0.0;
    for (const std::string& phase : phases) sum += prof.SelfMs(phase, names);
    return PerUnit(sum, units);
  };
  r.Layer("core.gcfm_ms." + tag, self({"gcfm.forward", "fm.*"}), "ms");
  r.Layer("tensor.gemm_ms." + tag, self({"matmul", "matmul_at", "matmul_bt"}),
          "ms");
  r.Layer("sparse.spmm_ms." + tag, self({"spmm", "spmm_t"}), "ms");
  // Each of these spans belongs to one model family only, so the
  // untagged metric is the per-unit time of the model that runs it.
  const struct {
    const char* metric;
    std::vector<std::string> spans;
  } untagged[] = {{"core.aggregate_ms", {"aggregate.*"}},
                  {"nn.graph_conv_ms", {"graph_conv"}},
                  {"nn.gat_head_ms", {"gat_head"}}};
  for (const auto& u : untagged) {
    const double ms = self(u.spans);
    if (ms > 0.0) r.Layer(u.metric, ms, "ms");
  }
}

void ThreadPoolLayers(const Profiler& prof,
                      const std::vector<std::string>& phases, double units,
                      size_t threads, Report& r) {
  double regions = 0.0;
  double region_ms = 0.0;
  double task_ms = 0.0;
  for (const std::string& phase : phases) {
    regions += static_cast<double>(prof.Count(phase, "pool.region"));
    region_ms += prof.TotalMs(phase, "pool.region");
    task_ms += prof.TotalMs(phase, "pool.task");
  }
  r.Layer("common.thread_pool.regions", PerUnit(regions, units), "count");
  r.Layer("common.thread_pool.region_ms", PerUnit(region_ms, units), "ms");
  r.Layer("common.thread_pool.busy_frac",
          PerUnit(task_ms, static_cast<double>(threads) * region_ms),
          "fraction");
}

void AddPoolTraffic(lasagne::BufferPool::Stats& total,
                    const lasagne::BufferPool::Stats& before,
                    const lasagne::BufferPool::Stats& after) {
  total.hits += after.hits - before.hits;
  total.misses += after.misses - before.misses;
  total.evictions += after.evictions - before.evictions;
  total.magazine_hits += after.magazine_hits - before.magazine_hits;
  total.depot_refills += after.depot_refills - before.depot_refills;
  total.depot_flushes += after.depot_flushes - before.depot_flushes;
  total.oversize_acquires += after.oversize_acquires - before.oversize_acquires;
}

void BufferPoolLayers(const lasagne::BufferPool::Stats& t, double units,
                      Report& r) {
  const double hits = static_cast<double>(t.hits);
  const double misses = static_cast<double>(t.misses);
  const double magazine = static_cast<double>(t.magazine_hits);
  const double exchanges =
      static_cast<double>(t.depot_refills + t.depot_flushes);
  const double acquires = hits + misses;
  r.Layer("common.buffer_pool.acquires", PerUnit(acquires, units), "count");
  r.Layer("common.buffer_pool.misses", PerUnit(misses, units), "count");
  r.Layer("common.buffer_pool.hit_ratio", PerUnit(hits, acquires),
          "fraction");
  r.Layer("common.buffer_pool.magazine_hit_ratio", PerUnit(magazine, acquires),
          "fraction");
  r.Layer("common.buffer_pool.depot_exchanges", PerUnit(exchanges, units),
          "count");
}

void PlanLayers(lasagne::Model& model, const std::string& tag, Report& r) {
  constexpr int kReps = 5;
  std::vector<double> compile_ms;
  std::unique_ptr<lasagne::infer::ExecutionPlan> plan;
  for (int i = 0; i < kReps; ++i) {
    compile_ms.push_back(Timed("bench.plan_compile", [&] {
      auto compiled = lasagne::infer::ExecutionPlan::Compile(model);
      if (compiled.ok()) plan = std::move(compiled).value();
    }));
  }
  r.Check("plan_compiles." + tag, plan != nullptr);
  if (plan == nullptr) return;
  std::vector<double> run_ms;
  for (int i = 0; i < kReps; ++i) {
    run_ms.push_back(Timed("bench.plan_run", [&] { plan->Run(); }));
  }
  const lasagne::infer::PlanInfo info = plan->info();
  r.Layer("infer.plan.compile_ms." + tag, Median(compile_ms), "ms");
  r.Layer("infer.plan.run_ms." + tag, Median(run_ms), "ms");
  r.Layer("infer.plan.steps." + tag, static_cast<double>(info.steps), "count");
  r.Layer("infer.plan.workspace_mb." + tag,
          static_cast<double>(info.workspace_bytes) / (1024.0 * 1024.0), "MB");
}

void ReportSetup(const std::vector<double>& setup_s,
                 const std::vector<double>& load_ms,
                 const std::vector<double>& make_ms, size_t nodes,
                 size_t edges, size_t features, size_t classes,
                 Report& report) {
  report.Metric("setup_s", Median(setup_s), "s", setup_s.size());
  report.Layer("data.load_ms", Median(load_ms), "ms");
  report.Layer("models.make_ms", Median(make_ms), "ms");
  lasagne::obs::JsonValue all = lasagne::obs::JsonValue::Array();
  for (double s : setup_s) all.Append(lasagne::obs::JsonValue::Number(s));
  report.Info("setup_s_all", std::move(all));
  lasagne::obs::JsonValue graph = lasagne::obs::JsonValue::Object();
  graph.Set("nodes", lasagne::obs::JsonValue::Number(nodes));
  graph.Set("edges", lasagne::obs::JsonValue::Number(edges));
  graph.Set("features", lasagne::obs::JsonValue::Number(features));
  graph.Set("classes", lasagne::obs::JsonValue::Number(classes));
  report.Info("graph", std::move(graph));
}

}  // namespace perfbench
