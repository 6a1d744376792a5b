// serve-tencent: an InferenceServer with 2 workers serving lasagne over
// the tencent bipartite stand-in. One generator thread (this one) sends
// Poisson arrivals of 16-node requests in an open loop at two fixed
// rates; every request is timed from its scheduled send time.

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/inference.h"
#include "common/buffer_pool.h"
#include "data/registry.h"
#include "infer/plan.h"
#include "infer/server.h"
#include "layers.h"
#include "models/model.h"
#include "workloads.h"

namespace perfbench {

using namespace lasagne;

namespace {

// One forward over the whole graph takes 10-16 ms on one core of the
// reference host, so 2 workers run at about 25-40% (low) and 50-80%
// (high, before coalescing) of what they can serve: queueing and
// coalescing show without saturating, and one vCPU stays free. With 3
// workers at 500 req/s every worker was always busy and each latency
// followed the host's load.
constexpr size_t kWorkers = 2;
constexpr size_t kQueryNodes = 16;
constexpr double kLimitMs = 50.0;  // latency limit for goodput
constexpr size_t kSamplesPerSlice = 4;  // served requests kept for checks

struct Rate {
  const char* name;
  double per_s;
};
constexpr Rate kRates[] = {{"low", 50.0}, {"high", 100.0}};
constexpr size_t kSlicesPerRate = 4;

ModelConfig ServeConfig(const Args& args) {
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = args.tiny ? 16 : 32;
  config.seed = args.seed;
  return config;
}

/// One scheduled request of the open-loop generator.
struct Arrival {
  double at_ms;  // scheduled send time since the slice started
  std::vector<uint32_t> nodes;
  bool sampled;  // keep its logits for the correctness check
};

/// Poisson arrival times and queries of one slice, generated from the
/// seed before the slice starts.
std::vector<Arrival> Schedule(uint64_t seed, double rate, double duration_ms,
                              size_t num_nodes) {
  Rng rng(seed);
  std::vector<Arrival> arrivals;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) * 1000.0 / rate;
    if (t >= duration_ms) break;
    Arrival a;
    a.at_ms = t;
    a.nodes.resize(kQueryNodes);
    for (uint32_t& id : a.nodes) {
      id = static_cast<uint32_t>(rng.UniformInt(num_nodes));
    }
    a.sampled = false;
    arrivals.push_back(std::move(a));
  }
  // Sample a seeded subset spread over the slice.
  const size_t stride =
      std::max<size_t>(1, arrivals.size() / kSamplesPerSlice);
  for (size_t i = rng.UniformInt(stride); i < arrivals.size(); i += stride) {
    arrivals[i].sampled = true;
  }
  return arrivals;
}

struct InFlight {
  infer::ServeFuture future;
  size_t index;
  double send_lag_ms;  // actual send minus scheduled send
};

struct PhaseResult {
  Counts counts;
  std::vector<double> latency_ms;  // from scheduled send, served requests
  std::vector<double> queue_ms;
  std::vector<double> compute_ms;
  std::vector<double> lag_ms;
  std::vector<double> submit_us;
  double ok_within_limit = 0.0;
  double backlog = 0.0;
  uint64_t batches = 0;
  uint64_t coalesced_requests = 0;
  double scheduled_ms = 0.0;
  std::vector<Sample> samples;
};

void Harvest(const Arrival& arrival, const InFlight& f, PhaseResult& out) {
  const infer::ServeResult& r = f.future.Wait();
  ++out.counts.attempted;
  if (r.has_logits) {
    const double latency = f.send_lag_ms + r.total_ms;
    out.latency_ms.push_back(latency);
    out.queue_ms.push_back(r.queue_ms);
    out.compute_ms.push_back(r.compute_ms);
    if (r.status.ok() && latency <= kLimitMs) {
      ++out.counts.succeeded;
      out.ok_within_limit += 1.0;
    } else {
      ++out.counts.late;
      ++out.counts.failed;
    }
    if (arrival.sampled) {
      out.samples.push_back(MakeSample(arrival.nodes, r.logits));
    }
    return;
  }
  ++out.counts.failed;
  switch (r.status.code()) {
    case StatusCode::kResourceExhausted:
    case StatusCode::kUnavailable:
      ++out.counts.refused;
      break;
    case StatusCode::kDeadlineExceeded:
      ++out.counts.expired;
      break;
    default:
      break;
  }
}

/// Sends `arrivals` on schedule, reaping finished requests while idle,
/// then waits for every request; adds the results to `out`.
void RunSlice(infer::InferenceServer& server,
              const std::vector<Arrival>& arrivals, PhaseResult& out) {
  using std::chrono::duration;
  std::deque<InFlight> inflight;
  auto reap_ready = [&] {
    while (!inflight.empty() && inflight.front().future.ready()) {
      Harvest(arrivals[inflight.front().index], inflight.front(), out);
      inflight.pop_front();
    }
  };
  const infer::ServerStats before = server.Snapshot();
  const double depth_start = static_cast<double>(server.queue_depth());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    duration<double, std::milli>(arrivals[i].at_ms));
    // Reap and sleep while the next send is far off; spin the last
    // stretch so sends leave on time.
    while (true) {
      const double wait_ms = MsBetween(Clock::now(), due);
      if (wait_ms <= 0.0) break;
      if (wait_ms > 1.0) {
        reap_ready();
        const double left = MsBetween(Clock::now(), due);
        if (left > 1.0) {
          std::this_thread::sleep_for(duration<double, std::milli>(left - 0.5));
        }
      }
    }
    const Clock::time_point sent = Clock::now();
    InFlight f;
    f.index = i;
    f.send_lag_ms = MsBetween(due, sent);
    std::vector<uint32_t> nodes = arrivals[i].nodes;
    out.submit_us.push_back(1000.0 * Timed("bench.submit", [&] {
      f.future = server.Submit(std::move(nodes));
    }));
    out.lag_ms.push_back(f.send_lag_ms);
    inflight.push_back(std::move(f));
  }
  out.backlog += static_cast<double>(server.queue_depth()) - depth_start;
  while (!inflight.empty()) {
    Timed("bench.wait", [&] { inflight.front().future.Wait(); });
    Harvest(arrivals[inflight.front().index], inflight.front(), out);
    inflight.pop_front();
  }
  const infer::ServerStats after = server.Snapshot();
  out.batches += after.batches - before.batches;
  out.coalesced_requests +=
      after.coalesced_requests - before.coalesced_requests;
}

}  // namespace

void RunServe(const Args& args, Report& report, Profiler& prof) {
  const int setup_reps = args.tiny ? 2 : 15;
  const ModelConfig config = ServeConfig(args);
  infer::ServerOptions options;
  options.num_workers = kWorkers;
  options.queue_capacity = 256;
  options.seed = args.seed;

  // -- Setup, repeated: dataset, server start (one model per worker) and
  // warm-up until every worker has compiled its plan.
  std::unique_ptr<Dataset> data;
  std::unique_ptr<infer::InferenceServer> server;
  std::vector<Model*> worker_models;  // owned by the server
  std::vector<double> setup_s, load_ms, make_ms;
  bool warm = true;
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    data.reset();
    worker_models.clear();
    ReleaseCachedMemory();
    const Clock::time_point start = Clock::now();
    load_ms.push_back(Timed("bench.load_dataset", [&] {
      data = std::make_unique<Dataset>(
          LoadDataset("tencent", args.tiny ? 0.2 : 1.0, args.seed));
    }));
    const Dataset& d = *data;
    // The server calls the factory once per worker, in its constructor.
    server = std::make_unique<infer::InferenceServer>(
        [&](size_t) {
          std::unique_ptr<Model> model;
          const double ms = Timed("bench.make_model", [&] {
            model = MakeModel("lasagne-weighted", d, config);
          });
          make_ms.push_back(ms);
          worker_models.push_back(model.get());
          return model;
        },
        options);
    // Rounds of kWorkers requests, 1 ms apart so that each one finds a
    // different worker idle, until every worker has served twice.
    std::vector<int> served(kWorkers, 0);
    Rng warm_rng(args.seed);
    for (int round = 0; round < 100; ++round) {
      if (*std::min_element(served.begin(), served.end()) >= 2) break;
      std::vector<infer::ServeFuture> futures;
      for (size_t i = 0; i < kWorkers; ++i) {
        std::vector<uint32_t> nodes(kQueryNodes);
        for (uint32_t& id : nodes) {
          id = static_cast<uint32_t>(warm_rng.UniformInt(d.num_nodes()));
        }
        futures.push_back(server->Submit(std::move(nodes)));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (const infer::ServeFuture& f : futures) {
        const infer::ServeResult& r = f.Wait();
        if (r.worker >= 0) ++served[static_cast<size_t>(r.worker)];
      }
    }
    warm = *std::min_element(served.begin(), served.end()) >= 2;
    setup_s.push_back(MsSince(start) / 1000.0);
  }
  report.Check("all_workers_warm", warm);
  prof.Flush("setup");
  ReportSetup(setup_s, load_ms, make_ms, data->num_nodes(),
              data->graph.num_edges(), data->feature_dim(), data->num_classes,
              report);
  report.Info("workers", obs::JsonValue::Number(kWorkers));
  report.Info("query_nodes", obs::JsonValue::Number(kQueryNodes));
  report.Info("limit_ms", obs::JsonValue::Number(kLimitMs));
  obs::JsonValue rates = obs::JsonValue::Object();
  for (const Rate& rate : kRates) {
    rates.Set(rate.name, obs::JsonValue::Number(rate.per_s));
  }
  report.Info("rates_per_s", std::move(rates));

  // -- Measurement: the rates alternate in slices (low, high, low, ...)
  // so both series span the whole measured window. Each slice waits for
  // its last request, so the next one starts with an empty queue.
  const double slice_ms = args.seconds * 1000.0 / (2.0 * kSlicesPerRate);
  const BufferPool::Stats pool_before = BufferPool::Global().GetStats();
  const infer::ServerStats stats_before = server->Snapshot();
  std::vector<PhaseResult> results(std::size(kRates));
  for (size_t slice = 0; slice < kSlicesPerRate; ++slice) {
    for (size_t ri = 0; ri < std::size(kRates); ++ri) {
      const std::vector<Arrival> arrivals =
          Schedule(args.seed * 1000003 + ri * 101 + slice, kRates[ri].per_s,
                   slice_ms, data->num_nodes());
      RunSlice(*server, arrivals, results[ri]);
      results[ri].scheduled_ms += slice_ms;
      // Let workers close their last spans before the trace is read.
      if (prof.enabled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      prof.Flush(kRates[ri].name);
    }
  }
  BufferPool::Stats pool_traffic;
  AddPoolTraffic(pool_traffic, pool_before, BufferPool::Global().GetStats());
  const infer::ServerStats stats_after = server->Snapshot();

  // Peak memory of set-up and measurement; the checks below allocate
  // reference outputs a user would not.
  report.Metric("peak_rss_mb", PeakRssMb(), "MB", 1);

  Counts all;
  std::vector<std::string> phases;
  double total_requests = 0.0;
  std::vector<double> all_submit_us;
  for (size_t ri = 0; ri < results.size(); ++ri) {
    const PhaseResult& r = results[ri];
    const std::string name = kRates[ri].name;
    phases.push_back(name);
    report.Timing("serve_ms." + name + ".p50", "serve_ms." + name + ".tail",
                  Summarize(r.latency_ms));
    report.Phase("serve." + name, r.counts);
    report.Info("serve_ms." + name + ".max",
                obs::JsonValue::Number(
                    r.latency_ms.empty()
                        ? 0.0
                        : *std::max_element(r.latency_ms.begin(),
                                            r.latency_ms.end())));
    all.attempted += r.counts.attempted;
    all.succeeded += r.counts.succeeded;
    all.refused += r.counts.refused;
    all.expired += r.counts.expired;
    all.late += r.counts.late;
    all.failed += r.counts.failed;
    total_requests += static_cast<double>(r.counts.attempted);
    all_submit_us.insert(all_submit_us.end(), r.submit_us.begin(),
                         r.submit_us.end());
    if (name == "high") {
      report.Metric("goodput_qps.high",
                    r.ok_within_limit / (r.scheduled_ms / 1000.0), "1/s",
                    r.counts.attempted);
    }
    // A backlog that grows over the slices means the rate is above what
    // the server sustains and its latencies keep climbing.
    const bool growing =
        r.backlog >
        std::max(8.0, 0.01 * static_cast<double>(r.counts.attempted));
    report.Info("backlog_grows." + name, obs::JsonValue::Bool(growing));
    if (growing) {
      std::fprintf(stderr, "warning: backlog grew by %.0f at rate %s\n",
                   r.backlog, name.c_str());
    }
    if (prof.enabled()) {
      const Summary queue = Summarize(r.queue_ms);
      report.Layer("infer.server.queue_ms." + name + ".p50", queue.p50, "ms");
      report.Layer("infer.server.queue_ms." + name + ".tail", queue.tail, "ms");
      report.Layer("infer.server.compute_ms." + name + ".p50",
                   Median(r.compute_ms), "ms");
      report.Layer("infer.server.requests_per_batch." + name,
                   r.batches > 0 ? static_cast<double>(r.coalesced_requests) /
                                       static_cast<double>(r.batches)
                                 : 0.0,
                   "count");
      report.Layer("bench.gen_lag_ms." + name, Summarize(r.lag_ms).tail, "ms");
      report.Layer("bench.backlog." + name, r.backlog, "count");
    }
  }

  report.Metric("failed_frac",
                static_cast<double>(all.failed) /
                    static_cast<double>(all.attempted),
                "fraction", all.attempted);
  report.Phase("all", all);

  // -- Checks: accounting, drain, plans, served rows vs eager forward.
  server->Shutdown(infer::DrainMode::kDrain);
  const infer::ServerStats final_stats = server->Snapshot();
  report.Check("server_accounted", final_stats.Accounted());
  report.Check("queue_drained", server->queue_depth() == 0);
  bool planned = worker_models.size() == kWorkers;
  double overflow = 0.0;
  for (Model* m : worker_models) {
    const infer::ExecutionPlan* plan = m->execution_plan();
    planned = planned && m->plan_status().ok() && plan != nullptr;
    if (plan != nullptr) {
      overflow += static_cast<double>(plan->overflow_acquires());
    }
  }
  report.Check("plan_compiled.workers", planned);

  std::unique_ptr<Model> reference =
      MakeModel("lasagne-weighted", *data, config);
  Tensor full;
  {
    ag::NoGradGuard no_grad;
    Rng rng(args.seed);
    nn::ForwardContext ctx{/*training=*/false, &rng};
    full = reference->Forward(ctx)->value();
  }
  for (size_t ri = 0; ri < results.size(); ++ri) {
    PhaseResult& r = results[ri];
    if (args.perturb && !r.samples.empty()) PerturbFirstLogit(r.samples[0]);
    report.Check(std::string("served_equals_eager.") + kRates[ri].name,
                 AllRowsBitEqual(r.samples, full),
                 std::to_string(r.samples.size()) + " sampled requests");
  }
  prof.Flush("check");

  if (prof.enabled()) {
    KernelLayers(prof, phases, total_requests, "lasagne", report);
    ThreadPoolLayers(prof, phases, total_requests, args.threads, report);
    BufferPoolLayers(pool_traffic, total_requests, report);
    report.Layer("infer.server.refused",
                 static_cast<double>(stats_after.rejected_queue_full -
                                     stats_before.rejected_queue_full),
                 "count");
    report.Layer("infer.server.expired",
                 static_cast<double>(stats_after.expired_at_dequeue -
                                     stats_before.expired_at_dequeue),
                 "count");
    report.Layer("infer.server.failed",
                 static_cast<double>(stats_after.failed - stats_before.failed),
                 "count");
    report.Layer("infer.server.submit_us", Median(all_submit_us), "us");
    report.Layer("infer.plan.overflow_acquires", overflow, "count");
    PlanLayers(*reference, "lasagne", report);
  }
}

}  // namespace perfbench
