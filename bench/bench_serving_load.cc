// Closed-loop load benchmark for the resilient concurrent serving
// front end (infer::InferenceServer, docs/SERVING.md).
//
// A fixed set of producer threads drives the server in closed loop:
// each producer submits a burst of requests, waits for every future to
// resolve, and repeats. Rows sweep the worker count (1/2/4) and add a
// fault-injected run (periodic worker stalls) to show graceful
// degradation: p99 rises, but every request still gets exactly one
// terminal outcome and shutdown drains deterministically.
//
// Each row runs a warmup phase first (pool freelists and workspaces
// fill), then measures a steady phase: QPS is computed over the steady
// window only, and the buffer-pool column reports the steady-phase miss
// delta that the pool gate keeps marginal (docs/SERVING.md "Buffer
// pool").
//
// Reported per row: sustained QPS, p50/p99 latency, reject rate
// (queue-full admission control), deadline-miss rate, pool columns,
// and the two robustness invariants the regression gate enforces
// strictly — accounting_ok (submitted == terminal outcomes; zero
// silent drops) and drained (empty queue after shutdown, no deadlocked
// workers).
//
// Writes BENCH_serving.json (override with --json-out PATH);
// tools/check_bench_regression.py --serving-* compares a fresh run
// against the committed baseline and --pool-* gates the steady-phase
// pool misses. QPS / p99 get a generous tolerance (wall-clock dependent);
// the invariants get none.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bench_util.h"
#include "common/buffer_pool.h"
#include "common/fault_injection.h"
#include "data/registry.h"
#include "infer/server.h"
#include "models/model.h"
#include "obs/json.h"
#include "tensor/rng.h"

namespace lasagne {
namespace {

constexpr size_t kProducers = 4;
constexpr size_t kBurst = 8;            // outstanding requests per producer
constexpr size_t kNodesPerRequest = 16;
constexpr double kDeadlineMs = 200.0;

struct LoadResult {
  std::string label;
  size_t workers = 0;
  bool faulted = false;
  uint64_t submitted = 0;
  uint64_t served_ok = 0;
  uint64_t rejected = 0;
  uint64_t deadline_missed = 0;  // expired at dequeue + late at completion
  uint64_t failed = 0;
  uint64_t batches = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double reject_rate = 0.0;
  double miss_rate = 0.0;
  bool accounting_ok = false;
  bool drained = false;
  // Steady-phase pool deltas (warmup excluded).
  uint64_t steady_requests = 0;
  uint64_t steady_pool_misses = 0;
};

LoadResult RunLoad(const Dataset& data, size_t workers, size_t rounds,
                   bool faulted) {
  LoadResult out;
  out.label = std::to_string(workers) + (faulted ? "w+stall" : "w");
  out.workers = workers;
  out.faulted = faulted;

  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 32;
  config.seed = 3;

  infer::ServerOptions options;
  options.num_workers = workers;
  options.queue_capacity = 24;  // < producers * burst: overload is real
  options.batch_window_ms = 0.5;
  options.max_batch_requests = 8;
  options.default_deadline_ms = kDeadlineMs;
  infer::InferenceServer server("gcn", data, config, options);

  if (faulted) {
    // One 25 ms stall per round, landing on whichever worker dequeues
    // next: the degradation the resilience tests promise to contain.
    FaultInjector::Global().ArmServeStall(25.0,
                                          static_cast<int>(rounds));
  }

  // One set of persistent producers runs warmup rounds, pauses at a
  // barrier while the main thread snapshots the pool and server
  // counters, then continues into the measured steady phase. Keeping
  // the same threads across the boundary is the point: the steady
  // window measures reuse, not the one-time fill a fresh thread pays.
  const size_t warmup_rounds = std::max<size_t>(2, rounds / 4);
  std::mutex barrier_mu;
  std::condition_variable barrier_cv;
  size_t warmed = 0;
  bool steady_go = false;
  infer::ServerStats warm_stats;
  BufferPool::Stats pool_before;
  std::chrono::steady_clock::time_point steady_start;

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(41 + p);
      std::vector<infer::ServeFuture> burst;
      burst.reserve(kBurst);
      auto run_rounds = [&](size_t phase_rounds) {
        for (size_t round = 0; round < phase_rounds; ++round) {
          burst.clear();
          for (size_t i = 0; i < kBurst; ++i) {
            std::vector<uint32_t> nodes(kNodesPerRequest);
            for (uint32_t& id : nodes) {
              id = static_cast<uint32_t>(rng.UniformInt(data.num_nodes()));
            }
            burst.push_back(server.Submit(std::move(nodes)));
          }
          // Closed loop: the next burst waits for this one.
          for (infer::ServeFuture& f : burst) (void)f.Wait();
        }
      };
      run_rounds(warmup_rounds);
      {
        std::unique_lock<std::mutex> lock(barrier_mu);
        if (++warmed == kProducers) barrier_cv.notify_all();
        barrier_cv.wait(lock, [&] { return steady_go; });
      }
      run_rounds(rounds);
    });
  }
  {
    // All producers idle at the barrier, their in-flight bursts
    // resolved: the counters are quiescent, so this snapshot cleanly
    // separates warmup from the steady phase.
    std::unique_lock<std::mutex> lock(barrier_mu);
    barrier_cv.wait(lock, [&] { return warmed == kProducers; });
    warm_stats = server.Snapshot();
    pool_before = BufferPool::Global().GetStats();
    steady_start = std::chrono::steady_clock::now();
    steady_go = true;
    barrier_cv.notify_all();
  }
  for (std::thread& t : producers) t.join();
  const double steady_wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - steady_start)
          .count();
  const BufferPool::Stats pool_after = BufferPool::Global().GetStats();
  server.Shutdown(infer::DrainMode::kDrain);
  if (faulted) FaultInjector::Global().Reset();

  const infer::ServerStats stats = server.Snapshot();
  out.submitted = stats.submitted;
  out.served_ok = stats.served_ok;
  out.rejected = stats.rejected_queue_full;
  out.deadline_missed = stats.expired_at_dequeue + stats.late_at_completion;
  out.failed = stats.failed;
  out.batches = stats.batches;
  out.steady_requests = stats.served_ok - warm_stats.served_ok;
  out.qps = steady_wall_ms > 0.0
                ? static_cast<double>(out.steady_requests) /
                      (steady_wall_ms / 1000.0)
                : 0.0;
  out.p50_ms = stats.serve.LatencyPercentileMs(0.5);
  out.p99_ms = stats.serve.LatencyPercentileMs(0.99);
  out.max_ms = stats.serve.max_latency_ms;
  const double submitted = static_cast<double>(stats.submitted);
  out.reject_rate =
      submitted > 0.0 ? static_cast<double>(out.rejected) / submitted : 0.0;
  out.miss_rate = submitted > 0.0
                      ? static_cast<double>(out.deadline_missed) / submitted
                      : 0.0;
  out.accounting_ok = stats.Accounted();
  out.drained = server.queue_depth() == 0;
  out.steady_pool_misses = pool_after.misses - pool_before.misses;
  return out;
}

void WriteJson(const std::string& path, size_t threads, double scale,
               size_t rounds, const std::vector<LoadResult>& results) {
  obs::JsonValue doc = obs::JsonValue::Object();
  doc.Set("benchmark",
          obs::JsonValue::String(
              "bench_serving_load: closed-loop concurrent serving, " +
              std::to_string(kProducers) + " producers x burst " +
              std::to_string(kBurst) + " x " + std::to_string(rounds) +
              " steady rounds (+warmup), deadline " +
              std::to_string(kDeadlineMs) + " ms"));
  char date[16];
  std::time_t now = std::time(nullptr);
  std::tm tm_now{};
  localtime_r(&now, &tm_now);
  std::strftime(date, sizeof(date), "%Y-%m-%d", &tm_now);
  doc.Set("date", obs::JsonValue::String(date));
  doc.Set("dataset", obs::JsonValue::String("cora"));
  doc.Set("scale", obs::JsonValue::Number(scale));
  doc.Set("threads", obs::JsonValue::Number(static_cast<double>(threads)));
  doc.Set("hw_cores",
          obs::JsonValue::Number(static_cast<double>(
              std::max(1u, std::thread::hardware_concurrency()))));
  doc.Set("machine_note",
          obs::JsonValue::String(
              "Recorded in a single-core container: the 1/2/4-worker "
              "sweep measures scheduling overhead there, not parallel "
              "speedup, and QPS/p99 are wall-clock dependent (gated "
              "generously; the 4w>=1w scaling gate only applies when "
              "hw_cores >= 4). The robustness invariants — "
              "accounting_ok, drained, failed==0 on unfaulted rows — "
              "and the steady-phase pool misses are hardware "
              "independent and gated strictly."));
  obs::JsonValue arr = obs::JsonValue::Array();
  for (const LoadResult& r : results) {
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("config", obs::JsonValue::String(r.label));
    row.Set("workers",
            obs::JsonValue::Number(static_cast<double>(r.workers)));
    row.Set("faulted", obs::JsonValue::Bool(r.faulted));
    row.Set("submitted",
            obs::JsonValue::Number(static_cast<double>(r.submitted)));
    row.Set("served_ok",
            obs::JsonValue::Number(static_cast<double>(r.served_ok)));
    row.Set("rejected",
            obs::JsonValue::Number(static_cast<double>(r.rejected)));
    row.Set("deadline_missed",
            obs::JsonValue::Number(static_cast<double>(r.deadline_missed)));
    row.Set("failed", obs::JsonValue::Number(static_cast<double>(r.failed)));
    row.Set("batches",
            obs::JsonValue::Number(static_cast<double>(r.batches)));
    row.Set("qps", obs::JsonValue::Number(r.qps));
    row.Set("p50_ms", obs::JsonValue::Number(r.p50_ms));
    row.Set("p99_ms", obs::JsonValue::Number(r.p99_ms));
    row.Set("max_ms", obs::JsonValue::Number(r.max_ms));
    row.Set("reject_rate", obs::JsonValue::Number(r.reject_rate));
    row.Set("deadline_miss_rate", obs::JsonValue::Number(r.miss_rate));
    row.Set("accounting_ok", obs::JsonValue::Bool(r.accounting_ok));
    row.Set("drained", obs::JsonValue::Bool(r.drained));
    row.Set("steady_requests",
            obs::JsonValue::Number(static_cast<double>(r.steady_requests)));
    row.Set("steady_pool_misses",
            obs::JsonValue::Number(
                static_cast<double>(r.steady_pool_misses)));
    arr.Append(std::move(row));
  }
  doc.Set("results", std::move(arr));
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  std::printf("\nwrote %s\n", path.c_str());
}

void Run(const std::string& json_out, size_t threads) {
  bench::PrintBanner(
      "Concurrent serving: closed-loop load, overload and faults",
      "serving extension (no paper figure)");
  const double scale = bench::BenchScale();
  const size_t rounds =
      std::max<size_t>(3, static_cast<size_t>(12 * scale));
  Dataset data = LoadDataset("cora", 0.7 * scale, /*seed=*/1);
  std::printf("graph: %zu nodes, %zu edges; %zu producers x burst %zu x "
              "%zu steady rounds (+%zu warmup), %zu-node requests, "
              "deadline %.0f ms, %zu threads\n",
              data.num_nodes(), data.graph.num_edges(), kProducers, kBurst,
              rounds, std::max<size_t>(2, rounds / 4), kNodesPerRequest,
              kDeadlineMs, threads);

  std::vector<LoadResult> results;
  bench::TablePrinter table({10, 9, 9, 9, 8, 8, 11, 7, 7});
  table.Row({"config", "QPS", "p50 ms", "p99 ms", "rej%", "miss%",
             "pool miss", "acct", "drain"});
  table.Rule();
  struct RowSpec {
    size_t workers;
    bool faulted;
  };
  const RowSpec specs[] = {{1, false}, {2, false}, {4, false}, {2, true}};
  for (const RowSpec& spec : specs) {
    LoadResult r = RunLoad(data, spec.workers, rounds, spec.faulted);
    char buf[5][32];
    std::snprintf(buf[0], sizeof(buf[0]), "%.1f", r.qps);
    std::snprintf(buf[1], sizeof(buf[1]), "%.2f", r.p50_ms);
    std::snprintf(buf[2], sizeof(buf[2]), "%.2f", r.p99_ms);
    std::snprintf(buf[3], sizeof(buf[3]), "%.1f", 100.0 * r.reject_rate);
    std::snprintf(buf[4], sizeof(buf[4]), "%.1f", 100.0 * r.miss_rate);
    table.Row({r.label, buf[0], buf[1], buf[2], buf[3], buf[4],
               std::to_string(r.steady_pool_misses),
               r.accounting_ok ? "ok" : "FAIL", r.drained ? "ok" : "FAIL"});
    std::fflush(stdout);
    results.push_back(r);
  }
  table.Rule();
  std::printf(
      "\nInvariants: every submitted request gets exactly one terminal\n"
      "outcome (acct) and shutdown drains the queue deterministically\n"
      "(drain) — on every row, including the fault-injected one. The\n"
      "pool miss column covers the steady phase only (see\n"
      "docs/SERVING.md \"Buffer pool\"). Gated by\n"
      "tools/check_bench_regression.py --serving-* and --pool-*.\n");
  WriteJson(json_out, threads, scale, rounds, results);
}

}  // namespace
}  // namespace lasagne

int main(int argc, char** argv) {
  const size_t threads = lasagne::bench::ApplyThreadsFlag(argc, argv);
  lasagne::bench::ApplyObservabilityFlags(argc, argv);
  std::string json_out = "BENCH_serving.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json-out") json_out = argv[i + 1];
  }
  lasagne::Run(json_out, threads);
  return 0;
}
