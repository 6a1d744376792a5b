// Resilient concurrent serving front end (infer::InferenceServer):
// bounded MPMC queue semantics, admission control, deadline enforcement
// at dequeue and at completion, batching-window coalescing determinism,
// drain/cancel shutdown, and fault-injected stalled / poisoned workers.
// Every suite here is named Serving* so the TSan pass in
// tools/run_sanitized_tests.sh picks it up.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_pool.h"
#include "common/fault_injection.h"
#include "common/mpmc_queue.h"
#include "data/registry.h"
#include "infer/server.h"
#include "infer/serving.h"
#include "models/model.h"
#include "obs/metrics.h"

namespace lasagne {
namespace {

using infer::DrainMode;
using infer::InferenceServer;
using infer::RequestOptions;
using infer::ServeFuture;
using infer::ServeResult;
using infer::ServerOptions;
using infer::ServerStats;
using infer::ServeStats;

ModelConfig SmallConfig(uint64_t seed = 3) {
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.dropout = 0.4f;
  config.seed = seed;
  return config;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": served rows differ";
}

/// Restores the process-global injector on scope exit so a failing
/// assertion cannot leak an armed fault into later tests.
class FaultInjectorGuard {
 public:
  FaultInjectorGuard() { FaultInjector::Global().Reset(); }
  ~FaultInjectorGuard() { FaultInjector::Global().Reset(); }
};

// -- Bounded MPMC queue ----------------------------------------------------

TEST(ServingQueueTest, TryPushRespectsCapacity) {
  BoundedMpmcQueue<int> queue(2);
  using Push = BoundedMpmcQueue<int>::PushResult;
  EXPECT_EQ(queue.TryPush(1), Push::kOk);
  EXPECT_EQ(queue.TryPush(2), Push::kOk);
  EXPECT_EQ(queue.TryPush(3), Push::kFull);
  EXPECT_EQ(queue.size(), 2u);
  int out = 0;
  EXPECT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out, 1);  // FIFO
  EXPECT_EQ(queue.TryPush(4), Push::kOk);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(ServingQueueTest, CloseDrainsBacklogThenReportsClosed) {
  BoundedMpmcQueue<int> queue(8);
  using Push = BoundedMpmcQueue<int>::PushResult;
  using Pop = BoundedMpmcQueue<int>::PopResult;
  ASSERT_EQ(queue.TryPush(10), Push::kOk);
  ASSERT_EQ(queue.TryPush(20), Push::kOk);
  queue.Close();
  EXPECT_EQ(queue.TryPush(30), Push::kClosed);
  int out = 0;
  EXPECT_EQ(queue.Pop(&out), Pop::kItem);
  EXPECT_EQ(out, 10);
  EXPECT_EQ(queue.Pop(&out), Pop::kItem);
  EXPECT_EQ(out, 20);
  EXPECT_EQ(queue.Pop(&out), Pop::kClosed);
  EXPECT_EQ(queue.PopFor(&out, std::chrono::milliseconds(5)),
            Pop::kClosed);
}

TEST(ServingQueueTest, PopForTimesOutOnEmptyOpenQueue) {
  BoundedMpmcQueue<int> queue(4);
  int out = 0;
  EXPECT_EQ(queue.PopFor(&out, std::chrono::milliseconds(1)),
            BoundedMpmcQueue<int>::PopResult::kTimeout);
}

TEST(ServingQueueTest, ConcurrentProducersConsumersAccountExactly) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 200;
  BoundedMpmcQueue<int> queue(8);
  std::atomic<int> popped{0};
  std::atomic<long long> sum{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      int item = 0;
      while (queue.Pop(&item) == BoundedMpmcQueue<int>::PopResult::kItem) {
        popped.fetch_add(1);
        sum.fetch_add(item);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        // Producers never block inside the queue; the retry loop is the
        // caller's policy (here: spin until admitted).
        while (queue.TryPush(value) !=
               BoundedMpmcQueue<int>::PushResult::kOk) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(),
            static_cast<long long>(total) * (total - 1) / 2);
  EXPECT_EQ(queue.size(), 0u);
}

// -- Bounded ServeStats ----------------------------------------------------

TEST(ServingStatsTest, ReservoirPercentilesAreExactForShortRuns) {
  ServeStats stats;
  for (int i = 100; i >= 1; --i) {
    stats.RecordLatency(static_cast<double>(i));
  }
  EXPECT_EQ(stats.requests, 100u);
  EXPECT_EQ(stats.latency_reservoir.size(), 100u);
  EXPECT_EQ(stats.LatencyPercentileMs(0.0), 1.0);
  EXPECT_EQ(stats.LatencyPercentileMs(0.5), 50.0);
  EXPECT_EQ(stats.LatencyPercentileMs(0.99), 99.0);
  EXPECT_EQ(stats.LatencyPercentileMs(1.0), 100.0);
  EXPECT_EQ(stats.min_latency_ms, 1.0);
  EXPECT_EQ(stats.max_latency_ms, 100.0);
}

TEST(ServingStatsTest, MemoryStaysBoundedBeyondReservoir) {
  ServeStats stats;
  const size_t total = ServeStats::kLatencyReservoir + 5000;
  for (size_t i = 0; i < total; ++i) {
    stats.RecordLatency(0.5 + static_cast<double>(i % 1000));
  }
  EXPECT_EQ(stats.requests, total);
  // The fix this test guards: the per-request record no longer grows
  // one double per request forever. The decimating reservoir halves
  // itself when full, so the size stays in (cap/2, cap].
  EXPECT_LE(stats.latency_reservoir.size(), ServeStats::kLatencyReservoir);
  EXPECT_GT(stats.latency_reservoir.size(), ServeStats::kLatencyReservoir / 2);
  uint64_t bucketed = 0;
  for (uint64_t c : stats.latency_buckets) bucketed += c;
  EXPECT_EQ(bucketed, total);
  // Bucket-estimated percentiles stay within the observed range and
  // monotone in q.
  const double p10 = stats.LatencyPercentileMs(0.10);
  const double p50 = stats.LatencyPercentileMs(0.50);
  const double p99 = stats.LatencyPercentileMs(0.99);
  EXPECT_GE(p10, stats.min_latency_ms);
  EXPECT_LE(p99, stats.max_latency_ms);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p99);
}

TEST(ServingStatsTest, MergeAggregatesWorkerBlocks) {
  ServeStats a;
  ServeStats b;
  for (double v : {1.0, 2.0, 3.0}) a.RecordLatency(v);
  for (double v : {10.0, 20.0}) b.RecordLatency(v);
  a.nodes_served = 30;
  b.nodes_served = 12;
  a.pool_hits = 5;
  b.pool_misses = 7;
  a.Merge(b);
  EXPECT_EQ(a.requests, 5u);
  EXPECT_EQ(a.nodes_served, 42u);
  EXPECT_EQ(a.pool_hits, 5u);
  EXPECT_EQ(a.pool_misses, 7u);
  EXPECT_EQ(a.min_latency_ms, 1.0);
  EXPECT_EQ(a.max_latency_ms, 20.0);
  EXPECT_EQ(a.latency_reservoir.size(), 5u);
  EXPECT_EQ(a.LatencyPercentileMs(1.0), 20.0);
  uint64_t bucketed = 0;
  for (uint64_t c : a.latency_buckets) bucketed += c;
  EXPECT_EQ(bucketed, 5u);
}

TEST(ServingStatsTest, QpsUsesWallClockWindowNotSummedLatency) {
  // Two workers, each serving ten 100 ms requests over the same 1 s
  // wall-clock window. True throughput is 20 requests / 1 s = 20 QPS;
  // the old requests / total_latency formula halved it to 10 because
  // concurrent workers' latencies sum while their wall clocks overlap.
  ServeStats a;
  ServeStats b;
  for (int i = 1; i <= 10; ++i) {
    a.RecordLatencyAt(100.0, /*end_steady_ms=*/i * 100.0);
    b.RecordLatencyAt(100.0, /*end_steady_ms=*/i * 100.0);
  }
  EXPECT_NEAR(a.Qps(), 10.0, 1e-9);  // one worker alone: 10 in 1 s
  a.Merge(b);
  EXPECT_EQ(a.requests, 20u);
  EXPECT_NEAR(a.Qps(), 20.0, 1e-9);  // not 10: overlap counts once
}

TEST(ServingStatsTest, QpsFallsBackToSummedLatencyWithoutTimestamps) {
  // Hand-built stats (no RecordLatencyAt timestamps, e.g. synthetic
  // fixtures) keep the old requests / total_latency estimate instead
  // of dividing by an empty window.
  ServeStats stats;
  stats.requests = 4;
  stats.total_latency_ms = 2000.0;
  EXPECT_NEAR(stats.Qps(), 2.0, 1e-9);
  EXPECT_EQ(ServeStats{}.Qps(), 0.0);
}

TEST(ServingStatsTest, MergeSubsamplesReservoirsProportionally) {
  // Both sides arrive with a full reservoir: a fast worker (1 ms) and a
  // slow one (100 ms) with equal request counts. The old merge appended
  // `other` only until the cap — already full, so the slow worker's
  // samples were dropped entirely and merged p90 read 1 ms. The
  // proportional merge gives each side ~half the cap.
  ServeStats fast;
  ServeStats slow;
  for (size_t i = 0; i < ServeStats::kLatencyReservoir; ++i) {
    fast.RecordLatency(1.0);
    slow.RecordLatency(100.0);
  }
  fast.Merge(slow);
  EXPECT_EQ(fast.latency_reservoir.size(), ServeStats::kLatencyReservoir);
  const size_t slow_samples = static_cast<size_t>(
      std::count(fast.latency_reservoir.begin(),
                 fast.latency_reservoir.end(), 100.0));
  EXPECT_EQ(slow_samples, ServeStats::kLatencyReservoir / 2);
  EXPECT_EQ(fast.LatencyPercentileMs(0.9), 100.0);
  EXPECT_EQ(fast.LatencyPercentileMs(0.1), 1.0);
}

TEST(ServingStatsTest, DecimatingReservoirStaysRepresentative) {
  // A 10k-request ramp overflows the reservoir; the deterministic
  // every-2nd decimation must keep the kept samples spread over the
  // whole run (not biased toward early arrivals), so percentile
  // estimates stay close to the exact values.
  ServeStats stats;
  const size_t total = 10000;
  for (size_t i = 0; i < total; ++i) {
    stats.RecordLatency(static_cast<double>(i) * 0.01);  // 0 .. 99.99
  }
  EXPECT_GT(stats.reservoir_stride, 1u);
  EXPECT_LE(stats.latency_reservoir.size(), ServeStats::kLatencyReservoir);
  EXPECT_NEAR(stats.LatencyPercentileMs(0.5), 50.0, 5.0);
  EXPECT_NEAR(stats.LatencyPercentileMs(0.9), 90.0, 5.0);
  EXPECT_NEAR(stats.LatencyPercentileMs(0.99), 99.0, 5.0);
}

// -- Admission control and deadlines ---------------------------------------

TEST(ServingServerTest, QueueFullRejectsWithRetryAfterHint) {
  Dataset data = LoadDataset("cora", 0.15, 51);
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 4;
  options.autostart = false;  // stage the queue deterministically
  InferenceServer server("gcn", data, SmallConfig(), options);

  std::vector<ServeFuture> accepted;
  for (uint32_t i = 0; i < 4; ++i) {
    accepted.push_back(server.Submit({i, i + 1}));
    EXPECT_FALSE(accepted.back().ready());
  }
  EXPECT_EQ(server.queue_depth(), 4u);

  for (int i = 0; i < 3; ++i) {
    ServeFuture rejected = server.Submit({0, 1});
    ASSERT_TRUE(rejected.ready());  // producer was never blocked
    const ServeResult& result = rejected.Wait();
    EXPECT_EQ(result.status.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(result.has_logits);
    EXPECT_GT(result.retry_after_ms, 0.0);
    EXPECT_NE(result.status.message().find("retry"), std::string::npos);
  }

  server.Shutdown(DrainMode::kDrain);
  for (ServeFuture& f : accepted) {
    EXPECT_TRUE(f.Wait().status.ok());
    EXPECT_TRUE(f.Wait().has_logits);
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, 7u);
  EXPECT_EQ(stats.accepted, 4u);
  EXPECT_EQ(stats.rejected_queue_full, 3u);
  EXPECT_EQ(stats.served_ok, 4u);
  EXPECT_TRUE(stats.Accounted());
}

TEST(ServingServerTest, InvalidRequestsRejectedAtAdmission) {
  Dataset data = LoadDataset("cora", 0.15, 52);
  ServerOptions options;
  options.num_workers = 1;
  InferenceServer server("gcn", data, SmallConfig(), options);

  ServeFuture empty = server.Submit({});
  ASSERT_TRUE(empty.ready());
  EXPECT_EQ(empty.Wait().status.code(), StatusCode::kInvalidArgument);

  const uint32_t out_of_range = static_cast<uint32_t>(data.num_nodes());
  ServeFuture bad = server.Submit({0, out_of_range});
  ASSERT_TRUE(bad.ready());
  EXPECT_EQ(bad.Wait().status.code(), StatusCode::kInvalidArgument);

  server.Shutdown(DrainMode::kDrain);
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.rejected_invalid, 2u);
  EXPECT_TRUE(stats.Accounted());
}

TEST(ServingServerTest, ExpiredRequestsRejectedAtDequeueWithoutForwardPass) {
  Dataset data = LoadDataset("cora", 0.15, 53);
  ServerOptions options;
  options.num_workers = 1;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);

  RequestOptions tight;
  tight.deadline_ms = 5.0;
  std::vector<ServeFuture> futures;
  for (uint32_t i = 0; i < 3; ++i) futures.push_back(server.Submit({i}, tight));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Shutdown(DrainMode::kDrain);  // starts the worker, which drains

  for (ServeFuture& f : futures) {
    const ServeResult& result = f.Wait();
    EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(result.has_logits);
    EXPECT_EQ(result.worker, -1);
    EXPECT_GE(result.queue_ms, 5.0);
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.expired_at_dequeue, 3u);
  EXPECT_EQ(stats.batches, 0u);  // no forward pass was spent on them
  EXPECT_EQ(stats.served_ok, 0u);
  EXPECT_TRUE(stats.Accounted());
}

TEST(ServingServerTest, LateCompletionIsDeliveredButFlagged) {
  FaultInjectorGuard injector_guard;
  Dataset data = LoadDataset("cora", 0.15, 54);
  ServerOptions options;
  options.num_workers = 1;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);

  // Dequeued well before the 150 ms deadline, but the injected 400 ms
  // stall makes completion late: the response is delivered with logits
  // and flagged DEADLINE_EXCEEDED.
  FaultInjector::Global().ArmServeStall(400.0, 1);
  RequestOptions request;
  request.deadline_ms = 150.0;
  ServeFuture future = server.Submit({1, 2, 3}, request);
  server.Start();
  const ServeResult& result = future.Wait();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.has_logits);
  EXPECT_EQ(result.logits.rows(), 3u);
  EXPECT_GE(result.total_ms, 150.0);
  server.Shutdown(DrainMode::kDrain);

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.late_at_completion, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_TRUE(stats.Accounted());
  EXPECT_EQ(FaultInjector::Global().serve_stalls_injected(), 1u);
}

// -- Cross-request batching ------------------------------------------------

TEST(ServingServerTest, CoalescedBatchMatchesPerRequestServingBitwise) {
  Dataset data = LoadDataset("cora", 0.15, 55);
  ServerOptions options;
  options.num_workers = 1;
  options.batch_window_ms = 50.0;
  options.max_batch_requests = 8;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);

  const std::vector<std::vector<uint32_t>> queries = {
      {0, 1, 2}, {7}, {3, 3, 4}, {100, 50}, {9, 8, 7, 6}};
  std::vector<ServeFuture> futures;
  for (const auto& q : queries) futures.push_back(server.Submit(q));
  server.Start();
  server.Shutdown(DrainMode::kDrain);

  // All five were queued before any worker ran, so they coalesce into
  // one forward pass.
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 5u);
  EXPECT_EQ(stats.served_ok, 5u);

  // Reference: per-request serving on a separately constructed,
  // identically seeded model. Coalescing must not change a single bit
  // of any served row.
  std::unique_ptr<Model> reference = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*reference);
  for (size_t i = 0; i < queries.size(); ++i) {
    const ServeResult& result = futures[i].Wait();
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.batch_requests, 5u);
    StatusOr<Tensor> expected = session.ServeBatch(queries[i]);
    ASSERT_TRUE(expected.ok());
    ExpectBitwiseEqual(expected.value(), result.logits,
                       "coalesced request " + std::to_string(i));
  }
}

TEST(ServingServerTest, SoftmaxOutputsAreRowDistributions) {
  Dataset data = LoadDataset("cora", 0.15, 56);
  ServerOptions options;
  options.num_workers = 1;
  options.softmax_outputs = true;
  InferenceServer server("gcn", data, SmallConfig(), options);
  ServeFuture future = server.Submit({0, 1, 2});
  const ServeResult& result = future.Wait();
  ASSERT_TRUE(result.status.ok());
  for (size_t i = 0; i < result.logits.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < result.logits.cols(); ++j) {
      EXPECT_GE(result.logits(i, j), 0.0f);
      sum += result.logits(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
  server.Shutdown(DrainMode::kDrain);
}

// -- Shutdown --------------------------------------------------------------

TEST(ServingServerTest, DrainShutdownServesEveryQueuedRequest) {
  Dataset data = LoadDataset("cora", 0.15, 57);
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 16;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);

  std::vector<ServeFuture> futures;
  for (uint32_t i = 0; i < 10; ++i) futures.push_back(server.Submit({i}));
  // Shutdown on a never-started server still starts workers to drain:
  // the outcome is deterministic, not dependent on who ran first.
  server.Shutdown(DrainMode::kDrain);

  for (ServeFuture& f : futures) {
    const ServeResult& result = f.Wait();
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
    EXPECT_TRUE(result.has_logits);
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.served_ok, 10u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_TRUE(stats.Accounted());
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(ServingServerTest, CancelShutdownResolvesQueuedWithoutForwardPass) {
  Dataset data = LoadDataset("cora", 0.15, 58);
  ServerOptions options;
  options.num_workers = 2;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);

  std::vector<ServeFuture> futures;
  for (uint32_t i = 0; i < 6; ++i) futures.push_back(server.Submit({i}));
  server.Shutdown(DrainMode::kCancelPending);

  for (ServeFuture& f : futures) {
    const ServeResult& result = f.Wait();
    EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
    EXPECT_FALSE(result.has_logits);
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.cancelled, 6u);
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_TRUE(stats.Accounted());
}

TEST(ServingServerTest, SubmitAfterShutdownIsUnavailable) {
  Dataset data = LoadDataset("cora", 0.15, 59);
  InferenceServer server("gcn", data, SmallConfig(), ServerOptions{});
  server.Shutdown(DrainMode::kDrain);
  ServeFuture future = server.Submit({0});
  ASSERT_TRUE(future.ready());
  EXPECT_EQ(future.Wait().status.code(), StatusCode::kUnavailable);
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.rejected_shutdown, 1u);
  EXPECT_TRUE(stats.Accounted());
}

// -- Fault-injected degradation --------------------------------------------

TEST(ServingFaultTest, StalledWorkerDegradesP99ButBlocksNothing) {
  FaultInjectorGuard injector_guard;
  Dataset data = LoadDataset("cora", 0.15, 60);
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 32;
  options.max_batch_requests = 1;  // one request per forward pass
  InferenceServer server("gcn", data, SmallConfig(), options);

  // Poison exactly one dequeue with a 250 ms stall. The victim's
  // latency degrades; the sibling worker keeps serving everyone else,
  // and nothing deadlocks or drops.
  FaultInjector::Global().ArmServeStall(250.0, 1);
  std::vector<ServeFuture> futures;
  for (uint32_t i = 0; i < 10; ++i) {
    futures.push_back(server.Submit({i, i + 1}));
  }
  size_t slow = 0;
  for (ServeFuture& f : futures) {
    const ServeResult& result = f.Wait();  // completing at all = no deadlock
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    if (result.total_ms >= 250.0) ++slow;
  }
  EXPECT_GE(slow, 1u);  // p100 visibly degraded by the stall
  server.Shutdown(DrainMode::kDrain);

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.served_ok, 10u);
  EXPECT_TRUE(stats.Accounted());
  EXPECT_GE(stats.serve.max_latency_ms, 250.0);
  EXPECT_EQ(FaultInjector::Global().serve_stalls_injected(), 1u);
}

TEST(ServingFaultTest, PoisonedWorkerFailsDeterministicallyAndOthersServe) {
  FaultInjectorGuard injector_guard;
  Dataset data = LoadDataset("cora", 0.15, 61);
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch_requests = 1;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);

  // Single worker + FIFO queue + one-request batches: exactly the
  // first two dequeues fail, deterministically.
  FaultInjector::Global().ArmServeFailure(/*worker=*/0, /*count=*/2);
  std::vector<ServeFuture> futures;
  for (uint32_t i = 0; i < 5; ++i) futures.push_back(server.Submit({i}));
  server.Shutdown(DrainMode::kDrain);

  for (size_t i = 0; i < futures.size(); ++i) {
    const ServeResult& result = futures[i].Wait();
    if (i < 2) {
      EXPECT_EQ(result.status.code(), StatusCode::kInternal);
      EXPECT_FALSE(result.has_logits);
    } else {
      EXPECT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_TRUE(result.has_logits);
    }
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.served_ok, 3u);
  EXPECT_TRUE(stats.Accounted());
  EXPECT_EQ(FaultInjector::Global().serve_failures_injected(), 2u);
}

TEST(ServingFaultTest, PermanentlyPoisonedWorkerNeverCorruptsSiblings) {
  FaultInjectorGuard injector_guard;
  Dataset data = LoadDataset("cora", 0.15, 62);
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.max_batch_requests = 1;
  InferenceServer server("gcn", data, SmallConfig(), options);

  // Worker 0 fails every batch it dequeues for the whole test.
  FaultInjector::Global().ArmServeFailure(/*worker=*/0, /*count=*/1 << 20);
  const std::vector<uint32_t> query = {5, 6, 7};
  std::vector<ServeFuture> futures;
  for (int i = 0; i < 24; ++i) futures.push_back(server.Submit(query));

  std::unique_ptr<Model> reference = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*reference);
  StatusOr<Tensor> expected = session.ServeBatch(query);
  ASSERT_TRUE(expected.ok());

  size_t ok = 0;
  size_t failed = 0;
  for (ServeFuture& f : futures) {
    const ServeResult& result = f.Wait();
    if (result.status.ok()) {
      ++ok;
      EXPECT_NE(result.worker, 0);  // only the healthy sibling serves
      ExpectBitwiseEqual(expected.value(), result.logits,
                         "request served next to a poisoned worker");
    } else {
      ++failed;
      EXPECT_EQ(result.status.code(), StatusCode::kInternal);
      EXPECT_EQ(result.worker, 0);
    }
  }
  EXPECT_EQ(ok + failed, 24u);  // exactly one terminal outcome each
  server.Shutdown(DrainMode::kDrain);
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.served_ok + stats.failed, 24u);
  EXPECT_TRUE(stats.Accounted());
}

TEST(ServingFaultInjectorTest, ArmAndConsumeAreThreadSafe) {
  FaultInjectorGuard injector_guard;
  constexpr int kStalls = 300;
  FaultInjector::Global().ArmServeStall(1.0, kStalls);
  FaultInjector::Global().ArmServeFailure(/*worker=*/1, /*count=*/50);
  EXPECT_TRUE(FaultInjector::Global().AnyArmed());

  std::atomic<int> stalls_consumed{0};
  std::atomic<int> failures_consumed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      double stall_ms = 0.0;
      for (int i = 0; i < 200; ++i) {
        if (FaultInjector::Global().ConsumeServeStall(&stall_ms)) {
          stalls_consumed.fetch_add(1);
        }
        // Worker index t: only t == 1 may consume failures.
        if (FaultInjector::Global().ConsumeServeFailure(t)) {
          failures_consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(stalls_consumed.load(), kStalls);
  EXPECT_EQ(failures_consumed.load(), 50);
  EXPECT_EQ(FaultInjector::Global().serve_stalls_injected(),
            static_cast<size_t>(kStalls));
  EXPECT_EQ(FaultInjector::Global().serve_failures_injected(), 50u);
  EXPECT_FALSE(FaultInjector::Global().AnyArmed());
}

// -- Overload: the acceptance invariant ------------------------------------

TEST(ServingServerTest, OverloadEveryRequestGetsExactlyOneTerminalOutcome) {
  Dataset data = LoadDataset("cora", 0.15, 63);
  ServerOptions options;
  options.num_workers = 2;
  options.queue_capacity = 8;  // far below what producers offer
  options.batch_window_ms = 0.2;
  options.max_batch_requests = 4;
  InferenceServer server("gcn", data, SmallConfig(), options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 30;
  std::vector<std::vector<ServeFuture>> futures(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kPerProducer);
      Rng rng(100 + static_cast<uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        RequestOptions request;
        // Mix of no deadline, comfortable, and nearly-hopeless.
        if (i % 3 == 1) request.deadline_ms = 50.0;
        if (i % 3 == 2) request.deadline_ms = 0.5;
        std::vector<uint32_t> nodes(4);
        for (uint32_t& id : nodes) {
          id = static_cast<uint32_t>(rng.UniformInt(data.num_nodes()));
        }
        futures[p].push_back(server.Submit(std::move(nodes), request));
      }
    });
  }
  for (auto& t : producers) t.join();
  server.Shutdown(DrainMode::kDrain);

  uint64_t ok = 0, rejected = 0, deadline = 0, other = 0;
  for (auto& per_producer : futures) {
    for (ServeFuture& f : per_producer) {
      ASSERT_TRUE(f.ready());  // shutdown resolved everything
      const ServeResult& result = f.Wait();
      switch (result.status.code()) {
        case StatusCode::kOk:
          EXPECT_TRUE(result.has_logits);
          ++ok;
          break;
        case StatusCode::kResourceExhausted:
          EXPECT_FALSE(result.has_logits);
          EXPECT_GT(result.retry_after_ms, 0.0);
          ++rejected;
          break;
        case StatusCode::kDeadlineExceeded:
          ++deadline;
          break;
        default:
          ++other;
          break;
      }
    }
  }
  EXPECT_EQ(other, 0u);
  const uint64_t total =
      static_cast<uint64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(ok + rejected + deadline, total);  // zero silent drops

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.submitted, total);
  EXPECT_TRUE(stats.Accounted());
  EXPECT_EQ(stats.served_ok, ok);
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_EQ(stats.expired_at_dequeue + stats.late_at_completion, deadline);
  EXPECT_EQ(server.queue_depth(), 0u);
}

// -- Observability ---------------------------------------------------------

TEST(ServingServerTest, QueueDepthGaugeAndServeCountersExported) {
  Dataset data = LoadDataset("cora", 0.15, 64);
  obs::EnableMetrics();
  obs::Counter& submitted =
      obs::MetricsRegistry::Global().GetCounter("serve.submitted");
  obs::Counter& served =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  obs::Counter& rejected =
      obs::MetricsRegistry::Global().GetCounter("serve.rejected");
  const uint64_t submitted_before = submitted.Value();
  const uint64_t served_before = served.Value();
  const uint64_t rejected_before = rejected.Value();

  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.autostart = false;
  InferenceServer server("gcn", data, SmallConfig(), options);
  std::vector<ServeFuture> futures;
  for (uint32_t i = 0; i < 2; ++i) futures.push_back(server.Submit({i}));
  ServeFuture reject = server.Submit({0});
  EXPECT_TRUE(reject.ready());
  obs::Gauge& depth =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  EXPECT_EQ(depth.Value(), 2.0);
  server.Shutdown(DrainMode::kDrain);
  obs::DisableMetrics();

  EXPECT_EQ(submitted.Value() - submitted_before, 3u);
  EXPECT_EQ(served.Value() - served_before, 2u);
  EXPECT_EQ(rejected.Value() - rejected_before, 1u);
  EXPECT_EQ(depth.Value(), 0.0);
}

// -- Buffer pool on the serving path ----------------------------------------
// docs/SERVING.md "Buffer pool": once warm, serving reuses its buffers.
// Skipped where the pool caches nothing (ASan builds). Test names are
// stable IDs kept from the earlier sharded pool.

TEST(ServingPoolShardingTest, WarmSessionServesWithoutDepotExchanges) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  // Single-threaded InferenceSession: after one warmup request every
  // pool touch is a freelist hit — zero misses.
  Dataset data = LoadDataset("cora", 0.15, 71);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*model);
  ASSERT_TRUE(session.ServeBatch({0, 1, 2}).ok());  // warmup

  BufferPool& pool = BufferPool::Global();
  const BufferPool::Stats before = pool.GetStats();
  for (int i = 0; i < 50; ++i) {
    StatusOr<Tensor> result = session.ServeBatch({0, 1, 2});
    ASSERT_TRUE(result.ok());
  }
  const BufferPool::Stats after = pool.GetStats();
  EXPECT_EQ(after.misses - before.misses, 0u);
}

TEST(ServingPoolShardingTest, SteadyStateDepotExchangesAmortizedBelowPerRequest) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  // Multi-worker server: the logits tensor is acquired on a worker
  // thread and released on the caller's thread, so every request moves
  // a chunk between threads through the shared freelists.
  Dataset data = LoadDataset("cora", 0.15, 72);
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch_requests = 1;  // no coalescing: every request a batch
  options.batch_window_ms = 0.0;
  InferenceServer server("gcn", data, SmallConfig(), options);

  // Bounded in-flight window: a real client paces submissions, and an
  // unbounded flood would hold every logits tensor live at once —
  // measuring queue overflow, not steady-state reuse.
  auto serve_round = [&](int requests) {
    constexpr int kWindow = 8;
    std::vector<ServeFuture> futures;
    for (int i = 0; i < requests; ++i) {
      futures.push_back(server.Submit({static_cast<uint32_t>(i % 64)}));
      if (static_cast<int>(futures.size()) == kWindow) {
        for (ServeFuture& f : futures) {
          ASSERT_TRUE(f.Wait().status.ok());
          // The logits tensor is released here, on this thread —
          // exercising the cross-thread release path every request.
        }
        futures.clear();
      }
    }
    for (ServeFuture& f : futures) ASSERT_TRUE(f.Wait().status.ok());
  };

  serve_round(32);  // warmup: populates the freelists
  BufferPool& pool = BufferPool::Global();
  const BufferPool::Stats before = pool.GetStats();
  constexpr int kSteady = 200;
  serve_round(kSteady);
  const BufferPool::Stats after = pool.GetStats();
  // A handful of misses are legitimate while the in-flight window
  // shifts; anything near one-per-request means reuse is broken.
  EXPECT_LE(after.misses - before.misses, static_cast<uint64_t>(kSteady) / 10);
  server.Shutdown(DrainMode::kDrain);
}

}  // namespace
}  // namespace lasagne
