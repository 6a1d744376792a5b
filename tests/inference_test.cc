// Forward-only inference path: NoGradGuard tape suppression, bitwise
// parity between Model::Predict and the tape-building Forward, and the
// pooled batched serving driver (infer::InferenceSession).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/inference.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "data/registry.h"
#include "infer/serving.h"
#include "models/model.h"
#include "obs/metrics.h"
#include "tensor/rng.h"

namespace lasagne {
namespace {

class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetNumThreads(0); }
};

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what << ": inference-mode values differ from the tape-building "
                 "forward";
}

ModelConfig SmallConfig(uint64_t seed = 3) {
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.dropout = 0.4f;
  config.seed = seed;
  return config;
}

// -- NoGradGuard / value-only nodes ----------------------------------------

TEST(InferenceModeTest, GuardTogglesAndNests) {
  EXPECT_FALSE(ag::InferenceModeEnabled());
  {
    ag::NoGradGuard outer;
    EXPECT_TRUE(ag::InferenceModeEnabled());
    {
      ag::NoGradGuard inner;
      EXPECT_TRUE(ag::InferenceModeEnabled());
    }
    EXPECT_TRUE(ag::InferenceModeEnabled());
  }
  EXPECT_FALSE(ag::InferenceModeEnabled());
}

TEST(InferenceModeTest, OpsUnderGuardBuildValueOnlyNodes) {
  Rng rng(1);
  ag::Variable w = ag::MakeParameter(Tensor::Normal(4, 4, 0.0f, 1.0f, rng));
  ag::Variable x = ag::MakeConstant(Tensor::Normal(4, 4, 0.0f, 1.0f, rng));

  ag::Variable tape = ag::Relu(ag::MatMul(x, w));
  EXPECT_TRUE(tape->requires_grad());
  EXPECT_TRUE(tape->grad_enabled());
  EXPECT_FALSE(tape->parents().empty());

  ag::NoGradGuard guard;
  ag::Variable value_only = ag::Relu(ag::MatMul(x, w));
  EXPECT_FALSE(value_only->requires_grad());
  EXPECT_FALSE(value_only->grad_enabled());
  EXPECT_TRUE(value_only->parents().empty());
  ExpectBitwiseEqual(tape->value(), value_only->value(), "relu(x @ w)");
}

TEST(InferenceModeTest, TapeStatsStayZeroUnderGuard) {
  Rng rng(2);
  ag::Variable w = ag::MakeParameter(Tensor::Normal(8, 8, 0.0f, 1.0f, rng));
  ag::Variable x = ag::MakeConstant(Tensor::Normal(8, 8, 0.0f, 1.0f, rng));
  auto chain = [&] {
    return ag::Sum(ag::Relu(ag::MatMul(x, ag::Add(w, w))));
  };

  ag::ResetTapeStats();
  {
    ag::NoGradGuard guard;
    (void)chain();
  }
  ag::TapeStats inference = ag::GetTapeStats();
  EXPECT_EQ(inference.nodes_created, 0u);
  EXPECT_EQ(inference.closures_retained, 0u);
  EXPECT_EQ(inference.parent_links, 0u);

  ag::ResetTapeStats();
  (void)chain();
  ag::TapeStats training = ag::GetTapeStats();
  EXPECT_GT(training.nodes_created, 0u);
  EXPECT_GT(training.closures_retained, 0u);
  EXPECT_GT(training.parent_links, 0u);
}

TEST(InferenceModeTest, BackwardInsideGuardAborts) {
  Rng rng(3);
  ag::Variable w = ag::MakeParameter(Tensor::Normal(2, 2, 0.0f, 1.0f, rng));
  ag::Variable loss = ag::Sum(w);
  ag::NoGradGuard guard;
  EXPECT_DEATH(ag::Backward(loss), "NoGradGuard");
}

TEST(InferenceModeTest, BackwardOnValueOnlyNodeAborts) {
  Rng rng(4);
  ag::Variable w = ag::MakeParameter(Tensor::Normal(2, 2, 0.0f, 1.0f, rng));
  ag::Variable loss;
  {
    ag::NoGradGuard guard;
    loss = ag::Sum(w);
  }
  EXPECT_DEATH(ag::Backward(loss), "value-only");
}

// -- Model::Predict bitwise parity -----------------------------------------

TEST(InferenceTest, PredictMatchesForwardBitwiseAcrossModelsAndThreads) {
  ThreadCountGuard guard;
  Dataset data = LoadDataset("cora", 0.3, 17);
  // One representative per architecture family: plain spectral conv,
  // attention (edge ops), propagation, and the paper's node-aware
  // multi-layer model with GC-FM units.
  const std::vector<std::string> names = {"gcn", "gat", "appnp",
                                          "lasagne-weighted"};
  for (const std::string& name : names) {
    std::unique_ptr<Model> model = MakeModel(name, data, SmallConfig());
    for (size_t threads : {1u, 2u, 8u}) {
      SetNumThreads(threads);
      Rng fwd_rng(9);
      nn::ForwardContext fwd_ctx{/*training=*/false, &fwd_rng};
      Tensor reference = model->Forward(fwd_ctx)->value();

      Rng rng(9);
      nn::ForwardContext ctx{/*training=*/false, &rng};
      ag::ResetTapeStats();
      Tensor predicted = model->Predict(ctx);
      ag::TapeStats stats = ag::GetTapeStats();
      EXPECT_EQ(stats.nodes_created, 0u) << name;
      EXPECT_EQ(stats.closures_retained, 0u) << name;
      EXPECT_EQ(stats.parent_links, 0u) << name;
      ExpectBitwiseEqual(reference, predicted,
                         name + " @ " + std::to_string(threads) +
                             " threads");
    }
  }
}

TEST(InferenceTest, PredictUnaffectedByObservability) {
  ThreadCountGuard guard;
  Dataset data = LoadDataset("cora", 0.25, 19);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  SetNumThreads(2);

  obs::DisableMetrics();
  Rng rng_plain(5);
  nn::ForwardContext plain_ctx{/*training=*/false, &rng_plain};
  Tensor plain = model->Predict(plain_ctx);

  obs::EnableMetrics();
  Rng rng_obs(5);
  nn::ForwardContext obs_ctx{/*training=*/false, &rng_obs};
  Tensor instrumented = model->Predict(obs_ctx);
  obs::DisableMetrics();

  ExpectBitwiseEqual(plain, instrumented, "predict with metrics enabled");
}

// -- InferenceSession ------------------------------------------------------

TEST(InferenceServingTest, ServeBatchGathersForwardRows) {
  Dataset data = LoadDataset("cora", 0.25, 23);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());

  Rng rng(7);
  nn::ForwardContext ctx{/*training=*/false, &rng};
  Tensor full = model->Forward(ctx)->value();

  infer::InferenceSession session(*model);
  const std::vector<uint32_t> batch = {5, 0, 5, 120};  // duplicates ok
  StatusOr<Tensor> result = session.ServeBatch(batch);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Tensor& out = result.value();
  ASSERT_EQ(out.rows(), batch.size());
  ASSERT_EQ(out.cols(), full.cols());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(out.RowPtr(i), full.RowPtr(batch[i]),
                             full.cols() * sizeof(float)))
        << "row " << i;
  }
}

TEST(InferenceServingTest, InvalidBatchesAreRejected) {
  Dataset data = LoadDataset("cora", 0.15, 29);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*model);

  StatusOr<Tensor> empty = session.ServeBatch({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  const uint32_t out_of_range =
      static_cast<uint32_t>(model->data().num_nodes());
  StatusOr<Tensor> bad = session.ServeBatch({0, out_of_range});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // Failed requests are not counted.
  EXPECT_EQ(session.stats().requests, 0u);
}

TEST(InferenceServingTest, SoftmaxOutputsAreRowDistributions) {
  Dataset data = LoadDataset("cora", 0.15, 31);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  infer::ServeOptions options;
  options.softmax_outputs = true;
  infer::InferenceSession session(*model, options);
  StatusOr<Tensor> result = session.ServeBatch({0, 1, 2});
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result.value().rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < result.value().cols(); ++j) {
      const float p = result.value()(i, j);
      EXPECT_GE(p, 0.0f);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(InferenceServingTest, StatsAccumulateAndReset) {
  Dataset data = LoadDataset("cora", 0.15, 37);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*model);

  ASSERT_TRUE(session.ServeBatch({0, 1}).ok());
  ASSERT_TRUE(session.ServeBatch({2}).ok());
  const infer::ServeStats& stats = session.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.nodes_served, 3u);
  EXPECT_EQ(stats.latency_reservoir.size(), 2u);
  EXPECT_GT(stats.total_latency_ms, 0.0);
  EXPECT_GT(stats.MeanLatencyMs(), 0.0);
  EXPECT_GT(stats.Qps(), 0.0);
  // p0 <= p50 <= p100, and the extremes bracket every sample.
  const double p0 = stats.LatencyPercentileMs(0.0);
  const double p50 = stats.LatencyPercentileMs(0.5);
  const double p100 = stats.LatencyPercentileMs(1.0);
  EXPECT_LE(p0, p50);
  EXPECT_LE(p50, p100);
  EXPECT_EQ(p0, *std::min_element(stats.latency_reservoir.begin(),
                                  stats.latency_reservoir.end()));
  EXPECT_EQ(p100, *std::max_element(stats.latency_reservoir.begin(),
                                    stats.latency_reservoir.end()));

  session.ResetStats();
  EXPECT_EQ(session.stats().requests, 0u);
  EXPECT_EQ(session.stats().latency_reservoir.size(), 0u);
}

TEST(InferenceServingTest, ServeAllMatchesFullForward) {
  Dataset data = LoadDataset("cora", 0.15, 41);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  Rng rng(11);
  nn::ForwardContext ctx{/*training=*/false, &rng};
  Tensor full = model->Forward(ctx)->value();
  infer::InferenceSession session(*model);
  ExpectBitwiseEqual(full, session.ServeAll(), "ServeAll");
}

TEST(InferenceServingTest, WarmRequestPoolMissesCollapse) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  // The serving analogue of the warm-epoch pool behavior: once the
  // first request has populated the freelists, steady-state requests
  // run (almost) miss-free. "Cold" is measured as N requests with the
  // pool trimmed before each one — what serving would pay with no
  // cross-request reuse. Note even a trimmed request self-serves most
  // allocations (inference-mode nodes free their buffers mid-request),
  // so per-request cold misses are small; aggregating over N requests
  // is what makes the >= 10x contrast meaningful.
  constexpr int kRequests = 8;
  Dataset data = LoadDataset("cora", 0.3, 43);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*model);
  BufferPool& pool = BufferPool::Global();

  ASSERT_TRUE(session.ServeBatch({0, 1, 2, 3}).ok());  // prime freelists
  session.ResetStats();
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(session.ServeBatch({0, 1, 2, 3}).ok());
  }
  const uint64_t warm_misses = session.stats().pool_misses;
  const uint64_t warm_hits = session.stats().pool_hits;

  session.ResetStats();
  for (int i = 0; i < kRequests; ++i) {
    pool.Trim();  // empty every freelist -> every request starts cold
    ASSERT_TRUE(session.ServeBatch({0, 1, 2, 3}).ok());
  }
  const uint64_t cold_misses = session.stats().pool_misses;

  EXPECT_GT(warm_hits, 0u);
  // N warm requests together stay >= 10x below N cold requests.
  EXPECT_GE(cold_misses, 10 * std::max<uint64_t>(warm_misses, 1));
}

TEST(InferenceServingTest, ConcurrentPoolTrafficDoesNotContaminateStats) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  // Regression test for cross-thread pool-delta contamination: session
  // stats used to be computed from the *global* pool counters, so a
  // concurrent thread's allocation storm landed in whatever request
  // happened to be in flight. With per-thread counters a warm session
  // reports zero misses no matter how noisy its neighbors are.
  Dataset data = LoadDataset("cora", 0.3, 47);
  std::unique_ptr<Model> model = MakeModel("gcn", data, SmallConfig());
  infer::InferenceSession session(*model);
  BufferPool& pool = BufferPool::Global();

  ASSERT_TRUE(session.ServeBatch({0, 1, 2, 3}).ok());  // compile + warm
  ASSERT_TRUE(session.ServeBatch({0, 1, 2, 3}).ok());
  session.ResetStats();

  // The noisy thread provokes real misses by growing the number of
  // simultaneously-held buffers of one bucket each round (one miss per
  // round once the freelist is exhausted). The bucket (16384 floats)
  // is one the serving path never touches, so the noise cannot eat the
  // session's own warmed freelists.
  // The session starts serving only once the noise has run a round: on
  // a loaded machine the noisy thread may otherwise not be scheduled
  // before the 20 requests finish.
  std::atomic<bool> stop{false};
  std::atomic<bool> noise_started{false};
  std::atomic<uint64_t> noise_misses{0};
  std::thread noisy([&] {
    const BufferPool::ThreadStats start = BufferPool::GetThreadStats();
    std::vector<float*> held;
    size_t batch = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      for (size_t i = 0; i < batch; ++i) held.push_back(pool.Acquire(16384));
      for (float* p : held) pool.Release(p, 16384);
      held.clear();
      if (batch < 64) ++batch;
      noise_started.store(true);
    }
    noise_misses.store(BufferPool::GetThreadStats().misses - start.misses);
  });
  while (!noise_started.load()) std::this_thread::yield();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(session.ServeBatch({0, 1, 2, 3}).ok());
  }
  stop.store(true);
  noisy.join();

  EXPECT_GT(noise_misses.load(), 0u) << "noise thread generated no misses";
  EXPECT_EQ(session.stats().pool_misses, 0u)
      << "another thread's misses were attributed to this session";
  EXPECT_GT(session.stats().pool_hits, 0u);
}

}  // namespace
}  // namespace lasagne
