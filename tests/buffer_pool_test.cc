// Tests for the size-bucketed tensor buffer pool (docs/KERNELS.md):
// bucket rounding, alignment, checkout reuse, concurrent acquire under
// the thread pool, and the end goal — training reuses its buffers
// instead of re-allocating every epoch.

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/buffer_pool.h"
#include "common/thread_pool.h"
#include "data/registry.h"
#include "models/model.h"
#include "tensor/tensor.h"
#include "train/trainer.h"

namespace lasagne {
namespace {

TEST(BufferPoolTest, BucketCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BufferPool::BucketCapacity(0), 64u);
  EXPECT_EQ(BufferPool::BucketCapacity(1), 64u);
  EXPECT_EQ(BufferPool::BucketCapacity(64), 64u);
  EXPECT_EQ(BufferPool::BucketCapacity(65), 128u);
  EXPECT_EQ(BufferPool::BucketCapacity(1000), 1024u);
  EXPECT_EQ(BufferPool::BucketCapacity(1 << 20), 1u << 20);
  EXPECT_EQ(BufferPool::BucketCapacity((1 << 20) + 1), 1u << 21);
}

TEST(BufferPoolTest, AcquireReturnsAlignedBuffers) {
  BufferPool& pool = BufferPool::Global();
  for (size_t count : {1u, 63u, 64u, 1000u, 4096u}) {
    float* p = pool.Acquire(count);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u)
        << "count=" << count;
    // Must be writable over the whole bucket capacity.
    for (size_t i = 0; i < count; ++i) p[i] = static_cast<float>(i);
    pool.Release(p, count);
  }
}

TEST(BufferPoolTest, AcquireZeroReturnsNull) {
  BufferPool& pool = BufferPool::Global();
  EXPECT_EQ(pool.Acquire(0), nullptr);
  pool.Release(nullptr, 0);  // no-op
}

TEST(BufferPoolTest, ReleaseThenAcquireReusesBuffer) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  pool.ResetStats();
  float* p = pool.Acquire(100);
  pool.Release(p, 100);
  // Same bucket (128 floats) -> must hand back the cached buffer.
  float* q = pool.Acquire(128);
  EXPECT_EQ(p, q);
  pool.Release(q, 128);
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BufferPoolTest, DistinctBucketsDoNotShareBuffers) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  pool.ResetStats();
  float* small = pool.Acquire(64);
  pool.Release(small, 64);
  // A larger request must not receive the smaller cached buffer.
  float* large = pool.Acquire(4096);
  EXPECT_NE(small, large);
  pool.Release(large, 4096);
  EXPECT_EQ(pool.GetStats().hits, 0u);
}

TEST(BufferPoolTest, CachedBytesLimitEvictsInsteadOfCaching) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  pool.ResetStats();
  EXPECT_EQ(pool.GetStats().cached_bytes, 0u);  // Trim() is exact
  const uint64_t old_limit = pool.cached_bytes_limit();
  pool.SetCachedBytesLimit(0);
  float* p = pool.Acquire(256);
  pool.Release(p, 256);
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cached_bytes, 0u);  // the evicted release cached nothing
  // Nothing cached -> next acquire is a miss again.
  float* q = pool.Acquire(256);
  EXPECT_EQ(pool.GetStats().hits, 0u);
  pool.SetCachedBytesLimit(old_limit);
  pool.Release(q, 256);
}

TEST(BufferPoolTest, TensorStorageRoundTripsThroughPool) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  pool.ResetStats();
  { Tensor t(32, 32); }  // 1024 floats, released on destruction
  { Tensor t(32, 32); }  // same bucket -> served from the freelist
  const BufferPool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(BufferPoolTest, ThreadStatsAreThreadLocal) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  // Per-thread hit/miss counters are the attribution primitive for
  // serving stats: traffic on one thread must never show up in
  // another thread's delta.
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  const BufferPool::ThreadStats main_before = BufferPool::GetThreadStats();
  std::thread worker([&] {
    // Fresh thread: counters start at zero. After a trim the first
    // acquire misses; the release caches it; the second acquire hits.
    float* p = pool.Acquire(256);
    pool.Release(p, 256);
    float* q = pool.Acquire(256);
    pool.Release(q, 256);
    const BufferPool::ThreadStats s = BufferPool::GetThreadStats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
  });
  worker.join();
  const BufferPool::ThreadStats main_after = BufferPool::GetThreadStats();
  EXPECT_EQ(main_after.hits - main_before.hits, 0u);
  EXPECT_EQ(main_after.misses - main_before.misses, 0u);
  // The main thread's own traffic still counts.
  float* p = pool.Acquire(256);
  pool.Release(p, 256);
  const BufferPool::ThreadStats own = BufferPool::GetThreadStats();
  EXPECT_EQ((own.hits + own.misses) - (main_before.hits + main_before.misses),
            1u);
}

TEST(BufferPoolTest, WorkspaceRecordsFinalizesAndServesWithoutPoolTraffic) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  BufferPool& pool = BufferPool::Global();
  BufferPool::Workspace ws;
  // Recording phase: the global pool serves every request while the
  // workspace tracks the per-bucket high-water working set (two live
  // 64-float chunks + one 4096-float chunk here).
  {
    BufferPool::WorkspaceScope scope(&ws);
    float* a = pool.Acquire(64);
    float* b = pool.Acquire(33);  // same 64-float bucket, live with a
    float* c = pool.Acquire(4096);
    pool.Release(b, 33);
    pool.Release(a, 64);
    pool.Release(c, 4096);
  }
  EXPECT_FALSE(ws.finalized());
  EXPECT_EQ(ws.reserved_bytes(), 0u);
  ws.Finalize();
  EXPECT_TRUE(ws.finalized());
  EXPECT_EQ(ws.reserved_bytes(), (64 + 64 + 4096) * sizeof(float));
  ws.Finalize();  // idempotent
  EXPECT_EQ(ws.reserved_bytes(), (64 + 64 + 4096) * sizeof(float));

  // Finalized phase: the same working set is served entirely from the
  // slab — the thread's pool counters do not move.
  const BufferPool::ThreadStats before = BufferPool::GetThreadStats();
  {
    BufferPool::WorkspaceScope scope(&ws);
    float* a = pool.Acquire(64);
    float* b = pool.Acquire(64);
    float* c = pool.Acquire(4000);  // rounds into the 4096 bucket
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_NE(a, b);
    a[0] = b[0] = c[0] = 1.0f;  // chunks are writable
    pool.Release(a, 64);
    pool.Release(b, 64);
    pool.Release(c, 4000);
  }
  const BufferPool::ThreadStats after = BufferPool::GetThreadStats();
  EXPECT_EQ(after.hits - before.hits, 0u);
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(ws.overflow_acquires(), 0u);

  // Exceeding the recorded working set overflows to the global pool
  // (counted, attributed to this thread) instead of failing.
  {
    BufferPool::WorkspaceScope scope(&ws);
    float* a = pool.Acquire(64);
    float* b = pool.Acquire(64);
    float* over = pool.Acquire(64);  // third live 64-float chunk
    ASSERT_NE(over, nullptr);
    pool.Release(over, 64);
    pool.Release(b, 64);
    pool.Release(a, 64);
  }
  EXPECT_EQ(ws.overflow_acquires(), 1u);
  const BufferPool::ThreadStats overflowed = BufferPool::GetThreadStats();
  EXPECT_EQ((overflowed.hits + overflowed.misses) -
                (after.hits + after.misses),
            1u);
}

TEST(BufferPoolTest, ConcurrentCheckoutYieldsDisjointBuffers) {
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  SetNumThreads(8);
  constexpr size_t kTasks = 256;
  std::vector<float*> held(kTasks, nullptr);
  // Every task checks a buffer out, stamps it, verifies the stamp
  // (catching handed-out-twice bugs), then returns it.
  ParallelFor(0, kTasks, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      float* p = pool.Acquire(512);
      held[i] = p;
      const float stamp = static_cast<float>(i) + 0.5f;
      for (size_t j = 0; j < 512; ++j) p[j] = stamp;
      for (size_t j = 0; j < 512; ++j) {
        ASSERT_EQ(p[j], stamp) << "buffer shared between tasks";
      }
    }
  });
  // All buffers were held simultaneously: pairwise distinct.
  std::set<float*> unique(held.begin(), held.end());
  EXPECT_EQ(unique.size(), kTasks);
  for (size_t i = 0; i < kTasks; ++i) pool.Release(held[i], 512);
  SetNumThreads(0);
}

TEST(BufferPoolTest, TrainingEpochMissesCollapseOnceWarm) {
  if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  // The point of the pool: after the first epoch has populated the
  // buckets, training's per-epoch allocations become freelist hits.
  // Cold run vs identically-shaped warm run must differ by >= 10x in
  // miss count.
  Dataset data = LoadDataset("cora", 0.3, 21);
  ModelConfig config;
  config.depth = 2;
  config.hidden_dim = 16;
  config.seed = 5;
  TrainOptions options;
  options.max_epochs = 1;
  options.patience = 1;
  options.seed = 6;
  BufferPool& pool = BufferPool::Global();
  auto run_one_epoch = [&] {
    std::unique_ptr<Model> model = MakeModel("gcn", data, config);
    TrainModel(*model, options);
  };
  pool.Trim();
  run_one_epoch();  // prime shapes without counting model-setup noise
  pool.ResetStats();
  run_one_epoch();
  const uint64_t warm_misses = pool.GetStats().misses;
  const uint64_t warm_hits = pool.GetStats().hits;
  pool.Trim();  // empty every freelist -> cold start
  pool.ResetStats();
  run_one_epoch();
  const uint64_t cold_misses = pool.GetStats().misses;
  EXPECT_GT(warm_hits, 0u);
  EXPECT_GE(cold_misses, 10 * std::max<uint64_t>(warm_misses, 1));
}

// ---------------------------------------------------------------------------
// Concurrency: one mutex-guarded set of freelists shared by every thread
// (docs/SERVING.md "Buffer pool"). Suites are named BufferPool* so the
// TSan pass in tools/run_sanitized_tests.sh picks them up. Test names
// are stable IDs kept from the earlier sharded pool; each test's
// comment says what it checks now.
// ---------------------------------------------------------------------------

/// Every test here asserts on cached chunks, so it needs a caching pool.
class BufferPoolShardingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!BufferPool::kCachesBuffers) GTEST_SKIP() << "pool cache bypassed";
  }
};

/// Restores the cached-bytes limit on scope exit so a failing
/// assertion cannot leak a tiny cap into later tests.
class CachedBytesLimitGuard {
 public:
  CachedBytesLimitGuard()
      : old_limit_(BufferPool::Global().cached_bytes_limit()) {}
  ~CachedBytesLimitGuard() {
    BufferPool::Global().SetCachedBytesLimit(old_limit_);
  }

 private:
  uint64_t old_limit_;
};

TEST_F(BufferPoolShardingTest, SteadyStateReuseNeverTouchesTheDepot) {
  // Once a thread's working set is cached, acquire/release cycles are
  // all freelist hits: zero misses.
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  float* warm = pool.Acquire(768);  // 1024-float bucket: a miss
  pool.Release(warm, 768);          // cached for the cycles below
  const BufferPool::Stats before = pool.GetStats();
  constexpr uint64_t kCycles = 1000;
  for (uint64_t i = 0; i < kCycles; ++i) {
    float* p = pool.Acquire(768);
    ASSERT_NE(p, nullptr);
    p[0] = static_cast<float>(i);
    pool.Release(p, 768);
  }
  const BufferPool::Stats after = pool.GetStats();
  EXPECT_EQ(after.hits - before.hits, kCycles);
  EXPECT_EQ(after.misses - before.misses, 0u);
}

TEST_F(BufferPoolShardingTest, ThreadExitDrainsMagazineIntoDepot) {
  // A chunk a thread released before exiting stays cached in the shared
  // freelist, and this thread's next acquire of the bucket reuses it.
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  float* released = nullptr;
  std::thread worker([&] {
    released = pool.Acquire(2048);
    pool.Release(released, 2048);
  });
  worker.join();
  EXPECT_EQ(pool.GetStats().cached_bytes, 2048 * sizeof(float));
  const BufferPool::ThreadStats before = BufferPool::GetThreadStats();
  float* p = pool.Acquire(2048);
  const BufferPool::ThreadStats after = BufferPool::GetThreadStats();
  EXPECT_EQ(p, released);
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(pool.GetStats().cached_bytes, 0u);
  pool.Release(p, 2048);
}

TEST_F(BufferPoolShardingTest, CrossThreadReleaseKeepsChunksAndAccounting) {
  // Acquire on thread A, free on thread B: chunks are interchangeable
  // within a bucket, so they simply return to the shared freelist —
  // nothing leaks, nothing double-frees, and the byte accounting
  // balances.
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  constexpr size_t kChunks = 32;
  std::vector<float*> handoff(kChunks, nullptr);
  std::thread producer([&] {
    for (size_t i = 0; i < kChunks; ++i) {
      handoff[i] = pool.Acquire(4096);
      handoff[i][0] = static_cast<float>(i);
    }
  });
  producer.join();
  std::thread consumer([&] {
    for (size_t i = 0; i < kChunks; ++i) pool.Release(handoff[i], 4096);
  });
  consumer.join();
  // All 32 chunks are cached: exactly kChunks * bucket bytes.
  const BufferPool::Stats cached = pool.GetStats();
  EXPECT_EQ(cached.cached_bytes, kChunks * 4096 * sizeof(float));
  // And re-acquirable: this thread gets all of them back as hits.
  std::vector<float*> again(kChunks, nullptr);
  for (size_t i = 0; i < kChunks; ++i) again[i] = pool.Acquire(4096);
  const BufferPool::Stats reused = pool.GetStats();
  EXPECT_EQ(reused.hits - cached.hits, kChunks);
  EXPECT_EQ(reused.misses - cached.misses, 0u);
  EXPECT_EQ(reused.cached_bytes, 0u);
  for (size_t i = 0; i < kChunks; ++i) pool.Release(again[i], 4096);
}

TEST_F(BufferPoolShardingTest, ConcurrentReleasesNeverOvershootTheCap) {
  // Regression test for the Release cap race: code that checks
  // `cached_bytes + bytes <= limit` apart from the step that caches
  // the chunk lets N concurrent releases all pass the check and
  // collectively blow past the cap. cached_bytes must never exceed the
  // cap — sampled live by a watcher thread and asserted exactly at
  // every settle point.
  BufferPool& pool = BufferPool::Global();
  CachedBytesLimitGuard restore_limit;
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 8;
  constexpr size_t kFloats = 2048;  // 8 KiB chunks
  constexpr uint64_t kChunkBytes = kFloats * sizeof(float);
  constexpr uint64_t kTinyCap = 4 * kChunkBytes;  // room for 4 of 64

  for (int round = 0; round < 10; ++round) {
    pool.Trim();
    std::vector<std::vector<float*>> held(kThreads);
    for (auto& bufs : held) {
      bufs.reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        bufs.push_back(pool.Acquire(kFloats));
      }
    }
    ASSERT_EQ(pool.GetStats().cached_bytes, 0u);
    pool.SetCachedBytesLimit(kTinyCap);
    const uint64_t evictions_before = pool.GetStats().evictions;

    std::atomic<bool> stop{false};
    std::atomic<bool> overshoot{false};
    std::thread watcher([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (pool.GetStats().cached_bytes > kTinyCap) {
          overshoot.store(true, std::memory_order_relaxed);
        }
      }
    });
    std::vector<std::thread> releasers;
    for (size_t t = 0; t < kThreads; ++t) {
      releasers.emplace_back([&, t] {
        for (float* p : held[t]) pool.Release(p, kFloats);
      });
    }
    for (std::thread& t : releasers) t.join();
    stop.store(true, std::memory_order_relaxed);
    watcher.join();

    const BufferPool::Stats settled = pool.GetStats();
    EXPECT_FALSE(overshoot.load()) << "cap overshot mid-release";
    // 64 releases against a 4-chunk cap: exactly 4 cached, 60 evicted.
    EXPECT_EQ(settled.cached_bytes, kTinyCap);
    EXPECT_EQ(settled.evictions - evictions_before,
              kThreads * kPerThread - kTinyCap / kChunkBytes);
  }
}

TEST_F(BufferPoolShardingTest, StressAcquireReleaseTrimLimitUnderThreads) {
  // TSan-targeted interleaving stress: 8 threads hammer
  // Acquire/Release across three buckets while one thread Trims
  // periodically and another toggles the cached-bytes limit. Each
  // buffer is stamped and verified so a chunk handed out twice (or
  // freed while held) is caught even in non-sanitizer builds.
  BufferPool& pool = BufferPool::Global();
  CachedBytesLimitGuard restore_limit;
  pool.Trim();
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 400;
  const size_t sizes[3] = {64, 300, 5000};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIters; ++i) {
        if (t == 0 && i % 64 == 0) pool.Trim();
        if (t == 1 && i % 32 == 0) {
          pool.SetCachedBytesLimit(i % 64 == 0 ? (1ull << 20)
                                               : (512ull << 20));
        }
        const size_t count = sizes[(t + i) % 3];
        float* p = pool.Acquire(count);
        ASSERT_NE(p, nullptr);
        const float stamp = static_cast<float>(t * kIters + i) + 0.25f;
        p[0] = stamp;
        p[count - 1] = stamp;
        ASSERT_EQ(p[0], stamp);
        ASSERT_EQ(p[count - 1], stamp);
        pool.Release(p, count);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  pool.Trim();
  // Trim() is exact for every thread: nothing stays cached anywhere.
  EXPECT_EQ(pool.GetStats().cached_bytes, 0u);
}

TEST_F(BufferPoolShardingTest, OversizeAcquireBypassesFreelistsAndCap) {
  // Regression test for the oversize out-of-bounds bug: a request
  // above the top bucket used to compute bucket >= kNumBuckets and
  // index free_lists_ out of bounds in NDEBUG builds. The shrunken
  // bucket-count seam makes the path testable without allocating
  // 2^40 floats: with 4 buckets, capacities above 512 floats are
  // oversize.
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  const size_t old_buckets = pool.SetBucketCountForTest(4);
  const BufferPool::Stats base = pool.GetStats();

  // Boundary: the top surviving bucket (512 floats) still pools.
  float* top = pool.Acquire(512);
  pool.Release(top, 512);
  EXPECT_EQ(pool.GetStats().oversize_acquires - base.oversize_acquires, 0u);

  // Above it: straight to the allocator — counted as an oversize miss,
  // never cached, never capped, never evicted.
  float* big = pool.Acquire(1000);  // 1024-float bucket -> oversize
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(big) % 64, 0u);
  for (size_t i = 0; i < 1000; ++i) big[i] = 1.0f;  // writable throughout
  const BufferPool::Stats acquired = pool.GetStats();
  EXPECT_EQ(acquired.oversize_acquires - base.oversize_acquires, 1u);
  EXPECT_EQ(acquired.misses - base.misses, 2u);  // top-bucket miss + big
  const uint64_t cached_before_release = acquired.cached_bytes;
  pool.Release(big, 1000);
  const BufferPool::Stats released = pool.GetStats();
  EXPECT_EQ(released.cached_bytes, cached_before_release);  // not cached
  EXPECT_EQ(released.evictions, acquired.evictions);        // not an evict
  // Not cached -> the next oversize acquire allocates again.
  float* again = pool.Acquire(1000);
  EXPECT_EQ(pool.GetStats().oversize_acquires - base.oversize_acquires, 2u);
  pool.Release(again, 1000);

  pool.SetBucketCountForTest(old_buckets);
  pool.Trim();
}

TEST_F(BufferPoolShardingTest, ThreadStatsStayMonotonicAcrossResetStats) {
  // ResetStats() clears the *global* counters only; per-thread
  // counters are monotonic by contract (buffer_pool.h), so delta-based
  // consumers (serving.cc, server.cc) can difference them across a
  // ResetStats() without seeing values jump backwards.
  BufferPool& pool = BufferPool::Global();
  pool.Trim();
  float* p = pool.Acquire(256);
  pool.Release(p, 256);
  const BufferPool::ThreadStats before = BufferPool::GetThreadStats();
  EXPECT_GT(before.hits + before.misses, 0u);
  pool.ResetStats();
  const BufferPool::ThreadStats after = BufferPool::GetThreadStats();
  // Untouched by the reset: still the full monotonic history.
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  // And still advancing normally, so deltas spanning the reset are
  // exact: one acquire -> exactly one new hit-or-miss.
  float* q = pool.Acquire(256);
  pool.Release(q, 256);
  const BufferPool::ThreadStats advanced = BufferPool::GetThreadStats();
  EXPECT_EQ((advanced.hits + advanced.misses) - (after.hits + after.misses),
            1u);
  // The global counters did reset (this thread's traffic since).
  const BufferPool::Stats global = pool.GetStats();
  EXPECT_LE(global.hits + global.misses, 2u);
}

}  // namespace
}  // namespace lasagne
