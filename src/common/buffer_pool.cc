#include "common/buffer_pool.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "obs/metrics.h"

// Bypass the cache under ASan so reuse does not mask use-after-free of
// tensor storage (the TSan build keeps the cache: concurrent checkout
// is exactly what it should exercise).
#if defined(__SANITIZE_ADDRESS__)
#define LASAGNE_POOL_BYPASS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LASAGNE_POOL_BYPASS 1
#endif
#endif
#ifndef LASAGNE_POOL_BYPASS
#define LASAGNE_POOL_BYPASS 0
#endif

namespace lasagne {

namespace {

constexpr size_t kAlignment = 64;

inline void CountHit() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& hits =
        obs::MetricsRegistry::Global().GetCounter("tensor.alloc.pool_hits");
    hits.Increment();
  }
}

inline void CountMiss() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& misses =
        obs::MetricsRegistry::Global().GetCounter("tensor.alloc.pool_misses");
    misses.Increment();
  }
}

inline void CountMagazineHit() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& mag_hits =
        obs::MetricsRegistry::Global().GetCounter(
            "tensor.alloc.magazine_hits");
    mag_hits.Increment();
  }
}

inline void CountDepotRefill() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& refills =
        obs::MetricsRegistry::Global().GetCounter(
            "tensor.alloc.depot_refills");
    refills.Increment();
  }
}

inline void CountDepotFlush() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& flushes =
        obs::MetricsRegistry::Global().GetCounter(
            "tensor.alloc.depot_flushes");
    flushes.Increment();
  }
}

float* AlignedAlloc(size_t count) {
  // Bucket capacities are powers of two >= 64 floats, so the byte size
  // is always a multiple of the alignment as aligned_alloc requires.
  void* p = std::aligned_alloc(kAlignment, count * sizeof(float));
  LASAGNE_CHECK(p != nullptr);
  return static_cast<float*>(p);
}

size_t BucketLog2(size_t capacity) {
  size_t log2 = 0;
  while ((size_t{1} << log2) < capacity) ++log2;
  return log2;
}

// Per-thread mirrors of the global hit/miss traffic this thread caused.
// Workspace-served acquires bump neither (they are invisible to the
// pool by design). Never reset: ResetStats() clears the global
// counters only, so ThreadStats stays monotonic and delta-safe (see
// the contract in buffer_pool.h).
thread_local uint64_t t_thread_hits = 0;
thread_local uint64_t t_thread_misses = 0;

#if !LASAGNE_POOL_BYPASS
// Workspace installed on this thread by WorkspaceScope (null = none).
thread_local BufferPool::Workspace* t_workspace = nullptr;

// This thread's magazine: the lock-free shard of the pool. Constructed
// on the thread's first pool interaction; the destructor drains into
// the depot at thread exit (the pool singleton is leaked, so the depot
// outlives every thread).
thread_local internal::Magazine t_magazine;
#endif

}  // namespace

BufferPool& BufferPool::Global() {
  // Leaked on purpose: tensors with static storage duration may release
  // buffers during process teardown, after local statics are destroyed.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

size_t BufferPool::BucketCapacity(size_t count) {
  size_t capacity = size_t{1} << kMinBucketLog2;
  while (capacity < count) capacity <<= 1;
  return capacity;
}

bool BufferPool::TryReserveCachedBytes(uint64_t bytes) {
  // Compare-exchange loop: a reservation is published only if the new
  // total fits under the limit, so cached_bytes never holds an over-cap
  // value, not even transiently — GetStats() never reports one, and a
  // losing contender never makes a concurrent release that fits fail.
  const uint64_t limit = limit_.load(std::memory_order_relaxed);
  uint64_t current = cached_bytes_.load(std::memory_order_relaxed);
  do {
    if (bytes > limit || current > limit - bytes) return false;
  } while (!cached_bytes_.compare_exchange_weak(current, current + bytes,
                                                std::memory_order_relaxed));
  return true;
}

void BufferPool::FreeChunkList(std::vector<float*>& list, size_t capacity) {
  if (list.empty()) return;
  for (float* p : list) std::free(p);
  cached_bytes_.fetch_sub(
      static_cast<uint64_t>(list.size()) * capacity * sizeof(float),
      std::memory_order_relaxed);
  list.clear();
}

void BufferPool::SyncMagazineEpoch(internal::Magazine& mag) {
  const uint64_t epoch = trim_epoch_.load(std::memory_order_acquire);
  if (mag.epoch == epoch) return;
  // A Trim() happened since this thread last touched the pool: its
  // cached chunks are stale. Free them (and return their bytes) before
  // serving, so the pool is cold for this thread too.
  for (size_t b = 0; b < kNumBuckets; ++b) {
    FreeChunkList(mag.chunks[b], size_t{1} << (b + kMinBucketLog2));
  }
  mag.epoch = epoch;
}

void BufferPool::DrainMagazineOnThreadExit(internal::Magazine& mag) {
  bool any = false;
  for (size_t b = 0; b < kNumBuckets && !any; ++b) {
    any = !mag.chunks[b].empty();
  }
  if (!any) return;
  if (mag.epoch != trim_epoch_.load(std::memory_order_acquire)) {
    // Trimmed since last touch: the chunks are stale — free them.
    for (size_t b = 0; b < kNumBuckets; ++b) {
      FreeChunkList(mag.chunks[b], size_t{1} << (b + kMinBucketLog2));
    }
    return;
  }
  // Exit drain: the bytes stay cached, they just change shelf — no cap
  // interaction, one mutex acquisition for the whole magazine.
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    std::vector<float*>& local = mag.chunks[b];
    if (local.empty()) continue;
    free_lists_[b].insert(free_lists_[b].end(), local.begin(), local.end());
    local.clear();
  }
}

namespace internal {

Magazine::~Magazine() {
  BufferPool::Global().DrainMagazineOnThreadExit(*this);
}

}  // namespace internal

float* BufferPool::Acquire(size_t count) {
  if (count == 0) return nullptr;
  const size_t capacity = BucketCapacity(count);
#if !LASAGNE_POOL_BYPASS
  const size_t bucket = BucketLog2(capacity) - kMinBucketLog2;
  if (bucket >= bucket_count_.load(std::memory_order_relaxed)) {
    // Oversize: beyond the top bucket there is no freelist (or
    // workspace stack) to index — NDEBUG builds used to read
    // free_lists_ out of bounds here. Serve straight from the
    // allocator, bypassing magazines, depot and cap; Release frees it
    // the same way.
    oversize_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    ++t_thread_misses;
    CountMiss();
    return AlignedAlloc(capacity);
  }
  if (Workspace* ws = t_workspace; ws != nullptr) {
    // Workspace-served acquires bypass the pool entirely — no mutex,
    // no stats. A recording workspace tracks the request and returns
    // nullptr; a dry finalized one counts an overflow. Both fall
    // through to the global path.
    float* p = ws->AcquireChunk(bucket);
    if (p != nullptr) return p;
  }
  internal::Magazine& mag = t_magazine;
  SyncMagazineEpoch(mag);
  std::vector<float*>& local = mag.chunks[bucket];
  if (!local.empty()) {
    // Steady-state fast path: this thread's own magazine, zero locks.
    float* p = local.back();
    local.pop_back();
    cached_bytes_.fetch_sub(capacity * sizeof(float),
                            std::memory_order_relaxed);
    magazine_hits_.fetch_add(1, std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    ++t_thread_hits;
    CountHit();
    CountMagazineHit();
    return p;
  }
  // Magazine underflow: one depot exchange fetches a batch, so the
  // next kMagazineBatch-1 acquires of this bucket stay lock-free.
  float* p = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<float*>& depot = free_lists_[bucket];
    if (!depot.empty()) {
      p = depot.back();
      depot.pop_back();
      const size_t take = std::min(kMagazineBatch - 1, depot.size());
      local.insert(local.end(), depot.end() - take, depot.end());
      depot.resize(depot.size() - take);
      depot_refills_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (p != nullptr) {
    cached_bytes_.fetch_sub(capacity * sizeof(float),
                            std::memory_order_relaxed);
    hits_.fetch_add(1, std::memory_order_relaxed);
    ++t_thread_hits;
    CountHit();
    CountDepotRefill();
    return p;
  }
#endif
  misses_.fetch_add(1, std::memory_order_relaxed);
  ++t_thread_misses;
  CountMiss();
  return AlignedAlloc(capacity);
}

void BufferPool::Release(float* ptr, size_t count) {
  if (ptr == nullptr) return;
  const size_t capacity = BucketCapacity(count);
  const uint64_t bytes = capacity * sizeof(float);
#if !LASAGNE_POOL_BYPASS
  const size_t bucket = BucketLog2(capacity) - kMinBucketLog2;
  if (bucket >= bucket_count_.load(std::memory_order_relaxed)) {
    std::free(ptr);  // oversize: never cached, never capped
    return;
  }
  if (Workspace* ws = t_workspace;
      ws != nullptr && ws->ReleaseChunk(ptr, bucket)) {
    return;  // chunk returned to the workspace slab
  }
  internal::Magazine& mag = t_magazine;
  SyncMagazineEpoch(mag);
  std::vector<float*>& local = mag.chunks[bucket];
  if (local.size() >= kMagazineChunks) {
    // Magazine overflow: one depot exchange flushes a batch (the bytes
    // stay cached, they just change shelf), making room for the next
    // kMagazineBatch releases to stay lock-free.
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<float*>& depot = free_lists_[bucket];
    depot.insert(depot.end(), local.end() - kMagazineBatch, local.end());
    local.resize(local.size() - kMagazineBatch);
    depot_flushes_.fetch_add(1, std::memory_order_relaxed);
    CountDepotFlush();
  }
  // The reservation is the cap check (see TryReserveCachedBytes):
  // caching and cap accounting are one atomic step, so concurrent
  // releases cannot collectively overshoot the limit.
  if (TryReserveCachedBytes(bytes)) {
    local.push_back(ptr);
    return;
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
#endif
  std::free(ptr);
}

BufferPool::ThreadStats BufferPool::GetThreadStats() {
  ThreadStats s;
  s.hits = t_thread_hits;
  s.misses = t_thread_misses;
  return s;
}

BufferPool::Stats BufferPool::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.cached_bytes = cached_bytes_.load(std::memory_order_relaxed);
  s.magazine_hits = magazine_hits_.load(std::memory_order_relaxed);
  s.depot_refills = depot_refills_.load(std::memory_order_relaxed);
  s.depot_flushes = depot_flushes_.load(std::memory_order_relaxed);
  s.oversize_acquires = oversize_.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  magazine_hits_.store(0, std::memory_order_relaxed);
  depot_refills_.store(0, std::memory_order_relaxed);
  depot_flushes_.store(0, std::memory_order_relaxed);
  oversize_.store(0, std::memory_order_relaxed);
}

void BufferPool::Trim() {
#if !LASAGNE_POOL_BYPASS
  // Marking every magazine stale first means a thread that touches the
  // pool after this line can never resurrect a pre-trim chunk; the
  // calling thread's own magazine is drained eagerly below so Trim()
  // is synchronously "cold" for the caller (what tests and the cold
  // phases of the benches rely on).
  const uint64_t epoch =
      trim_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  internal::Magazine& mag = t_magazine;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    FreeChunkList(mag.chunks[b], size_t{1} << (b + kMinBucketLog2));
  }
  mag.epoch = epoch;
#endif
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t b = 0; b < kNumBuckets; ++b) {
    FreeChunkList(free_lists_[b], size_t{1} << (b + kMinBucketLog2));
    free_lists_[b].shrink_to_fit();
  }
}

void BufferPool::SetCachedBytesLimit(uint64_t bytes) {
  limit_.store(bytes, std::memory_order_relaxed);
}

size_t BufferPool::SetBucketCountForTest(size_t count) {
  LASAGNE_CHECK(count >= 1 && count <= kNumBuckets);
  return bucket_count_.exchange(count, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

BufferPool::Workspace::~Workspace() { std::free(slab_); }

float* BufferPool::Workspace::AcquireChunk(size_t bucket) {
  if (!finalized_) {
    // Recording phase: track the working set, let the global pool
    // serve the request.
    if (++live_[bucket] > high_water_[bucket]) {
      high_water_[bucket] = live_[bucket];
    }
    return nullptr;
  }
  std::vector<float*>& stack = free_[bucket];
  if (stack.empty()) {
    ++overflow_;
    return nullptr;
  }
  float* p = stack.back();
  stack.pop_back();
  return p;
}

bool BufferPool::Workspace::ReleaseChunk(float* ptr, size_t bucket) {
  if (!finalized_) {
    if (live_[bucket] > 0) --live_[bucket];
    return false;  // buffer came from the global pool
  }
  if (slab_ == nullptr || ptr < slab_ || ptr >= slab_ + slab_floats_) {
    return false;  // overflow buffer owned by the global pool
  }
  free_[bucket].push_back(ptr);
  return true;
}

void BufferPool::Workspace::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  size_t total_floats = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    total_floats += static_cast<size_t>(high_water_[b])
                    << (b + kMinBucketLog2);
  }
  if (total_floats == 0) return;
  // Chunk capacities are multiples of 64 floats (256 bytes), so
  // sequential carving keeps every chunk 64-byte aligned.
  slab_ = AlignedAlloc(total_floats);
  slab_floats_ = total_floats;
  float* cursor = slab_;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const size_t capacity = size_t{1} << (b + kMinBucketLog2);
    free_[b].reserve(high_water_[b]);
    for (uint32_t i = 0; i < high_water_[b]; ++i) {
      free_[b].push_back(cursor);
      cursor += capacity;
    }
  }
}

uint64_t BufferPool::Workspace::reserved_bytes() const {
  return static_cast<uint64_t>(slab_floats_) * sizeof(float);
}

BufferPool::WorkspaceScope::WorkspaceScope(Workspace* ws) {
#if !LASAGNE_POOL_BYPASS
  previous_ = t_workspace;
  t_workspace = ws;
#else
  (void)ws;
#endif
}

BufferPool::WorkspaceScope::~WorkspaceScope() {
#if !LASAGNE_POOL_BYPASS
  t_workspace = previous_;
#endif
}

}  // namespace lasagne
