#include "common/buffer_pool.h"

#include <cstdlib>

#include "common/check.h"
#include "obs/metrics.h"

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

// Workspace installed on this thread by WorkspaceScope (null = none).
thread_local BufferPool::Workspace* t_workspace = nullptr;

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

float* BufferPool::Acquire(size_t count) {
  if (count == 0) return nullptr;
  const size_t capacity = BucketCapacity(count);
  if constexpr (kCachesBuffers) {
    const size_t bucket = BucketLog2(capacity) - kMinBucketLog2;
    if (bucket >= bucket_count_.load(std::memory_order_relaxed)) {
      // Oversize: beyond the top bucket there is no freelist (or
      // workspace stack) to index. Served straight from the allocator,
      // bypassing freelists and cap; Release frees it the same way.
      oversize_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Workspace-served acquires bypass the pool entirely — no mutex,
      // no stats. A recording workspace tracks the request and returns
      // nullptr; a dry finalized one counts an overflow. Both fall
      // through to the freelist.
      if (Workspace* ws = t_workspace; ws != nullptr) {
        if (float* p = ws->AcquireChunk(bucket)) return p;
      }
      float* p = nullptr;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<float*>& list = free_lists_[bucket];
        if (!list.empty()) {
          p = list.back();
          list.pop_back();
          cached_bytes_ -= capacity * sizeof(float);
        }
      }
      if (p != nullptr) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        ++t_thread_hits;
        CountHit();
        return p;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  ++t_thread_misses;
  CountMiss();
  return AlignedAlloc(capacity);
}

void BufferPool::Release(float* ptr, size_t count) {
  if (ptr == nullptr) return;
  if constexpr (kCachesBuffers) {
    const size_t capacity = BucketCapacity(count);
    const size_t bucket = BucketLog2(capacity) - kMinBucketLog2;
    // Oversize buffers are never cached and never capped.
    if (bucket < bucket_count_.load(std::memory_order_relaxed)) {
      if (Workspace* ws = t_workspace;
          ws != nullptr && ws->ReleaseChunk(ptr, bucket)) {
        return;  // chunk returned to the workspace slab
      }
      // The cap check and the caching are one step under the lock, so
      // concurrent releases cannot collectively overshoot the limit.
      const uint64_t bytes = capacity * sizeof(float);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (cached_bytes_ + bytes <= limit_.load(std::memory_order_relaxed)) {
          free_lists_[bucket].push_back(ptr);
          cached_bytes_ += bytes;
          return;
        }
      }
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
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
  s.oversize_acquires = oversize_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  s.cached_bytes = cached_bytes_;
  return s;
}

void BufferPool::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  oversize_.store(0, std::memory_order_relaxed);
}

void BufferPool::Trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::vector<float*>& list : free_lists_) {
    for (float* p : list) std::free(p);
    list.clear();
    list.shrink_to_fit();
  }
  cached_bytes_ = 0;
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

BufferPool::WorkspaceScope::WorkspaceScope(Workspace* ws)
    : previous_(t_workspace) {
  t_workspace = ws;
}

BufferPool::WorkspaceScope::~WorkspaceScope() { t_workspace = previous_; }

}  // namespace lasagne
