#ifndef LASAGNE_COMMON_BUFFER_POOL_H_
#define LASAGNE_COMMON_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace lasagne {

/// Process-wide, thread-safe, size-bucketed pool of 64-byte-aligned
/// float buffers.
///
/// Training reallocates the same handful of tensor shapes every epoch
/// (autograd forward/backward temporaries, Adam scratch, aggregator
/// intermediates). The pool turns that churn into checkout/return of
/// cached buffers: requests are rounded up to a power-of-two bucket,
/// each bucket keeps a freelist, and a released buffer is handed back
/// verbatim to the next acquire of the same bucket. After the first
/// epoch has populated the buckets, steady-state training allocates
/// (almost) nothing.
///
/// One mutex guards every freelist and the cached-byte balance
/// (docs/SERVING.md "Buffer pool"). Pool traffic is a few acquires per
/// request or a few hundred per training epoch, against kernels that
/// run for milliseconds, so the lock is never the bottleneck. Chunks of
/// one bucket are interchangeable, so a buffer acquired on one thread
/// and released on another simply returns to the shared freelist.
///
/// Buffers are uninitialized on acquire — callers that need zeros must
/// clear them (Tensor's zeroing constructor does). A global byte cap
/// bounds cached memory: a release caches its buffer only if
/// `cached_bytes + bytes <= limit` under the lock, and otherwise frees
/// it and counts an eviction. Requests larger than the top bucket
/// bypass the freelists and the cap entirely (served straight from the
/// allocator, counted as misses). Under AddressSanitizer the cache is
/// bypassed (kCachesBuffers is false: every acquire is a fresh
/// allocation) so use-after-free of pooled storage stays visible to the
/// sanitizer.
///
/// Hit/miss counters are always-on relaxed atomics (a few nanoseconds
/// per alloc); when the observability registry is enabled the pool also
/// mirrors hits/misses into `tensor.alloc.pool_hits` /
/// `tensor.alloc.pool_misses`.
class BufferPool {
 public:
  struct Stats {
    uint64_t hits = 0;        // acquires served from a freelist
    uint64_t misses = 0;      // acquires that had to allocate
    uint64_t evictions = 0;   // releases freed because of the byte cap
    uint64_t cached_bytes = 0;  // bytes held in the freelists
    uint64_t magazine_hits = 0;  // nothing writes it: always 0
    uint64_t depot_refills = 0;  // nothing writes it: always 0
    uint64_t depot_flushes = 0;  // nothing writes it: always 0
    uint64_t oversize_acquires = 0;  // requests above the top bucket,
                                     // served straight from the
                                     // allocator (also counted as
                                     // misses)
  };

  /// Monotonic per-thread view of the global pool traffic this thread
  /// generated (workspace-served acquires are invisible to it). Unlike
  /// GetStats(), deltas of these are meaningful under concurrency:
  /// another thread's allocations can never leak into this thread's
  /// before/after window.
  ///
  /// Monotonic contract: these counters only ever increase over a
  /// thread's lifetime. ResetStats() resets the *global* counters but
  /// deliberately never touches any thread's ThreadStats (it cannot —
  /// they live in other threads' TLS). Consumers must therefore use
  /// before/after *deltas* exclusively (serving.cc and server.cc do);
  /// comparing a raw ThreadStats value against a global counter that
  /// was reset in between compares different epochs and is a bug.
  struct ThreadStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  // log2(BucketCapacity): buckets 6 (64 floats) .. 40 (2^40 floats).
  static constexpr size_t kMinBucketLog2 = 6;
  static constexpr size_t kNumBuckets = 35;

  // False under AddressSanitizer, where reuse would hide use-after-free
  // of tensor storage: every acquire allocates and every release frees.
  // (The TSan build keeps the cache: concurrent checkout is exactly
  // what it should exercise.)
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kCachesBuffers = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  static constexpr bool kCachesBuffers = false;
#else
  static constexpr bool kCachesBuffers = true;
#endif
#else
  static constexpr bool kCachesBuffers = true;
#endif

  static BufferPool& Global();

  /// Stats for the calling thread only. Thread-safe by construction.
  static ThreadStats GetThreadStats();

  /// Pre-reserved arena that can satisfy a fixed working set of pool
  /// requests without touching the global pool (no mutex, no stats —
  /// `tensor.alloc.pool_hits/misses` stay flat while it serves).
  ///
  /// Two-phase: while a non-finalized workspace is installed via
  /// WorkspaceScope, acquires are *recorded* (per-bucket high-water
  /// marks) but still served by the global pool. Finalize() then
  /// allocates one contiguous 64-byte-aligned slab sized to the
  /// high-water marks and carves it into per-bucket free stacks; under
  /// a finalized scope, acquires pop from those stacks. A finalized
  /// workspace that runs dry (workload grew beyond the recording)
  /// counts an overflow and falls back to the global pool — correct,
  /// just no longer free of pool traffic.
  ///
  /// Buffers served by a workspace MUST be released while the same
  /// workspace is still installed on the releasing thread (the release
  /// returns the chunk to the workspace's free stack; the global pool
  /// never sees it). The execution-plan interpreter (src/infer/plan.h)
  /// guarantees this by scoping every intermediate inside Run(). Not
  /// thread-safe: one workspace serves one thread at a time. Under the
  /// ASan pool bypass the workspace is inert (never consulted).
  class Workspace {
   public:
    Workspace() = default;
    ~Workspace();

    Workspace(const Workspace&) = delete;
    Workspace& operator=(const Workspace&) = delete;

    /// Ends the recording phase: reserves the slab. Idempotent.
    void Finalize();

    bool finalized() const { return finalized_; }
    /// Slab size in bytes (0 before Finalize or when nothing was
    /// recorded).
    uint64_t reserved_bytes() const;
    /// Finalized acquires that could not be served from the slab.
    uint64_t overflow_acquires() const { return overflow_; }

   private:
    friend class BufferPool;

    /// Finalized: pop a chunk or count an overflow. Recording: track
    /// the high-water mark and return nullptr (global pool serves).
    float* AcquireChunk(size_t bucket);
    /// True when `ptr` belongs to the slab (chunk returned to the free
    /// stack); false sends the buffer back to the global pool.
    bool ReleaseChunk(float* ptr, size_t bucket);

    bool finalized_ = false;
    std::array<uint32_t, kNumBuckets> live_{};
    std::array<uint32_t, kNumBuckets> high_water_{};
    std::array<std::vector<float*>, kNumBuckets> free_;
    float* slab_ = nullptr;
    size_t slab_floats_ = 0;
    uint64_t overflow_ = 0;
  };

  /// RAII: installs `ws` as the calling thread's workspace for the
  /// scope's lifetime (restores the previous one on exit).
  class WorkspaceScope {
   public:
    explicit WorkspaceScope(Workspace* ws);
    ~WorkspaceScope();

    WorkspaceScope(const WorkspaceScope&) = delete;
    WorkspaceScope& operator=(const WorkspaceScope&) = delete;

   private:
    Workspace* previous_ = nullptr;
  };

  /// Returns a 64-byte-aligned buffer with capacity for at least
  /// `count` floats. Contents are uninitialized. `count == 0` returns
  /// nullptr. Thread-safe.
  float* Acquire(size_t count);

  /// Returns a buffer obtained from Acquire(count) to the pool (or
  /// frees it when the cache is over its byte cap). `ptr == nullptr`
  /// is a no-op. Thread-safe.
  void Release(float* ptr, size_t count);

  Stats GetStats() const;
  /// Resets the global hit/miss/eviction/oversize counters (not
  /// cached_bytes, which is an accounting balance, and not any
  /// thread's ThreadStats — see the monotonic contract above).
  void ResetStats();

  /// Frees every cached buffer (outstanding buffers are unaffected).
  /// Exact for every thread: afterwards cached_bytes is 0.
  void Trim();

  /// Caps the total bytes kept cached. Releases that would exceed the
  /// cap free their buffer instead of caching it. Lowering the cap does
  /// not evict retroactively — call Trim() to flush immediately.
  void SetCachedBytesLimit(uint64_t bytes);
  uint64_t cached_bytes_limit() const {
    return limit_.load(std::memory_order_relaxed);
  }

  /// Bucket capacity (in floats) a request of `count` floats maps to:
  /// the next power of two >= max(count, 64). Exposed for tests.
  static size_t BucketCapacity(size_t count);

  /// Test seam for the oversize path: pretend the pool only has
  /// `count` buckets (1..kNumBuckets), so requests above bucket
  /// `count - 1` take the oversize direct-allocation route without the
  /// test having to allocate > 2^40 floats. Returns the previous
  /// value. Callers should Trim() before shrinking and restore + Trim()
  /// after, so chunks cached under one geometry are not re-bucketed
  /// under another.
  size_t SetBucketCountForTest(size_t count);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  BufferPool() = default;

  mutable std::mutex mutex_;  // guards free_lists_ and cached_bytes_
  std::array<std::vector<float*>, kNumBuckets> free_lists_;
  uint64_t cached_bytes_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> limit_{512ull << 20};  // 512 MiB default
  std::atomic<uint64_t> oversize_{0};
  std::atomic<size_t> bucket_count_{kNumBuckets};
};

namespace internal {

/// RAII float buffer checked out of BufferPool::Global(). Move-only;
/// the destructor returns the storage to the pool. This is the storage
/// type behind Tensor.
class PoolBuffer {
 public:
  PoolBuffer() = default;
  explicit PoolBuffer(size_t count)
      : data_(BufferPool::Global().Acquire(count)), count_(count) {}
  ~PoolBuffer() { BufferPool::Global().Release(data_, count_); }

  PoolBuffer(PoolBuffer&& other) noexcept
      : data_(other.data_), count_(other.count_) {
    other.data_ = nullptr;
    other.count_ = 0;
  }
  PoolBuffer& operator=(PoolBuffer&& other) noexcept {
    if (this != &other) {
      BufferPool::Global().Release(data_, count_);
      data_ = other.data_;
      count_ = other.count_;
      other.data_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }
  PoolBuffer(const PoolBuffer&) = delete;
  PoolBuffer& operator=(const PoolBuffer&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t count() const { return count_; }

 private:
  float* data_ = nullptr;
  size_t count_ = 0;
};

}  // namespace internal
}  // namespace lasagne

#endif  // LASAGNE_COMMON_BUFFER_POOL_H_
