#ifndef LASAGNE_OBS_METRICS_H_
#define LASAGNE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace lasagne::obs {

namespace internal {

/// Number of independent shards a metric spreads its updates over.
/// Threads hash onto shards by a small per-thread slot id, so updates
/// from different threads rarely contend on the same cache line.
constexpr size_t kMetricStripes = 16;

/// Small dense id for the calling thread (assigned on first use, never
/// reused within a process). Used to pick a metric stripe.
inline size_t ThreadSlot() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot = next.fetch_add(1);
  return slot;
}

extern std::atomic<bool> g_metrics_enabled;

}  // namespace internal

/// True when metric collection is on. One relaxed atomic load — the
/// whole cost of every instrumentation site while metrics are off.
inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

void EnableMetrics();
void DisableMetrics();

/// Monotonically increasing event count. The fast path is one relaxed
/// fetch_add on the calling thread's stripe; Value() sums stripes.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    cells_[internal::ThreadSlot() % internal::kMetricStripes].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };
  std::array<Cell, internal::kMetricStripes> cells_;
};

/// Last-write-wins instantaneous value (thread count, LR, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over non-negative values with fixed log2-scale buckets:
/// bucket 0 holds values < 1, bucket i (1..62) holds [2^(i-1), 2^i),
/// bucket 63 holds everything >= 2^62. Recording is a relaxed
/// fetch_add on the calling thread's shard; scraping merges shards.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;

  /// Maps a value to its bucket index (pure function, exposed for
  /// tests and the exporter's bucket labels).
  static size_t BucketFor(double value);

  /// Lower edge of bucket i (0 for bucket 0, else 2^(i-1)).
  static double BucketLowerEdge(size_t i);

  void Record(double value);

  uint64_t Count() const;
  double Sum() const;
  double Mean() const { return Count() > 0 ? Sum() / Count() : 0.0; }
  std::array<uint64_t, kBuckets> BucketCounts() const;

  /// Upper-edge estimate of the q-quantile (q in [0, 1]) from the
  /// merged bucket counts; 0 when empty.
  double Percentile(double q) const;

  void Reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };
  std::array<Shard, internal::kMetricStripes> shards_;
};

/// Process-wide name -> metric registry.
///
/// Call sites cache the returned reference in a function-local static,
/// so registration (which takes a mutex) happens once per site and the
/// steady-state path is the metric's own lock-free update:
///
///   if (obs::MetricsEnabled()) {
///     static obs::Counter& c =
///         obs::MetricsRegistry::Global().GetCounter("spmm.calls");
///     c.Increment();
///   }
///
/// Metrics are never destroyed (references stay valid for the process
/// lifetime); Reset() zeroes values in place.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Plain-text scrape, one metric per line, sorted by name:
  ///   counter spmm.calls 1234
  ///   gauge threadpool.threads 8
  ///   histogram train.epoch_ms count=10 sum=123.4 p50=... p99=...
  /// Every scrape first refreshes the `obs.trace.dropped_spans` gauge
  /// from TraceDroppedEvents(), so a truncated trace is visible.
  std::string ScrapeText() const;

  /// JSON scrape: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms export count/sum/mean/percentiles plus the non-empty
  /// buckets as {"lower_edge":count}.
  std::string ScrapeJson() const;

  /// Zeroes every registered metric (objects stay alive — cached
  /// references at call sites remain valid).
  void Reset();

 private:
  MetricsRegistry();

  /// Sets the gauges read from other subsystems at scrape time.
  void RefreshScrapeGauges() const;

  mutable std::mutex mutex_;  // guards the maps, never the fast path
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  Gauge* trace_dropped_spans_ = nullptr;  // owned by gauges_
};

}  // namespace lasagne::obs

#endif  // LASAGNE_OBS_METRICS_H_
