#include "obs/metrics.h"

#include <cmath>
#include <sstream>

#include "obs/json.h"
#include "obs/trace.h"

namespace lasagne::obs {

namespace internal {
std::atomic<bool> g_metrics_enabled{false};
}  // namespace internal

void EnableMetrics() {
  internal::g_metrics_enabled.store(true, std::memory_order_relaxed);
}

void DisableMetrics() {
  internal::g_metrics_enabled.store(false, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::Reset() {
  for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

size_t Histogram::BucketFor(double value) {
  if (!(value >= 1.0)) return 0;  // also catches NaN and negatives
  int exponent = 0;
  std::frexp(value, &exponent);
  // value in [2^(exponent-1), 2^exponent)  ->  bucket `exponent`.
  if (exponent < 1) return 0;
  if (exponent > static_cast<int>(kBuckets) - 1) return kBuckets - 1;
  return static_cast<size_t>(exponent);
}

double Histogram::BucketLowerEdge(size_t i) {
  if (i == 0) return 0.0;
  return std::ldexp(1.0, static_cast<int>(i) - 1);
}

void Histogram::Record(double value) {
  Shard& shard = shards_[internal::ThreadSlot() % internal::kMetricStripes];
  shard.buckets[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  shard.count.fetch_add(1, std::memory_order_relaxed);
  shard.sum.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::Sum() const {
  double total = 0.0;
  for (const Shard& shard : shards_) {
    total += shard.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::array<uint64_t, Histogram::kBuckets> Histogram::BucketCounts() const {
  std::array<uint64_t, kBuckets> merged{};
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      merged[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return merged;
}

double Histogram::Percentile(double q) const {
  const std::array<uint64_t, kBuckets> merged = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : merged) total += c;
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(total);
  uint64_t running = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    running += merged[i];
    if (static_cast<double>(running) >= target && merged[i] > 0) {
      // Upper edge of the bucket (== lower edge of the next).
      return i + 1 < kBuckets ? BucketLowerEdge(i + 1)
                              : BucketLowerEdge(kBuckets - 1) * 2.0;
    }
  }
  return BucketLowerEdge(kBuckets - 1) * 2.0;
}

void Histogram::Reset() {
  for (Shard& shard : shards_) {
    for (auto& bucket : shard.buckets) {
      bucket.store(0, std::memory_order_relaxed);
    }
    shard.count.store(0, std::memory_order_relaxed);
    shard.sum.store(0.0, std::memory_order_relaxed);
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked intentionally: instrumentation sites hold references for the
  // process lifetime and may fire during static destruction.
  static MetricsRegistry& registry = *new MetricsRegistry();
  return registry;
}

MetricsRegistry::MetricsRegistry()
    : trace_dropped_spans_(&GetGauge("obs.trace.dropped_spans")) {}

void MetricsRegistry::RefreshScrapeGauges() const {
  // Called before taking mutex_: TraceDroppedEvents() locks the trace
  // registry, and the two locks are never held together.
  trace_dropped_spans_->Set(static_cast<double>(TraceDroppedEvents()));
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::ScrapeText() const {
  RefreshScrapeGauges();
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    os << "counter " << name << " " << counter->Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << "gauge " << name << " " << JsonNumber(gauge->Value()) << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    os << "histogram " << name << " count=" << hist->Count()
       << " sum=" << JsonNumber(hist->Sum())
       << " mean=" << JsonNumber(hist->Mean())
       << " p50=" << JsonNumber(hist->Percentile(0.5))
       << " p99=" << JsonNumber(hist->Percentile(0.99)) << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::ScrapeJson() const {
  RefreshScrapeGauges();
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name,
                 JsonValue::Number(static_cast<double>(counter->Value())));
  }
  root.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, JsonValue::Number(gauge->Value()));
  }
  root.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, hist] : histograms_) {
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue::Number(static_cast<double>(hist->Count())));
    h.Set("sum", JsonValue::Number(hist->Sum()));
    h.Set("mean", JsonValue::Number(hist->Mean()));
    h.Set("p50", JsonValue::Number(hist->Percentile(0.5)));
    h.Set("p99", JsonValue::Number(hist->Percentile(0.99)));
    JsonValue buckets = JsonValue::Object();
    const auto counts = hist->BucketCounts();
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (counts[i] == 0) continue;
      buckets.Set(JsonNumber(Histogram::BucketLowerEdge(i)),
                  JsonValue::Number(static_cast<double>(counts[i])));
    }
    h.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(h));
  }
  root.Set("histograms", std::move(histograms));
  return root.Dump();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

}  // namespace lasagne::obs
