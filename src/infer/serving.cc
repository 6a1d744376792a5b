#include "infer/serving.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "autograd/ops.h"
#include "common/buffer_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lasagne::infer {

namespace {

double NowSteadyMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic evenly-strided subsample of `k` elements preserving
/// arrival order: element i of the result is source index i*n/k.
std::vector<double> Subsample(const std::vector<double>& source, size_t k) {
  if (k >= source.size()) return source;
  std::vector<double> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    out.push_back(source[i * source.size() / k]);
  }
  return out;
}

}  // namespace

void ServeStats::RecordLatency(double latency_ms) {
  RecordLatencyAt(latency_ms, NowSteadyMs());
}

void ServeStats::RecordLatencyAt(double latency_ms, double end_steady_ms) {
  if (requests == 0) {
    min_latency_ms = latency_ms;
    max_latency_ms = latency_ms;
  } else {
    min_latency_ms = std::min(min_latency_ms, latency_ms);
    max_latency_ms = std::max(max_latency_ms, latency_ms);
  }
  const uint64_t arrival = requests;  // 0-based arrival index
  ++requests;
  total_latency_ms += latency_ms;
  window_begin_ms = std::min(window_begin_ms, end_steady_ms - latency_ms);
  window_end_ms = std::max(window_end_ms, end_steady_ms);
  if (arrival % reservoir_stride == 0) {
    if (latency_reservoir.size() >= kLatencyReservoir) {
      // Decimate: keep every 2nd sample (arrival indices divisible by
      // the doubled stride) and coarsen the stride. Deterministic, no
      // RNG, and the kept samples stay evenly spread over the run.
      std::vector<double> kept;
      kept.reserve((latency_reservoir.size() + 1) / 2);
      for (size_t i = 0; i < latency_reservoir.size(); i += 2) {
        kept.push_back(latency_reservoir[i]);
      }
      latency_reservoir = std::move(kept);
      reservoir_stride *= 2;
      if (arrival % reservoir_stride != 0) {
        ++latency_buckets[obs::Histogram::BucketFor(latency_ms)];
        return;
      }
    }
    latency_reservoir.push_back(latency_ms);
  }
  ++latency_buckets[obs::Histogram::BucketFor(latency_ms)];
}

void ServeStats::Merge(const ServeStats& other) {
  const uint64_t self_requests = requests;
  if (other.requests > 0) {
    if (requests == 0) {
      min_latency_ms = other.min_latency_ms;
      max_latency_ms = other.max_latency_ms;
    } else {
      min_latency_ms = std::min(min_latency_ms, other.min_latency_ms);
      max_latency_ms = std::max(max_latency_ms, other.max_latency_ms);
    }
  }
  requests += other.requests;
  nodes_served += other.nodes_served;
  total_latency_ms += other.total_latency_ms;
  pool_hits += other.pool_hits;
  pool_misses += other.pool_misses;
  // Union of serving windows (infinity sentinels are identities).
  window_begin_ms = std::min(window_begin_ms, other.window_begin_ms);
  window_end_ms = std::max(window_end_ms, other.window_end_ms);
  // Reservoir merge: when the combined samples overflow the cap, each
  // side contributes in proportion to the requests it actually served
  // (deterministic even stride, arrival order preserved) — merging
  // first no longer means owning the whole reservoir.
  if (latency_reservoir.size() + other.latency_reservoir.size() <=
      kLatencyReservoir) {
    latency_reservoir.insert(latency_reservoir.end(),
                             other.latency_reservoir.begin(),
                             other.latency_reservoir.end());
  } else {
    const uint64_t total = self_requests + other.requests;
    size_t self_quota =
        total > 0 ? static_cast<size_t>(kLatencyReservoir * self_requests /
                                        total)
                  : kLatencyReservoir / 2;
    size_t other_quota = kLatencyReservoir - self_quota;
    // Redistribute quota a side cannot fill.
    if (self_quota > latency_reservoir.size()) {
      other_quota += self_quota - latency_reservoir.size();
      self_quota = latency_reservoir.size();
    }
    if (other_quota > other.latency_reservoir.size()) {
      self_quota = std::min(latency_reservoir.size(),
                            self_quota + other_quota -
                                other.latency_reservoir.size());
      other_quota = other.latency_reservoir.size();
    }
    latency_reservoir = Subsample(latency_reservoir, self_quota);
    const std::vector<double> merged_in =
        Subsample(other.latency_reservoir, other_quota);
    latency_reservoir.insert(latency_reservoir.end(), merged_in.begin(),
                             merged_in.end());
  }
  reservoir_stride = std::max(reservoir_stride, other.reservoir_stride);
  for (size_t i = 0; i < latency_buckets.size(); ++i) {
    latency_buckets[i] += other.latency_buckets[i];
  }
}

double ServeStats::MeanLatencyMs() const {
  return requests > 0 ? total_latency_ms / static_cast<double>(requests)
                      : 0.0;
}

double ServeStats::LatencyPercentileMs(double q) const {
  if (requests == 0) return 0.0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  if (!latency_reservoir.empty()) {
    // Exact while every sample is present; otherwise a rank estimate
    // over the decimated (still representative) reservoir, clamped to
    // the exact observed range.
    const bool exact = requests <= latency_reservoir.size();
    std::vector<double> sorted = latency_reservoir;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        std::ceil(clamped * static_cast<double>(sorted.size()));
    const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    const double value = sorted[std::min(index, sorted.size() - 1)];
    if (exact) return value;
    return std::min(std::max(value, min_latency_ms), max_latency_ms);
  }
  // Bucket estimate (upper edge of the target bucket), clamped to the
  // observed range so p0/p100 stay meaningful.
  const double target = clamped * static_cast<double>(requests);
  uint64_t running = 0;
  double estimate = max_latency_ms;
  for (size_t i = 0; i < latency_buckets.size(); ++i) {
    running += latency_buckets[i];
    if (static_cast<double>(running) >= target && latency_buckets[i] > 0) {
      estimate = i + 1 < obs::Histogram::kBuckets
                     ? obs::Histogram::BucketLowerEdge(i + 1)
                     : max_latency_ms;
      break;
    }
  }
  return std::min(std::max(estimate, min_latency_ms), max_latency_ms);
}

double ServeStats::Qps() const {
  if (requests == 0) return 0.0;
  const double span_ms = window_end_ms - window_begin_ms;
  if (span_ms > 0.0 && std::isfinite(span_ms)) {
    return static_cast<double>(requests) / (span_ms / 1000.0);
  }
  // Degenerate window: a single instantaneous request, or stats built
  // without timestamps. Summed latency is the best signal left.
  return total_latency_ms > 0.0
             ? static_cast<double>(requests) / (total_latency_ms / 1000.0)
             : 0.0;
}

InferenceSession::InferenceSession(Model& model, ServeOptions options)
    : model_(model), options_(options), rng_(options.seed) {}

void InferenceSession::ResetStats() { stats_ = ServeStats{}; }

StatusOr<Tensor> InferenceSession::ServeBatch(
    const std::vector<uint32_t>& query_nodes) {
  if (query_nodes.empty()) {
    return Status(StatusCode::kInvalidArgument, "empty query batch");
  }
  const size_t num_nodes = model_.data().num_nodes();
  std::vector<size_t> rows;
  rows.reserve(query_nodes.size());
  for (uint32_t id : query_nodes) {
    if (id >= num_nodes) {
      return Status(StatusCode::kInvalidArgument,
                    "query node " + std::to_string(id) +
                        " out of range [0, " + std::to_string(num_nodes) +
                        ")");
    }
    rows.push_back(id);
  }

  LASAGNE_TRACE_SCOPE("infer.request");
  // Per-thread counters: a concurrent worker's allocations can never
  // land in this request's before/after delta (the global-stats delta
  // used previously attributed every thread's traffic to whichever
  // requests happened to be in flight). The counters are monotonic
  // across BufferPool::ResetStats() — see the contract in
  // buffer_pool.h — so this delta stays exact regardless of who resets
  // the global stats mid-run.
  const BufferPool::ThreadStats pool_before = BufferPool::GetThreadStats();
  const auto start = std::chrono::steady_clock::now();

  nn::ForwardContext ctx{/*training=*/false, &rng_};
  Tensor logits = model_.Predict(ctx);
  Tensor out = logits.GatherRows(rows);
  if (options_.softmax_outputs) out = ag::SoftmaxRows(out);

  const auto end = std::chrono::steady_clock::now();
  const double latency_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  const BufferPool::ThreadStats pool_after = BufferPool::GetThreadStats();

  stats_.RecordLatencyAt(
      latency_ms,
      std::chrono::duration<double, std::milli>(end.time_since_epoch())
          .count());
  stats_.nodes_served += query_nodes.size();
  stats_.pool_hits += pool_after.hits - pool_before.hits;
  stats_.pool_misses += pool_after.misses - pool_before.misses;

  if (obs::MetricsEnabled()) {
    static obs::Counter& requests =
        obs::MetricsRegistry::Global().GetCounter("infer.requests");
    static obs::Counter& nodes =
        obs::MetricsRegistry::Global().GetCounter("infer.nodes_served");
    static obs::Histogram& latency =
        obs::MetricsRegistry::Global().GetHistogram("infer.request_ms");
    requests.Increment();
    nodes.Increment(query_nodes.size());
    latency.Record(latency_ms);
  }
  return out;
}

Tensor InferenceSession::ServeAll() {
  std::vector<uint32_t> all(model_.data().num_nodes());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  StatusOr<Tensor> result = ServeBatch(all);
  LASAGNE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result).value();
}

}  // namespace lasagne::infer
