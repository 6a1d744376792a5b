#include "infer/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "autograd/ops.h"
#include "common/buffer_pool.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lasagne::infer {

namespace internal {

/// Completion slot shared between a ServeFuture and the worker (or
/// admission path) that resolves it. Resolved exactly once.
struct ServeFutureState {
  std::mutex mutex;
  std::condition_variable cv;
  bool ready = false;
  ServeResult result;
};

}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void Resolve(const std::shared_ptr<internal::ServeFutureState>& state,
             ServeResult result) {
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    LASAGNE_CHECK_MSG(!state->ready,
                      "serve request resolved twice: " << result.status.ToString());
    state->result = std::move(result);
    state->ready = true;
  }
  state->cv.notify_all();
}

void CountDeadlineMiss() {
  if (obs::MetricsEnabled()) {
    static obs::Counter& missed =
        obs::MetricsRegistry::Global().GetCounter("serve.deadline_missed");
    missed.Increment();
  }
}

}  // namespace

bool ServeFuture::ready() const {
  LASAGNE_CHECK_MSG(valid(), "ready() on an invalid ServeFuture");
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->ready;
}

const ServeResult& ServeFuture::Wait() const {
  LASAGNE_CHECK_MSG(valid(), "Wait() on an invalid ServeFuture");
  std::unique_lock<std::mutex> lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->ready; });
  return state_->result;
}

bool ServeFuture::WaitFor(double timeout_ms) const {
  LASAGNE_CHECK_MSG(valid(), "WaitFor() on an invalid ServeFuture");
  std::unique_lock<std::mutex> lock(state_->mutex);
  return state_->cv.wait_for(lock,
                             std::chrono::duration<double, std::milli>(
                                 std::max(timeout_ms, 0.0)),
                             [&] { return state_->ready; });
}

InferenceServer::InferenceServer(ModelFactory factory, ServerOptions options)
    : options_(options),
      queue_(options.queue_capacity) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (options_.max_batch_requests == 0) options_.max_batch_requests = 1;
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->model = factory(i);
    LASAGNE_CHECK_MSG(worker->model != nullptr,
                      "ModelFactory returned null for worker " << i);
    worker->rng = Rng(options_.seed + i);
    workers_.push_back(std::move(worker));
  }
  if (options_.autostart) Start();
}

InferenceServer::InferenceServer(const std::string& model_name,
                                 const Dataset& data,
                                 const ModelConfig& config,
                                 ServerOptions options)
    : InferenceServer(
          [&data, model_name, config](size_t) {
            return MakeModel(model_name, data, config);
          },
          options) {}

InferenceServer::~InferenceServer() { Shutdown(DrainMode::kDrain); }

void InferenceServer::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) return;
  started_ = true;
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
}

void InferenceServer::Shutdown(DrainMode mode) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    if (mode == DrainMode::kCancelPending) {
      cancel_pending_.store(true, std::memory_order_relaxed);
    }
  }
  // No new admissions; queued items stay poppable so workers drain (or
  // cancel) the backlog deterministically before exiting.
  queue_.Close();
  Start();  // a never-started server still resolves its backlog
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  UpdateQueueDepthGauge();
}

double InferenceServer::RetryAfterHintMs() const {
  const double batch_ms =
      std::max(ewma_batch_ms_.load(std::memory_order_relaxed), 0.1);
  const double backlog_batches =
      static_cast<double>(queue_.size()) /
          static_cast<double>(options_.max_batch_requests) +
      1.0;
  return batch_ms * backlog_batches /
         static_cast<double>(workers_.size());
}

void InferenceServer::UpdateQueueDepthGauge() const {
  if (obs::MetricsEnabled()) {
    static obs::Gauge& depth =
        obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
    depth.Set(static_cast<double>(queue_.size()));
  }
}

ServeFuture InferenceServer::Submit(std::vector<uint32_t> query_nodes,
                                    RequestOptions request) {
  LASAGNE_TRACE_SCOPE("serve.enqueue");
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    static obs::Counter& submitted =
        obs::MetricsRegistry::Global().GetCounter("serve.submitted");
    submitted.Increment();
  }

  auto state = std::make_shared<internal::ServeFutureState>();
  ServeFuture future(state);

  // Validate at admission, on the producer thread: a worker never sees
  // a malformed request, so a coalesced batch can't be poisoned by one.
  const size_t num_nodes = workers_.front()->model->data().num_nodes();
  Status invalid;
  if (query_nodes.empty()) {
    invalid = InvalidArgumentError("empty query batch");
  } else {
    for (uint32_t id : query_nodes) {
      if (id >= num_nodes) {
        invalid = InvalidArgumentError(
            "query node " + std::to_string(id) + " out of range [0, " +
            std::to_string(num_nodes) + ")");
        break;
      }
    }
  }
  if (!invalid.ok()) {
    rejected_invalid_.fetch_add(1, std::memory_order_relaxed);
    ServeResult result;
    result.status = invalid;
    Resolve(state, std::move(result));
    return future;
  }

  Request req;
  req.state = state;
  req.nodes = std::move(query_nodes);
  req.submit_time = Clock::now();
  const double deadline_ms = request.deadline_ms > 0.0
                                 ? request.deadline_ms
                                 : options_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    req.has_deadline = true;
    req.deadline =
        req.submit_time +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
  } else {
    req.deadline = Clock::time_point::max();
  }

  switch (queue_.TryPush(std::move(req))) {
    case BoundedMpmcQueue<Request>::PushResult::kOk: {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      UpdateQueueDepthGauge();
      return future;
    }
    case BoundedMpmcQueue<Request>::PushResult::kFull: {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled()) {
        static obs::Counter& rejected =
            obs::MetricsRegistry::Global().GetCounter("serve.rejected");
        rejected.Increment();
      }
      ServeResult result;
      result.retry_after_ms = RetryAfterHintMs();
      result.status = ResourceExhaustedError(
          "serving queue full (" + std::to_string(queue_.capacity()) +
          " requests); retry after ~" +
          std::to_string(result.retry_after_ms) + " ms");
      Resolve(state, std::move(result));
      return future;
    }
    case BoundedMpmcQueue<Request>::PushResult::kClosed:
    default: {
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      if (obs::MetricsEnabled()) {
        static obs::Counter& rejected =
            obs::MetricsRegistry::Global().GetCounter("serve.rejected");
        rejected.Increment();
      }
      ServeResult result;
      result.status = UnavailableError("server is shutting down");
      Resolve(state, std::move(result));
      return future;
    }
  }
}

void InferenceServer::WorkerLoop(size_t worker_index) {
  // Worker-level concurrency only: each forward runs its inner kernels
  // inline and serial (same contract as concurrent experiment trials),
  // so N workers scale across cores without fighting over the shared
  // pool, and per-worker arithmetic is bitwise-identical to a
  // single-threaded run.
  ParallelRegionGuard guard;
  Request first;
  while (queue_.Pop(&first) == BoundedMpmcQueue<Request>::PopResult::kItem) {
    UpdateQueueDepthGauge();
    LASAGNE_TRACE_SCOPE("serve.dequeue");
    std::vector<Request> group;
    group.push_back(std::move(first));
    // Cross-request batching: sweep the backlog, then keep the window
    // open for late arrivals. Skipped when cancelling — each request
    // should resolve individually, promptly.
    if (options_.max_batch_requests > 1 &&
        !cancel_pending_.load(std::memory_order_relaxed)) {
      Request extra;
      while (group.size() < options_.max_batch_requests &&
             queue_.TryPop(&extra)) {
        group.push_back(std::move(extra));
      }
      if (options_.batch_window_ms > 0.0) {
        const auto window_end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   options_.batch_window_ms));
        while (group.size() < options_.max_batch_requests) {
          const auto remaining = window_end - Clock::now();
          if (remaining <= Clock::duration::zero()) break;
          const auto pop = queue_.PopFor(
              &extra,
              std::chrono::duration_cast<std::chrono::nanoseconds>(remaining));
          if (pop != BoundedMpmcQueue<Request>::PopResult::kItem) break;
          group.push_back(std::move(extra));
        }
      }
      UpdateQueueDepthGauge();
    }
    ServeBatchOnWorker(worker_index, group);
  }
}

void InferenceServer::ServeBatchOnWorker(size_t worker_index,
                                         std::vector<Request>& group) {
  Worker& w = *workers_[worker_index];
  const auto dequeue_time = Clock::now();

  // Triage: resolve cancelled / already-expired requests without a
  // forward pass; only live ones ride the batch.
  std::vector<Request> live;
  live.reserve(group.size());
  uint64_t cancelled_count = 0;
  uint64_t expired_count = 0;
  double triaged_queue_ms = 0.0;
  const bool cancel = cancel_pending_.load(std::memory_order_relaxed);
  for (Request& req : group) {
    const double queue_ms = MsBetween(req.submit_time, dequeue_time);
    triaged_queue_ms += queue_ms;
    if (cancel) {
      ServeResult result;
      result.status =
          CancelledError("request cancelled by shutdown before serving");
      result.queue_ms = queue_ms;
      result.total_ms = queue_ms;
      Resolve(req.state, std::move(result));
      ++cancelled_count;
      continue;
    }
    if (req.has_deadline && dequeue_time > req.deadline) {
      ServeResult result;
      result.status = DeadlineExceededError(
          "deadline expired after " + std::to_string(queue_ms) +
          " ms in queue; request rejected before the forward pass");
      result.queue_ms = queue_ms;
      result.total_ms = queue_ms;
      Resolve(req.state, std::move(result));
      ++expired_count;
      CountDeadlineMiss();
      continue;
    }
    live.push_back(std::move(req));
  }

  // Injected serving faults (docs/SERVING.md): a stall delays this
  // batch only — the queue stays open and sibling workers keep
  // serving; a failure poisons worker `worker_index`, which must still
  // resolve every affected request with a terminal error.
  if (!live.empty()) {
    double stall_ms = 0.0;
    if (FaultInjector::Global().ConsumeServeStall(&stall_ms)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(stall_ms));
    }
  }
  const bool injected_failure =
      !live.empty() && FaultInjector::Global().ConsumeServeFailure(
                           static_cast<int>(worker_index));

  Tensor gathered;
  double compute_ms = 0.0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  if (!live.empty() && !injected_failure) {
    LASAGNE_TRACE_SCOPE("serve.batch");
    // This worker's own pool traffic only: the kernels run inline on
    // this thread (ParallelRegionGuard), so thread-local deltas see
    // every allocation of this batch and nothing from sibling workers.
    // ThreadStats are monotonic across ResetStats (see buffer_pool.h),
    // so the delta below counts exactly this batch.
    const BufferPool::ThreadStats pool_before = BufferPool::GetThreadStats();
    const auto compute_start = Clock::now();
    std::vector<size_t> rows;
    size_t total_nodes = 0;
    for (const Request& req : live) total_nodes += req.nodes.size();
    rows.reserve(total_nodes);
    for (const Request& req : live) {
      for (uint32_t id : req.nodes) rows.push_back(id);
    }
    nn::ForwardContext ctx{/*training=*/false, &w.rng};
    Tensor logits = w.model->Predict(ctx);
    gathered = logits.GatherRows(rows);
    if (options_.softmax_outputs) gathered = ag::SoftmaxRows(gathered);
    compute_ms = MsBetween(compute_start, Clock::now());
    const BufferPool::ThreadStats pool_after = BufferPool::GetThreadStats();
    pool_hits = pool_after.hits - pool_before.hits;
    pool_misses = pool_after.misses - pool_before.misses;
    const double prev = ewma_batch_ms_.load(std::memory_order_relaxed);
    ewma_batch_ms_.store(0.8 * prev + 0.2 * compute_ms,
                         std::memory_order_relaxed);
  }
  const auto done = Clock::now();

  // Stats + resolution under the worker's own lock: shared-nothing
  // across workers, consistent for Snapshot. The sleep and the forward
  // pass above run outside it.
  std::lock_guard<std::mutex> lock(w.mutex);
  w.cancelled += cancelled_count;
  w.expired_at_dequeue += expired_count;
  w.total_queue_ms += triaged_queue_ms;
  if (live.empty()) return;

  if (injected_failure) {
    for (Request& req : live) {
      ServeResult result;
      result.status = InternalError(
          "injected failure on worker " + std::to_string(worker_index));
      result.worker = static_cast<int>(worker_index);
      result.queue_ms = MsBetween(req.submit_time, dequeue_time);
      result.total_ms = MsBetween(req.submit_time, done);
      Resolve(req.state, std::move(result));
      ++w.failed;
    }
    return;
  }

  ++w.batches;
  w.coalesced_requests += live.size();
  w.serve.pool_hits += pool_hits;
  w.serve.pool_misses += pool_misses;

  size_t row_offset = 0;
  for (Request& req : live) {
    std::vector<size_t> indices(req.nodes.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = row_offset + i;
    row_offset += req.nodes.size();

    ServeResult result;
    result.logits = gathered.GatherRows(indices);
    result.has_logits = true;
    result.worker = static_cast<int>(worker_index);
    result.batch_requests = live.size();
    result.queue_ms = MsBetween(req.submit_time, dequeue_time);
    result.compute_ms = compute_ms;
    result.total_ms = MsBetween(req.submit_time, done);

    const bool late = req.has_deadline && done > req.deadline;
    if (late) {
      result.status = DeadlineExceededError(
          "served " +
          std::to_string(MsBetween(req.deadline, done)) +
          " ms past the deadline (late response delivered, flagged)");
      ++w.late_at_completion;
      CountDeadlineMiss();
    } else {
      ++w.served_ok;
    }
    w.serve.RecordLatencyAt(
        result.total_ms,
        std::chrono::duration<double, std::milli>(done.time_since_epoch())
            .count());
    w.serve.nodes_served += req.nodes.size();

    if (obs::MetricsEnabled()) {
      static obs::Counter& served =
          obs::MetricsRegistry::Global().GetCounter("serve.requests");
      static obs::Histogram& request_ms =
          obs::MetricsRegistry::Global().GetHistogram("serve.request_ms");
      static obs::Histogram& queue_ms =
          obs::MetricsRegistry::Global().GetHistogram("serve.queue_ms");
      served.Increment();
      request_ms.Record(result.total_ms);
      queue_ms.Record(result.queue_ms);
    }
    Resolve(req.state, std::move(result));
  }
  if (obs::MetricsEnabled()) {
    static obs::Counter& batches =
        obs::MetricsRegistry::Global().GetCounter("serve.batches");
    batches.Increment();
  }
}

ServerStats InferenceServer::Snapshot() const {
  ServerStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  stats.rejected_shutdown =
      rejected_shutdown_.load(std::memory_order_relaxed);
  stats.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    stats.served_ok += worker->served_ok;
    stats.expired_at_dequeue += worker->expired_at_dequeue;
    stats.late_at_completion += worker->late_at_completion;
    stats.cancelled += worker->cancelled;
    stats.failed += worker->failed;
    stats.batches += worker->batches;
    stats.coalesced_requests += worker->coalesced_requests;
    stats.total_queue_ms += worker->total_queue_ms;
    stats.serve.Merge(worker->serve);
  }
  return stats;
}

}  // namespace lasagne::infer
