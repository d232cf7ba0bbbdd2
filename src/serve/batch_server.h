#ifndef LOS_SERVE_BATCH_SERVER_H_
#define LOS_SERVE_BATCH_SERVER_H_

// Cross-request micro-batching server (ROADMAP item 1).
//
// Concurrent clients submit single queries; per shard, a worker thread
// drains a bounded MPSC queue and executes ONE batched forward
// (LookupBatch / EstimateBatch / MayContainMulti) per flush, so the
// amortized cost per query approaches the batched path's instead of a full
// single-query forward per client. Flushes happen when:
//   - size:     `max_batch` requests are pending,
//   - deadline: the oldest pending request has waited `max_delay_us`,
//   - idle:     the queue is empty and no new request has arrived for
//               `min_delay_us` — everyone who was going to join this batch
//               already has, so waiting out the full deadline would only
//               add latency (interrupt-coalescing-style linger). This is
//               what keeps closed-loop clients from being deadline-bound:
//               with k clients in flight the batch can never reach
//               max_batch, and without the idle flush every batch of k
//               would wait the whole deadline.
//   - shutdown: the server is closing and must drain.
//
// Sharding (`ServeOptions::num_shards` > 1) runs one queue + worker per
// shard, routed round-robin, so flushes execute in parallel.
// Binding each shard's batch function is the typed services' job
// (serving.h); this template only routes.
//
// Observability (prefix `serve.<name>.`):
//   enqueued          counter  accepted submissions
//   rejected          counter  TrySubmit failures (queue full)
//   queries           counter  queries completed via flushes (== enqueued
//                              after a drain; asserted in serving_test)
//   batches           counter  flushes executed
//   flush_size        counter  flushes triggered by batch size
//   flush_deadline    counter  flushes triggered by the delay deadline
//   flush_idle        counter  flushes triggered by the idle linger
//   flush_shutdown    counter  flushes triggered by shutdown drain
//   batch_size        histogram flushed batch sizes
//   request_seconds   histogram enqueue-to-complete latency per query
//   queue_depth       gauge    last observed aggregate queue depth
//   shard<k>.queue_depth gauge per-shard depth (k = 0..num_shards-1) — the
//                              aggregate hides one hot shard behind idle
//                              ones; Healthz() reads the per-shard max
// Trace spans (category "serve"): `serve.enqueue` instants, `serve.flush`
// with a batch_size arg, and per-query `serve.request` spans covering
// enqueue-to-complete (emitted with externally measured times, like
// pool.queue_wait).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mpsc_queue.h"
#include "common/trace.h"
#include "sets/workload.h"

namespace los::serve {

/// Client<->worker wait channel, one per shard, shared (via shared_ptr) by
/// every in-flight request routed there. The flush publishes each result
/// with a release store on the request's phase flag and then issues a
/// SINGLE lock + notify_all for the whole batch — completion costs one
/// futex round per flush instead of one per query (std::promise::set_value
/// pays a lock + notify each, which at micro-batch sizes was a measurable
/// slice of per-query serving cost).
struct BatchWaiter {
  std::mutex mu;
  std::condition_variable cv;
};

template <typename Response>
struct BatchSharedState {
  /// 0 = pending, 1 = value ready, 2 = error ready. Release-stored after
  /// `value`/`error` is written; readers acquire-load before touching them.
  std::atomic<uint32_t> phase{0};
  Response value{};
  std::string error;
  std::shared_ptr<BatchWaiter> waiter;
};

/// Future returned by BatchServer::Submit. API-compatible with the
/// std::future subset the serving layer had exposed: get() and wait_for()
/// returning std::future_status; get() throws std::runtime_error if the
/// server shut down before the query ran.
template <typename Response>
class BatchFuture {
 public:
  BatchFuture() = default;
  explicit BatchFuture(std::shared_ptr<BatchSharedState<Response>> state)
      : state_(std::move(state)) {}

  Response get() {
    uint32_t phase = state_->phase.load(std::memory_order_acquire);
    if (phase == 0) {
      std::unique_lock<std::mutex> lock(state_->waiter->mu);
      state_->waiter->cv.wait(lock, [&] {
        return state_->phase.load(std::memory_order_acquire) != 0;
      });
      phase = state_->phase.load(std::memory_order_acquire);
    }
    if (phase == 2) throw std::runtime_error(state_->error);
    return state_->value;
  }

  template <typename Rep, typename Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& timeout) {
    if (state_->phase.load(std::memory_order_acquire) != 0) {
      return std::future_status::ready;
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock<std::mutex> lock(state_->waiter->mu);
    const bool ready = state_->waiter->cv.wait_until(lock, deadline, [&] {
      return state_->phase.load(std::memory_order_acquire) != 0;
    });
    return ready ? std::future_status::ready : std::future_status::timeout;
  }

 private:
  std::shared_ptr<BatchSharedState<Response>> state_;
};

struct ServeOptions {
  size_t max_batch = 64;       ///< flush when this many requests pend
  uint32_t max_delay_us = 200; ///< oldest request never waits longer
  uint32_t min_delay_us = 20;  ///< idle-flush linger
  size_t queue_capacity = 4096;  ///< per-shard; full queue = backpressure
  size_t num_shards = 1;       ///< queues + workers, routed round-robin
};

/// \brief Generic micro-batching server over one batched callable per shard.
///
/// `Response` is the per-query result type (double / int64_t / bool); the
/// shard function maps a query batch to one Response per query, in order.
template <typename Response>
class BatchServer {
 public:
  using BatchFn =
      std::function<std::vector<Response>(const std::vector<sets::Query>&)>;

  /// One entry per shard; `name` becomes the metric prefix `serve.<name>.`.
  /// `registry` defaults to MetricsRegistry::Global().
  BatchServer(const std::string& name, std::vector<BatchFn> shard_fns,
              const ServeOptions& opts, MetricsRegistry* registry = nullptr)
      : name_(name),
        max_batch_(opts.max_batch > 0 ? opts.max_batch : 1),
        max_delay_ns_(static_cast<uint64_t>(opts.max_delay_us) * 1000),
        min_delay_ns_(static_cast<uint64_t>(opts.min_delay_us) * 1000) {
    if (registry == nullptr) registry = MetricsRegistry::Global();
    const std::string p = "serve." + name_ + ".";
    enqueued_ = registry->GetCounter(p + "enqueued");
    rejected_ = registry->GetCounter(p + "rejected");
    queries_ = registry->GetCounter(p + "queries");
    batches_ = registry->GetCounter(p + "batches");
    flush_size_ = registry->GetCounter(p + "flush_size");
    flush_deadline_ = registry->GetCounter(p + "flush_deadline");
    flush_idle_ = registry->GetCounter(p + "flush_idle");
    flush_shutdown_ = registry->GetCounter(p + "flush_shutdown");
    batch_size_ =
        registry->GetHistogram(p + "batch_size", ServeBatchHistogramOptions());
    request_seconds_ =
        registry->GetHistogram(p + "request_seconds",
                               LatencyHistogramOptions());
    queue_depth_ = registry->GetGauge(p + "queue_depth");

    shards_.reserve(shard_fns.size());
    for (auto& fn : shard_fns) {
      shards_.push_back(std::make_unique<Shard>(std::move(fn),
                                                opts.queue_capacity));
    }
    shard_queue_depth_.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      shard_queue_depth_.push_back(registry->GetGauge(
          p + "shard" + std::to_string(i) + ".queue_depth"));
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->worker =
          std::thread([this, i] { WorkerLoop(shards_[i].get(), i); });
    }
  }

  ~BatchServer() { Shutdown(); }

  BatchServer(const BatchServer&) = delete;
  BatchServer& operator=(const BatchServer&) = delete;

  size_t num_shards() const { return shards_.size(); }

  /// Submits one query; blocks while the routed shard's queue is full
  /// (backpressure). The future resolves when the query's flush completes,
  /// or throws std::runtime_error if the server shuts down first.
  BatchFuture<Response> Submit(sets::Query q) {
    Request r;
    r.query = std::move(q);
    r.enqueue_ns = Tracer::NowNs();
    Shard* shard = Route();
    auto state = std::make_shared<BatchSharedState<Response>>();
    state->waiter = shard->waiter;
    r.state = state;
    BatchFuture<Response> fut(state);
    if (Tracer::Global()->enabled()) {
      Tracer::Global()->Emit("serve", "serve.enqueue", r.enqueue_ns, 0);
    }
    if (!shard->queue.Push(std::move(r))) {
      // Push fails only when closed, without consuming the request. The
      // future hasn't been returned yet, so nobody can be waiting — a plain
      // error store suffices.
      CompleteError(state.get(), "serve." + name_ + ": server shut down");
      return fut;
    }
    enqueued_->Increment();
    return fut;
  }

  /// Non-blocking submit: false (and no side effects beyond the `rejected`
  /// counter) when the routed shard's queue is full or the server is closed.
  bool TrySubmit(sets::Query q, BatchFuture<Response>* out) {
    Request r;
    r.query = std::move(q);
    r.enqueue_ns = Tracer::NowNs();
    Shard* shard = Route();
    auto state = std::make_shared<BatchSharedState<Response>>();
    state->waiter = shard->waiter;
    r.state = state;
    BatchFuture<Response> fut(std::move(state));
    if (!shard->queue.TryPush(std::move(r))) {
      rejected_->Increment();
      return false;
    }
    if (Tracer::Global()->enabled()) {
      Tracer::Global()->Emit("serve", "serve.enqueue", r.enqueue_ns, 0);
    }
    enqueued_->Increment();
    *out = std::move(fut);
    return true;
  }

  /// Closes all queues, drains pending requests (they complete normally via
  /// shutdown flushes), joins workers. Idempotent; called by the destructor.
  void Shutdown() {
    if (stopped_.exchange(true)) return;
    for (auto& s : shards_) s->queue.Close();
    for (auto& s : shards_) {
      if (s->worker.joinable()) s->worker.join();
    }
    // Anything still buffered after the workers exited (there should be
    // nothing, but never leave a client blocked forever) fails cleanly.
    for (auto& s : shards_) {
      Request r;
      bool drained_any = false;
      while (s->queue.TryPop(&r)) {
        CompleteError(r.state.get(),
                      "serve." + name_ + ": server shut down");
        drained_any = true;
      }
      if (drained_any) NotifyWaiters(s->waiter.get());
    }
  }

 private:
  struct Request {
    sets::Query query;
    std::shared_ptr<BatchSharedState<Response>> state;
    uint64_t enqueue_ns = 0;
  };

  struct Shard {
    Shard(BatchFn fn, size_t queue_capacity)
        : fn(std::move(fn)),
          queue(queue_capacity),
          waiter(std::make_shared<BatchWaiter>()) {}
    BatchFn fn;
    MpscQueue<Request> queue;
    std::shared_ptr<BatchWaiter> waiter;
    std::thread worker;
    std::vector<sets::Query> scratch;  ///< worker-owned flush batch
  };

  static void CompleteValue(BatchSharedState<Response>* s, Response v) {
    s->value = std::move(v);
    s->phase.store(1, std::memory_order_release);
  }

  static void CompleteError(BatchSharedState<Response>* s, std::string msg) {
    s->error = std::move(msg);
    s->phase.store(2, std::memory_order_release);
  }

  /// One futex round for the whole batch. The empty lock_guard orders the
  /// phase stores against a sleeper's predicate check: a client either sees
  /// its phase set before it sleeps, or sleeps before we acquire the mutex
  /// and is caught by the notify.
  static void NotifyWaiters(BatchWaiter* w) {
    { std::lock_guard<std::mutex> lock(w->mu); }
    w->cv.notify_all();
  }

  enum class FlushReason { kSize, kDeadline, kIdle, kShutdown };

  /// Waits at most this far in the future are spin-polled rather than slept
  /// (condvar timed waits undershoot by the kernel's ~50us timer slack).
  static constexpr uint64_t kSpinWaitNs = 100000;  // 100us

  Shard* Route() {
    if (shards_.size() == 1) return shards_[0].get();
    const size_t i =
        next_shard_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
    return shards_[i].get();
  }

  void WorkerLoop(Shard* shard, size_t shard_index) {
    Tracer::SetCurrentThreadName("serve." + name_ + ".shard" +
                                 std::to_string(shard_index));
    std::vector<Request> pending;
    pending.reserve(max_batch_);
    // Newest arrival the worker has seen — the idle linger is measured
    // from here, so a fresh pop keeps extending the window.
    uint64_t last_arrival_ns = 0;
    for (;;) {
      Request r;
      while (pending.size() < max_batch_ && shard->queue.TryPop(&r)) {
        last_arrival_ns = std::max(last_arrival_ns, r.enqueue_ns);
        pending.push_back(std::move(r));
      }
      if (pending.size() >= max_batch_) {
        Flush(shard, &pending, FlushReason::kSize);
        continue;
      }
      // Past here the drain ended on an empty queue, so the idle linger
      // below is measured against a queue known to have just been empty.
      if (pending.empty()) {
        if (shard->queue.closed()) {
          // Drained and closed: PopUntil returns false only when nothing
          // is left to serve.
          if (!shard->queue.TryPop(&r)) break;
          pending.push_back(std::move(r));
          continue;
        }
        // Idle: bounded wait so a lost wakeup or a late Close is noticed
        // within a millisecond. The pop must refresh last_arrival_ns like
        // every other pop site: this request opens a new batch window, and
        // a stale value would make the linger below fire immediately and
        // flush it alone.
        if (shard->queue.PopUntil(&r, std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(1))) {
          last_arrival_ns = std::max(last_arrival_ns, r.enqueue_ns);
          pending.push_back(std::move(r));
        }
        continue;
      }
      if (shard->queue.closed()) {
        Flush(shard, &pending, FlushReason::kShutdown);
        continue;
      }
      const uint64_t deadline_ns = pending.front().enqueue_ns + max_delay_ns_;
      const uint64_t linger_ns = last_arrival_ns + min_delay_ns_;
      const uint64_t now_ns = Tracer::NowNs();
      if (now_ns >= deadline_ns) {
        Flush(shard, &pending, FlushReason::kDeadline);
        continue;
      }
      if (now_ns >= linger_ns) {
        // Queue empty and quiet for the linger period: nobody else is
        // joining this batch, so run it now instead of waiting out the
        // deadline.
        Flush(shard, &pending, FlushReason::kIdle);
        continue;
      }
      // Wait for more requests, but never past the oldest request's
      // deadline, the idle linger, or 1ms (robustness bound). While a batch
      // is open and the wake is microseconds away, spin-poll instead of a
      // timed condvar wait: timed waits carry scheduler timer-slack
      // (~50us), which would dwarf the linger and serialize every
      // closed-loop cycle on it. The spin is bounded by the wake time, and
      // an idle worker (pending empty, handled above) still blocks.
      const uint64_t wake_ns = std::min(deadline_ns, linger_ns);
      if (wake_ns - now_ns <= kSpinWaitNs) {
        bool got = false;
        while (Tracer::NowNs() < wake_ns) {
          if (shard->queue.TryPop(&r)) {
            got = true;
            break;
          }
          std::this_thread::yield();
        }
        if (got) {
          last_arrival_ns = std::max(last_arrival_ns, r.enqueue_ns);
          pending.push_back(std::move(r));
        }
        continue;
      }
      const uint64_t wait_ns =
          std::min<uint64_t>(wake_ns - now_ns, 1000000);
      if (shard->queue.PopUntil(&r,
                                std::chrono::steady_clock::now() +
                                    std::chrono::nanoseconds(wait_ns))) {
        last_arrival_ns = std::max(last_arrival_ns, r.enqueue_ns);
        pending.push_back(std::move(r));
      }
    }
  }

  void Flush(Shard* shard, std::vector<Request>* pending, FlushReason reason) {
    const size_t n = pending->size();
    TRACE_SPAN_VAR(span, "serve", "serve.flush");
    span.set_arg("batch_size", static_cast<double>(n));

    shard->scratch.clear();
    shard->scratch.reserve(n);
    for (Request& r : *pending) shard->scratch.push_back(std::move(r.query));

    std::vector<Response> results = shard->fn(shard->scratch);
    const uint64_t end_ns = Tracer::NowNs();

    // All instrumentation lands BEFORE any result is published: a client
    // that wakes from future.get() and snapshots the registry must already
    // see this flush, or the exactly-once identity (queries == completed
    // submissions) would be momentarily violated.
    //
    // Per-query and per-batch counts are both recorded here and only here:
    // the sum over flushes of batch sizes equals accepted submissions, so
    // `serve.<name>.queries == serve.<name>.enqueued` after a drain.
    const bool tracing = Tracer::Global()->enabled();
    const bool timing = request_seconds_->enabled();
    for (size_t i = 0; i < n; ++i) {
      const Request& r = (*pending)[i];
      if (timing) {
        request_seconds_->Observe(
            static_cast<double>(end_ns - r.enqueue_ns) * 1e-9);
      }
      if (tracing) {
        Tracer::Global()->Emit("serve", "serve.request", r.enqueue_ns,
                               end_ns - r.enqueue_ns);
      }
    }
    queries_->Increment(n);
    batches_->Increment();
    switch (reason) {
      case FlushReason::kSize: flush_size_->Increment(); break;
      case FlushReason::kDeadline: flush_deadline_->Increment(); break;
      case FlushReason::kIdle: flush_idle_->Increment(); break;
      case FlushReason::kShutdown: flush_shutdown_->Increment(); break;
    }
    batch_size_->Observe(static_cast<double>(n));
    size_t depth = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      const size_t d = shards_[s]->queue.SizeApprox();
      shard_queue_depth_[s]->Set(static_cast<double>(d));
      depth += d;
    }
    queue_depth_->Set(static_cast<double>(depth));

    for (size_t i = 0; i < n; ++i) {
      Request& r = (*pending)[i];
      if (i < results.size()) {
        CompleteValue(r.state.get(), std::move(results[i]));
      } else {
        CompleteError(
            r.state.get(),
            "serve." + name_ + ": batch function returned too few results");
      }
    }
    NotifyWaiters(shard->waiter.get());
    pending->clear();
  }

  const std::string name_;
  const size_t max_batch_;
  const uint64_t max_delay_ns_;
  const uint64_t min_delay_ns_;
  std::atomic<size_t> next_shard_{0};
  std::atomic<bool> stopped_{false};
  std::vector<std::unique_ptr<Shard>> shards_;

  Counter* enqueued_ = nullptr;
  Counter* rejected_ = nullptr;
  Counter* queries_ = nullptr;
  Counter* batches_ = nullptr;
  Counter* flush_size_ = nullptr;
  Counter* flush_deadline_ = nullptr;
  Counter* flush_idle_ = nullptr;
  Counter* flush_shutdown_ = nullptr;
  Histogram* batch_size_ = nullptr;
  Histogram* request_seconds_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  std::vector<Gauge*> shard_queue_depth_;  ///< one per shard, index-aligned
};

}  // namespace los::serve

#endif  // LOS_SERVE_BATCH_SERVER_H_
