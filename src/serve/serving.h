#ifndef LOS_SERVE_SERVING_H_
#define LOS_SERVE_SERVING_H_

// Typed serving frontends over BatchServer for the three learned
// structures. Each service owns one BatchServer that queues, micro-batches
// and routes to the structure's batched entry point (EstimateBatch /
// LookupBatch / MayContainMulti). With num_shards > 1 every shard's batch
// function wraps the same structure: model inference is const and
// lock-free (see deepsets/set_model.h), so shards run their forwards in
// parallel without copies of the model.
//
// The structure is borrowed, not owned, and must outlive the service.
// Shutdown() (or destruction) drains in-flight requests before returning,
// so futures returned by Submit never dangle.
//
// Live-update mode: each service also has a Create overload taking an
// Updatable* wrapper (core/updatable.h) instead of a frozen structure. In
// that mode every shard's batch function pins the wrapper's current
// generation for the duration of one flush — a lock-free epoch pin — so
// background retrains swap new generations in without ever stalling the
// micro-batchers, and a flush that races a swap simply finishes on the
// generation it pinned. Flushes on different shards read the pinned
// generation concurrently.

#include <atomic>
#include <memory>
#include <vector>

#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "monitor/monitor.h"
#include "serve/batch_server.h"

namespace los::serve {

/// \brief Concurrent cardinality-estimation frontend.
class CardinalityService {
 public:
  /// `registry` receives the `serve.cardinality.*` instruments (the
  /// structure's own registry is the caller's to configure); nullptr means
  /// MetricsRegistry::Global().
  static Result<std::unique_ptr<CardinalityService>> Create(
      core::LearnedCardinalityEstimator* primary, const ServeOptions& opts,
      MetricsRegistry* registry = nullptr);

  /// Live-update mode: serves from `live`'s current generation, picking up
  /// background retrains at every flush. `live` must outlive the service.
  static Result<std::unique_ptr<CardinalityService>> Create(
      core::UpdatableCardinality* live, const ServeOptions& opts,
      MetricsRegistry* registry = nullptr);

  BatchFuture<double> Submit(sets::Query q) {
    return server_->Submit(std::move(q));
  }
  bool TrySubmit(sets::Query q, BatchFuture<double>* out) {
    return server_->TrySubmit(std::move(q), out);
  }
  void Shutdown() { server_->Shutdown(); }
  BatchServer<double>* server() { return server_.get(); }

  /// Attaches a quality monitor: after each flush executes, the batch's
  /// queries and results are forwarded to the monitor (which shadow-samples
  /// 1-in-N of them). nullptr detaches. The monitor must outlive the
  /// service or be detached first; an unattached monitor costs the flush
  /// one relaxed pointer load.
  void AttachMonitor(monitor::CardinalityMonitor* m) {
    monitor_.store(m, std::memory_order_release);
  }
  monitor::CardinalityMonitor* monitor() const {
    return monitor_.load(std::memory_order_acquire);
  }

 private:
  CardinalityService() = default;
  std::atomic<monitor::CardinalityMonitor*> monitor_{nullptr};
  std::unique_ptr<BatchServer<double>> server_;
};

/// \brief Concurrent first-superset-lookup frontend. `collection` is the
/// collection the index was built over; the index already references it.
class IndexService {
 public:
  static Result<std::unique_ptr<IndexService>> Create(
      core::LearnedSetIndex* primary, const sets::SetCollection& collection,
      const ServeOptions& opts, MetricsRegistry* registry = nullptr);

  /// Live-update mode: each generation bundles its own collection snapshot,
  /// so no external collection is passed. `live` must outlive the service.
  static Result<std::unique_ptr<IndexService>> Create(
      core::UpdatableSetIndex* live, const ServeOptions& opts,
      MetricsRegistry* registry = nullptr);

  BatchFuture<int64_t> Submit(sets::Query q) {
    return server_->Submit(std::move(q));
  }
  bool TrySubmit(sets::Query q, BatchFuture<int64_t>* out) {
    return server_->TrySubmit(std::move(q), out);
  }
  void Shutdown() { server_->Shutdown(); }
  BatchServer<int64_t>* server() { return server_.get(); }

  /// See CardinalityService::AttachMonitor. The monitor re-executes its
  /// sampled queries through the LookupFn bound at wiring time (typically a
  /// metric-silent ProbeLookup on this service's primary).
  void AttachMonitor(monitor::IndexMonitor* m) {
    monitor_.store(m, std::memory_order_release);
  }
  monitor::IndexMonitor* monitor() const {
    return monitor_.load(std::memory_order_acquire);
  }

 private:
  IndexService() = default;
  std::atomic<monitor::IndexMonitor*> monitor_{nullptr};
  std::unique_ptr<BatchServer<int64_t>> server_;
};

/// \brief Concurrent set-membership frontend.
class BloomService {
 public:
  static Result<std::unique_ptr<BloomService>> Create(
      core::LearnedBloomFilter* primary, const ServeOptions& opts,
      MetricsRegistry* registry = nullptr);

  /// Live-update mode: membership reflects inserts immediately (delta
  /// filter) and retrains at every flush. `live` must outlive the service.
  static Result<std::unique_ptr<BloomService>> Create(
      core::UpdatableBloom* live, const ServeOptions& opts,
      MetricsRegistry* registry = nullptr);

  BatchFuture<bool> Submit(sets::Query q) {
    return server_->Submit(std::move(q));
  }
  bool TrySubmit(sets::Query q, BatchFuture<bool>* out) {
    return server_->TrySubmit(std::move(q), out);
  }
  void Shutdown() { server_->Shutdown(); }
  BatchServer<bool>* server() { return server_.get(); }

  /// See CardinalityService::AttachMonitor. Sampled observations replay
  /// known-negative probes through the ProbeFn bound at wiring time.
  void AttachMonitor(monitor::BloomMonitor* m) {
    monitor_.store(m, std::memory_order_release);
  }
  monitor::BloomMonitor* monitor() const {
    return monitor_.load(std::memory_order_acquire);
  }

 private:
  BloomService() = default;
  std::atomic<monitor::BloomMonitor*> monitor_{nullptr};
  std::unique_ptr<BatchServer<bool>> server_;
};

}  // namespace los::serve

#endif  // LOS_SERVE_SERVING_H_
