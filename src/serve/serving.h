#ifndef LOS_SERVE_SERVING_H_
#define LOS_SERVE_SERVING_H_

// Serving frontend for the learned structures: one class template,
// Service<Response, Monitor>, instantiated as CardinalityService,
// IndexService and BloomService. Submit(q) answers on the caller's thread
// through the structure's own single-query call (Estimate / Lookup /
// MayContain). Model inference is const and lock-free (see
// deepsets/set_model.h), so concurrent callers run their forwards in
// parallel on the one structure. Nothing is queued or batched: at the
// paper's model sizes a queue hop costs more than the query itself
// (DESIGN.md "Serving layer").
//
// Create takes either a frozen structure or its Updatable* wrapper
// (core/updatable.h). A live wrapper's call pins its current generation for
// that one query, so background retrains swap new generations in without
// stalling a caller, and a query that races a swap finishes on the
// generation it pinned.
//
// The structure is borrowed, not owned, and must outlive every Submit call.
// A Submit that starts before Shutdown() may still run its query; one that
// starts after it does not touch the structure.
//
// Observability (prefix `serve.<name>.`):
//   queries          counter   answered submissions
//   batches          counter   structure calls (one per query)
//   request_seconds  histogram call-to-answer latency, monitor included,
//                              sampled 1 in 16 like the structures' own

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/metrics.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "monitor/monitor.h"
#include "sets/workload.h"

namespace los::serve {

/// Serving has no settings. The empty struct stays only because perfbench
/// passes one to Create.
struct ServeOptions {};

// The per-structure facts Service<> needs, as one overload set: the
// single-query call of each of the six structure kinds (RunOne), how each
// monitor observes one answered query (Observe), and each service's metric
// prefix `serve.<name>.` (ServiceName). Frozen and live kinds of a structure
// share one service, monitor and name.

inline double RunOne(core::LearnedCardinalityEstimator* s, sets::SetView q) {
  return s->Estimate(q);
}
inline double RunOne(core::UpdatableCardinality* s, sets::SetView q) {
  return s->Estimate(q);
}
inline int64_t RunOne(core::LearnedSetIndex* s, sets::SetView q) {
  return s->Lookup(q);
}
inline int64_t RunOne(core::UpdatableSetIndex* s, sets::SetView q) {
  return s->Lookup(q);
}
inline bool RunOne(core::LearnedBloomFilter* s, sets::SetView q) {
  return s->MayContain(q);
}
/// The pinned generation's filter, else its delta (BloomGeneration).
inline bool RunOne(core::UpdatableBloom* s, sets::SetView q) {
  return s->MayContain(q);
}

inline void Observe(monitor::CardinalityMonitor* m, sets::SetView q,
                    double estimate) {
  m->Observe(q, estimate);
}
inline void Observe(monitor::IndexMonitor* m, sets::SetView q, int64_t) {
  m->Observe(q);
}
inline void Observe(monitor::BloomMonitor* m, sets::SetView q, bool) {
  m->Observe(q);
}

constexpr const char* ServiceName(const monitor::CardinalityMonitor*) {
  return "cardinality";
}
constexpr const char* ServiceName(const monitor::IndexMonitor*) {
  return "index";
}
constexpr const char* ServiceName(const monitor::BloomMonitor*) {
  return "bloom";
}

/// The answer Submit returns, already computed. get() throws
/// std::runtime_error naming the service if it had shut down.
template <typename Response>
class Answer {
 public:
  explicit Answer(Response value) : value_(value) {}
  static Answer Refused(const char* service) {
    Answer a(Response{});
    a.refused_by_ = service;
    return a;
  }

  Response get() const {
    if (refused_by_ != nullptr) {
      throw std::runtime_error(std::string("serve.") + refused_by_ +
                               ": service shut down");
    }
    return value_;
  }

 private:
  Response value_;
  const char* refused_by_ = nullptr;
};

/// \brief Concurrent frontend over one learned structure. `Response` is the
/// per-query answer; `Monitor` the quality monitor that may observe it.
template <typename Response, typename Monitor>
class Service {
 public:
  /// Serves `structure`: a frozen structure, or its Updatable* wrapper, whose
  /// current generation each query pins. `registry` receives the
  /// `serve.<name>.*` instruments (the structure's own registry is the
  /// caller's to configure); nullptr means MetricsRegistry::Global().
  template <typename S>
  static Result<std::unique_ptr<Service>> Create(
      S* structure, const ServeOptions& /*unused*/ = {},
      MetricsRegistry* registry = nullptr) {
    static_assert(
        std::is_same_v<decltype(RunOne(structure, sets::SetView{})), Response>,
        "structure kind does not answer this service's Response");
    if (structure == nullptr) {
      return Status::InvalidArgument(std::string(kName) +
                                     " service: structure is null");
    }
    if (registry == nullptr) registry = MetricsRegistry::Global();
    auto service = std::unique_ptr<Service>(new Service());
    service->structure_ = structure;
    service->run_ = [](void* s, sets::SetView q) {
      return RunOne(static_cast<S*>(s), q);
    };
    const std::string p = std::string("serve.") + kName + ".";
    service->queries_ = registry->GetCounter(p + "queries");
    service->batches_ = registry->GetCounter(p + "batches");
    service->request_seconds_ = registry->GetHistogram(
        p + "request_seconds", SampledLatencyHistogramOptions());
    return service;
  }

  /// Exists solely for perfbench's frozen-index call: `collection` is unused
  /// (the index already references its collection). Use the form above.
  static Result<std::unique_ptr<Service>> Create(
      core::LearnedSetIndex* index, const sets::SetCollection& /*collection*/,
      const ServeOptions& opts, MetricsRegistry* registry = nullptr) {
    return Create(index, opts, registry);
  }

  /// Answers `q` on the calling thread, then lets the attached monitor (if
  /// any) observe it; after Shutdown(), refuses without running it.
  Answer<Response> Submit(const sets::Query& q) {
    if (closed_.load(std::memory_order_acquire)) {
      return Answer<Response>::Refused(kName);
    }
    ScopedLatency timer(request_seconds_);
    const Response r = run_(structure_, q.view());
    if (Monitor* m = monitor()) Observe(m, q.view(), r);
    queries_->Increment();
    batches_->Increment();
    return Answer<Response>(r);
  }

  /// Refuses every later Submit. Idempotent; nothing is pending to drain.
  void Shutdown() { closed_.store(true, std::memory_order_release); }

  /// Attaches a quality monitor: after each query is answered, the query
  /// (and, for cardinality, its estimate) is forwarded to the monitor, which
  /// shadow-samples 1-in-N of them on the caller's thread through the
  /// lookup/probe function bound at wiring time. nullptr detaches. The
  /// monitor must outlive the service or be detached first; an unattached
  /// monitor costs a query one pointer load.
  void AttachMonitor(Monitor* m) {
    monitor_.store(m, std::memory_order_release);
  }
  Monitor* monitor() const { return monitor_.load(std::memory_order_acquire); }

 private:
  static constexpr const char* kName =
      ServiceName(static_cast<Monitor*>(nullptr));

  Service() = default;

  void* structure_ = nullptr;
  Response (*run_)(void*, sets::SetView) = nullptr;
  std::atomic<bool> closed_{false};
  std::atomic<Monitor*> monitor_{nullptr};
  Counter* queries_ = nullptr;
  Counter* batches_ = nullptr;
  Histogram* request_seconds_ = nullptr;
};

using CardinalityService = Service<double, monitor::CardinalityMonitor>;
using IndexService = Service<int64_t, monitor::IndexMonitor>;
using BloomService = Service<bool, monitor::BloomMonitor>;

}  // namespace los::serve

#endif  // LOS_SERVE_SERVING_H_
