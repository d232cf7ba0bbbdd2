#ifndef LOS_SERVE_SERVING_H_
#define LOS_SERVE_SERVING_H_

// Serving frontend over BatchServer for the learned structures: one class
// template, Service<Response, Monitor>, instantiated as CardinalityService,
// IndexService and BloomService. A service owns one BatchServer that
// queues, micro-batches and routes each flush to the structure's batched
// entry point (EstimateBatch / LookupBatch / MayContainMulti). With
// num_shards > 1 every shard's batch function wraps the same structure:
// model inference is const and lock-free (see deepsets/set_model.h), so
// shards run their forwards in parallel without copies of the model.
//
// Create takes either a frozen structure or its Updatable* wrapper
// (core/updatable.h). In the live case every shard's batch function pins
// the wrapper's current generation for the duration of one flush — a
// lock-free epoch pin — so background retrains swap new generations in
// without ever stalling the micro-batchers, and a flush that races a swap
// simply finishes on the generation it pinned.
//
// The structure is borrowed, not owned, and must outlive the service.
// Shutdown() (or destruction) drains in-flight requests before returning,
// so futures returned by Submit never dangle.

#include <atomic>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "monitor/monitor.h"
#include "serve/batch_server.h"

namespace los::serve {

// The per-structure facts Service<> needs, as one overload set: the batched
// call of each of the six structure kinds (RunBatch), how each monitor
// observes a flushed batch (Observe), and each service's metric prefix
// `serve.<name>.` (ServiceName). Frozen and live kinds of a structure share
// one service, monitor and name.

using Queries = std::vector<sets::Query>;

inline std::vector<double> RunBatch(core::LearnedCardinalityEstimator* s,
                                    const Queries& qs) {
  return s->EstimateBatch(qs);
}
inline std::vector<double> RunBatch(core::UpdatableCardinality* s,
                                    const Queries& qs) {
  return s->EstimateBatch(qs);
}
inline std::vector<int64_t> RunBatch(core::LearnedSetIndex* s,
                                     const Queries& qs) {
  return s->LookupBatch(qs);
}
inline std::vector<int64_t> RunBatch(core::UpdatableSetIndex* s,
                                     const Queries& qs) {
  return s->LookupBatch(qs);
}
inline std::vector<bool> RunBatch(core::LearnedBloomFilter* s,
                                  const Queries& qs) {
  return std::move(s->MayContainMulti(qs).verdicts);
}
inline std::vector<bool> RunBatch(core::UpdatableBloom* s, const Queries& qs) {
  return s->MayContainMulti(qs);
}

inline void Observe(monitor::CardinalityMonitor* m, const Queries& qs,
                    const std::vector<double>& estimates) {
  m->ObserveBatch(qs, estimates);
}
inline void Observe(monitor::IndexMonitor* m, const Queries& qs,
                    const std::vector<int64_t>&) {
  m->ObserveBatch(qs);
}
inline void Observe(monitor::BloomMonitor* m, const Queries& qs,
                    const std::vector<bool>&) {
  m->ObserveBatch(qs);
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

/// \brief Concurrent micro-batching frontend over one learned structure.
/// `Response` is the per-query answer; `Monitor` the quality monitor that
/// may be attached to the flushed batches.
template <typename Response, typename Monitor>
class Service {
 public:
  /// Serves `structure`: a frozen structure, or its Updatable* wrapper, whose
  /// current generation each flush pins. `registry` receives the
  /// `serve.<name>.*` instruments (the structure's own registry is the
  /// caller's to configure); nullptr means MetricsRegistry::Global().
  template <typename S>
  static Result<std::unique_ptr<Service>> Create(
      S* structure, const ServeOptions& opts,
      MetricsRegistry* registry = nullptr) {
    static_assert(std::is_same_v<decltype(RunBatch(structure, Queries{})),
                                 std::vector<Response>>,
                  "structure kind does not answer this service's Response");
    const char* name = ServiceName(static_cast<Monitor*>(nullptr));
    if (structure == nullptr) {
      return Status::InvalidArgument(std::string(name) +
                                     " service: structure is null");
    }
    auto service = std::unique_ptr<Service>(new Service());
    Service* svc = service.get();
    // Monitor forwarding happens after the flush executes but before results
    // are published (the BatchServer completes futures after fn returns) —
    // the shadow-sampled slow path rides the worker thread, never a client's.
    std::vector<typename BatchServer<Response>::BatchFn> fns(
        opts.num_shards > 0 ? opts.num_shards : 1,
        [structure, svc](const Queries& qs) {
          std::vector<Response> r = RunBatch(structure, qs);
          if (Monitor* m = svc->monitor()) Observe(m, qs, r);
          return r;
        });
    service->server_ = std::make_unique<BatchServer<Response>>(
        name, std::move(fns), opts, registry);
    return service;
  }

  /// Exists solely for perfbench's frozen-index call: `collection` is unused
  /// (the index already references its collection). Use the form above.
  static Result<std::unique_ptr<Service>> Create(
      core::LearnedSetIndex* index, const sets::SetCollection& /*collection*/,
      const ServeOptions& opts, MetricsRegistry* registry = nullptr) {
    return Create(index, opts, registry);
  }

  BatchFuture<Response> Submit(sets::Query q) {
    return server_->Submit(std::move(q));
  }
  bool TrySubmit(sets::Query q, BatchFuture<Response>* out) {
    return server_->TrySubmit(std::move(q), out);
  }
  void Shutdown() { server_->Shutdown(); }
  BatchServer<Response>* server() { return server_.get(); }

  /// Attaches a quality monitor: after each flush executes, the batch's
  /// queries (and, for cardinality, its results) are forwarded to the
  /// monitor, which shadow-samples 1-in-N of them through the lookup/probe
  /// function bound at wiring time. nullptr detaches. The monitor must
  /// outlive the service or be detached first; an unattached monitor costs
  /// the flush one pointer load.
  void AttachMonitor(Monitor* m) {
    monitor_.store(m, std::memory_order_release);
  }
  Monitor* monitor() const { return monitor_.load(std::memory_order_acquire); }

 private:
  Service() = default;
  std::atomic<Monitor*> monitor_{nullptr};
  std::unique_ptr<BatchServer<Response>> server_;
};

using CardinalityService = Service<double, monitor::CardinalityMonitor>;
using IndexService = Service<int64_t, monitor::IndexMonitor>;
using BloomService = Service<bool, monitor::BloomMonitor>;

}  // namespace los::serve

#endif  // LOS_SERVE_SERVING_H_
