#include "serve/serving.h"

#include <utility>

namespace los::serve {

namespace {

size_t NormalizedShards(const ServeOptions& opts) {
  return opts.num_shards > 0 ? opts.num_shards : 1;
}

}  // namespace

Result<std::unique_ptr<CardinalityService>> CardinalityService::Create(
    core::LearnedCardinalityEstimator* primary, const ServeOptions& opts,
    MetricsRegistry* registry) {
  if (primary == nullptr) {
    return Status::InvalidArgument("CardinalityService: primary is null");
  }
  auto service = std::unique_ptr<CardinalityService>(new CardinalityService());
  CardinalityService* svc = service.get();
  // Monitor forwarding happens after the flush executes but before results
  // are published (the BatchServer completes futures after fn returns) —
  // the shadow-sampled slow path rides the worker thread, never a client's.
  std::vector<BatchServer<double>::BatchFn> fns(
      NormalizedShards(opts),
      [primary, svc](const std::vector<sets::Query>& qs) {
        std::vector<double> r = primary->EstimateBatch(qs);
        if (auto* m = svc->monitor()) m->ObserveBatch(qs, r);
        return r;
      });
  service->server_ = std::make_unique<BatchServer<double>>(
      "cardinality", std::move(fns), opts, registry);
  return service;
}

Result<std::unique_ptr<CardinalityService>> CardinalityService::Create(
    core::UpdatableCardinality* live, const ServeOptions& opts,
    MetricsRegistry* registry) {
  if (live == nullptr) {
    return Status::InvalidArgument("CardinalityService: live is null");
  }
  auto service = std::unique_ptr<CardinalityService>(new CardinalityService());
  CardinalityService* svc = service.get();
  // Every shard pins the newest generation per flush (see the header
  // comment on live mode).
  std::vector<BatchServer<double>::BatchFn> fns(
      NormalizedShards(opts),
      [live, svc](const std::vector<sets::Query>& qs) {
        std::vector<double> r = live->EstimateBatch(qs);
        if (auto* m = svc->monitor()) m->ObserveBatch(qs, r);
        return r;
      });
  service->server_ = std::make_unique<BatchServer<double>>(
      "cardinality", std::move(fns), opts, registry);
  return service;
}

Result<std::unique_ptr<IndexService>> IndexService::Create(
    core::LearnedSetIndex* primary, const sets::SetCollection& /*collection*/,
    const ServeOptions& opts, MetricsRegistry* registry) {
  if (primary == nullptr) {
    return Status::InvalidArgument("IndexService: primary is null");
  }
  auto service = std::unique_ptr<IndexService>(new IndexService());
  IndexService* svc = service.get();
  std::vector<BatchServer<int64_t>::BatchFn> fns(
      NormalizedShards(opts),
      [primary, svc](const std::vector<sets::Query>& qs) {
        std::vector<int64_t> r = primary->LookupBatch(qs);
        if (auto* m = svc->monitor()) m->ObserveBatch(qs);
        return r;
      });
  service->server_ = std::make_unique<BatchServer<int64_t>>(
      "index", std::move(fns), opts, registry);
  return service;
}

Result<std::unique_ptr<IndexService>> IndexService::Create(
    core::UpdatableSetIndex* live, const ServeOptions& opts,
    MetricsRegistry* registry) {
  if (live == nullptr) {
    return Status::InvalidArgument("IndexService: live is null");
  }
  auto service = std::unique_ptr<IndexService>(new IndexService());
  IndexService* svc = service.get();
  std::vector<BatchServer<int64_t>::BatchFn> fns(
      NormalizedShards(opts),
      [live, svc](const std::vector<sets::Query>& qs) {
        std::vector<int64_t> r = live->LookupBatch(qs);
        if (auto* m = svc->monitor()) m->ObserveBatch(qs);
        return r;
      });
  service->server_ = std::make_unique<BatchServer<int64_t>>(
      "index", std::move(fns), opts, registry);
  return service;
}

Result<std::unique_ptr<BloomService>> BloomService::Create(
    core::LearnedBloomFilter* primary, const ServeOptions& opts,
    MetricsRegistry* registry) {
  if (primary == nullptr) {
    return Status::InvalidArgument("BloomService: primary is null");
  }
  auto service = std::unique_ptr<BloomService>(new BloomService());
  BloomService* svc = service.get();
  std::vector<BatchServer<bool>::BatchFn> fns(
      NormalizedShards(opts),
      [primary, svc](const std::vector<sets::Query>& qs) {
        std::vector<bool> r = std::move(primary->MayContainMulti(qs).verdicts);
        if (auto* m = svc->monitor()) m->ObserveBatch(qs);
        return r;
      });
  service->server_ = std::make_unique<BatchServer<bool>>(
      "bloom", std::move(fns), opts, registry);
  return service;
}

Result<std::unique_ptr<BloomService>> BloomService::Create(
    core::UpdatableBloom* live, const ServeOptions& opts,
    MetricsRegistry* registry) {
  if (live == nullptr) {
    return Status::InvalidArgument("BloomService: live is null");
  }
  auto service = std::unique_ptr<BloomService>(new BloomService());
  BloomService* svc = service.get();
  std::vector<BatchServer<bool>::BatchFn> fns(
      NormalizedShards(opts),
      [live, svc](const std::vector<sets::Query>& qs) {
        std::vector<bool> r = live->MayContainMulti(qs);
        if (auto* m = svc->monitor()) m->ObserveBatch(qs);
        return r;
      });
  service->server_ = std::make_unique<BatchServer<bool>>(
      "bloom", std::move(fns), opts, registry);
  return service;
}

}  // namespace los::serve
