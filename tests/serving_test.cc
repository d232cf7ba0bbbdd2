// Serving-layer tests over the structure kinds Service<> fronts (frozen,
// Save→Load round-tripped, and live): concurrent clients served answers
// equal to the original structure's direct batched path, an attached
// monitor seeing every query, each query counted exactly once by the
// service and by the structure, and no structure call after Shutdown().

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/serialize.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "monitor/monitor.h"
#include "nn/losses.h"
#include "serve/serving.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::serve {
namespace {

// ---------- End-to-end services over trained structures ----------

sets::SetCollection ServingCollection() {
  sets::RwConfig rw;
  rw.num_sets = 150;
  rw.num_unique = 40;
  rw.seed = 5;
  return GenerateRw(rw);
}

std::vector<sets::Query> ServingQueries(const sets::SetCollection& c,
                                        size_t n) {
  auto subsets = EnumerateLabeledSubsets(c, {2});
  Rng rng(17);
  return sets::SampleQueries(subsets, sets::QueryLabel::kCardinality, n,
                             &rng);
}

// One helper covers every structure kind Service<> serves: the three
// frozen structures, the same three after a Save→Load round trip, and their
// three Updatable* wrappers.

core::CardinalityOptions CardOpts() {
  core::CardinalityOptions o;
  o.train.epochs = 4;
  o.train.loss = core::LossKind::kMse;
  o.max_subset_size = 2;
  return o;
}

core::IndexOptions IndexOpts() {
  core::IndexOptions o;
  o.train.epochs = 4;
  o.train.loss = core::LossKind::kMse;
  o.max_subset_size = 2;
  return o;
}

core::BloomOptions BloomOpts() {
  core::BloomOptions o;
  o.train.epochs = 4;
  o.max_subset_size = 2;
  return o;
}

/// Live wrappers never rebuild during these tests: answers stay those of the
/// first generation, so they are comparable with the direct call.
template <typename Options>
Options NoRebuilds(Options o) {
  o.update.rebuild_after_absorbed = 0;
  o.update.background_rebuild = false;
  return o;
}

template <typename T>
std::unique_ptr<T> Own(Result<T> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::make_unique<T>(std::move(*r)) : nullptr;
}
template <typename T>
std::unique_ptr<T> Own(Result<std::unique_ptr<T>> r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(*r) : nullptr;
}

// Per kind: Build trains it over `c` with its instruments in `registry`, and
// Direct is its own batched call, bypassing the service.

std::unique_ptr<core::LearnedCardinalityEstimator> Build(
    core::LearnedCardinalityEstimator*, const sets::SetCollection& c,
    MetricsRegistry* registry) {
  auto s = Own(core::LearnedCardinalityEstimator::Build(c, CardOpts()));
  if (s) s->SetMetricsRegistry(registry);
  return s;
}
std::unique_ptr<core::UpdatableCardinality> Build(
    core::UpdatableCardinality*, const sets::SetCollection& c,
    MetricsRegistry* registry) {
  core::UpdatableCardinality::Options o;
  o.cardinality = CardOpts();
  return Own(core::UpdatableCardinality::Build(c, NoRebuilds(o), registry));
}
std::unique_ptr<core::LearnedSetIndex> Build(core::LearnedSetIndex*,
                                             const sets::SetCollection& c,
                                             MetricsRegistry* registry) {
  auto s = Own(core::LearnedSetIndex::Build(c, IndexOpts()));
  if (s) s->SetMetricsRegistry(registry);
  return s;
}
std::unique_ptr<core::UpdatableSetIndex> Build(core::UpdatableSetIndex*,
                                               const sets::SetCollection& c,
                                               MetricsRegistry* registry) {
  core::UpdatableSetIndex::Options o;
  o.index = IndexOpts();
  return Own(core::UpdatableSetIndex::Build(c, NoRebuilds(o), registry));
}
std::unique_ptr<core::LearnedBloomFilter> Build(core::LearnedBloomFilter*,
                                                const sets::SetCollection& c,
                                                MetricsRegistry* registry) {
  auto s = Own(core::LearnedBloomFilter::Build(c, BloomOpts()));
  if (s) s->SetMetricsRegistry(registry);
  return s;
}
std::unique_ptr<core::UpdatableBloom> Build(core::UpdatableBloom*,
                                            const sets::SetCollection& c,
                                            MetricsRegistry* registry) {
  core::UpdatableBloom::Options o;
  o.bloom = BloomOpts();
  return Own(core::UpdatableBloom::Build(c, NoRebuilds(o), registry));
}

/// Save→Load round trip of a frozen structure, laid out like a `los` model
/// file: the collection, then the structure. The index reloads over the
/// round-tripped collection, which `*loaded_c` keeps alive.
template <typename S>
std::unique_ptr<S> SaveLoad(const S& s, const sets::SetCollection& c,
                            sets::SetCollection* loaded_c,
                            MetricsRegistry* registry) {
  BinaryWriter w;
  c.Save(&w);
  s.Save(&w);
  BinaryReader r(w.bytes());
  auto lc = sets::SetCollection::Load(&r);
  EXPECT_TRUE(lc.ok()) << lc.status().ToString();
  if (!lc.ok()) return nullptr;
  *loaded_c = std::move(*lc);
  std::unique_ptr<S> loaded;
  if constexpr (std::is_same_v<S, core::LearnedSetIndex>) {
    loaded = Own(S::Load(&r, *loaded_c));
  } else {
    loaded = Own(S::Load(&r));
  }
  if (loaded) loaded->SetMetricsRegistry(registry);
  return loaded;
}

std::vector<double> Direct(core::LearnedCardinalityEstimator* s,
                           const std::vector<sets::Query>& qs) {
  return s->EstimateBatch(qs);
}
std::vector<double> Direct(core::UpdatableCardinality* s,
                           const std::vector<sets::Query>& qs) {
  return s->EstimateBatch(qs);
}
std::vector<int64_t> Direct(core::LearnedSetIndex* s,
                            const std::vector<sets::Query>& qs) {
  return s->LookupBatch(qs);
}
std::vector<int64_t> Direct(core::UpdatableSetIndex* s,
                            const std::vector<sets::Query>& qs) {
  return s->LookupBatch(qs);
}
std::vector<bool> Direct(core::LearnedBloomFilter* s,
                         const std::vector<sets::Query>& qs) {
  return s->MayContainMulti(qs).verdicts;
}
std::vector<bool> Direct(core::UpdatableBloom* s,
                         const std::vector<sets::Query>& qs) {
  return s->MayContainMulti(qs);
}

}  // namespace

// The kinds as named (not anonymous-namespace) types: gtest prints the
// type parameter, and ctest names each typed test after it, e.g.
// `LiveServiceTest.ServesDirectAnswersToMonitor<
// los::serve::kinds::LiveIndex>`.
namespace kinds {

/// `kSaveLoad`: serve a Save→Load copy of the built structure.
template <typename S, typename Svc, typename Mon, bool Loaded = false>
struct Kind {
  using Structure = S;
  using Service = Svc;
  using Monitor = Mon;
  static constexpr bool kSaveLoad = Loaded;
};

struct Cardinality : Kind<core::LearnedCardinalityEstimator,
                          CardinalityService, monitor::CardinalityMonitor> {};
struct LiveCardinality : Kind<core::UpdatableCardinality, CardinalityService,
                              monitor::CardinalityMonitor> {};
struct Index
    : Kind<core::LearnedSetIndex, IndexService, monitor::IndexMonitor> {};
struct LiveIndex
    : Kind<core::UpdatableSetIndex, IndexService, monitor::IndexMonitor> {};
struct Bloom
    : Kind<core::LearnedBloomFilter, BloomService, monitor::BloomMonitor> {};
struct LiveBloom
    : Kind<core::UpdatableBloom, BloomService, monitor::BloomMonitor> {};
struct LoadedCardinality
    : Kind<core::LearnedCardinalityEstimator, CardinalityService,
           monitor::CardinalityMonitor, true> {};
struct LoadedIndex
    : Kind<core::LearnedSetIndex, IndexService, monitor::IndexMonitor, true> {
};
struct LoadedBloom : Kind<core::LearnedBloomFilter, BloomService,
                          monitor::BloomMonitor, true> {};

}  // namespace kinds

namespace {

/// `serve.<name>.*` prefix and the structure's own per-query counter.
std::string NameOf(monitor::CardinalityMonitor*) { return "cardinality"; }
std::string NameOf(monitor::IndexMonitor*) { return "index"; }
std::string NameOf(monitor::BloomMonitor*) { return "bloom"; }
std::string StructureCounter(monitor::CardinalityMonitor*) {
  return "cardinality.queries";
}
std::string StructureCounter(monitor::IndexMonitor*) {
  return "index.lookups";
}
std::string StructureCounter(monitor::BloomMonitor*) { return "bloom.queries"; }

/// Four client threads submit 40 queries through `num_services` services
/// over one structure of kind K (a Save→Load copy when K::kSaveLoad), client
/// t using service t mod `num_services`. Every served answer equals the
/// originally built structure's direct batched answer bit for bit; the
/// services (which share one registry) and the served structure each count
/// every query exactly once; and a monitor sampling 1-in-1, attached to every
/// service, observes every query.
template <typename K>
void ExpectServesDirectAnswersToMonitor(size_t num_services = 1) {
  using Structure = typename K::Structure;
  using Monitor = typename K::Monitor;
  const std::string name = NameOf(static_cast<Monitor*>(nullptr));
  const std::string counter = StructureCounter(static_cast<Monitor*>(nullptr));

  auto c = ServingCollection();
  sets::SetCollection loaded_c;  // outlives a loaded index bound to it
  MetricsRegistry registry;
  auto structure = Build(static_cast<Structure*>(nullptr), c, &registry);
  ASSERT_NE(structure, nullptr);
  auto queries = ServingQueries(c, 40);
  const auto direct = Direct(structure.get(), queries);
  using Response = typename std::decay_t<decltype(direct)>::value_type;
  ASSERT_EQ(direct.size(), queries.size());
  if constexpr (K::kSaveLoad) {
    structure = SaveLoad(*structure, c, &loaded_c, &registry);
    ASSERT_NE(structure, nullptr);
  }

  MetricsRegistry serve_registry;
  monitor::MonitorOptions mopts;
  mopts.sample_every = 1;
  Monitor mon(mopts, &serve_registry);
  std::vector<std::unique_ptr<typename K::Service>> services;
  for (size_t s = 0; s < num_services; ++s) {
    auto service =
        K::Service::Create(structure.get(), ServeOptions{}, &serve_registry);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    (*service)->AttachMonitor(&mon);
    services.push_back(std::move(*service));
  }

  const uint64_t structure_before = registry.GetCounter(counter)->value();
  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto& service = services[t % services.size()];
      for (size_t i = t; i < queries.size(); i += kClients) {
        Response served = service->Submit(queries[i]).get();
        EXPECT_EQ(served, direct[i]) << name << " query " << i;
      }
    });
  }
  for (auto& th : clients) th.join();
  for (auto& service : services) service->Shutdown();

  EXPECT_EQ(serve_registry.GetCounter("serve." + name + ".queries")->value(),
            queries.size());
  EXPECT_EQ(registry.GetCounter(counter)->value() - structure_before,
            queries.size());
  EXPECT_EQ(mon.samples(), queries.size());
}

/// One client submits 24 queries: `queries` and `batches` each count one per
/// call. After Shutdown() every Submit throws, naming the service, and the
/// structure's own query counter does not move.
template <typename K>
void ExpectCountsEachCallOnceAndFailsAfterShutdown() {
  using Structure = typename K::Structure;
  using Monitor = typename K::Monitor;
  const std::string name = NameOf(static_cast<Monitor*>(nullptr));
  const std::string counter = StructureCounter(static_cast<Monitor*>(nullptr));

  auto c = ServingCollection();
  MetricsRegistry registry;
  auto structure = Build(static_cast<Structure*>(nullptr), c, &registry);
  ASSERT_NE(structure, nullptr);
  const auto queries = ServingQueries(c, 24);

  MetricsRegistry serve_registry;
  auto service =
      K::Service::Create(structure.get(), ServeOptions{}, &serve_registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (const auto& q : queries) (void)(*service)->Submit(q).get();
  const std::string p = "serve." + name + ".";
  EXPECT_EQ(serve_registry.GetCounter(p + "queries")->value(), queries.size());
  EXPECT_EQ(serve_registry.GetCounter(p + "batches")->value(), queries.size());

  (*service)->Shutdown();
  (*service)->Shutdown();  // idempotent
  const uint64_t structure_before = registry.GetCounter(counter)->value();
  for (const auto& q : queries) {
    try {
      (void)(*service)->Submit(q).get();
      ADD_FAILURE() << name << ": Submit after Shutdown returned an answer";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("serve." + name), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(registry.GetCounter(counter)->value(), structure_before);
  EXPECT_EQ(serve_registry.GetCounter(p + "queries")->value(), queries.size());
  EXPECT_EQ(serve_registry.GetCounter(p + "batches")->value(), queries.size());
}

TEST(ServiceTest, CountsEachCallOnceAndFailsAfterShutdown) {
  ExpectCountsEachCallOnceAndFailsAfterShutdown<kinds::Cardinality>();
  ExpectCountsEachCallOnceAndFailsAfterShutdown<kinds::Index>();
  ExpectCountsEachCallOnceAndFailsAfterShutdown<kinds::Bloom>();
}

// These two checks keep the names they had when the service batched; both
// still hold of the inline service.

/// A service shut down before its first call refuses it.
TEST(BatchServerTest, SubmitAfterShutdownFails) {
  auto c = ServingCollection();
  MetricsRegistry registry;
  auto structure = Build(static_cast<core::LearnedSetIndex*>(nullptr), c,
                         &registry);
  ASSERT_NE(structure, nullptr);
  MetricsRegistry serve_registry;
  auto service =
      IndexService::Create(structure.get(), ServeOptions{}, &serve_registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  (*service)->Shutdown();
  const auto queries = ServingQueries(c, 1);
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_THROW((void)(*service)->Submit(queries[0]).get(), std::runtime_error);
  EXPECT_EQ(registry.GetCounter("index.lookups")->value(), 0u);
  EXPECT_EQ(serve_registry.GetCounter("serve.index.queries")->value(), 0u);
}

/// Eight clients submitting concurrently: `queries` and `batches` each end
/// exactly at the number of submissions, and the sampled request histogram
/// holds no more observations than that.
TEST(BatchServerTest, ServeQueriesEqualsClientSubmissionsExactly) {
  auto c = ServingCollection();
  MetricsRegistry registry;
  auto structure = Build(static_cast<core::LearnedSetIndex*>(nullptr), c,
                         &registry);
  ASSERT_NE(structure, nullptr);
  const auto queries = ServingQueries(c, 8);
  ASSERT_FALSE(queries.empty());
  const auto direct = structure->LookupBatch(queries);
  MetricsRegistry serve_registry;
  auto service =
      IndexService::Create(structure.get(), ServeOptions{}, &serve_registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 50;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kPerClient; ++i) {
        const size_t k = (t + i) % queries.size();
        EXPECT_EQ((*service)->Submit(queries[k]).get(), direct[k]);
      }
    });
  }
  for (auto& th : clients) th.join();
  (*service)->Shutdown();

  const uint64_t total = kClients * kPerClient;
  auto snap = serve_registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("serve.index.queries")->value, total);
  EXPECT_EQ(snap.FindCounter("serve.index.batches")->value, total);
  EXPECT_LE(snap.FindHistogram("serve.index.request_seconds")->count, total);
}

TEST(ServiceTest, RejectsNullStructure) {
  EXPECT_FALSE(CardinalityService::Create(
                   static_cast<core::LearnedCardinalityEstimator*>(nullptr))
                   .ok());
}

// The frozen structures.

TEST(CardinalityServiceTest, ServedResultsMatchDirectBatch) {
  ExpectServesDirectAnswersToMonitor<kinds::Cardinality>();
}

// Two services over one structure: the structure is borrowed, so several
// frontends may share it.
TEST(CardinalityServiceTest, ShardsShareOneStructure) {
  ExpectServesDirectAnswersToMonitor<kinds::Cardinality>(2);
}

TEST(IndexServiceTest, ServedResultsMatchDirectBatch) {
  ExpectServesDirectAnswersToMonitor<kinds::Index>();
}

TEST(IndexServiceTest, ShardsShareOneStructure) {
  ExpectServesDirectAnswersToMonitor<kinds::Index>(2);
}

TEST(BloomServiceTest, ServedVerdictsMatchDirectMulti) {
  ExpectServesDirectAnswersToMonitor<kinds::Bloom>();
}

TEST(BloomServiceTest, ShardsShareOneStructure) {
  ExpectServesDirectAnswersToMonitor<kinds::Bloom>(2);
}

// The Updatable* wrappers.

template <typename K>
class LiveServiceTest : public testing::Test {};

using LiveKinds = testing::Types<kinds::LiveCardinality, kinds::LiveIndex,
                                 kinds::LiveBloom>;
TYPED_TEST_SUITE(LiveServiceTest, LiveKinds);

TYPED_TEST(LiveServiceTest, ServesDirectAnswersToMonitor) {
  ExpectServesDirectAnswersToMonitor<TypeParam>();
}

// The frozen structures after a Save→Load round trip, behind one service
// and behind two: the loaded copy serves the original's answers.

template <typename K>
class LoadedServiceTest : public testing::Test {};

using LoadedKinds = testing::Types<kinds::LoadedCardinality,
                                   kinds::LoadedIndex, kinds::LoadedBloom>;
TYPED_TEST_SUITE(LoadedServiceTest, LoadedKinds);

TYPED_TEST(LoadedServiceTest, ServesOriginalAnswers) {
  ExpectServesDirectAnswersToMonitor<TypeParam>();
}

TYPED_TEST(LoadedServiceTest, ShardsServeOriginalAnswers) {
  ExpectServesDirectAnswersToMonitor<TypeParam>(2);
}

}  // namespace
}  // namespace los::serve
