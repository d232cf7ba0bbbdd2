// Serving-layer tests: micro-batch flush policies (size / deadline /
// shutdown), backpressure, metrics identity (serve.queries == client
// submissions, exactly once), and one helper over the structure kinds
// Service<> fronts (frozen, Save→Load round-tripped, and live): shards
// sharing one structure, concurrent clients served answers equal to the
// original structure's direct batched path, and an attached monitor seeing
// every flushed query.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mpsc_queue.h"
#include "common/serialize.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "monitor/monitor.h"
#include "nn/losses.h"
#include "serve/batch_server.h"
#include "serve/serving.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::serve {
namespace {

sets::Query MakeQuery(std::vector<sets::ElementId> elements) {
  sets::Query q;
  q.elements = std::move(elements);
  return q;
}

/// Batch function that answers each query with its element count — cheap,
/// deterministic, and needs no trained model.
std::vector<double> CountElements(const std::vector<sets::Query>& qs) {
  std::vector<double> out;
  out.reserve(qs.size());
  for (const auto& q : qs) out.push_back(static_cast<double>(q.elements.size()));
  return out;
}

// ---------- MpscQueue ----------

TEST(MpscQueueTest, FifoSingleThread) {
  MpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(int(i)));
  int overflow = 99;
  EXPECT_FALSE(q.TryPush(std::move(overflow)));
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.TryPop(&v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.TryPop(&v));
}

TEST(MpscQueueTest, CapacityRoundsUpToPowerOfTwo) {
  MpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
}

TEST(MpscQueueTest, TryPushFailureLeavesValueIntact) {
  MpscQueue<std::vector<int>> q(2);
  EXPECT_TRUE(q.TryPush({1}));
  EXPECT_TRUE(q.TryPush({2}));
  std::vector<int> v{3, 4, 5};
  EXPECT_FALSE(q.TryPush(std::move(v)));
  EXPECT_EQ(v.size(), 3u);  // not consumed on failure
}

TEST(MpscQueueTest, CloseFailsPushesButDrains) {
  MpscQueue<int> q(8);
  EXPECT_TRUE(q.TryPush(1));
  q.Close();
  EXPECT_FALSE(q.TryPush(2));
  EXPECT_FALSE(q.Push(3));
  int v = 0;
  EXPECT_TRUE(q.TryPop(&v));
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(q.PopUntil(&v, std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(5)));
}

TEST(MpscQueueTest, ManyProducersOneConsumer) {
  MpscQueue<uint64_t> q(64);
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(static_cast<uint64_t>(p) * kPerProducer + i));
      }
    });
  }
  uint64_t sum = 0;
  uint64_t got = 0;
  while (got < kProducers * kPerProducer) {
    uint64_t v;
    if (q.PopUntil(&v, std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(1))) {
      sum += v;
      ++got;
    }
  }
  for (auto& t : producers) t.join();
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

// ---------- BatchServer flush policies ----------

TEST(BatchServerTest, FlushOnSize) {
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 1000000;  // 1s: only size can trigger before the test ends
  opts.min_delay_us = 1000000;  // idle linger can't fire early either
  BatchServer<double> server("test", {CountElements}, opts, &registry);
  std::vector<serve::BatchFuture<double>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(MakeQuery({1, 2, 3})));
  }
  for (auto& f : futures) EXPECT_DOUBLE_EQ(f.get(), 3.0);
  auto snap = registry.Snapshot();
  EXPECT_GE(snap.FindCounter("serve.test.flush_size")->value, 1u);
  EXPECT_EQ(snap.FindCounter("serve.test.queries")->value, 8u);
}

TEST(BatchServerTest, FlushOnDeadlineWithinBudget) {
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 64;        // never reached: 3 queries submitted
  opts.max_delay_us = 50000;  // 50ms deadline
  opts.min_delay_us = 50000;  // linger == deadline: the deadline fires first
  BatchServer<double> server("test", {CountElements}, opts, &registry);
  const auto start = std::chrono::steady_clock::now();
  std::vector<serve::BatchFuture<double>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(MakeQuery({1, 2})));
  }
  // Fewer than max_batch queries must still complete, within the deadline
  // plus generous scheduling slack (TSan/CI runners are slow).
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready);
    EXPECT_DOUBLE_EQ(f.get(), 2.0);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  auto snap = registry.Snapshot();
  EXPECT_GE(snap.FindCounter("serve.test.flush_deadline")->value, 1u);
  EXPECT_EQ(snap.FindCounter("serve.test.queries")->value, 3u);
}

TEST(BatchServerTest, FlushOnIdleShortcutsDeadline) {
  // With a huge deadline but the default 20us linger, a partial batch whose
  // arrivals have gone quiet must flush long before the deadline — this is
  // what keeps closed-loop clients from being deadline-bound.
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 64;
  opts.max_delay_us = 5000000;  // 5s: completing sooner proves the idle path
  BatchServer<double> server("test", {CountElements}, opts, &registry);
  const auto start = std::chrono::steady_clock::now();
  std::vector<serve::BatchFuture<double>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(MakeQuery({1, 2})));
  }
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(4)), std::future_status::ready);
    EXPECT_DOUBLE_EQ(f.get(), 2.0);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            4000);
  auto snap = registry.Snapshot();
  EXPECT_GE(snap.FindCounter("serve.test.flush_idle")->value, 1u);
  EXPECT_EQ(snap.FindCounter("serve.test.queries")->value, 3u);
}

TEST(BatchServerTest, ShutdownDrainsPending) {
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 1000;
  opts.max_delay_us = 10000000;  // neither deadline nor idle linger fires
  opts.min_delay_us = 10000000;
  auto server = std::make_unique<BatchServer<double>>(
      "test", std::vector<BatchServer<double>::BatchFn>{CountElements}, opts,
      &registry);
  std::vector<serve::BatchFuture<double>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(server->Submit(MakeQuery({7})));
  server->Shutdown();  // must flush the pending 5, not abandon them
  for (auto& f : futures) EXPECT_DOUBLE_EQ(f.get(), 1.0);
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("serve.test.queries")->value, 5u);
  EXPECT_GE(snap.FindCounter("serve.test.flush_shutdown")->value, 1u);
}

TEST(BatchServerTest, SubmitAfterShutdownFails) {
  MetricsRegistry registry;
  BatchServer<double> server("test", {CountElements}, ServeOptions{},
                             &registry);
  server.Shutdown();
  auto fut = server.Submit(MakeQuery({1}));
  EXPECT_THROW(fut.get(), std::runtime_error);
  serve::BatchFuture<double> out;
  EXPECT_FALSE(server.TrySubmit(MakeQuery({1}), &out));
}

TEST(BatchServerTest, BackpressureRejectsWhenFull) {
  MetricsRegistry registry;
  // Block the worker inside a flush so the queue can fill up behind it.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  auto blocking_fn = [&](const std::vector<sets::Query>& qs) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return CountElements(qs);
  };
  ServeOptions opts;
  opts.max_batch = 1;
  opts.queue_capacity = 4;
  opts.max_delay_us = 1;
  BatchServer<double> server("test", {blocking_fn}, opts, &registry);

  std::vector<serve::BatchFuture<double>> futures;
  futures.push_back(server.Submit(MakeQuery({1})));  // occupies the worker
  // Fill the queue; within capacity + 2 attempts TrySubmit must reject.
  bool saw_reject = false;
  for (int i = 0; i < 6 && !saw_reject; ++i) {
    serve::BatchFuture<double> out;
    if (server.TrySubmit(MakeQuery({1}), &out)) {
      futures.push_back(std::move(out));
    } else {
      saw_reject = true;
    }
    // Give the worker a moment to pop the first request into its flush.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(saw_reject);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  for (auto& f : futures) EXPECT_DOUBLE_EQ(f.get(), 1.0);
  auto snap = registry.Snapshot();
  EXPECT_GE(snap.FindCounter("serve.test.rejected")->value, 1u);
  // Identity despite rejections: completed == accepted.
  EXPECT_EQ(snap.FindCounter("serve.test.queries")->value,
            snap.FindCounter("serve.test.enqueued")->value);
}

// ---------- Metrics identity across concurrent clients ----------

TEST(BatchServerTest, ServeQueriesEqualsClientSubmissionsExactly) {
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 7;  // deliberately not a divisor of the total
  opts.max_delay_us = 200;
  auto server = std::make_unique<BatchServer<double>>(
      "test", std::vector<BatchServer<double>::BatchFn>{CountElements}, opts,
      &registry);
  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  for (int cth = 0; cth < kClients; ++cth) {
    clients.emplace_back([&server] {
      for (int i = 0; i < kPerClient; ++i) {
        auto fut = server->Submit(MakeQuery({1, 2}));
        ASSERT_DOUBLE_EQ(fut.get(), 2.0);
      }
    });
  }
  for (auto& t : clients) t.join();
  server->Shutdown();
  auto snap = registry.Snapshot();
  const uint64_t total = kClients * kPerClient;
  // The exactly-once identity (ISSUE 6 satellite): per-query counts are
  // recorded at flush only, per-batch counts once per flush, so nothing is
  // double-counted when one batched call serves M logical queries.
  EXPECT_EQ(snap.FindCounter("serve.test.enqueued")->value, total);
  EXPECT_EQ(snap.FindCounter("serve.test.queries")->value, total);
  const uint64_t batches = snap.FindCounter("serve.test.batches")->value;
  EXPECT_EQ(snap.FindCounter("serve.test.flush_size")->value +
                snap.FindCounter("serve.test.flush_deadline")->value +
                snap.FindCounter("serve.test.flush_idle")->value +
                snap.FindCounter("serve.test.flush_shutdown")->value,
            batches);
  EXPECT_EQ(snap.FindHistogram("serve.test.batch_size")->count, batches);
  EXPECT_EQ(snap.FindHistogram("serve.test.request_seconds")->count, total);
}

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
// `LiveServiceTest.ShardsServeDirectAnswersToMonitor<
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

/// Four client threads submit 40 queries through a `num_shards`-shard
/// service over one structure of kind K (a Save→Load copy when
/// K::kSaveLoad), max_batch 8 splitting them over several flushes. Every
/// served answer equals the originally built structure's direct batched
/// answer bit for bit; the service and the served structure each count
/// every query exactly once; and a monitor sampling 1-in-1 observes every
/// query of every flushed batch.
template <typename K>
void ExpectServesDirectAnswersToMonitor(size_t num_shards) {
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
  ServeOptions opts;
  opts.num_shards = num_shards;
  opts.max_batch = 8;
  opts.max_delay_us = 200;
  monitor::MonitorOptions mopts;
  mopts.sample_every = 1;
  Monitor mon(mopts, &serve_registry);
  auto service = K::Service::Create(structure.get(), opts, &serve_registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->server()->num_shards(), num_shards);
  (*service)->AttachMonitor(&mon);

  const uint64_t structure_before = registry.GetCounter(counter)->value();
  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += kClients) {
        Response served = (*service)->Submit(queries[i]).get();
        EXPECT_EQ(served, direct[i]) << name << " query " << i;
      }
    });
  }
  for (auto& th : clients) th.join();
  (*service)->Shutdown();

  EXPECT_EQ(serve_registry.GetCounter("serve." + name + ".queries")->value(),
            queries.size());
  EXPECT_EQ(registry.GetCounter(counter)->value() - structure_before,
            queries.size());
  EXPECT_EQ(mon.samples(), queries.size());
}

// The frozen structures, behind one shard and behind two.

TEST(CardinalityServiceTest, ServedResultsMatchDirectBatch) {
  ExpectServesDirectAnswersToMonitor<kinds::Cardinality>(1);
}

TEST(CardinalityServiceTest, ShardsShareOneStructure) {
  ExpectServesDirectAnswersToMonitor<kinds::Cardinality>(2);
}

TEST(IndexServiceTest, ServedResultsMatchDirectBatch) {
  ExpectServesDirectAnswersToMonitor<kinds::Index>(1);
}

TEST(IndexServiceTest, ShardsShareOneStructure) {
  ExpectServesDirectAnswersToMonitor<kinds::Index>(2);
}

TEST(BloomServiceTest, ServedVerdictsMatchDirectMulti) {
  ExpectServesDirectAnswersToMonitor<kinds::Bloom>(1);
}

TEST(BloomServiceTest, ShardsShareOneStructure) {
  ExpectServesDirectAnswersToMonitor<kinds::Bloom>(2);
}

// The Updatable* wrappers, two shards on one live structure.

template <typename K>
class LiveServiceTest : public testing::Test {};

using LiveKinds = testing::Types<kinds::LiveCardinality, kinds::LiveIndex,
                                 kinds::LiveBloom>;
TYPED_TEST_SUITE(LiveServiceTest, LiveKinds);

TYPED_TEST(LiveServiceTest, ShardsServeDirectAnswersToMonitor) {
  ExpectServesDirectAnswersToMonitor<TypeParam>(2);
}

// The frozen structures after a Save→Load round trip, behind one shard and
// behind two: the loaded copy serves the original's answers.

template <typename K>
class LoadedServiceTest : public testing::Test {};

using LoadedKinds = testing::Types<kinds::LoadedCardinality,
                                   kinds::LoadedIndex, kinds::LoadedBloom>;
TYPED_TEST_SUITE(LoadedServiceTest, LoadedKinds);

TYPED_TEST(LoadedServiceTest, ServesOriginalAnswers) {
  ExpectServesDirectAnswersToMonitor<TypeParam>(1);
}

TYPED_TEST(LoadedServiceTest, ShardsServeOriginalAnswers) {
  ExpectServesDirectAnswersToMonitor<TypeParam>(2);
}

}  // namespace
}  // namespace los::serve
