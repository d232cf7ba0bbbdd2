// Online-update subsystem: generation-store RCU semantics, the
// background-retraining engine, what Updatable<Traits> does alike for all
// three structures (typed tests over the three instances), and each
// trait's visibility contract — including the Bloom filter's
// no-false-negative guarantee across generation swaps, checked against
// exhaustive subset ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/updatable.h"
#include "nn/losses.h"
#include "sets/generators.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"

namespace los::core {
namespace {

sets::SetCollection TestCollection(uint64_t seed = 1) {
  sets::RwConfig rw;
  rw.num_sets = 200;
  rw.num_unique = 50;
  rw.seed = seed;
  return GenerateRw(rw);
}

UpdatableSetIndex::Options FastIndexOptions() {
  UpdatableSetIndex::Options opts;
  opts.index.train.epochs = 8;
  opts.index.train.loss = LossKind::kMse;
  opts.index.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 0;  // tests trigger explicitly
  return opts;
}

UpdatableCardinality::Options FastCardinalityOptions() {
  UpdatableCardinality::Options opts;
  opts.cardinality.train.epochs = 8;
  opts.cardinality.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 0;
  return opts;
}

UpdatableBloom::Options FastBloomOptions() {
  UpdatableBloom::Options opts;
  opts.bloom.train.epochs = 10;
  opts.bloom.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 0;
  return opts;
}

// ---------- GenerationStore ----------

struct CountedGen {
  static std::atomic<int> live;
  int value;
  explicit CountedGen(int v) : value(v) { live.fetch_add(1); }
  ~CountedGen() { live.fetch_sub(1); }
};
std::atomic<int> CountedGen::live{0};

TEST(GenerationStoreTest, PinKeepsRetiredGenerationAlive) {
  {
    GenerationStore<CountedGen> store(std::make_unique<CountedGen>(1));
    EXPECT_EQ(store.generation(), 1u);
    auto pin = store.Acquire();
    EXPECT_EQ(pin->value, 1);

    EXPECT_EQ(store.Publish(std::make_unique<CountedGen>(2)), 2u);
    // The pinned generation must survive the swap...
    EXPECT_EQ(pin->value, 1);
    EXPECT_EQ(CountedGen::live.load(), 2);
    // ...while new readers land on the new one.
    EXPECT_EQ(store.Acquire()->value, 2);

    // Once the pin drops, the next publish reclaims the retired generation.
    { auto drop = std::move(pin); }
    store.Publish(std::make_unique<CountedGen>(3));
    EXPECT_EQ(CountedGen::live.load(), 1);
    EXPECT_EQ(store.Acquire()->value, 3);
    EXPECT_EQ(store.generation(), 3u);
  }
  EXPECT_EQ(CountedGen::live.load(), 0);
}

TEST(GenerationStoreTest, ManyPublishesWithConcurrentReaders) {
  GenerationStore<CountedGen> store(std::make_unique<CountedGen>(0));
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      int last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto pin = store.Acquire();
        // Values must be readable (no use-after-free) and monotone per
        // reader: a pin can lag the newest publish but never go backwards.
        if (pin->value < last) bad.fetch_add(1);
        last = pin->value;
      }
    });
  }
  for (int i = 1; i <= 500; ++i) {
    store.Publish(std::make_unique<CountedGen>(i));
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store.generation(), 501u);
  // Everything except the live generation drained and was reclaimed.
  EXPECT_EQ(store.resident_generations(), 1u);
  EXPECT_EQ(CountedGen::live.load(), 1);
}

// ---------- ConcurrentBloomDelta ----------

// ---------- UpdatableStructure ----------

// Callers wait on rebuilds() (perfbench's live runner, `los monitor`), so
// the engine counts rebuilds itself: a disabled registry leaves the
// exported counters at 0 but not the engine's counts.
TEST(UpdatableStructureTest, RebuildCountsIgnoreADisabledRegistry) {
  MetricsRegistry registry;
  registry.set_enabled(false);
  UpdatableOptions opts;
  opts.background_rebuild = false;
  bool fail = false;
  int next = 2;
  UpdatableStructure<CountedGen>::Hooks hooks;
  hooks.build = [&]() -> Result<std::unique_ptr<CountedGen>> {
    if (fail) return Status::Internal("build failed");
    return std::make_unique<CountedGen>(next++);
  };
  UpdatableStructure<CountedGen> engine(
      "test", std::make_unique<CountedGen>(1), opts, std::move(hooks),
      &registry);
  ASSERT_TRUE(engine.RebuildNow().ok());
  fail = true;
  EXPECT_FALSE(engine.RebuildNow().ok());
  EXPECT_EQ(engine.rebuilds(), 1u);
  EXPECT_EQ(engine.rebuild_failures(), 1u);
  EXPECT_EQ(engine.Acquire()->value, 2);
  EXPECT_EQ(registry.GetCounter("updatable.test.rebuilds")->value(), 0u);
  EXPECT_EQ(registry.GetCounter("updatable.test.rebuild_failures")->value(),
            0u);

  // Enabled again, the exported counters follow the engine's from here on.
  registry.set_enabled(true);
  fail = false;
  ASSERT_TRUE(engine.RebuildNow().ok());
  EXPECT_EQ(engine.rebuilds(), 2u);
  EXPECT_EQ(registry.GetCounter("updatable.test.rebuilds")->value(), 1u);
}

TEST(ConcurrentBloomDeltaTest, InsertedKeysAlwaysHit) {
  ConcurrentBloomDelta delta(1 << 12, 4);
  std::vector<std::vector<sets::ElementId>> keys;
  for (sets::ElementId a = 0; a < 20; ++a) {
    for (sets::ElementId b = a + 1; b < 20; ++b) keys.push_back({a, b});
  }
  for (const auto& k : keys) delta.Insert(sets::SetView(k));
  for (const auto& k : keys) {
    EXPECT_TRUE(delta.MayContain(sets::SetView(k)));
  }
  EXPECT_EQ(delta.inserted(), keys.size());
  // Sanity: an unrelated key space mostly misses (not saturated).
  size_t hits = 0;
  for (sets::ElementId a = 1000; a < 1200; ++a) {
    std::vector<sets::ElementId> k{a, a + 1};
    if (delta.MayContain(sets::SetView(k))) ++hits;
  }
  EXPECT_LT(hits, 40u);
}

// ---------- Every Updatable<Traits> instance ----------

UpdatableSetIndex::Options FastOptions(UpdatableSetIndex*) {
  return FastIndexOptions();
}
UpdatableCardinality::Options FastOptions(UpdatableCardinality*) {
  return FastCardinalityOptions();
}
UpdatableBloom::Options FastOptions(UpdatableBloom*) {
  return FastBloomOptions();
}

std::vector<std::vector<sets::ElementId>> Contents(
    const sets::SetCollection& c) {
  std::vector<std::vector<sets::ElementId>> out;
  for (size_t i = 0; i < c.size(); ++i) {
    out.emplace_back(c.set(i).begin(), c.set(i).end());
  }
  return out;
}

template <typename U>
class UpdatableTest : public testing::Test {};
using UpdatableKinds =
    testing::Types<UpdatableSetIndex, UpdatableCardinality, UpdatableBloom>;
TYPED_TEST_SUITE(UpdatableTest, UpdatableKinds);

TYPED_TEST(UpdatableTest, UpdateOutOfRangeFailsAndChangesNothing) {
  MetricsRegistry registry;
  auto built = TypeParam::Build(
      TestCollection(), FastOptions(static_cast<TypeParam*>(nullptr)),
      &registry);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& live = **built;
  // One write that lands first, so "unchanged" is not just "initial".
  ASSERT_TRUE(live.Update(3, {101, 102}).ok());
  Counter* publishes = registry.GetCounter(
      "updatable." + live.engine()->name() + ".publishes");
  const uint64_t generation = live.generation();
  const uint64_t pending = live.engine()->pending_absorbed();
  const uint64_t published = publishes->value();
  const auto contents = Contents(live.SnapshotCollection());

  // Just past the end, and far past it.
  for (size_t position : {contents.size(), size_t{100000}}) {
    const Status st = live.Update(position, {5, 6});
    EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << st.ToString();
  }
  EXPECT_EQ(live.generation(), generation);
  EXPECT_EQ(live.engine()->pending_absorbed(), pending);
  EXPECT_EQ(publishes->value(), published);
  EXPECT_EQ(Contents(live.SnapshotCollection()), contents);
  EXPECT_EQ(live.updates_applied(), 1u);
}

// ---------- UpdatableSetIndex ----------

TEST(UpdatableSetIndexTest, UpdatesVisibleImmediatelyAndAfterRebuild) {
  auto idx = UpdatableSetIndex::Build(TestCollection(), FastIndexOptions());
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  auto& index = **idx;
  EXPECT_EQ(index.generation(), 1u);

  ASSERT_TRUE(index.Update(10, {101, 102}).ok());
  ASSERT_TRUE(index.Update(20, {103, 104, 105}).ok());
  EXPECT_EQ(index.updates_applied(), 2u);
  // publish_after_updates = 1: each update published a fresh snapshot.
  EXPECT_EQ(index.generation(), 3u);

  std::vector<sets::ElementId> q{101, 102};
  EXPECT_EQ(index.Lookup(sets::SetView(q)), 10);
  std::vector<sets::ElementId> q2{104, 105};
  EXPECT_EQ(index.Lookup(sets::SetView(q2)), 20);

  // A full retrain+swap keeps both answers.
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_EQ(index.generation(), 4u);
  EXPECT_EQ(index.Lookup(sets::SetView(q)), 10);
  EXPECT_EQ(index.Lookup(sets::SetView(q2)), 20);
}

TEST(UpdatableSetIndexTest, BackgroundRebuildTriggersAtThreshold) {
  MetricsRegistry registry;
  auto opts = FastIndexOptions();
  opts.update.rebuild_after_absorbed = 3;
  auto idx =
      UpdatableSetIndex::Build(TestCollection(), opts, &registry);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  auto& index = **idx;

  ASSERT_TRUE(index.Update(10, {120, 121}).ok());
  ASSERT_TRUE(index.Update(20, {122, 123}).ok());
  index.WaitForRebuilds();
  EXPECT_FALSE(index.NeedsRebuild());
  EXPECT_GE(index.engine()->rebuilds(), 1u);
  // The retrained generation still answers the updated sets (aux replay or
  // fresh model — either way, no lost update).
  std::vector<sets::ElementId> q{120, 121};
  EXPECT_EQ(index.Lookup(sets::SetView(q)), 10);
  auto snap = registry.Snapshot();
  const auto* gen = snap.FindGauge("updatable.index.generation");
  ASSERT_NE(gen, nullptr);
  EXPECT_GE(gen->value, 3.0);
  const auto* rec = snap.FindGauge("updatable.index.rebuild_recommended");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->value, 0.0);
}

TEST(UpdatableSetIndexTest, CheckpointWrittenAfterRebuild) {
  auto opts = FastIndexOptions();
  opts.update.checkpoint_path =
      testing::TempDir() + "/los_updatable_index_ckpt.bin";
  std::remove(opts.update.checkpoint_path.c_str());
  auto idx = UpdatableSetIndex::Build(TestCollection(), opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  ASSERT_TRUE((*idx)->RebuildNow().ok());

  auto reader = BinaryReader::FromFile(opts.update.checkpoint_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto collection = sets::SetCollection::Load(&*reader);
  ASSERT_TRUE(collection.ok());
  auto loaded = LearnedSetIndex::Load(&*reader, *collection);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(reader->AtEnd());
  std::remove(opts.update.checkpoint_path.c_str());
}

TEST(UpdatableSetIndexTest, RebuildResetsAccountingAndKeepsRegistry) {
  MetricsRegistry registry;
  auto opts = FastIndexOptions();
  opts.update.rebuild_after_absorbed = 3;
  opts.update.background_rebuild = false;  // the gauge must be seen at 1
  auto idx = UpdatableSetIndex::Build(TestCollection(), opts, &registry);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  auto& index = **idx;
  auto recommended = [&registry] {
    auto snap = registry.Snapshot();
    const auto* rec = snap.FindGauge("updatable.index.rebuild_recommended");
    return rec != nullptr ? rec->value : -1.0;
  };

  ASSERT_TRUE(index.Update(10, {101, 102}).ok());
  ASSERT_TRUE(index.Update(20, {103, 104, 105}).ok());
  ASSERT_TRUE(index.NeedsRebuild());
  EXPECT_EQ(recommended(), 1.0);

  // A rebuild resets the absorbed-subset accounting and the gauge...
  ASSERT_TRUE(index.RebuildNow().ok());
  EXPECT_FALSE(index.NeedsRebuild());
  EXPECT_EQ(index.Acquire()->index->updates_absorbed(), 0u);
  EXPECT_EQ(recommended(), 0.0);
  EXPECT_EQ(index.engine()->rebuilds(), 1u);

  // ...and the rebuilt generation's index keeps reporting `index.*` to the
  // injected registry, not to MetricsRegistry::Global().
  const uint64_t global_before =
      MetricsRegistry::Global()->GetCounter("index.lookups")->value();
  const uint64_t injected_before =
      registry.GetCounter("index.lookups")->value();
  std::vector<sets::ElementId> q{101, 102};
  EXPECT_EQ(index.Lookup(sets::SetView(q)), 10);
  EXPECT_EQ(registry.GetCounter("index.lookups")->value(),
            injected_before + 1);
  EXPECT_EQ(MetricsRegistry::Global()->GetCounter("index.lookups")->value(),
            global_before);
}

TEST(UpdatableSetIndexTest, PublishedGenerationsShareTheModelUntilRebuild) {
  auto opts = FastIndexOptions();
  opts.update.background_rebuild = false;
  auto idx = UpdatableSetIndex::Build(TestCollection(), opts);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  auto& index = **idx;
  const deepsets::SetModel* built = index.Acquire()->index->model();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(index.Update(static_cast<size_t>(10 + i), {101, 102}).ok());
    auto pin = index.Acquire();
    EXPECT_EQ(pin.generation(), 2u + i);
    EXPECT_EQ(pin->index->model(), built) << "generation " << pin.generation();
  }
  ASSERT_TRUE(index.RebuildNow().ok());
  const deepsets::SetModel* rebuilt = index.Acquire()->index->model();
  EXPECT_NE(rebuilt, built);
  ASSERT_TRUE(index.Update(30, {103, 104}).ok());
  EXPECT_EQ(index.Acquire()->index->model(), rebuilt);
}

TEST(UpdatableSetIndexTest, PublishedGenerationReportsAbsorbedUpdates) {
  MetricsRegistry registry;
  auto opts = FastIndexOptions();
  opts.update.background_rebuild = false;
  auto idx = UpdatableSetIndex::Build(TestCollection(), opts, &registry);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  auto& index = **idx;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(index.Update(static_cast<size_t>(7 * i),
                             {static_cast<sets::ElementId>(200 + i), 201})
                    .ok());
  }
  // Every subset the master routed to its aux tree is counted once in
  // index.subsets_absorbed and once in the engine's lag.
  const uint64_t absorbed =
      registry.GetCounter("index.subsets_absorbed")->value();
  ASSERT_GT(absorbed, 0u);
  EXPECT_EQ(index.engine()->pending_absorbed(), absorbed);
  EXPECT_EQ(index.Acquire()->index->updates_absorbed(), absorbed);
}

/// Brute-force first position of `q` in `c`; -1 if no set contains it.
int64_t FirstSuperset(const sets::SetCollection& c, sets::SetView q) {
  for (size_t i = 0; i < c.size(); ++i) {
    const sets::SetView s = c.set(i);
    if (std::includes(s.begin(), s.end(), q.begin(), q.end())) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

TEST(UpdatableSetIndexTest, EverySubsetLookupIsExactAcrossRandomUpdates) {
  // Exhaustive ground truth on a small universe: after every update of a
  // seeded random sequence, and after a rebuild, each subset of up to
  // max_subset_size elements must look up to its exact first position (-1
  // when no set contains it). Updates draw from two ids beyond the trained
  // vocabulary too, and both add and remove content, so first positions
  // move earlier (new content) and later (content a set no longer has).
  constexpr sets::ElementId kTrained = 12;
  constexpr sets::ElementId kUniverse = kTrained + 2;
  std::vector<sets::ElementId> universe(kUniverse);
  for (sets::ElementId e = 0; e < kUniverse; ++e) universe[e] = e;
  for (uint64_t seed : {1, 2, 3}) {
    sets::RwConfig rw;
    rw.num_sets = 80;
    rw.num_unique = kTrained;
    rw.seed = seed;
    auto opts = FastIndexOptions();
    opts.index.max_subset_size = 3;
    opts.update.background_rebuild = false;
    auto idx = UpdatableSetIndex::Build(GenerateRw(rw), opts);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    auto& index = **idx;
    auto wrong_lookups = [&] {
      const sets::SetCollection c = index.SnapshotCollection();
      int wrong = 0;
      sets::ForEachSubset(
          sets::SetView(universe), opts.index.max_subset_size,
          [&](sets::SetView q) {
            const int64_t truth = FirstSuperset(c, q);
            const int64_t got = index.Lookup(q);
            if (got != truth && ++wrong <= 3) {
              ADD_FAILURE() << "query of " << q.size() << " elements {"
                            << q[0] << (q.size() > 1 ? ", ..." : "")
                            << "}: lookup " << got << ", truth " << truth;
            }
          });
      return wrong;
    };
    ASSERT_EQ(wrong_lookups(), 0) << "seed " << seed << " after build";
    Rng rng(seed + 100);
    const size_t num_sets = index.SnapshotCollection().size();
    for (int step = 0; step < 30; ++step) {
      const size_t position = rng.Uniform(num_sets);
      std::set<sets::ElementId> content;
      const size_t size = 1 + rng.Uniform(5);
      while (content.size() < size) {
        content.insert(static_cast<sets::ElementId>(rng.Uniform(kUniverse)));
      }
      ASSERT_TRUE(index.Update(position, {content.begin(), content.end()})
                      .ok());
      ASSERT_EQ(wrong_lookups(), 0)
          << "seed " << seed << " after update " << step << " at "
          << position;
    }
    ASSERT_TRUE(index.RebuildNow().ok());
    ASSERT_EQ(wrong_lookups(), 0) << "seed " << seed << " after rebuild";
  }
}

// ---------- UpdatableCardinality ----------

TEST(UpdatableCardinalityTest, ServesAcrossInsertAndRebuild) {
  MetricsRegistry registry;
  auto est = UpdatableCardinality::Build(TestCollection(),
                                         FastCardinalityOptions(), &registry);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  auto& card = **est;

  std::vector<sets::ElementId> q{1, 2};
  double before = card.Estimate(sets::SetView(q));
  EXPECT_GE(before, 0.0);

  // Inserts mutate the master only; serving stays on generation 1 until a
  // rebuild publishes (bounded staleness).
  card.Insert({1, 2, 3});
  card.Insert({1, 2, 4});
  EXPECT_EQ(card.generation(), 1u);
  EXPECT_EQ(card.engine()->pending_absorbed(), 2u);

  ASSERT_TRUE(card.RebuildNow().ok());
  EXPECT_EQ(card.generation(), 2u);
  EXPECT_EQ(card.engine()->pending_absorbed(), 0u);
  EXPECT_GE(card.Estimate(sets::SetView(q)), 0.0);
  auto snap = registry.Snapshot();
  const auto* lag = snap.FindGauge("updatable.cardinality.lag_absorbed");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->value, 0.0);
}

// ---------- UpdatableBloom: no false negatives across generations ----------

TEST(UpdatableBloomTest, NoFalseNegativesAcrossGenerations) {
  // Small universe so the ground truth — every subset (up to the bound) of
  // every set inserted so far must answer "maybe present" — is exhaustively
  // checkable after every step.
  sets::RwConfig rw;
  rw.num_sets = 120;
  rw.num_unique = 40;
  rw.seed = 5;
  auto opts = FastBloomOptions();
  auto blm = UpdatableBloom::Build(GenerateRw(rw), opts);
  ASSERT_TRUE(blm.ok()) << blm.status().ToString();
  auto& bloom = **blm;

  std::set<std::vector<sets::ElementId>> truth;
  auto absorb_truth = [&](const std::vector<sets::ElementId>& s) {
    sets::ForEachSubset(sets::SetView(s), opts.bloom.max_subset_size,
                        [&](sets::SetView sub) {
                          truth.emplace(sub.begin(), sub.end());
                        });
  };
  auto check_truth = [&](const char* when) {
    for (const auto& key : truth) {
      EXPECT_TRUE(bloom.MayContain(sets::SetView(key)))
          << when << ": inserted key reported absent: size " << key.size()
          << " first " << key.front();
    }
  };

  // Keys with brand-new (out-of-vocabulary) elements: the trained filter
  // rejects them outright, so only the delta path can honor them.
  std::vector<std::vector<sets::ElementId>> inserts = {
      {200, 201}, {202, 203, 204}, {205}, {206, 207, 208, 209}};
  for (const auto& s : inserts) {
    bloom.Insert(s);
    absorb_truth(s);
    check_truth("after insert");
  }

  // Swap generations with inserts landing between build and publish: the
  // replay in finalize must carry every key across.
  ASSERT_TRUE(bloom.RebuildNow().ok());
  EXPECT_EQ(bloom.generation(), 2u);
  check_truth("after first rebuild");

  bloom.Insert({210, 211});
  absorb_truth({210, 211});
  check_truth("after post-rebuild insert");

  ASSERT_TRUE(bloom.RebuildNow().ok());
  check_truth("after second rebuild");

  // Batched path agrees with the single-query path.
  std::vector<sets::Query> queries;
  for (const auto& key : truth) {
    sets::Query q;
    q.elements = key;
    queries.push_back(std::move(q));
    if (queries.size() == 64) break;
  }
  auto verdicts = bloom.MayContainMulti(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(verdicts[i]) << "MayContainMulti dropped inserted key " << i;
  }
}

TEST(UpdatableBloomTest, UpdateAbsorbsNewContent) {
  auto blm = UpdatableBloom::Build(TestCollection(3), FastBloomOptions());
  ASSERT_TRUE(blm.ok()) << blm.status().ToString();
  auto& bloom = **blm;
  ASSERT_TRUE(bloom.Update(7, {300, 301}).ok());
  std::vector<sets::ElementId> q{300, 301};
  EXPECT_TRUE(bloom.MayContain(sets::SetView(q)));
  EXPECT_FALSE(bloom.Update(100000, {1}).ok());
}

}  // namespace
}  // namespace los::core
