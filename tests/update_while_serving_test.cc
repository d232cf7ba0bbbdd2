// Rebuild-while-serving race repro: one thread streams updates and
// triggers full retrains while reader threads hammer the query paths.
// Against a rebuild that replaces a plain unique_ptr index under
// concurrent Lookup() this access pattern is a use-after-free; the RCU
// generation store makes it safe. Run under TSan and ASan in CI: any
// unsynchronized swap is a reported race here, and a generation freed
// under a reader a reported use-after-free.
//
// Most assertions are deliberately coarse (answers are well-formed,
// rebuilds actually happened, updates are never lost); the point of those
// tests is the interleaving. The two exhaustive tests at the end also check
// every answer over a 12-element universe at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "core/updatable.h"
#include "nn/losses.h"
#include "serve/serving.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::core {
namespace {

constexpr int kReaders = 3;
constexpr int kUpdates = 24;

sets::SetCollection TestCollection(uint64_t seed) {
  sets::RwConfig rw;
  rw.num_sets = 150;
  rw.num_unique = 40;
  rw.seed = seed;
  return GenerateRw(rw);
}

std::vector<sets::Query> ReaderQueries(uint32_t salt) {
  std::vector<sets::Query> qs;
  for (uint32_t i = 0; i < 16; ++i) {
    sets::Query q;
    q.elements = {(salt + i) % 40, (salt + i) % 40 + 1};
    sets::Canonicalize(&q.elements);
    qs.push_back(std::move(q));
  }
  return qs;
}

// New contents for update #i: two brand-new elements, so every update is
// only findable if the absorb/replay machinery carried it across swaps.
std::vector<sets::ElementId> UpdatedElements(int i) {
  return {static_cast<sets::ElementId>(1000 + 2 * i),
          static_cast<sets::ElementId>(1001 + 2 * i)};
}

TEST(UpdateWhileServingTest, IndexLookupsDuringUpdatesAndRebuilds) {
  UpdatableSetIndex::Options opts;
  opts.index.train.epochs = 4;
  opts.index.train.loss = LossKind::kMse;
  opts.index.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 8;  // several swaps over the stream
  auto built = UpdatableSetIndex::Build(TestCollection(1), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& index = **built;

  std::atomic<bool> stop{false};
  std::atomic<int> malformed{0};
  // done_on[t]: a generation that was current when reader t started a
  // lookup it has since finished; that lookup ran on it or a newer one.
  std::atomic<uint64_t> done_on[kReaders] = {};
  int generations_seen[kReaders] = {};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto queries = ReaderQueries(static_cast<uint32_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t gen = index.Acquire().generation();
        auto results = index.LookupBatch(queries);
        if (results.size() != queries.size()) malformed.fetch_add(1);
        for (int64_t r : results) {
          if (r < -1 || r >= 150) malformed.fetch_add(1);
        }
        index.Lookup(queries[0].view());
        if (gen != done_on[t].load(std::memory_order_relaxed)) {
          ++generations_seen[t];
        }
        done_on[t].store(gen, std::memory_order_release);
      }
    });
  }

  // Threads a test starts may run one after another on their parent's CPU
  // for the first milliseconds, so without this wait the updates could all
  // land before any reader runs. Waiting for every reader to finish a
  // lookup on the current generation puts reads between every pair of
  // publishes, whatever the scheduler does.
  auto wait_for_readers = [&] {
    const uint64_t current = index.Acquire().generation();
    for (auto& done : done_on) {
      while (done.load(std::memory_order_acquire) < current) {
        std::this_thread::yield();
      }
    }
  };
  for (int i = 0; i < kUpdates; ++i) {
    wait_for_readers();
    ASSERT_TRUE(index.Update(static_cast<size_t>(i % 150),
                             UpdatedElements(i))
                    .ok());
  }
  index.WaitForRebuilds();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(malformed.load(), 0);
  // Each update published a generation, and every reader finished a lookup
  // between consecutive publishes.
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_GE(generations_seen[t], kUpdates) << "reader " << t;
  }
  EXPECT_GE(index.engine()->rebuilds(), 1u);
  EXPECT_EQ(index.engine()->rebuild_failures(), 0u);
  // No update lost across any swap.
  for (int i = kUpdates - 5; i < kUpdates; ++i) {
    auto q = UpdatedElements(i);
    EXPECT_EQ(index.Lookup(sets::SetView(q)), i % 150) << "update " << i;
  }
}

TEST(UpdateWhileServingTest, CardinalityEstimatesDuringRebuilds) {
  UpdatableCardinality::Options opts;
  opts.cardinality.train.epochs = 4;
  opts.cardinality.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 6;
  auto built = UpdatableCardinality::Build(TestCollection(2), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& card = **built;

  std::atomic<bool> stop{false};
  std::atomic<int> malformed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      auto queries = ReaderQueries(static_cast<uint32_t>(10 + t));
      while (!stop.load(std::memory_order_acquire)) {
        auto ests = card.EstimateBatch(queries);
        if (ests.size() != queries.size()) malformed.fetch_add(1);
        for (double e : ests) {
          if (!(e >= 0.0) && e != -1.0) malformed.fetch_add(1);
        }
        card.Estimate(queries[0].view());
      }
    });
  }

  for (int i = 0; i < kUpdates; ++i) {
    if (i % 2 == 0) {
      card.Insert(UpdatedElements(i));
    } else {
      ASSERT_TRUE(
          card.Update(static_cast<size_t>(i % 150), UpdatedElements(i)).ok());
    }
  }
  card.WaitForRebuilds();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_GE(card.engine()->rebuilds(), 1u);
  EXPECT_EQ(card.engine()->rebuild_failures(), 0u);
}

TEST(UpdateWhileServingTest, BloomMembershipDuringInsertsAndRebuilds) {
  UpdatableBloom::Options opts;
  opts.bloom.train.epochs = 6;
  opts.bloom.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 8;
  auto built = UpdatableBloom::Build(TestCollection(3), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& bloom = **built;

  std::atomic<bool> stop{false};
  std::atomic<int> missing{0};
  std::atomic<int> inserted_upto{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        // Readers verify the cross-generation guarantee live: every key
        // whose Insert has returned must answer "maybe present".
        const int upto = inserted_upto.load(std::memory_order_acquire);
        std::vector<sets::Query> qs;
        for (int i = 0; i < upto; ++i) {
          sets::Query q;
          q.elements = UpdatedElements(i);
          qs.push_back(std::move(q));
        }
        if (qs.empty()) continue;
        auto verdicts = bloom.MayContainMulti(qs);
        for (size_t i = 0; i < qs.size(); ++i) {
          if (!verdicts[i]) missing.fetch_add(1);
          if (!bloom.MayContain(qs[i].view())) missing.fetch_add(1);
        }
      }
    });
  }

  for (int i = 0; i < kUpdates; ++i) {
    bloom.Insert(UpdatedElements(i));
    inserted_upto.store(i + 1, std::memory_order_release);
  }
  bloom.WaitForRebuilds();
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_EQ(missing.load(), 0) << "false negative during concurrent swaps";
  EXPECT_GE(bloom.engine()->rebuilds(), 1u);
  EXPECT_EQ(bloom.engine()->rebuild_failures(), 0u);
}

TEST(UpdateWhileServingTest, ServiceIntegrationPicksUpGenerations) {
  UpdatableSetIndex::Options opts;
  opts.index.train.epochs = 4;
  opts.index.train.loss = LossKind::kMse;
  opts.index.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 8;
  auto built = UpdatableSetIndex::Build(TestCollection(4), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& index = **built;

  auto service = serve::IndexService::Create(&index);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kReaders; ++t) {
    clients.emplace_back([&, t] {
      auto queries = ReaderQueries(static_cast<uint32_t>(20 + t));
      size_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        sets::Query q = queries[i++ % queries.size()];
        int64_t r = (*service)->Submit(std::move(q)).get();
        if (r < -1 || r >= 150) malformed.fetch_add(1);
      }
    });
  }

  for (int i = 0; i < kUpdates; ++i) {
    ASSERT_TRUE(
        index.Update(static_cast<size_t>(i % 150), UpdatedElements(i)).ok());
  }
  index.WaitForRebuilds();
  const uint64_t gen_after = index.generation();
  stop.store(true, std::memory_order_release);
  for (auto& th : clients) th.join();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_GE(index.engine()->rebuilds(), 1u);
  // The served answer reflects the newest generation.
  sets::Query fresh;
  fresh.elements = UpdatedElements(kUpdates - 1);
  EXPECT_GE(gen_after, 2u);
  EXPECT_EQ((*service)->Submit(fresh).get(), (kUpdates - 1) % 150);
  (*service)->Shutdown();
}

// ---------- Exhaustive answers while rebuilds race readers ----------

constexpr sets::ElementId kTrainedIds = 10;
constexpr sets::ElementId kUniverseIds = 12;  // two ids no model trained on
constexpr int kRacingReaders = 4;
constexpr int kSteps = 30;

sets::SetCollection SmallUniverseCollection(uint64_t seed) {
  sets::RwConfig rw;
  rw.num_sets = 60;
  rw.num_unique = kTrainedIds;
  rw.seed = seed;
  return GenerateRw(rw);
}

/// 1-5 distinct ids of the universe, sorted.
std::vector<sets::ElementId> RandomContent(Rng* rng) {
  std::set<sets::ElementId> content;
  const size_t size = 1 + rng->Uniform(5);
  while (content.size() < size) {
    content.insert(static_cast<sets::ElementId>(rng->Uniform(kUniverseIds)));
  }
  return {content.begin(), content.end()};
}

/// Every subset of `s` with at most `k` elements, as queries.
std::vector<sets::Query> SubsetQueries(sets::SetView s, size_t k) {
  std::vector<sets::Query> out;
  sets::ForEachSubset(s, k, [&](sets::SetView sub) {
    sets::Query q;
    q.elements.assign(sub.begin(), sub.end());
    out.push_back(std::move(q));
  });
  return out;
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

/// Runs write(0..kSteps-1) on this thread while kRacingReaders threads
/// loop read(step), where `step` counts the writes that have returned.
/// After each write it waits until every reader has finished a pass begun
/// after that write, so every step is read by every reader while the
/// background trainer rebuilds whenever its threshold is crossed.
template <typename Read, typename Write>
void RaceReaders(const Read& read, const Write& write) {
  std::atomic<bool> stop{false};
  std::atomic<int> step{0};
  std::atomic<int> done[kRacingReaders] = {};
  std::vector<std::thread> readers;
  for (int t = 0; t < kRacingReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_acquire)) {
        const int s = step.load(std::memory_order_acquire);
        read(s);
        done[t].store(s, std::memory_order_release);
      }
    });
  }
  for (int i = 0; i < kSteps; ++i) {
    write(i);
    step.store(i + 1, std::memory_order_release);
    for (auto& d : done) {
      while (d.load(std::memory_order_acquire) <= i) std::this_thread::yield();
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
}

TEST(UpdateWhileServingTest, ExhaustiveIndexAnswersWhileRebuildsRaceReaders) {
  UpdatableSetIndex::Options opts;
  opts.index.train.epochs = 4;
  opts.index.train.loss = LossKind::kMse;
  opts.index.max_subset_size = 3;
  opts.update.rebuild_after_absorbed = 4;
  auto built = UpdatableSetIndex::Build(SmallUniverseCollection(5), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& index = **built;
  std::vector<sets::ElementId> universe(kUniverseIds);
  std::iota(universe.begin(), universe.end(), sets::ElementId{0});
  const std::vector<sets::Query> queries =
      SubsetQueries(universe, opts.index.max_subset_size);

  // Wrong answers of `single` and `batch` (LookupBatch of all queries)
  // against brute force over `c`.
  auto wrong = [&](const sets::SetCollection& c, auto single,
                   const std::vector<int64_t>& batch) {
    int n = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const int64_t truth = FirstSuperset(c, queries[i].view());
      n += (single(queries[i].view()) != truth) + (batch[i] != truth);
    }
    return n;
  };
  std::atomic<int> reader_wrong{0};
  int writer_wrong = 0;
  Rng rng(11);
  const size_t num_sets = index.SnapshotCollection().size();
  RaceReaders(
      [&](int) {
        // Every published generation is exact over its own collection.
        auto pin = index.Acquire();
        reader_wrong += wrong(
            *pin->collection,
            [&](sets::SetView q) { return pin->index->Lookup(q); },
            pin->index->LookupBatch(queries));
      },
      [&](int i) {
        ASSERT_TRUE(
            index.Update(rng.Uniform(num_sets), RandomContent(&rng)).ok());
        // Once Update returns, the served answers are the master's.
        const int n = wrong(
            index.SnapshotCollection(),
            [&](sets::SetView q) { return index.Lookup(q); },
            index.LookupBatch(queries));
        EXPECT_EQ(n, 0) << "after update " << i;
        writer_wrong += n;
      });
  index.WaitForRebuilds();
  EXPECT_EQ(writer_wrong, 0);
  EXPECT_EQ(reader_wrong.load(), 0);
  EXPECT_GE(index.engine()->rebuilds(), 1u);
  EXPECT_EQ(index.engine()->rebuild_failures(), 0u);
}

TEST(UpdateWhileServingTest, ExhaustiveBloomAnswersWhileRebuildsRaceReaders) {
  UpdatableBloom::Options opts;
  opts.bloom.train.epochs = 6;
  opts.bloom.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 16;
  auto built = UpdatableBloom::Build(SmallUniverseCollection(6), opts);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto& bloom = **built;

  // The writes are fixed up front so readers can see them. Inserts append
  // and each Update replaces a different original set, so no written set
  // is overwritten and every subset of each must stay present. keys holds
  // those subsets in write order; write i's end at keys_end[i].
  Rng rng(13);
  std::vector<size_t> positions(bloom.SnapshotCollection().size());
  std::iota(positions.begin(), positions.end(), size_t{0});
  rng.Shuffle(&positions);
  std::vector<int64_t> write_position;  // -1 = Insert
  std::vector<std::vector<sets::ElementId>> contents;
  std::vector<sets::Query> keys;
  std::vector<size_t> keys_end;
  for (int i = 0; i < kSteps; ++i) {
    write_position.push_back(rng.Uniform(2) == 0
                                 ? -1
                                 : static_cast<int64_t>(positions[i]));
    contents.push_back(RandomContent(&rng));
    for (auto& q : SubsetQueries(contents.back(), opts.bloom.max_subset_size)) {
      keys.push_back(std::move(q));
    }
    keys_end.push_back(keys.size());
  }
  // Keys of the first `step` writes answering false via MayContain or
  // MayContainMulti.
  auto missing = [&](int step) {
    if (step == 0) return 0;
    const std::vector<sets::Query> required(keys.begin(),
                                            keys.begin() + keys_end[step - 1]);
    const std::vector<bool> verdicts = bloom.MayContainMulti(required);
    int n = 0;
    for (size_t k = 0; k < required.size(); ++k) {
      n += !bloom.MayContain(required[k].view()) + !verdicts[k];
    }
    return n;
  };
  std::atomic<int> reader_missing{0};
  int writer_missing = 0;
  RaceReaders(
      [&](int step) { reader_missing += missing(step); },
      [&](int i) {
        const int64_t position = write_position[i];
        if (position < 0) {
          bloom.Insert(contents[i]);
        } else {
          ASSERT_TRUE(
              bloom.Update(static_cast<size_t>(position), contents[i]).ok());
        }
        const int n = missing(i + 1);
        EXPECT_EQ(n, 0) << "after write " << i;
        writer_missing += n;
      });
  bloom.WaitForRebuilds();
  EXPECT_EQ(missing(kSteps), 0) << "after the last rebuild";
  EXPECT_EQ(writer_missing, 0);
  EXPECT_EQ(reader_missing.load(), 0);
  EXPECT_GE(bloom.engine()->rebuilds(), 1u);
  EXPECT_EQ(bloom.engine()->rebuild_failures(), 0u);
}

}  // namespace
}  // namespace los::core
