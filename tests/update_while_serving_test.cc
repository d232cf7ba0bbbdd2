// Rebuild-while-serving race repro (ISSUE 8 satellite): one thread streams
// updates and triggers full retrains while reader threads hammer the query
// paths. Against a rebuild that replaces a plain unique_ptr index under
// concurrent Lookup() this access pattern is a use-after-free; the RCU
// generation store makes it safe. Run under TSan in
// CI: any unsynchronized swap is a reported race here.
//
// Assertions are deliberately coarse (answers are well-formed, rebuilds
// actually happened, updates are never lost); the point of the test is the
// interleaving, and TSan is the oracle for the memory-safety half.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/updatable.h"
#include "nn/losses.h"
#include "serve/serving.h"
#include "sets/generators.h"
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

  serve::ServeOptions serve_opts;
  serve_opts.max_batch = 16;
  serve_opts.max_delay_us = 100;
  auto service = serve::IndexService::Create(&index, serve_opts);
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
  (*service)->Shutdown();

  EXPECT_EQ(malformed.load(), 0);
  EXPECT_GE(index.engine()->rebuilds(), 1u);
  // The batcher-served answer reflects the newest generation.
  sets::Query fresh;
  fresh.elements = UpdatedElements(kUpdates - 1);
  EXPECT_GE(gen_after, 2u);
  EXPECT_EQ(index.Lookup(fresh.view()), (kUpdates - 1) % 150);
}

}  // namespace
}  // namespace los::core
