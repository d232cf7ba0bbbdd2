// Serving-layer tests: micro-batch flush policies (size / deadline /
// shutdown), backpressure, metrics identity (serve.queries == client
// submissions, exactly once), shards sharing one structure, and
// end-to-end agreement between the served answers and the structures'
// direct batched paths.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/mpsc_queue.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
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

TEST(BatchServerTest, RuntimeTunablesApply) {
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 4;
  opts.max_delay_us = 100;
  BatchServer<double> server("test", {CountElements}, opts, &registry);
  server.set_max_batch(16);
  EXPECT_EQ(server.max_batch(), 16u);
  server.set_max_delay_us(500);
  EXPECT_EQ(server.current_delay_ns(), 500000u);
  auto fut = server.Submit(MakeQuery({1, 2}));
  EXPECT_DOUBLE_EQ(fut.get(), 2.0);
}

TEST(BatchServerTest, AdaptiveModeServesCorrectly) {
  MetricsRegistry registry;
  ServeOptions opts;
  opts.max_batch = 8;
  opts.adaptive = true;
  opts.min_delay_us = 10;
  opts.max_delay_us = 1000;
  BatchServer<double> server("test", {CountElements}, opts, &registry);
  std::vector<serve::BatchFuture<double>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(server.Submit(MakeQuery({1, 2, 3, 4})));
  }
  for (auto& f : futures) EXPECT_DOUBLE_EQ(f.get(), 4.0);
  // The adaptive delay stays within its configured clamp.
  EXPECT_GE(server.current_delay_ns(), 10u * 1000);
  EXPECT_LE(server.current_delay_ns(), 1000u * 1000);
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

TEST(CardinalityServiceTest, ServedResultsMatchDirectBatch) {
  auto c = ServingCollection();
  core::CardinalityOptions copts;
  copts.train.epochs = 4;
  copts.train.loss = core::LossKind::kMse;
  copts.max_subset_size = 2;
  auto est = core::LearnedCardinalityEstimator::Build(c, copts);
  ASSERT_TRUE(est.ok()) << est.status().ToString();

  auto queries = ServingQueries(c, 40);
  std::vector<double> direct = est->EstimateBatch(queries);

  MetricsRegistry registry;
  est->SetMetricsRegistry(&registry);
  ServeOptions opts;
  opts.max_batch = 16;
  opts.max_delay_us = 200;
  auto service = CardinalityService::Create(&est.value(), opts, &registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::vector<serve::BatchFuture<double>> futures;
  for (const auto& q : queries) futures.push_back((*service)->Submit(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_DOUBLE_EQ(futures[i].get(), direct[i]) << "query " << i;
  }
  (*service)->Shutdown();

  // Cross-layer identity: the structure's own per-query counter saw each
  // served query exactly once (the direct EstimateBatch above predates the
  // registry injection, so only served queries are counted here).
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("serve.cardinality.queries")->value,
            queries.size());
  EXPECT_EQ(snap.FindCounter("cardinality.queries")->value, queries.size());
}

/// Two-shard service options: both shards' batch functions wrap the one
/// structure, and max_batch 8 splits the 40 queries into several flushes
/// spread round-robin over the shards.
ServeOptions TwoShards() {
  ServeOptions opts;
  opts.num_shards = 2;
  opts.max_batch = 8;
  opts.max_delay_us = 200;
  return opts;
}

/// Serves `queries` through `service` and checks every answer bit-for-bit
/// against `direct`, then that the service (`serve.<name>.queries`) and the
/// shared structure (`structure_counter`) each counted every query exactly
/// once.
template <typename Service, typename Response>
void ExpectShardedMatchesDirect(Service* service,
                                const std::vector<sets::Query>& queries,
                                const std::vector<Response>& direct,
                                const MetricsRegistry& registry,
                                const std::string& name,
                                const std::string& structure_counter) {
  EXPECT_EQ(service->server()->num_shards(), 2u);
  std::vector<serve::BatchFuture<Response>> futures;
  for (const auto& q : queries) futures.push_back(service->Submit(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), direct[i]) << name << " query " << i;
  }
  service->Shutdown();
  auto snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("serve." + name + ".queries")->value,
            queries.size());
  EXPECT_EQ(snap.FindCounter(structure_counter)->value, queries.size());
}

TEST(CardinalityServiceTest, ShardsShareOneStructure) {
  auto c = ServingCollection();
  core::CardinalityOptions copts;
  copts.train.epochs = 4;
  copts.train.loss = core::LossKind::kMse;
  copts.max_subset_size = 2;
  auto est = core::LearnedCardinalityEstimator::Build(c, copts);
  ASSERT_TRUE(est.ok()) << est.status().ToString();

  auto queries = ServingQueries(c, 40);
  std::vector<double> direct = est->EstimateBatch(queries);

  MetricsRegistry registry;
  est->SetMetricsRegistry(&registry);
  auto service =
      CardinalityService::Create(&est.value(), TwoShards(), &registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ExpectShardedMatchesDirect(service->get(), queries, direct, registry,
                             "cardinality", "cardinality.queries");
}

TEST(IndexServiceTest, ShardsShareOneStructure) {
  auto c = ServingCollection();
  core::IndexOptions iopts;
  iopts.train.epochs = 4;
  iopts.train.loss = core::LossKind::kMse;
  iopts.max_subset_size = 2;
  auto index = core::LearnedSetIndex::Build(c, iopts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  auto queries = ServingQueries(c, 40);
  std::vector<int64_t> direct = index->LookupBatch(queries);

  MetricsRegistry registry;
  index->SetMetricsRegistry(&registry);
  auto service = IndexService::Create(&index.value(), c, TwoShards(),
                                      &registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ExpectShardedMatchesDirect(service->get(), queries, direct, registry,
                             "index", "index.lookups");
}

TEST(BloomServiceTest, ShardsShareOneStructure) {
  auto c = ServingCollection();
  core::BloomOptions bopts;
  bopts.train.epochs = 4;
  bopts.max_subset_size = 2;
  auto bloom = core::LearnedBloomFilter::Build(c, bopts);
  ASSERT_TRUE(bloom.ok()) << bloom.status().ToString();

  auto queries = ServingQueries(c, 40);
  std::vector<bool> direct = bloom->MayContainMulti(queries).verdicts;

  MetricsRegistry registry;
  bloom->SetMetricsRegistry(&registry);
  auto service = BloomService::Create(&bloom.value(), TwoShards(), &registry);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ExpectShardedMatchesDirect(service->get(), queries, direct, registry,
                             "bloom", "bloom.queries");
}

TEST(IndexServiceTest, ServedResultsMatchDirectBatch) {
  auto c = ServingCollection();
  core::IndexOptions iopts;
  iopts.train.epochs = 4;
  iopts.train.loss = core::LossKind::kMse;
  iopts.max_subset_size = 2;
  auto index = core::LearnedSetIndex::Build(c, iopts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  auto queries = ServingQueries(c, 40);
  std::vector<int64_t> direct = index->LookupBatch(queries);

  ServeOptions opts;
  opts.max_batch = 16;
  opts.shard_by = ShardBy::kHash;
  auto service = IndexService::Create(&index.value(), c, opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<serve::BatchFuture<int64_t>> futures;
  for (const auto& q : queries) futures.push_back((*service)->Submit(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), direct[i]) << "query " << i;
  }
}

TEST(BloomServiceTest, ServedVerdictsMatchDirectMulti) {
  auto c = ServingCollection();
  core::BloomOptions bopts;
  bopts.train.epochs = 4;
  bopts.max_subset_size = 2;
  auto bloom = core::LearnedBloomFilter::Build(c, bopts);
  ASSERT_TRUE(bloom.ok()) << bloom.status().ToString();

  auto queries = ServingQueries(c, 40);
  std::vector<bool> direct = bloom->MayContainMulti(queries).verdicts;

  ServeOptions opts;
  opts.max_batch = 16;
  auto service = BloomService::Create(&bloom.value(), opts);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  std::vector<serve::BatchFuture<bool>> futures;
  for (const auto& q : queries) futures.push_back((*service)->Submit(q));
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), direct[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace los::serve
