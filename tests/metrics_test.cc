// Tests for the serving-path metrics subsystem: instrument correctness,
// registry semantics, exactness of the per-thread-sharded hot path (also
// with threads updating one shard at once), snapshot determinism, and
// injection into the learned structures.

#include "common/metrics.h"

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "sets/generators.h"
#include "sets/workload.h"

namespace los {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(c->name(), "test.counter");
}

TEST(GaugeTest, SetOverwrites) {
  MetricsRegistry registry;
  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->value(), -2.25);
}

TEST(HistogramTest, CountSumMinMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 8});
  h->Observe(1.0);
  h->Observe(4.0);
  h->Observe(16.0);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 21.0);
  auto snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("test.hist");
  ASSERT_NE(hs, nullptr);
  EXPECT_DOUBLE_EQ(hs->min, 1.0);
  EXPECT_DOUBLE_EQ(hs->max, 16.0);
  EXPECT_DOUBLE_EQ(hs->Mean(), 7.0);
}

TEST(HistogramTest, BucketPlacementAndOverflow) {
  MetricsRegistry registry;
  // Bounds: 1, 2, 4 (+ overflow).
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 3});
  h->Observe(0.5);   // bucket 0 (<= 1)
  h->Observe(1.0);   // bucket 0 (inclusive upper bound)
  h->Observe(3.0);   // bucket 2 (<= 4)
  h->Observe(100.0); // overflow
  auto snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("test.hist");
  ASSERT_NE(hs, nullptr);
  ASSERT_EQ(hs->bounds.size(), 3u);
  ASSERT_EQ(hs->buckets.size(), 4u);
  EXPECT_EQ(hs->buckets[0], 2u);
  EXPECT_EQ(hs->buckets[1], 0u);
  EXPECT_EQ(hs->buckets[2], 1u);
  EXPECT_EQ(hs->buckets[3], 1u);
}

TEST(HistogramTest, PercentileWalksBuckets) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 8});
  for (int i = 0; i < 90; ++i) h->Observe(0.5);  // bucket 0, bound 1
  for (int i = 0; i < 10; ++i) h->Observe(3.0);  // bucket 2, bound 4
  auto snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("test.hist");
  ASSERT_NE(hs, nullptr);
  // Rank 50 falls in bucket 0 (90 obs, range (0, 1]): interpolation puts
  // it at 50/90 of the way up the bucket.
  EXPECT_DOUBLE_EQ(hs->Percentile(0.5), 50.0 / 90.0);
  // Rank 95 falls in bucket 2 (10 obs, range (2, 4]): 5/10 of the way is
  // 3.0, which is also the clamp ceiling (observed max).
  EXPECT_DOUBLE_EQ(hs->Percentile(0.95), 3.0);
  // The overflow bucket interpolates toward (and caps at) the observed max.
  h->Observe(1e9);
  snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.FindHistogram("test.hist")->Percentile(1.0), 1e9);
}

TEST(RegistryTest, SameNameReturnsSamePointer) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("b"), registry.GetGauge("b"));
  EXPECT_EQ(registry.GetHistogram("c"), registry.GetHistogram("c"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("a2"));
}

TEST(RegistryTest, DisabledRegistryIsNoOp) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Histogram* h = registry.GetHistogram("test.hist");
  registry.set_enabled(false);
  c->Increment(10);
  h->Observe(1.0);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_FALSE(h->enabled());
  registry.set_enabled(true);
  c->Increment(10);
  EXPECT_EQ(c->value(), 10u);
}

TEST(RegistryTest, ResetZeroesEverything) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Gauge* g = registry.GetGauge("g");
  Histogram* h = registry.GetHistogram("h");
  c->Increment(5);
  g->Set(3.0);
  h->Observe(2.0);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
  auto snap = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snap.FindHistogram("h")->min, 0.0);
  // Instruments stay usable after Reset.
  h->Observe(4.0);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(registry.Snapshot().FindHistogram("h")->min, 4.0);
}

TEST(RegistryTest, SnapshotIsNameSortedAndDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetCounter("apple");
  registry.GetCounter("mango");
  auto snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "apple");
  EXPECT_EQ(snap.counters[1].name, "mango");
  EXPECT_EQ(snap.counters[2].name, "zebra");
  EXPECT_EQ(snap.ToJsonLines(), registry.Snapshot().ToJsonLines());
}

// Every thread observes the values 0..6 in turn on one shared counter and
// histogram. Integer values keep every partial sum exact, so the merged
// snapshot must match the serial totals whatever the shard assignment.
void ObserveSequence(Counter* c, Histogram* h, size_t per_thread) {
  for (size_t i = 0; i < per_thread; ++i) {
    c->Increment();
    h->Observe(static_cast<double>(i % 7));
  }
}

// Checks `registry`'s "test.counter" and "test.hist" against num_threads
// serial runs of ObserveSequence.
void ExpectExact(const MetricsRegistry& registry, size_t num_threads,
                 size_t per_thread) {
  MetricsRegistry serial;
  Counter* ref_c = serial.GetCounter("test.counter");
  Histogram* ref = serial.GetHistogram("test.hist", {1.0, 2.0, 8});
  for (size_t t = 0; t < num_threads; ++t) {
    ObserveSequence(ref_c, ref, per_thread);
  }

  const uint64_t total = num_threads * per_thread;
  auto snap = registry.Snapshot();
  auto ref_snap = serial.Snapshot();
  const CounterSnapshot* cs = snap.FindCounter("test.counter");
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->value, total);
  const HistogramSnapshot* hs = snap.FindHistogram("test.hist");
  const HistogramSnapshot* rs = ref_snap.FindHistogram("test.hist");
  ASSERT_NE(hs, nullptr);
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(hs->count, total);
  EXPECT_EQ(hs->sum, rs->sum);
  EXPECT_EQ(hs->buckets, rs->buckets);
  uint64_t bucket_total = 0;
  for (uint64_t b : hs->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, total);
  EXPECT_EQ(hs->min, 0.0);
  EXPECT_EQ(hs->max, 6.0);
}

// Pins the calling thread to the k-th CPU it may run on; false when there
// are no more than k of them. New threads start on their parent's CPU and
// the scheduler can take tens of milliseconds to spread busy ones, so
// threads meant to run at once are pinned apart.
bool PinToKthAllowedCpu(size_t k) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  size_t seen = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ < k) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  return false;
}

TEST(RegistryTest, ConcurrentObservationsAreExact) {
  constexpr size_t kThreads = 3;
  constexpr size_t kPerThread = 50000;
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 8});
  // A start barrier releases the threads together, each on its own CPU
  // where the host has enough.
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PinToKthAllowedCpu(t);
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      ObserveSequence(c, h, kPerThread);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
  EXPECT_EQ(h->count(), kThreads * kPerThread);
  ExpectExact(registry, kThreads, kPerThread);
}

// Runs `body` on `n` threads that all share the calling thread's shard.
// Threads take shards round-robin, so more than 2 x kShards threads are
// started, one at a time, until `n` have landed on the caller's shard; the
// others exit at once. The colliders, each on its own CPU where the host
// has enough, wait, spinning, and are released together, so their updates
// overlap on one set of lines. Returns how many colliders ran.
size_t RunOnCallersShard(size_t n, const std::function<void()>& body) {
  const size_t target = metrics_internal::ThreadShard();
  std::atomic<bool> go{false};
  std::atomic<int> verdict{0};  // 1: other shard, exited; 2: on target
  std::vector<std::thread> colliders;
  // Every kShards-th new thread lands on `target`; the bound on spawns
  // only stops a broken assignment from looping for ever.
  for (size_t spawned = 0;
       colliders.size() < n && spawned < 4 * n * metrics_internal::kShards;
       ++spawned) {
    verdict.store(0);
    std::thread t([&, index = colliders.size()] {
      if (metrics_internal::ThreadShard() != target) {
        verdict.store(1);
        return;
      }
      PinToKthAllowedCpu(index);
      verdict.store(2);
      while (!go.load()) {
      }
      body();
    });
    int v;
    while ((v = verdict.load()) == 0) std::this_thread::yield();
    if (v == 1) {
      t.join();
    } else {
      colliders.push_back(std::move(t));
    }
  }
  go.store(true);
  for (auto& t : colliders) t.join();
  return colliders.size();
}

// Threads that share a shard must stay exact while they update it at the
// same time.
TEST(RegistryTest, ConcurrentObservationsOnSharedShardsAreExact) {
  constexpr size_t kColliders = 3;
  constexpr size_t kPerThread = 200000;
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.counter");
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 8});
  ASSERT_EQ(RunOnCallersShard(kColliders,
                              [&] { ObserveSequence(c, h, kPerThread); }),
            kColliders);
  ExpectExact(registry, kColliders, kPerThread);
}

// Threads sharing a shard race on its sampling tick, which may move or add
// samples (never below one: the first tick read on a fresh shard is 0), but
// every counted event and every sampled observation stays exact.
TEST(SampledHistogramTest, SharedShardCountersStayExact) {
  constexpr size_t kColliders = 3;
  constexpr size_t kPerThread = 100000;
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.queries");
  Histogram::Options opts{1.0, 2.0, 8, true};
  Histogram* h = registry.GetHistogram("test.sampled", opts);
  std::atomic<uint64_t> sampled{0};
  ASSERT_EQ(RunOnCallersShard(kColliders,
                              [&] {
                                uint64_t mine = 0;
                                for (size_t i = 0; i < kPerThread; ++i) {
                                  c->Increment();
                                  if (h->Sample()) {
                                    h->Observe(static_cast<double>(i % 7));
                                    ++mine;
                                  }
                                }
                                sampled.fetch_add(mine);
                              }),
            kColliders);
  EXPECT_EQ(c->value(), kColliders * kPerThread);
  auto snap = registry.Snapshot();
  const HistogramSnapshot* hs = snap.FindHistogram("test.sampled");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, sampled.load());
  EXPECT_GE(hs->count, 1u);
  EXPECT_LE(hs->count, kColliders * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : hs->buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, hs->count);
  EXPECT_EQ(hs->sample_period, metrics_internal::kSamplePeriod);
}

// Reset must zero every shard, not just the resetting thread's.
TEST(RegistryTest, ResetZeroesEveryShard) {
  auto populate = [](MetricsRegistry* r) {
    r->GetCounter("c");
    r->GetGauge("g");
    r->GetHistogram("h", {1.0, 2.0, 8});
  };
  MetricsRegistry registry;
  populate(&registry);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < metrics_internal::kShards + 1; ++t) {
    threads.emplace_back([&registry, t] {
      registry.GetCounter("c")->Increment(t + 1);
      registry.GetGauge("g")->Set(static_cast<double>(t));
      registry.GetHistogram("h")->Observe(static_cast<double>(t) - 3.0);
    });
  }
  for (auto& t : threads) t.join();
  registry.Reset();

  MetricsRegistry fresh;
  populate(&fresh);
  EXPECT_EQ(registry.Snapshot().ToJsonLines(), fresh.Snapshot().ToJsonLines());
  EXPECT_EQ(registry.Snapshot().ToOpenMetrics(),
            fresh.Snapshot().ToOpenMetrics());
  EXPECT_EQ(registry.GetCounter("c")->value(), 0u);
  EXPECT_EQ(registry.GetHistogram("h")->count(), 0u);
  EXPECT_EQ(registry.GetHistogram("h")->sum(), 0.0);
}

TEST(RegistryTest, ConcurrentResolutionIsSafe) {
  MetricsRegistry registry;
  ThreadPool pool(4);
  std::atomic<Counter*> first{nullptr};
  std::atomic<bool> mismatch{false};
  pool.ParallelFor(
      1000,
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          Counter* c = registry.GetCounter("shared.counter");
          Counter* expected = nullptr;
          if (!first.compare_exchange_strong(expected, c) && expected != c) {
            mismatch.store(true);
          }
          c->Increment();
        }
      },
      1);
  EXPECT_FALSE(mismatch.load());
  EXPECT_EQ(first.load()->value(), 1000u);
}

TEST(SnapshotTest, JsonLinesShape) {
  MetricsRegistry registry;
  registry.GetCounter("index.lookups")->Increment(42);
  registry.GetGauge("trainer.last_epoch_loss")->Set(0.5);
  registry.GetHistogram("index.lookup_seconds")->Observe(1e-5);
  std::string lines = registry.Snapshot().ToJsonLines();
  EXPECT_NE(lines.find("{\"metric\":\"index.lookups\",\"type\":\"counter\","
                       "\"value\":42}"),
            std::string::npos);
  EXPECT_NE(lines.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(lines.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(lines.find("\"count\":1"), std::string::npos);

  std::string obj = registry.Snapshot().ToJsonObject();
  EXPECT_EQ(obj.front(), '{');
  EXPECT_EQ(obj.back(), '}');
  EXPECT_NE(obj.find("\"index.lookups\":42"), std::string::npos);
}

TEST(ScopedLatencyTest, RecordsPositiveDuration) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.seconds",
                                       LatencyHistogramOptions());
  { ScopedLatency timer(h); }
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GE(h->sum(), 0.0);
  // Null histogram must be harmless (disabled-at-build structures).
  { ScopedLatency timer(nullptr); }
}

// Injection: a structure built against the global registry can be re-pointed
// at a private one, and its serving path reports there.
TEST(InjectionTest, EstimatorReportsToInjectedRegistry) {
  sets::RwConfig cfg;
  cfg.num_sets = 300;
  cfg.num_unique = 60;
  auto collection = GenerateRw(cfg);
  core::CardinalityOptions opts;
  opts.model.embed_dim = 4;
  opts.model.phi_hidden = {8};
  opts.model.rho_hidden = {8};
  opts.train.epochs = 1;
  opts.max_subset_size = 2;
  auto est = core::LearnedCardinalityEstimator::Build(collection, opts);
  ASSERT_TRUE(est.ok()) << est.status().ToString();

  MetricsRegistry registry;
  est->SetMetricsRegistry(&registry);
  std::vector<sets::ElementId> q{1, 2};
  est->Estimate({q.data(), q.size()});
  est->ObserveQError(10.0, 5.0);

  auto snap = registry.Snapshot();
  const CounterSnapshot* queries = snap.FindCounter("cardinality.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->value, 1u);
  const HistogramSnapshot* lat =
      snap.FindHistogram("cardinality.estimate_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 1u);
  const HistogramSnapshot* qerr = snap.FindHistogram("cardinality.qerror");
  ASSERT_NE(qerr, nullptr);
  EXPECT_EQ(qerr->count, 1u);
  EXPECT_DOUBLE_EQ(qerr->min, 2.0);  // QError(10, 5) = 2
}

TEST(InjectionTest, IndexLookupCountsQueries) {
  sets::RwConfig cfg;
  cfg.num_sets = 300;
  cfg.num_unique = 60;
  auto collection = GenerateRw(cfg);
  core::IndexOptions opts;
  opts.model.embed_dim = 4;
  opts.model.phi_hidden = {8};
  opts.model.rho_hidden = {8};
  opts.train.epochs = 1;
  opts.max_subset_size = 2;
  auto index = core::LearnedSetIndex::Build(collection, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  MetricsRegistry registry;
  index->SetMetricsRegistry(&registry);
  index->Lookup(collection.set(0));
  auto to_query = [&](size_t i) {
    sets::SetView v = collection.set(i);
    sets::Query q;
    q.elements.assign(v.data(), v.data() + v.size());
    return q;
  };
  std::vector<sets::Query> batch{to_query(1), to_query(2)};
  index->LookupBatch(batch);

  auto snap = registry.Snapshot();
  const CounterSnapshot* lookups = snap.FindCounter("index.lookups");
  ASSERT_NE(lookups, nullptr);
  EXPECT_EQ(lookups->value, 3u);
  const CounterSnapshot* batches = snap.FindCounter("index.lookup_batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->value, 1u);
  const HistogramSnapshot* width = snap.FindHistogram("index.scan_width");
  ASSERT_NE(width, nullptr);
  EXPECT_GT(width->count, 0u);
}

// ---------- Sampled histograms ----------

TEST(SampledHistogramTest, SamplesOneCallInSixteenFromTheFirst) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.seconds",
                                       SampledLatencyHistogramOptions());
  std::vector<size_t> sampled;
  for (size_t i = 0; i < 40; ++i) {
    if (h->Sample()) sampled.push_back(i);
  }
  EXPECT_EQ(sampled, (std::vector<size_t>{0, 16, 32}));
  // Reset restarts the tick: the next call is sampled again.
  registry.Reset();
  EXPECT_TRUE(h->Sample());
  EXPECT_FALSE(h->Sample());
  // A disabled registry samples nothing and leaves the tick alone.
  registry.Reset();
  registry.set_enabled(false);
  EXPECT_FALSE(h->Sample());
  registry.set_enabled(true);
  EXPECT_TRUE(h->Sample());
  // An unsampled histogram takes every call.
  Histogram* exact = registry.GetHistogram("test.exact");
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(exact->Sample());
}

TEST(SampledHistogramTest, ScopedLatencyTimesOnlySampledCalls) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.seconds",
                                       SampledLatencyHistogramOptions());
  for (int i = 0; i < 33; ++i) ScopedLatency timer(h);
  EXPECT_EQ(h->count(), 3u);  // calls 0, 16 and 32
}

TEST(SampledHistogramTest, ExportsStateTheSamplePeriod) {
  MetricsRegistry registry;
  registry.GetHistogram("test.sampled", SampledLatencyHistogramOptions())
      ->Observe(1e-6);
  registry.GetHistogram("test.exact", LatencyHistogramOptions())
      ->Observe(1e-6);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindHistogram("test.sampled")->sample_period, 16u);
  EXPECT_EQ(snap.FindHistogram("test.exact")->sample_period, 1u);

  const std::string lines = snap.ToJsonLines();
  const size_t sampled_line = lines.find("{\"metric\":\"test.sampled\"");
  const size_t exact_line = lines.find("{\"metric\":\"test.exact\"");
  ASSERT_NE(sampled_line, std::string::npos);
  ASSERT_NE(exact_line, std::string::npos);
  EXPECT_NE(lines.substr(sampled_line, lines.find('\n', sampled_line) -
                                           sampled_line)
                .find("\"sample_period\":16"),
            std::string::npos)
      << lines;
  EXPECT_EQ(lines.substr(exact_line, lines.find('\n', exact_line) -
                                         exact_line)
                .find("sample_period"),
            std::string::npos)
      << lines;

  const std::string obj = snap.ToJsonObject();
  EXPECT_NE(obj.find("\"sample_period\":16"), std::string::npos) << obj;
  const std::string text = snap.ToOpenMetrics();
  EXPECT_NE(text.find("# HELP los_test_sampled sampled: holds 1 in 16 calls\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("# HELP los_test_exact"), std::string::npos);
}

// One thread, fresh registry: n single-query calls on each structure give
// exactly ceil(n / 16) latency observations and n counted queries; batch
// calls are timed every time, in their own histogram.
TEST(SampledHistogramTest, StructuresTimeOneQueryInSixteen) {
  constexpr size_t kCalls = 100;
  constexpr uint64_t kTimed = (kCalls + 15) / 16;  // 7
  sets::RwConfig cfg;
  cfg.num_sets = 300;
  cfg.num_unique = 60;
  auto collection = GenerateRw(cfg);
  std::vector<sets::Query> queries;
  for (size_t i = 0; i < kCalls; ++i) {
    sets::SetView v = collection.set(i % collection.size());
    sets::Query q;
    q.elements.assign(v.begin(), v.begin() + std::min<size_t>(v.size(), 2));
    queries.push_back(std::move(q));
  }
  auto count = [](const MetricsSnapshot& snap, const std::string& name) {
    const HistogramSnapshot* h = snap.FindHistogram(name);
    return h != nullptr ? h->count : ~uint64_t{0};
  };

  core::CardinalityOptions copts;
  copts.model.embed_dim = 4;
  copts.model.phi_hidden = {8};
  copts.model.rho_hidden = {8};
  copts.train.epochs = 1;
  copts.max_subset_size = 2;
  auto est = core::LearnedCardinalityEstimator::Build(collection, copts);
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  MetricsRegistry card_registry;
  est->SetMetricsRegistry(&card_registry);
  for (const sets::Query& q : queries) est->Estimate(q.view());
  est->EstimateBatch(queries);
  auto snap = card_registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("cardinality.queries")->value, 2 * kCalls);
  EXPECT_EQ(count(snap, "cardinality.estimate_seconds"), kTimed);
  EXPECT_EQ(count(snap, "cardinality.estimate_batch_seconds"), 1u);

  core::BloomOptions bopts;
  bopts.train.epochs = 1;
  bopts.max_subset_size = 2;
  auto bloom = core::LearnedBloomFilter::Build(collection, bopts);
  ASSERT_TRUE(bloom.ok()) << bloom.status().ToString();
  MetricsRegistry bloom_registry;
  bloom->SetMetricsRegistry(&bloom_registry);
  for (const sets::Query& q : queries) bloom->MayContain(q.view());
  bloom->MayContainMulti(queries);
  snap = bloom_registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("bloom.queries")->value, 2 * kCalls);
  uint64_t outcomes = 0;
  for (const char* name : {"bloom.learned_accepts", "bloom.backup_hits",
                           "bloom.rejects", "bloom.oov_rejects"}) {
    outcomes += snap.FindCounter(name)->value;
  }
  EXPECT_EQ(outcomes, 2 * kCalls);
  EXPECT_EQ(count(snap, "bloom.query_seconds"), kTimed);
  EXPECT_EQ(count(snap, "bloom.query_batch_seconds"), 1u);

  core::IndexOptions iopts;
  iopts.model.embed_dim = 4;
  iopts.model.phi_hidden = {8};
  iopts.model.rho_hidden = {8};
  iopts.train.epochs = 1;
  iopts.max_subset_size = 2;
  auto index = core::LearnedSetIndex::Build(collection, iopts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  MetricsRegistry index_registry;
  index->SetMetricsRegistry(&index_registry);
  for (const sets::Query& q : queries) index->Lookup(q.view());
  index->LookupBatch(queries);
  snap = index_registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("index.lookups")->value, 2 * kCalls);
  EXPECT_EQ(count(snap, "index.lookup_seconds"), kTimed);
  EXPECT_EQ(count(snap, "index.lookup_batch_seconds"), 1u);
  // Scan widths are sampled per scan: at most ceil(scans / 16) of the
  // 2 x kCalls lookups, and the first scan always.
  EXPECT_GE(count(snap, "index.scan_width"), 1u);
  EXPECT_LE(count(snap, "index.scan_width"), (2 * kCalls + 15) / 16);
  // LookupEqual shares the single-query histogram and its tick.
  for (const sets::Query& q : queries) index->LookupEqual(q.view());
  snap = index_registry.Snapshot();
  EXPECT_EQ(count(snap, "index.lookup_seconds"), (2 * kCalls + 15) / 16);
}

TEST(SnapshotTest, JsonExportsBucketBoundariesAndCounts) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 3});
  h->Observe(0.5);   // bucket 0 (le 1)
  h->Observe(1.5);   // bucket 1 (le 2)
  h->Observe(100.0);  // overflow bucket
  const std::string lines = registry.Snapshot().ToJsonLines();
  // Bounds are start*factor^i and counts carry one extra overflow bucket,
  // so a scraper can reconstruct the full distribution from a snapshot.
  EXPECT_NE(lines.find("\"bounds\":[1,2,4]"), std::string::npos) << lines;
  EXPECT_NE(lines.find("\"buckets\":[1,1,0,1]"), std::string::npos) << lines;
}

TEST(OpenMetricsTest, ExpositionFormat) {
  MetricsRegistry registry;
  registry.GetCounter("index.lookups")->Increment(42);
  registry.GetGauge("monitor.cardinality.drift_score")->Set(0.25);
  Histogram* h = registry.GetHistogram("test.hist", {1.0, 2.0, 2});
  h->Observe(0.5);
  h->Observe(1.5);
  h->Observe(9.0);
  const std::string text = registry.Snapshot().ToOpenMetrics();

  // Names are sanitized under the los_ prefix; counters gain _total.
  EXPECT_NE(text.find("# TYPE los_index_lookups counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("los_index_lookups_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE los_monitor_cardinality_drift_score gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("los_monitor_cardinality_drift_score 0.25\n"),
            std::string::npos);

  // Histogram buckets are cumulative with a terminal +Inf equal to _count.
  EXPECT_NE(text.find("los_test_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("los_test_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("los_test_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("los_test_hist_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("los_test_hist_sum 11\n"), std::string::npos);

  // The exposition must end with the OpenMetrics terminator.
  const std::string eof = "# EOF\n";
  ASSERT_GE(text.size(), eof.size());
  EXPECT_EQ(text.substr(text.size() - eof.size()), eof);
}

TEST(ExportWriterTest, WritesJsonlAndOpenMetricsFiles) {
  MetricsRegistry registry;
  registry.GetCounter("test.exported")->Increment(7);

  const std::string dir = ::testing::TempDir();
  MetricsExportWriter::Options opts;
  opts.jsonl_path = dir + "/los_metrics_test.jsonl";
  opts.openmetrics_path = dir + "/los_metrics_test.prom";
  opts.period_s = 3600.0;  // no periodic fire during the test
  std::remove(opts.jsonl_path.c_str());
  {
    MetricsExportWriter writer(&registry, opts);
    ASSERT_TRUE(writer.WriteOnce().ok());
    ASSERT_TRUE(writer.WriteOnce().ok());
    EXPECT_GE(writer.exports(), 2u);
    // Stop performs one final export so the files end on a complete view.
    writer.Stop();
    EXPECT_GE(writer.exports(), 3u);
  }

  std::ifstream jsonl(opts.jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(jsonl, line)) {
    ++lines;
    EXPECT_EQ(line.rfind("{\"ts_s\":", 0), 0u) << line;
    EXPECT_NE(line.find("\"test.exported\":7"), std::string::npos);
  }
  EXPECT_GE(lines, 3u);

  std::ifstream prom(opts.openmetrics_path);
  ASSERT_TRUE(prom.good());
  std::string text((std::istreambuf_iterator<char>(prom)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("los_test_exported_total 7\n"), std::string::npos);
  const std::string eof = "# EOF\n";
  ASSERT_GE(text.size(), eof.size());
  EXPECT_EQ(text.substr(text.size() - eof.size()), eof);

  std::remove(opts.jsonl_path.c_str());
  std::remove(opts.openmetrics_path.c_str());
}

TEST(ExportWriterTest, AtomicWriteReplacesWithoutPartials) {
  const std::string path = ::testing::TempDir() + "/los_atomic_test.txt";
  ASSERT_TRUE(WriteTextFileAtomic(path, "first\n").ok());
  ASSERT_TRUE(WriteTextFileAtomic(path, "second\n").ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(text, "second\n");
  // The temp staging file never survives a successful rename.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace los
