// Concurrent-reader safety of the three serving read paths: 8 threads
// hammer Estimate/EstimateBatch, Lookup/LookupBatch and
// MayContain/MayContainMulti on shared structures and every result must
// match the serial answer bit-for-bit. The forwards run in parallel, each
// on its own thread's workspace, with no lock; this test — run under TSan
// in CI — is what keeps that honest: any state the read paths share and
// write is a data race here.
//
// Exact equality (not tolerance) is intentional: a forward reads only the
// model's weights and its own workspace, and the GEMM kernels are
// bit-deterministic across batch shapes, so interleaving must not change a
// single bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "nn/losses.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::core {
namespace {

constexpr int kThreads = 8;
constexpr int kRepsPerThread = 3;

sets::SetCollection TestCollection(uint64_t seed) {
  sets::RwConfig rw;
  rw.num_sets = 200;
  rw.num_unique = 50;
  rw.seed = seed;
  return GenerateRw(rw);
}

std::vector<sets::Query> SubsetQueries(const sets::SetCollection& c,
                                       size_t max_size, size_t n) {
  auto subsets = EnumerateLabeledSubsets(c, {max_size});
  Rng rng(7);
  std::vector<sets::Query> queries =
      sets::SampleQueries(subsets, sets::QueryLabel::kCardinality, n, &rng);
  // A few out-of-vocabulary queries exercise the OOV early-outs too.
  for (size_t i = 0; i < 4 && i < queries.size(); ++i) {
    queries[i * (n / 4)].elements.push_back(
        static_cast<sets::ElementId>(c.universe_size() + 3 + i));
  }
  return queries;
}

struct RunResult {
  int mismatches = 0;     ///< workers that saw a result differ from serial
  int max_in_flight = 0;  ///< most workers inside their read loop at once
};

/// Runs `read_once(thread_index)` (one pass over the queries, false on a
/// mismatch) on kThreads threads. New threads start on their parent's CPU
/// and may run one after another for a while, so the workers are released
/// together by one gate, and each keeps reading — at least kRepsPerThread
/// passes — until every worker has started. gtest assertions are not
/// thread-safe, so workers only count; the test body asserts after the
/// join.
RunResult RunThreads(const std::function<bool(int)>& read_once) {
  std::atomic<bool> go{false};
  std::atomic<int> started{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      const int now = in_flight.fetch_add(1) + 1;
      int seen = max_in_flight.load();
      while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
      }
      started.fetch_add(1);
      bool ok = true;
      for (int rep = 0;
           ok && (rep < kRepsPerThread || started.load() < kThreads); ++rep) {
        ok = read_once(t);
      }
      in_flight.fetch_sub(1);
      if (!ok) mismatches.fetch_add(1);
    });
  }
  go.store(true);
  for (auto& th : threads) th.join();
  return {mismatches.load(), max_in_flight.load()};
}

void ExpectConcurrentAndExact(const RunResult& r) {
  EXPECT_EQ(r.mismatches, 0);
  EXPECT_GE(r.max_in_flight, 2);
}

TEST(ConcurrentReadTest, CardinalityMatchesSerial) {
  auto c = TestCollection(11);
  CardinalityOptions opts;
  opts.train.epochs = 5;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.hybrid = true;  // exercise the aux OutlierMap path too
  opts.keep_fraction = 0.8;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok()) << est.status().ToString();

  auto queries = SubsetQueries(c, 2, 64);
  std::vector<double> serial_single(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial_single[i] = est->Estimate(queries[i].view());
  }
  std::vector<double> serial_batch = est->EstimateBatch(queries);
  ASSERT_EQ(serial_single, serial_batch);

  // Even threads replay the single-query path, odd threads the batched
  // path, concurrently against the same estimator.
  ExpectConcurrentAndExact(RunThreads([&](int t) {
    if (t % 2 == 1) return est->EstimateBatch(queries) == serial_batch;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (est->Estimate(queries[i].view()) != serial_single[i]) return false;
    }
    return true;
  }));
}

TEST(ConcurrentReadTest, IndexLookupMatchesSerial) {
  auto c = TestCollection(12);
  IndexOptions opts;
  opts.train.epochs = 5;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.hybrid = true;  // exercise the aux B+ tree path too
  opts.keep_fraction = 0.8;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  auto queries = SubsetQueries(c, 2, 64);
  std::vector<int64_t> serial_single(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial_single[i] = index->Lookup(queries[i].view());
  }
  std::vector<int64_t> serial_batch = index->LookupBatch(queries);
  ASSERT_EQ(serial_single, serial_batch);

  ExpectConcurrentAndExact(RunThreads([&](int t) {
    if (t % 2 == 1) return index->LookupBatch(queries) == serial_batch;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (index->Lookup(queries[i].view()) != serial_single[i]) return false;
    }
    return true;
  }));
}

TEST(ConcurrentReadTest, BloomVerdictsMatchSerial) {
  auto c = TestCollection(13);
  BloomOptions opts;
  opts.train.epochs = 5;
  opts.max_subset_size = 2;
  auto bloom = LearnedBloomFilter::Build(c, opts);
  ASSERT_TRUE(bloom.ok()) << bloom.status().ToString();

  // Positives plus random negatives: both accept and reject paths (learned
  // accept, backup probe, reject) run concurrently.
  auto queries = SubsetQueries(c, 2, 48);
  Rng rng(21);
  for (int i = 0; i < 16; ++i) {
    sets::Query q;
    q.elements = {static_cast<sets::ElementId>(rng.Uniform(c.universe_size())),
                  static_cast<sets::ElementId>(c.universe_size() - 1 -
                                               (i % 7))};
    std::sort(q.elements.begin(), q.elements.end());
    q.elements.erase(std::unique(q.elements.begin(), q.elements.end()),
                     q.elements.end());
    queries.push_back(std::move(q));
  }

  std::vector<bool> serial_single(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial_single[i] = bloom->MayContain(queries[i].view());
  }
  std::vector<bool> serial_batch = bloom->MayContainMulti(queries).verdicts;
  ASSERT_EQ(serial_single, serial_batch);

  ExpectConcurrentAndExact(RunThreads([&](int t) {
    if (t % 2 == 1) {
      return bloom->MayContainMulti(queries).verdicts == serial_batch;
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (bloom->MayContain(queries[i].view()) != serial_single[i]) {
        return false;
      }
    }
    return true;
  }));
}

}  // namespace
}  // namespace los::core
