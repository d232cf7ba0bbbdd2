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

/// Runs `fn(thread_index)` on kThreads threads and returns how many threads
/// reported a mismatch. gtest assertions are not thread-safe, so workers
/// only count; the test body asserts after the join.
int RunThreads(const std::function<bool(int)>& fn) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (!fn(t)) mismatches.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();
  return mismatches.load();
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
  int mismatches = RunThreads([&](int t) {
    for (int rep = 0; rep < kRepsPerThread; ++rep) {
      if (t % 2 == 0) {
        for (size_t i = 0; i < queries.size(); ++i) {
          if (est->Estimate(queries[i].view()) != serial_single[i]) {
            return false;
          }
        }
      } else {
        if (est->EstimateBatch(queries) != serial_batch) return false;
      }
    }
    return true;
  });
  EXPECT_EQ(mismatches, 0);
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

  int mismatches = RunThreads([&](int t) {
    for (int rep = 0; rep < kRepsPerThread; ++rep) {
      if (t % 2 == 0) {
        for (size_t i = 0; i < queries.size(); ++i) {
          if (index->Lookup(queries[i].view()) != serial_single[i]) {
            return false;
          }
        }
      } else {
        if (index->LookupBatch(queries) != serial_batch) return false;
      }
    }
    return true;
  });
  EXPECT_EQ(mismatches, 0);
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

  int mismatches = RunThreads([&](int t) {
    for (int rep = 0; rep < kRepsPerThread; ++rep) {
      if (t % 2 == 0) {
        for (size_t i = 0; i < queries.size(); ++i) {
          if (bloom->MayContain(queries[i].view()) != serial_single[i]) {
            return false;
          }
        }
      } else {
        if (bloom->MayContainMulti(queries).verdicts != serial_batch) {
          return false;
        }
      }
    }
    return true;
  });
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace los::core
