// Tests for the traditional competitors: B+ tree (vs. std::multimap oracle),
// Bloom filter, exact hash-map estimator, inverted index (vs. brute force).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "baselines/bloom_filter.h"
#include "baselines/bplus_tree.h"
#include "baselines/hash_map_estimator.h"
#include "baselines/inverted_index.h"
#include "common/random.h"
#include "sets/generators.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"

namespace los::baselines {
namespace {

TEST(BPlusTreeTest, EmptyTree) {
  BPlusTree t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.FindFirst(42).has_value());
  EXPECT_TRUE(t.FindAll(42).empty());
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BPlusTreeTest, InsertAndFind) {
  BPlusTree t(4);
  t.Insert(10, 100);
  t.Insert(5, 50);
  t.Insert(20, 200);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(*t.FindFirst(10), 100u);
  EXPECT_EQ(*t.FindFirst(5), 50u);
  EXPECT_FALSE(t.FindFirst(7).has_value());
}

TEST(BPlusTreeTest, DuplicateKeysKeepAllValues) {
  BPlusTree t(4);
  t.Insert(1, 30);
  t.Insert(1, 10);
  t.Insert(1, 20);
  auto all = t.FindAll(1);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<uint64_t>{10, 20, 30}));
  EXPECT_EQ(*t.FindFirst(1), 10u);  // smallest value = first position
}

TEST(BPlusTreeTest, AssignReplacesEveryDuplicate) {
  BPlusTree t(4);
  for (uint64_t i = 0; i < 40; ++i) t.Insert(i % 3, 100 + i);  // splits
  t.Insert(1, 5);
  t.Assign(1, 70);  // replaces all 14 values under key 1, including 5
  EXPECT_EQ(*t.FindFirst(1), 70u);
  const auto all = t.FindAll(1);
  EXPECT_EQ(all.size(), 14u);
  for (uint64_t v : all) EXPECT_EQ(v, 70u);
  EXPECT_EQ(*t.FindFirst(0), 100u);  // neighbours untouched
  EXPECT_EQ(*t.FindFirst(2), 102u);
  t.Assign(9, 3);  // absent key: inserted
  EXPECT_EQ(*t.FindFirst(9), 3u);
  EXPECT_EQ(t.size(), 42u);
  EXPECT_TRUE(t.CheckInvariants().ok());
}

TEST(BPlusTreeTest, SplitsKeepInvariants) {
  BPlusTree t(4);
  for (uint64_t i = 0; i < 200; ++i) t.Insert(i * 7 % 97, i);
  EXPECT_TRUE(t.CheckInvariants().ok());
  EXPECT_GT(t.height(), 1u);
}

class BPlusTreeOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BPlusTreeOracleTest, MatchesMultimapUnderRandomWorkload) {
  const size_t branching = GetParam();
  BPlusTree t(branching);
  std::multimap<uint64_t, uint64_t> oracle;
  Rng rng(branching);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.Uniform(500);
    uint64_t value = rng.Next();
    t.Insert(key, value);
    oracle.emplace(key, value);
  }
  ASSERT_TRUE(t.CheckInvariants().ok());
  EXPECT_EQ(t.size(), oracle.size());
  for (uint64_t key = 0; key < 500; ++key) {
    auto range = oracle.equal_range(key);
    std::vector<uint64_t> expected;
    for (auto it = range.first; it != range.second; ++it) {
      expected.push_back(it->second);
    }
    auto got = t.FindAll(key);
    std::sort(expected.begin(), expected.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "key " << key;
    if (!expected.empty()) {
      EXPECT_EQ(*t.FindFirst(key), expected.front());
    } else {
      EXPECT_FALSE(t.FindFirst(key).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BranchingFactors, BPlusTreeOracleTest,
                         ::testing::Values(4, 8, 32, 100));

TEST(BPlusTreeTest, MemoryGrowsWithEntries) {
  BPlusTree small(16), large(16);
  for (uint64_t i = 0; i < 10; ++i) small.Insert(i, i);
  for (uint64_t i = 0; i < 10000; ++i) large.Insert(i, i);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes() * 10);
}

TEST(BPlusTreeTest, MoveTransfersOwnership) {
  BPlusTree a(8);
  a.Insert(1, 11);
  BPlusTree b = std::move(a);
  EXPECT_EQ(*b.FindFirst(1), 11u);
  EXPECT_EQ(b.size(), 1u);
}

TEST(BPlusTreeTest, SaveLoadRoundTrip) {
  BPlusTree t(8);
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) t.Insert(rng.Uniform(300), rng.Next());
  BinaryWriter w;
  t.Save(&w);
  BinaryReader r(w.bytes());
  auto back = BPlusTree::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), t.size());
  EXPECT_TRUE(back->CheckInvariants().ok());
  for (uint64_t key = 0; key < 300; ++key) {
    auto a = t.FindAll(key);
    auto b = back->FindAll(key);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

TEST(BloomFilterTest, SaveLoadRoundTrip) {
  BloomFilter bf(500, 0.01);
  for (uint64_t i = 0; i < 500; ++i) bf.InsertHash(sets::MixElement(i));
  BinaryWriter w;
  bf.Save(&w);
  BinaryReader r(w.bytes());
  auto back = BloomFilter::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_bits(), bf.num_bits());
  EXPECT_EQ(back->inserted(), bf.inserted());
  for (uint64_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(back->MayContainHash(sets::MixElement(i)),
              bf.MayContainHash(sets::MixElement(i)));
  }
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf(1000, 0.01);
  Rng rng(2);
  std::vector<std::vector<sets::ElementId>> inserted;
  for (int i = 0; i < 1000; ++i) {
    std::vector<sets::ElementId> v;
    for (int j = 0; j < 3; ++j) {
      v.push_back(static_cast<sets::ElementId>(rng.Uniform(100000)));
    }
    sets::Canonicalize(&v);
    bf.Insert({v.data(), v.size()});
    inserted.push_back(std::move(v));
  }
  for (const auto& v : inserted) {
    EXPECT_TRUE(bf.MayContain({v.data(), v.size()}));
  }
}

class BloomFpRateTest : public ::testing::TestWithParam<double> {};

TEST_P(BloomFpRateTest, FalsePositiveRateNearTarget) {
  const double target = GetParam();
  const size_t n = 5000;
  BloomFilter bf(n, target);
  for (uint64_t i = 0; i < n; ++i) bf.InsertHash(sets::MixElement(i));
  size_t fp = 0;
  const size_t probes = 20000;
  for (uint64_t i = 0; i < probes; ++i) {
    if (bf.MayContainHash(sets::MixElement(i + 10'000'000))) ++fp;
  }
  double rate = static_cast<double>(fp) / probes;
  EXPECT_LT(rate, target * 2.5);  // generous bound; rate ~ target
}

INSTANTIATE_TEST_SUITE_P(Rates, BloomFpRateTest,
                         ::testing::Values(0.1, 0.01, 0.001));

TEST(BloomFilterTest, SizeScalesWithFpRate) {
  BloomFilter loose(1000, 0.1), tight(1000, 0.001);
  EXPECT_GT(tight.MemoryBytes(), loose.MemoryBytes() * 2);
}

TEST(BloomFilterTest, OptimalBitsFormula) {
  // m = -n ln p / ln^2 2 ~ 9.585 n for p = 0.01.
  size_t bits = BloomFilter::OptimalBits(1000, 0.01);
  EXPECT_NEAR(static_cast<double>(bits), 9585.0, 10.0);
  EXPECT_EQ(BloomFilter::OptimalHashes(1000, bits), 7u);
}

TEST(HashMapEstimatorTest, ExactCounts) {
  sets::SetCollection c;
  c.Add({1, 2, 3});
  c.Add({2, 3, 4});
  c.Add({2, 5});
  HashMapEstimator est(c, /*max_subset_size=*/3);
  std::vector<sets::ElementId> q1{2}, q2{2, 3}, q3{1, 4}, q4{9};
  EXPECT_EQ(est.Estimate({q1.data(), 1}), 3u);
  EXPECT_EQ(est.Estimate({q2.data(), 2}), 2u);
  EXPECT_EQ(est.Estimate({q3.data(), 2}), 0u);  // never co-occur
  EXPECT_EQ(est.Estimate({q4.data(), 1}), 0u);  // unseen element
}

TEST(HashMapEstimatorTest, MemoryScalesWithSubsets) {
  sets::RwConfig cfg;
  cfg.num_sets = 200;
  cfg.num_unique = 100;
  sets::SetCollection c = GenerateRw(cfg);
  HashMapEstimator small(c, 1);
  HashMapEstimator big(c, 3);
  EXPECT_GT(big.size(), small.size());
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes());
}

TEST(InvertedIndexTest, MatchesBruteForce) {
  sets::RwConfig cfg;
  cfg.num_sets = 300;
  cfg.num_unique = 60;
  cfg.seed = 11;
  sets::SetCollection c = GenerateRw(cfg);
  InvertedIndex idx(c);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<sets::ElementId> q;
    size_t len = 1 + rng.Uniform(3);
    for (size_t j = 0; j < len; ++j) {
      q.push_back(static_cast<sets::ElementId>(rng.Uniform(60)));
    }
    sets::Canonicalize(&q);
    sets::SetView qv{q.data(), q.size()};
    uint64_t brute = 0;
    int64_t first = -1;
    for (size_t i = 0; i < c.size(); ++i) {
      if (c.SetContainsSorted(i, qv)) {
        ++brute;
        if (first < 0) first = static_cast<int64_t>(i);
      }
    }
    EXPECT_EQ(idx.Cardinality(qv), brute);
    EXPECT_EQ(idx.FirstMatch(qv), first);
    EXPECT_EQ(idx.Contains(qv), brute > 0);
  }
}

TEST(InvertedIndexTest, MatchesReturnsSortedPositions) {
  sets::SetCollection c;
  c.Add({1, 2});
  c.Add({3});
  c.Add({1, 2, 3});
  InvertedIndex idx(c);
  std::vector<sets::ElementId> q{1, 2};
  auto m = idx.Matches({q.data(), 2});
  EXPECT_EQ(m, (std::vector<uint32_t>{0, 2}));
}

TEST(InvertedIndexTest, UnseenElementYieldsEmpty) {
  sets::SetCollection c;
  c.Add({1});
  InvertedIndex idx(c);
  std::vector<sets::ElementId> q{500};
  EXPECT_EQ(idx.Cardinality({q.data(), 1}), 0u);
  EXPECT_EQ(idx.FirstMatch({q.data(), 1}), -1);
}

TEST(InvertedIndexTest, EmptyQueryIsZero) {
  sets::SetCollection c;
  c.Add({1});
  InvertedIndex idx(c);
  EXPECT_EQ(idx.Cardinality({}), 0u);
}

}  // namespace
}  // namespace los::baselines
