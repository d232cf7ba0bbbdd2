// Tests for the sets substrate: SetCollection, hashing, subset enumeration,
// dataset generators, workload builders.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "sets/dictionary.h"
#include "sets/generators.h"
#include "sets/set_io.h"
#include "sets/set_collection.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::sets {
namespace {

TEST(SetCollectionTest, AddSortsAndDedups) {
  SetCollection c;
  c.Add({5, 1, 3, 1, 5});
  ASSERT_EQ(c.size(), 1u);
  SetView s = c.set(0);
  EXPECT_EQ(std::vector<ElementId>(s.begin(), s.end()),
            (std::vector<ElementId>{1, 3, 5}));
}

TEST(SetCollectionTest, TracksUniverseAndSizes) {
  SetCollection c;
  c.Add({2, 9});
  c.Add({0, 1, 4});
  EXPECT_EQ(c.universe_size(), 10u);
  EXPECT_EQ(c.total_elements(), 5u);
  EXPECT_EQ(c.SetSizeRange(), (std::pair<size_t, size_t>{2, 3}));
  EXPECT_EQ(c.CountDistinctElements(), 5u);
  // Elements, offsets and one 8-byte signature per set.
  EXPECT_EQ(c.MemoryBytes(), 5 * sizeof(ElementId) + 3 * sizeof(uint64_t) +
                                 2 * sizeof(uint64_t));
}

TEST(SetCollectionTest, AllowsDuplicateSets) {
  SetCollection c;
  c.Add({1, 2});
  c.Add({2, 1});
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(std::equal(c.set(0).begin(), c.set(0).end(),
                         c.set(1).begin(), c.set(1).end()));
}

TEST(SetCollectionTest, SubsetContainment) {
  SetCollection c;
  c.Add({1, 3, 5, 7});
  std::vector<ElementId> q{3, 7};
  EXPECT_TRUE(c.SetContainsSorted(0, SetView(q.data(), q.size())));
  std::vector<ElementId> q2{3, 4};
  EXPECT_FALSE(c.SetContainsSorted(0, SetView(q2.data(), q2.size())));
  std::vector<ElementId> empty;
  EXPECT_TRUE(c.SetContainsSorted(0, SetView(empty.data(), 0)));
}

TEST(SetCollectionTest, FindFirstSuperset) {
  SetCollection c;
  c.Add({1, 2});
  c.Add({2, 3});
  c.Add({1, 2, 3});
  std::vector<ElementId> q{2, 3};
  EXPECT_EQ(c.FindFirstSuperset(SetView(q.data(), q.size()), 0, c.size()), 1);
  EXPECT_EQ(c.FindFirstSuperset(SetView(q.data(), q.size()), 2, c.size()), 2);
  std::vector<ElementId> missing{9};
  EXPECT_EQ(c.FindFirstSuperset(SetView(missing.data(), 1), 0, c.size()), -1);
}

TEST(SetCollectionTest, UpdateSetRewritesAndShifts) {
  SetCollection c;
  c.Add({1, 2});
  c.Add({3, 4, 5});
  c.Add({6});
  ASSERT_TRUE(c.UpdateSet(1, {7, 8}).ok());
  EXPECT_EQ(c.set_size(1), 2u);
  EXPECT_EQ(c.set(1)[0], 7u);
  EXPECT_EQ(c.set(2)[0], 6u);  // later sets unharmed
  EXPECT_FALSE(c.UpdateSet(99, {1}).ok());
}

TEST(SetCollectionTest, SaveLoadRoundTrip) {
  SetCollection c;
  c.Add({1, 5});
  c.Add({2});
  BinaryWriter w;
  c.Save(&w);
  BinaryReader r(w.bytes());
  auto back = SetCollection::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(back->universe_size(), 6u);
  EXPECT_EQ(back->set(0)[1], 5u);
}

// Exhaustive check of the signature-filtered scans against a plain merge
// loop. Element ids 1, 65, 129 and 193 share signature bit 1, so a query
// can pass the signature test of a set that does not contain it.
void ExpectScansMatchReference(const SetCollection& c,
                               const std::vector<ElementId>& universe) {
  auto check = [&](SetView q) {
    for (size_t begin = 0; begin <= c.size(); ++begin) {
      for (size_t end = begin; end <= c.size() + 1; ++end) {
        int64_t want_superset = -1, want_equal = -1;
        for (size_t i = begin; i < std::min(end, c.size()); ++i) {
          SetView s = c.set(i);
          if (want_superset < 0 && IsSubsetSorted(q, s)) {
            want_superset = static_cast<int64_t>(i);
          }
          if (want_equal < 0 &&
              std::equal(s.begin(), s.end(), q.begin(), q.end())) {
            want_equal = static_cast<int64_t>(i);
          }
        }
        ASSERT_EQ(c.FindFirstSuperset(q, begin, end), want_superset)
            << "begin=" << begin << " end=" << end << " |q|=" << q.size();
        ASSERT_EQ(c.FindFirstEqual(q, begin, end), want_equal)
            << "begin=" << begin << " end=" << end << " |q|=" << q.size();
      }
    }
  };
  check(SetView());
  ForEachSubset(SetView(universe.data(), universe.size()), 3, check);
}

TEST(SetCollectionTest, SignatureScansMatchMergeExhaustively) {
  const std::vector<ElementId> universe{1, 2, 3, 4, 5, 6, 7, 65, 129, 193};
  SetCollection c;
  c.Add({1, 2, 3});
  c.Add({65, 2, 4});
  c.Add({129, 193, 5});
  c.Add({1, 65, 129, 193});
  c.Add({2, 3, 6, 7});
  c.Add({65, 2, 4});
  c.Add({});
  c.Add({1, 4, 5, 6, 7, 193});
  ExpectScansMatchReference(c, universe);

  ASSERT_TRUE(c.UpdateSet(0, {1, 2, 3, 4, 5, 6, 7, 65}).ok());   // grow
  ASSERT_TRUE(c.UpdateSet(3, {129}).ok());                       // shrink
  ASSERT_TRUE(c.UpdateSet(6, {2, 65, 193}).ok());                // from empty
  ASSERT_TRUE(c.UpdateSet(7, {}).ok());                          // to empty
  ASSERT_TRUE(c.UpdateSet(2, {65, 2, 4}).ok());                  // duplicate
  ExpectScansMatchReference(c, universe);

  BinaryWriter w;
  c.Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = SetCollection::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->MemoryBytes(), c.MemoryBytes());
  ExpectScansMatchReference(*loaded, universe);

  const SetCollection copy = c;
  ExpectScansMatchReference(copy, universe);
}

TEST(IsSubsetSortedTest, EdgeCases) {
  std::vector<ElementId> small{2, 4}, big{1, 2, 3, 4, 5}, empty;
  EXPECT_TRUE(IsSubsetSorted({small.data(), 2}, {big.data(), 5}));
  EXPECT_FALSE(IsSubsetSorted({big.data(), 5}, {small.data(), 2}));
  EXPECT_TRUE(IsSubsetSorted({empty.data(), 0}, {big.data(), 5}));
  EXPECT_TRUE(IsSubsetSorted({big.data(), 5}, {big.data(), 5}));
}

TEST(IsSubmultisetSortedTest, CountsMultiplicity) {
  std::vector<ElementId> s{1, 1, 2, 3, 3, 3};
  std::vector<ElementId> ok1{1, 3, 3}, ok2{1, 1}, bad1{1, 1, 1}, bad2{2, 2};
  EXPECT_TRUE(IsSubmultisetSorted({ok1.data(), 3}, {s.data(), 6}));
  EXPECT_TRUE(IsSubmultisetSorted({ok2.data(), 2}, {s.data(), 6}));
  EXPECT_FALSE(IsSubmultisetSorted({bad1.data(), 3}, {s.data(), 6}));
  EXPECT_FALSE(IsSubmultisetSorted({bad2.data(), 2}, {s.data(), 6}));
  EXPECT_TRUE(IsSubmultisetSorted({}, {s.data(), 6}));
}

TEST(SetHashTest, SortedHashIsDeterministic) {
  std::vector<ElementId> a{1, 2, 3};
  EXPECT_EQ(HashSetSorted({a.data(), 3}), HashSetSorted({a.data(), 3}));
}

TEST(SetHashTest, CommutativeHashIgnoresOrder) {
  std::vector<ElementId> a{1, 2, 3}, b{3, 1, 2};
  EXPECT_EQ(CommutativeHash({a.data(), 3}), CommutativeHash({b.data(), 3}));
}

TEST(SetHashTest, DistinctSetsRarelyCollide) {
  // 10k random small sets: expect no collisions in 64-bit space.
  Rng rng(1);
  std::unordered_set<uint64_t> hashes;
  std::set<std::vector<ElementId>> seen;
  int collisions = 0;
  for (int i = 0; i < 10000; ++i) {
    std::vector<ElementId> v;
    size_t n = 1 + rng.Uniform(5);
    for (size_t j = 0; j < n; ++j) {
      v.push_back(static_cast<ElementId>(rng.Uniform(1000)));
    }
    Canonicalize(&v);
    if (!seen.insert(v).second) continue;
    if (!hashes.insert(HashSetSorted({v.data(), v.size()})).second) {
      ++collisions;
    }
  }
  EXPECT_EQ(collisions, 0);
}

TEST(SetKeyTest, EqualityIsExact) {
  SetKey a(std::vector<ElementId>{1, 2});
  SetKey b(std::vector<ElementId>{1, 2});
  SetKey c(std::vector<ElementId>{1, 3});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(SubsetGenTest, CountSubsetsFormula) {
  EXPECT_EQ(CountSubsets(3, 3), 7u);    // 3 + 3 + 1
  EXPECT_EQ(CountSubsets(4, 2), 10u);   // 4 + 6
  EXPECT_EQ(CountSubsets(5, 10), 31u);  // max_size clamps to n
  EXPECT_EQ(CountSubsets(0, 3), 0u);
}

TEST(SubsetGenTest, ForEachSubsetEnumeratesAll) {
  std::vector<ElementId> s{1, 2, 3};
  std::set<std::vector<ElementId>> seen;
  ForEachSubset({s.data(), 3}, 3, [&](SetView sub) {
    seen.insert(std::vector<ElementId>(sub.begin(), sub.end()));
  });
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_TRUE(seen.count({1, 2, 3}));
  EXPECT_TRUE(seen.count({2}));
  EXPECT_TRUE(seen.count({1, 3}));
}

TEST(SubsetGenTest, ForEachSubsetRespectsMaxSize) {
  std::vector<ElementId> s{1, 2, 3, 4};
  size_t count = 0, max_seen = 0;
  ForEachSubset({s.data(), 4}, 2, [&](SetView sub) {
    ++count;
    max_seen = std::max(max_seen, sub.size());
  });
  EXPECT_EQ(count, 10u);
  EXPECT_EQ(max_seen, 2u);
}

TEST(SubsetGenTest, LabelsMatchBruteForce) {
  SetCollection c;
  c.Add({1, 2, 3});
  c.Add({2, 3, 4});
  c.Add({1, 2});
  SubsetGenOptions opts;
  opts.max_subset_size = 3;
  LabeledSubsets ls = EnumerateLabeledSubsets(c, opts);

  // Brute-force oracle.
  auto card = [&](SetView q) {
    uint64_t n = 0;
    for (size_t i = 0; i < c.size(); ++i) n += c.SetContainsSorted(i, q);
    return n;
  };
  auto first = [&](SetView q) {
    return static_cast<double>(c.FindFirstSuperset(q, 0, c.size()));
  };
  ASSERT_GT(ls.size(), 0u);
  for (size_t i = 0; i < ls.size(); ++i) {
    SetView q = ls.subset(i);
    EXPECT_EQ(ls.cardinality(i), static_cast<double>(card(q)));
    EXPECT_EQ(ls.first_position(i), first(q));
  }
  // {2} appears in all 3; {2,3} in the first two.
  std::vector<ElementId> q1{2}, q2{2, 3};
  EXPECT_EQ(card({q1.data(), 1}), 3u);
  EXPECT_EQ(card({q2.data(), 2}), 2u);
}

TEST(SubsetGenTest, DistinctSubsetsOnly) {
  SetCollection c;
  c.Add({1, 2});
  c.Add({1, 2});  // duplicate set
  LabeledSubsets ls = EnumerateLabeledSubsets(c, {});
  EXPECT_EQ(ls.size(), 3u);  // {1}, {2}, {1,2}
  for (size_t i = 0; i < ls.size(); ++i) {
    EXPECT_EQ(ls.cardinality(i), 2.0);
    EXPECT_EQ(ls.first_position(i), 0.0);
  }
}

TEST(SubsetGenTest, CapLimitsDistinctSubsets) {
  SetCollection c;
  c.Add({1, 2, 3, 4, 5, 6});
  SubsetGenOptions opts;
  opts.max_subset_size = 6;
  opts.max_distinct_subsets = 10;
  LabeledSubsets ls = EnumerateLabeledSubsets(c, opts);
  EXPECT_EQ(ls.size(), 10u);
}

TEST(SubsetGenTest, MaxCardinalityIsSingleElementMax) {
  SetCollection c;
  c.Add({1, 2});
  c.Add({1, 3});
  c.Add({1, 4});
  LabeledSubsets ls = EnumerateLabeledSubsets(c, {});
  EXPECT_EQ(ls.MaxCardinality(), 3.0);  // element 1 in all three sets
}

TEST(GeneratorsTest, RwMatchesConfiguredShape) {
  RwConfig cfg;
  cfg.num_sets = 500;
  cfg.num_unique = 100;
  cfg.seed = 7;
  SetCollection c = GenerateRw(cfg);
  EXPECT_EQ(c.size(), 500u);
  auto [lo, hi] = c.SetSizeRange();
  EXPECT_GE(lo, cfg.min_set_size);
  EXPECT_LE(hi, cfg.max_set_size);
  EXPECT_LE(c.universe_size(), 100u);
}

TEST(GeneratorsTest, DeterministicAcrossRuns) {
  RwConfig cfg;
  cfg.num_sets = 50;
  cfg.num_unique = 30;
  SetCollection a = GenerateRw(cfg);
  SetCollection b = GenerateRw(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(std::equal(a.set(i).begin(), a.set(i).end(),
                           b.set(i).begin(), b.set(i).end()));
  }
}

TEST(GeneratorsTest, ZipfSkewConcentratesElements) {
  RwConfig cfg;
  cfg.num_sets = 2000;
  cfg.num_unique = 500;
  cfg.zipf_skew = 1.1;
  SetCollection c = GenerateRw(cfg);
  // Count frequency of the most popular element vs. the median.
  std::vector<size_t> freq(c.universe_size(), 0);
  for (size_t i = 0; i < c.size(); ++i) {
    for (ElementId e : c.set(i)) ++freq[e];
  }
  std::sort(freq.rbegin(), freq.rend());
  EXPECT_GT(freq[0], freq[freq.size() / 2] * 5);
}

TEST(GeneratorsTest, SdUsesNarrowSizes) {
  SdConfig cfg;
  cfg.num_sets = 300;
  SetCollection c = GenerateSd(cfg);
  auto [lo, hi] = c.SetSizeRange();
  EXPECT_GE(lo, 6u);
  EXPECT_LE(hi, 7u);
}

TEST(GeneratorsTest, NamedDatasetsResolve) {
  for (const char* name : {"rw-small", "tweets", "sd"}) {
    auto c = GenerateNamedDataset(name, /*scale=*/0.01);
    ASSERT_TRUE(c.ok()) << name;
    EXPECT_GT(c->size(), 0u);
  }
  EXPECT_FALSE(GenerateNamedDataset("bogus").ok());
}

TEST(GeneratorsTest, DigitSumLabelsAreSums) {
  Rng rng(3);
  auto data = GenerateDigitSum(200, 10, 9, &rng);
  EXPECT_EQ(data.size(), 200u);
  for (const auto& inst : data) {
    EXPECT_GE(inst.values.size(), 1u);
    EXPECT_LE(inst.values.size(), 10u);
    double sum = 0;
    for (uint32_t v : inst.values) {
      EXPECT_GE(v, 1u);
      EXPECT_LE(v, 9u);
      sum += v;
    }
    EXPECT_EQ(inst.sum, sum);
  }
}

TEST(GeneratorsTest, DigitSumFixedLen) {
  Rng rng(4);
  auto data = GenerateDigitSumFixedLen(50, 20, 9, &rng);
  for (const auto& inst : data) EXPECT_EQ(inst.values.size(), 20u);
}

TEST(WorkloadTest, SampleQueriesCarryTruth) {
  SetCollection c;
  c.Add({1, 2, 3});
  c.Add({2, 3});
  LabeledSubsets ls = EnumerateLabeledSubsets(c, {});
  Rng rng(5);
  auto qs = SampleQueries(ls, QueryLabel::kCardinality, 50, &rng);
  EXPECT_EQ(qs.size(), 50u);
  for (const auto& q : qs) {
    uint64_t n = 0;
    for (size_t i = 0; i < c.size(); ++i) {
      n += c.SetContainsSorted(i, q.view());
    }
    EXPECT_EQ(q.truth, static_cast<double>(n));
  }
}

TEST(WorkloadTest, BucketByResultSize) {
  std::vector<Query> qs(4);
  qs[0].truth = 1;
  qs[1].truth = 5;
  qs[2].truth = 50;
  qs[3].truth = 5000;
  auto buckets = BucketByResultSize(qs, {1, 10, 100});
  EXPECT_EQ(buckets, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(WorkloadTest, NegativeQueriesAreNegative) {
  SetCollection c;
  c.Add({1, 2});
  c.Add({3, 4});
  auto contains = [&](SetView q) {
    return c.FindFirstSuperset(q, 0, c.size()) >= 0;
  };
  Rng rng(6);
  auto negs = SampleNegativeQueries(c.universe_size(), 2, 30, contains, &rng);
  EXPECT_GT(negs.size(), 0u);
  for (const auto& q : negs) {
    EXPECT_FALSE(contains(q.view()));
    EXPECT_EQ(q.truth, 0.0);
  }
}

TEST(WorkloadTest, PositiveQueriesLabelOne) {
  SetCollection c;
  c.Add({1, 2, 3});
  LabeledSubsets ls = EnumerateLabeledSubsets(c, {});
  Rng rng(8);
  auto pos = SamplePositiveQueries(ls, 10, &rng);
  for (const auto& q : pos) EXPECT_EQ(q.truth, 1.0);
}

TEST(DictionaryTest, AssignsDenseIdsFirstSeen) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(d.GetOrAdd("beta"), 1u);
  EXPECT_EQ(d.GetOrAdd("alpha"), 0u);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.Token(1), "beta");
  EXPECT_EQ(d.Token(99), "");
  EXPECT_EQ(d.Find("beta"), 1);
  EXPECT_EQ(d.Find("gamma"), -1);
}

TEST(DictionaryTest, EncodeCanonicalizes) {
  Dictionary d;
  auto ids = d.Encode({"z", "a", "z", "m"});
  EXPECT_EQ(ids.size(), 3u);  // dedup
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  auto tokens = d.Decode({ids.data(), ids.size()});
  EXPECT_EQ(tokens.size(), 3u);
}

TEST(DictionaryTest, SaveLoadRoundTrip) {
  Dictionary d;
  d.GetOrAdd("#pizza");
  d.GetOrAdd("#dinner");
  BinaryWriter w;
  d.Save(&w);
  BinaryReader r(w.bytes());
  auto back = Dictionary::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ(back->Find("#dinner"), 1);
  EXPECT_EQ(back->Token(0), "#pizza");
}

TEST(SetIoTest, ParseBasicText) {
  auto data = ParseSetsText("a b c\n// comment line\n\nb c\n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->collection.size(), 2u);
  EXPECT_EQ(data->dictionary.size(), 3u);
  EXPECT_EQ(data->collection.set(0).size(), 3u);
  EXPECT_EQ(data->collection.set(1).size(), 2u);
}

TEST(SetIoTest, CollapsesRepeatedDelimiters) {
  auto data = ParseSetsText("a   b\tc\n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->collection.set(0).size(), 3u);
}

TEST(SetIoTest, DuplicateTokensInLineDeduped) {
  auto data = ParseSetsText("x x y\n");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->collection.set(0).size(), 2u);
}

TEST(SetIoTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/los_setio_test.txt";
  auto data = ParseSetsText("red green\nblue\nred blue green\n");
  ASSERT_TRUE(data.ok());
  ASSERT_TRUE(
      WriteSetsFile(path, data->collection, data->dictionary).ok());
  auto back = ReadSetsFile(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->collection.size(), data->collection.size());
  for (size_t i = 0; i < back->collection.size(); ++i) {
    auto a = back->dictionary.Decode(back->collection.set(i));
    auto b = data->dictionary.Decode(data->collection.set(i));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "set " << i;
  }
  std::remove(path.c_str());
}

TEST(SetIoTest, MissingFileIsError) {
  EXPECT_FALSE(ReadSetsFile("/nonexistent/sets.txt").ok());
}

TEST(SetIoTest, ParseQueryLineKnownAndUnknown) {
  auto data = ParseSetsText("a b c\n");
  ASSERT_TRUE(data.ok());
  auto q = ParseQueryLine("c a", data->dictionary);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->size(), 2u);
  EXPECT_TRUE(std::is_sorted(q->begin(), q->end()));
  EXPECT_FALSE(ParseQueryLine("a zebra", data->dictionary).ok());
}

}  // namespace
}  // namespace los::sets
