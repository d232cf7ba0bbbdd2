// Tests for the core learned structures: target scaling, training data,
// trainer + guided learning, local error bounds, and the three end-to-end
// learned structures (cardinality, index, Bloom filter).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/bplus_tree.h"
#include "baselines/inverted_index.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/hybrid.h"
#include "nn/losses.h"
#include "core/learned_bloom.h"
#include "core/partitioned_bloom.h"
#include "core/sandwiched_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/scaling.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"

namespace los::core {
namespace {

// ---------- TargetScaler ----------

TEST(TargetScalerTest, ScalesIntoUnitInterval) {
  TargetScaler s = TargetScaler::FitRange(1.0, 1000.0);
  EXPECT_DOUBLE_EQ(s.Scale(1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Scale(1000.0), 1.0);
  double mid = s.Scale(31.0);
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
}

TEST(TargetScalerTest, UnscaleInvertsScale) {
  TargetScaler s = TargetScaler::FitRange(1.0, 5000.0);
  for (double y : {1.0, 2.0, 77.0, 4999.0, 5000.0}) {
    EXPECT_NEAR(s.Unscale(s.Scale(y)), y, y * 1e-9);
  }
}

TEST(TargetScalerTest, ClampsOutOfRange) {
  TargetScaler s = TargetScaler::FitRange(1.0, 100.0);
  EXPECT_DOUBLE_EQ(s.Scale(100000.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Scale(0.0), 0.0);
  EXPECT_NEAR(s.Unscale(2.0), 100.0, 1e-9);
}

TEST(TargetScalerTest, FitFromLabels) {
  TargetScaler s = TargetScaler::Fit({5.0, 2.0, 9.0});
  EXPECT_DOUBLE_EQ(s.Scale(2.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Scale(9.0), 1.0);
}

TEST(TargetScalerTest, DegenerateSingleLabel) {
  TargetScaler s = TargetScaler::Fit({3.0});
  EXPECT_NEAR(s.Unscale(s.Scale(3.0)), 3.0, 1e-6);
}

TEST(TargetScalerTest, SaveLoadRoundTrip) {
  TargetScaler s = TargetScaler::FitRange(1.0, 777.0);
  BinaryWriter w;
  s.Save(&w);
  BinaryReader r(w.bytes());
  auto back = TargetScaler::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back->lo(), s.lo());
  EXPECT_DOUBLE_EQ(back->hi(), s.hi());
}

// ---------- TrainingSet ----------

sets::SetCollection SmallCollection() {
  sets::SetCollection c;
  c.Add({1, 2, 3});
  c.Add({2, 3, 4});
  c.Add({1, 5});
  c.Add({2, 3});
  return c;
}

TEST(TrainingSetTest, FromSubsetsCarriesLabels) {
  auto c = SmallCollection();
  auto subsets = EnumerateLabeledSubsets(c, {});
  TargetScaler scaler = TargetScaler::FitRange(1.0, subsets.MaxCardinality());
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, scaler);
  ASSERT_EQ(ts.size(), subsets.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.raw_target(i), subsets.cardinality(i));
    EXPECT_NEAR(ts.scaled_target(i), scaler.Scale(subsets.cardinality(i)),
                1e-6);
  }
}

TEST(TrainingSetTest, DeactivationTracksActive) {
  auto c = SmallCollection();
  auto subsets = EnumerateLabeledSubsets(c, {});
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, TargetScaler::FitRange(1, 4));
  size_t before = ts.CountActive();
  ts.Deactivate(0);
  ts.Deactivate(1);
  EXPECT_EQ(ts.CountActive(), before - 2);
  auto idx = ts.ActiveIndices();
  EXPECT_EQ(idx.size(), before - 2);
  EXPECT_TRUE(std::find(idx.begin(), idx.end(), 0u) == idx.end());
}

TEST(TrainingSetTest, GatherBatchBuildsCsr) {
  TrainingSet ts;
  std::vector<sets::ElementId> a{1, 2}, b{3};
  ts.Append({a.data(), 2}, 5.0, 0.5f);
  ts.Append({b.data(), 1}, 7.0, 0.7f);
  std::vector<size_t> idx{1, 0};
  std::vector<sets::ElementId> ids;
  std::vector<int64_t> offsets;
  nn::Tensor targets;
  ts.GatherBatch(idx, 0, 2, &ids, &offsets, &targets);
  EXPECT_EQ(ids, (std::vector<sets::ElementId>{3, 1, 2}));
  EXPECT_EQ(offsets, (std::vector<int64_t>{0, 1, 3}));
  EXPECT_FLOAT_EQ(targets(0, 0), 0.7f);
  EXPECT_FLOAT_EQ(targets(1, 0), 0.5f);
}

// ---------- Trainer ----------

TEST(TrainerTest, LossDecreasesOnLearnableTask) {
  auto c = SmallCollection();
  auto subsets = EnumerateLabeledSubsets(c, {});
  TargetScaler scaler = TargetScaler::FitRange(1.0, subsets.MaxCardinality());
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, scaler);

  ModelOptions mo;
  mo.embed_dim = 4;
  mo.phi_hidden = {16};
  mo.rho_hidden = {16};
  auto model = MakeSetModel(mo, c.universe_size());
  ASSERT_TRUE(model.ok());

  TrainConfig cfg;
  cfg.epochs = 60;
  cfg.batch_size = 8;
  cfg.learning_rate = 0.01f;
  cfg.loss = LossKind::kMse;
  Trainer trainer(cfg);
  auto stats = trainer.Train(model->get(), ts);
  ASSERT_EQ(stats.size(), 60u);
  EXPECT_LT(stats.back().loss, stats.front().loss * 0.5);
}

TEST(TrainerTest, QErrorLossAlsoConverges) {
  auto c = SmallCollection();
  auto subsets = EnumerateLabeledSubsets(c, {});
  TargetScaler scaler = TargetScaler::FitRange(1.0, subsets.MaxCardinality());
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, scaler);
  ModelOptions mo;
  mo.embed_dim = 4;
  mo.phi_hidden = {16};
  mo.rho_hidden = {16};
  auto model = MakeSetModel(mo, c.universe_size());
  ASSERT_TRUE(model.ok());
  TrainConfig cfg;
  cfg.epochs = 80;
  cfg.batch_size = 8;
  cfg.learning_rate = 0.01f;
  cfg.loss = LossKind::kQError;
  cfg.qerror_span = scaler.span();
  Trainer trainer(cfg);
  auto stats = trainer.Train(model->get(), ts);
  double q = EvaluateAvgQError(model->get(), ts, scaler, ts.ActiveIndices());
  EXPECT_LT(q, 1.6);
}

TEST(TrainerTest, PredictScaledMatchesPredictOne) {
  auto c = SmallCollection();
  auto subsets = EnumerateLabeledSubsets(c, {});
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, TargetScaler::FitRange(1, 4));
  ModelOptions mo;
  auto model = MakeSetModel(mo, c.universe_size());
  ASSERT_TRUE(model.ok());
  Trainer trainer(TrainConfig{});
  std::vector<size_t> idx{0, 2};
  auto preds = trainer.PredictScaled(model->get(), ts, idx);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_NEAR(preds[0], (*model)->PredictOne(ts.subset(0)), 1e-6);
  EXPECT_NEAR(preds[1], (*model)->PredictOne(ts.subset(2)), 1e-6);
}

TEST(GuidedTrainingTest, EvictsWorstSamples) {
  sets::RwConfig rw;
  rw.num_sets = 400;
  rw.num_unique = 80;
  auto c = GenerateRw(rw);
  auto subsets = EnumerateLabeledSubsets(c, {});
  TargetScaler scaler = TargetScaler::FitRange(1.0, subsets.MaxCardinality());
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, scaler);
  const size_t total = ts.size();

  ModelOptions mo;
  mo.embed_dim = 4;
  mo.phi_hidden = {16};
  mo.rho_hidden = {16};
  auto model = MakeSetModel(mo, c.universe_size());
  ASSERT_TRUE(model.ok());

  GuidedConfig g;
  g.train.epochs = 8;
  g.train.loss = LossKind::kMse;
  g.rounds = 2;
  g.keep_fraction = 0.8;
  GuidedResult res = TrainGuided(model->get(), &ts, scaler, g);
  // Evicts at most ~20% (less if errors below min_evict_qerror).
  EXPECT_LE(res.outliers.size(), total / 4);
  EXPECT_EQ(ts.CountActive(), total - res.outliers.size());
  // History covers both rounds.
  EXPECT_EQ(res.history.size(), 16u);
}

TEST(GuidedTrainingTest, PerfectModelEvictsNothing) {
  // One set, one subset per label value: trivial to fit.
  sets::SetCollection c;
  c.Add({1});
  auto subsets = EnumerateLabeledSubsets(c, {});
  TargetScaler scaler = TargetScaler::FitRange(1.0, 2.0);
  TrainingSet ts = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, scaler);
  ModelOptions mo;
  auto model = MakeSetModel(mo, c.universe_size());
  ASSERT_TRUE(model.ok());
  GuidedConfig g;
  g.train.epochs = 100;
  g.train.loss = LossKind::kMse;
  g.rounds = 3;
  g.keep_fraction = 0.5;
  GuidedResult res = TrainGuided(model->get(), &ts, scaler, g);
  EXPECT_TRUE(res.outliers.empty());
}

// ---------- LocalErrorBounds ----------

TEST(LocalErrorBoundsTest, PerRangeMaxima) {
  std::vector<double> est{10, 20, 110, 120, 210};
  std::vector<double> truth{12, 15, 111, 180, 210};
  LocalErrorBounds b = LocalErrorBounds::Build(est, truth, 100);
  EXPECT_EQ(b.num_ranges(), 3u);
  EXPECT_DOUBLE_EQ(b.ErrorFor(15), 5.0);    // max(|10-12|, |20-15|)
  EXPECT_DOUBLE_EQ(b.ErrorFor(115), 60.0);  // max(1, 60)
  EXPECT_DOUBLE_EQ(b.ErrorFor(210), 0.0);
  EXPECT_DOUBLE_EQ(b.GlobalMaxError(), 60.0);
}

TEST(LocalErrorBoundsTest, LocalBeatsGlobalOnSkewedErrors) {
  // §8.3.3: one terrible prediction should not inflate every range.
  std::vector<double> est, truth;
  for (int i = 0; i < 1000; ++i) {
    est.push_back(i);
    truth.push_back(i + 1);  // everywhere error 1
  }
  est.push_back(5000);
  truth.push_back(1);  // one catastrophic outlier
  LocalErrorBounds b = LocalErrorBounds::Build(est, truth, 100);
  EXPECT_DOUBLE_EQ(b.GlobalMaxError(), 4999.0);
  EXPECT_DOUBLE_EQ(b.ErrorFor(500), 1.0);
  EXPECT_LT(b.AverageError(), 200.0);
}

TEST(LocalErrorBoundsTest, OutOfDomainClamps) {
  LocalErrorBounds b = LocalErrorBounds::Build({100, 200}, {105, 195}, 50);
  EXPECT_DOUBLE_EQ(b.ErrorFor(-1000), b.ErrorFor(100));
  EXPECT_DOUBLE_EQ(b.ErrorFor(1e9), b.ErrorFor(200));
}

TEST(LocalErrorBoundsTest, EmptyInputSafe) {
  LocalErrorBounds b = LocalErrorBounds::Build({}, {}, 100);
  EXPECT_DOUBLE_EQ(b.ErrorFor(42), 0.0);
}

TEST(LocalErrorBoundsTest, SaveLoadRoundTrip) {
  LocalErrorBounds b = LocalErrorBounds::Build({1, 2, 300}, {5, 2, 310}, 10);
  BinaryWriter w;
  b.Save(&w);
  BinaryReader r(w.bytes());
  auto back = LocalErrorBounds::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_ranges(), b.num_ranges());
  EXPECT_DOUBLE_EQ(back->ErrorFor(1), b.ErrorFor(1));
}

TEST(CardinalityAuxTest, BuildGet) {
  std::vector<sets::ElementId> a{1, 2};
  auto m = CardinalityAux::Build({{sets::SetView(a), 42}});
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(*m->Get(sets::SetView(a)), 42.0);
  std::vector<sets::ElementId> b{1, 3};
  EXPECT_FALSE(m->Get(sets::SetView(b)).has_value());
  EXPECT_GT(m->MemoryBytes(), 0u);
  EXPECT_EQ(CardinalityAux().MemoryBytes(), 0u);
}

TEST(CardinalityAuxTest, BuildRejectsNonCanonicalOrRepeatedSubsets) {
  std::vector<sets::ElementId> unsorted{2, 1}, repeated{1, 1}, a{1, 2};
  EXPECT_EQ(CardinalityAux::Build({{sets::SetView(unsorted), 1}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CardinalityAux::Build({{sets::SetView(repeated), 1}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CardinalityAux::Build({{sets::SetView(a), 1},
                                   {sets::SetView(a), 2}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// A 12-element universe of non-consecutive ids. The tests below store
// every other subset, so hits and misses of every size are probed.
std::vector<sets::ElementId> SquaresUniverse() {
  std::vector<sets::ElementId> universe(12);
  for (size_t i = 0; i < universe.size(); ++i) {
    universe[i] = static_cast<sets::ElementId>(i * i);
  }
  return universe;
}

// Get probes with the view itself: for every subset of a 12-element
// universe it answers the count Build stored for that subset, or nothing,
// before and after Save -> Load.
TEST(CardinalityAuxTest, GetMatchesBuildOnEverySubset) {
  const std::vector<sets::ElementId> universe = SquaresUniverse();
  const sets::SetView all(universe.data(), universe.size());
  std::map<std::vector<sets::ElementId>, double> oracle;
  size_t n = 0;
  sets::ForEachSubset(all, universe.size(), [&](sets::SetView sub) {
    if (++n % 2 == 0) return;
    oracle[std::vector<sets::ElementId>(sub.begin(), sub.end())] =
        static_cast<double>(n);
  });
  std::vector<CardinalityAux::Entry> entries;
  for (const auto& [subset, count] : oracle) {
    entries.push_back({sets::SetView(subset), static_cast<uint32_t>(count)});
  }
  auto built = CardinalityAux::Build(entries);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  BinaryWriter w;
  built->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = CardinalityAux::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const CardinalityAux* m : {&std::as_const(*built),
                                  &std::as_const(*loaded)}) {
    ASSERT_EQ(m->size(), oracle.size());
    sets::ForEachSubset(all, universe.size(), [&](sets::SetView sub) {
      const auto it =
          oracle.find(std::vector<sets::ElementId>(sub.begin(), sub.end()));
      const std::optional<double> got = m->Get(sub);
      ASSERT_EQ(got.has_value(), it != oracle.end());
      if (got.has_value()) {
        EXPECT_EQ(*got, it->second);
      }
    });
  }
}

// Every <= 3-subset of a 12-element universe: FindFirst answers the
// smallest position stored under the subset's hash, before and after
// Save -> Load, and the saved bytes are the B+ tree's for the same entries.
TEST(IndexAuxTest, FindFirstMatchesBuildOnEverySmallSubset) {
  const std::vector<sets::ElementId> universe = SquaresUniverse();
  const sets::SetView all(universe.data(), universe.size());
  std::map<uint64_t, uint32_t> oracle;
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  baselines::BPlusTree tree(100);
  uint32_t n = 0;
  sets::ForEachSubset(all, 3, [&](sets::SetView sub) {
    if (++n % 2 == 0) return;
    const uint64_t h = sets::HashSetSorted(sub);
    // Every third stored subset is stored twice, its larger position
    // first: FindFirst still answers the smaller, and Save keeps the
    // insertion order of equal keys, as the B+ tree's stable duplicates do.
    if (n % 3 == 0) {
      entries.emplace_back(h, n + 1000);
      tree.Insert(h, n + 1000);
    }
    entries.emplace_back(h, n);
    tree.Insert(h, n);
    oracle[h] = n;
  });
  const IndexAux built = IndexAux::Build(entries);
  BinaryWriter w;
  built.Save(&w);
  BinaryWriter tree_bytes;
  tree.Save(&tree_bytes);
  EXPECT_EQ(w.bytes(), tree_bytes.bytes());
  BinaryReader r(w.bytes());
  auto loaded = IndexAux::Load(&r, 5000);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const IndexAux* aux : {&built, &std::as_const(*loaded)}) {
    EXPECT_EQ(aux->size(), entries.size());
    sets::ForEachSubset(all, 3, [&](sets::SetView sub) {
      const uint64_t h = sets::HashSetSorted(sub);
      const auto it = oracle.find(h);
      const std::optional<uint64_t> got = aux->FindFirst(h);
      ASSERT_EQ(got.has_value(), it != oracle.end());
      if (got.has_value()) {
        EXPECT_EQ(*got, it->second);
      }
    });
  }
}

// Assign shadows every base row under its key, inserts keys the base lacks,
// and Save writes what BPlusTree::Assign would have left in the tree.
TEST(IndexAuxTest, AssignShadowsTheBaseLikeBPlusTreeAssign) {
  Rng rng(7);
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  baselines::BPlusTree tree(100);
  for (uint32_t i = 0; i < 600; ++i) {
    const uint64_t key = rng.Uniform(200) * 0x9E3779B97F4A7C15ULL;
    entries.emplace_back(key, i);
    tree.Insert(key, i);
  }
  IndexAux aux = IndexAux::Build(entries);
  for (uint32_t i = 0; i < 300; ++i) {
    const uint64_t key = rng.Uniform(400) * 0x9E3779B97F4A7C15ULL;
    const auto position = static_cast<uint32_t>(10000 + rng.Uniform(50));
    aux.Assign(key, position);
    tree.Assign(key, position);
    EXPECT_EQ(aux.FindFirst(key), position);
  }
  EXPECT_GT(aux.overlay_size(), 0u);
  EXPECT_EQ(aux.size(), tree.size());
  for (uint64_t k = 0; k < 400; ++k) {
    const uint64_t key = k * 0x9E3779B97F4A7C15ULL;
    EXPECT_EQ(aux.FindFirst(key), tree.FindFirst(key)) << k;
  }
  BinaryWriter w, tree_bytes;
  aux.Save(&w);
  tree.Save(&tree_bytes);
  EXPECT_EQ(w.bytes(), tree_bytes.bytes());
}

// A copy shares the immutable base and owns its overlay: writes to the
// source's overlay after the copy leave the copy's answers unchanged.
TEST(IndexAuxTest, CopySharesBaseAndOwnsOverlay) {
  const IndexAux source_built = IndexAux::Build({{10, 1}, {20, 2}, {30, 3}});
  IndexAux source = source_built;
  source.Assign(20, 7);
  const IndexAux copy = source;
  EXPECT_EQ(copy.base_identity(), source.base_identity());
  source.Assign(10, 8);
  source.Assign(40, 9);
  EXPECT_EQ(copy.base_identity(), source.base_identity());
  EXPECT_EQ(copy.overlay_size(), 1u);
  EXPECT_EQ(copy.FindFirst(10), 1u);
  EXPECT_EQ(copy.FindFirst(20), 7u);
  EXPECT_FALSE(copy.FindFirst(40).has_value());
  EXPECT_EQ(source.FindFirst(10), 8u);
  EXPECT_EQ(source.FindFirst(40), 9u);
  EXPECT_EQ(source_built.FindFirst(20), 2u);
}

TEST(SetHashTableTest, EqualRangeFindsEveryKeyAndNoOther) {
  Rng rng(5);
  for (size_t n : {0u, 1u, 2u, 3u, 100u, 4599u}) {
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = rng.Next();
    if (n > 2) keys[1] = keys[0];  // a duplicate
    if (n > 0) keys.back() = ~uint64_t{0};  // the largest key
    std::sort(keys.begin(), keys.end());
    const SetHashTable table(keys);
    for (size_t i = 0; i < n; ++i) {
      const auto [lo, hi] = table.EqualRange(keys[i]);
      ASSERT_LE(lo, i);
      ASSERT_GT(hi, i);
      for (uint32_t row = lo; row < hi; ++row) {
        EXPECT_EQ(table.key(row), keys[i]);
      }
      const size_t count = static_cast<size_t>(
          std::count(keys.begin(), keys.end(), keys[i]));
      EXPECT_EQ(hi - lo, count);
    }
    for (int probe = 0; probe < 200; ++probe) {
      const uint64_t key = rng.Next();
      const auto [lo, hi] = table.EqualRange(key);
      EXPECT_EQ(hi - lo, static_cast<size_t>(std::count(
                             keys.begin(), keys.end(), key)));
    }
  }
}

// ---------- End-to-end: cardinality estimator ----------

class CardinalityE2E : public ::testing::TestWithParam<bool> {};

TEST_P(CardinalityE2E, EstimatesWithinModestQError) {
  const bool compressed = GetParam();
  sets::RwConfig rw;
  rw.num_sets = 500;
  rw.num_unique = 100;
  auto c = GenerateRw(rw);

  CardinalityOptions opts;
  opts.model.compressed = compressed;
  opts.model.embed_dim = 8;
  opts.model.phi_hidden = {32};
  opts.model.rho_hidden = {32};
  opts.train.epochs = 40;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 3;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok()) << est.status().ToString();

  // Evaluate on the training subsets (the paper also evaluates on subsets
  // of the indexed sets).
  auto subsets = EnumerateLabeledSubsets(c, {3});
  baselines::InvertedIndex oracle(c);
  double q_sum = 0;
  size_t n = std::min<size_t>(subsets.size(), 500);
  for (size_t i = 0; i < n; ++i) {
    double estimate = est->Estimate(subsets.subset(i));
    double truth = static_cast<double>(oracle.Cardinality(subsets.subset(i)));
    q_sum += nn::QError(estimate, truth);
  }
  EXPECT_LT(q_sum / static_cast<double>(n), 3.0);
  EXPECT_GT(est->ModelBytes(), 0u);
  EXPECT_EQ(est->AuxBytes(), 0u);  // non-hybrid
}

INSTANTIATE_TEST_SUITE_P(LsmAndClsm, CardinalityE2E, ::testing::Bool());

TEST(CardinalityHybridTest, OutliersAnsweredExactly) {
  sets::RwConfig rw;
  rw.num_sets = 300;
  rw.num_unique = 60;
  auto c = GenerateRw(rw);
  CardinalityOptions opts;
  opts.train.epochs = 10;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 3;
  opts.hybrid = true;
  opts.keep_fraction = 0.7;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok());
  if (est->num_outliers() == 0) GTEST_SKIP() << "model fit everything";
  // Every outlier must be answered exactly.
  auto subsets = EnumerateLabeledSubsets(c, {3});
  baselines::InvertedIndex oracle(c);
  size_t outliers_seen = 0;
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (!est->IsOutlier(subsets.subset(i))) continue;
    ++outliers_seen;
    EXPECT_EQ(est->Estimate(subsets.subset(i)),
              static_cast<double>(oracle.Cardinality(subsets.subset(i))));
  }
  EXPECT_EQ(outliers_seen, est->num_outliers());
}

TEST(CardinalityTest, EmptyCollectionRejected) {
  sets::SetCollection empty;
  EXPECT_FALSE(LearnedCardinalityEstimator::Build(empty, {}).ok());
}

// ---------- Build phase split ----------

/// How many times each build phase's histogram in the global registry has
/// been observed, and the seconds it holds, by metric name.
std::map<std::string, std::pair<uint64_t, double>> BuildPhases() {
  std::map<std::string, std::pair<uint64_t, double>> phases;
  const MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();
  for (BuildPhase phase : kBuildPhases) {
    const char* name = BuildPhaseMetric(phase);
    const HistogramSnapshot* h = snap.FindHistogram(name);
    phases[name] = h == nullptr ? std::make_pair(uint64_t{0}, 0.0)
                                : std::make_pair(h->count, h->sum);
  }
  return phases;
}

/// Phases observed between `before` and now, each with its count delta.
std::map<std::string, uint64_t> PhasesSince(
    const std::map<std::string, std::pair<uint64_t, double>>& before) {
  std::map<std::string, uint64_t> observed;
  for (const auto& [phase, now] : BuildPhases()) {
    const auto& then = before.at(phase);
    if (now.first != then.first) observed[phase] = now.first - then.first;
    EXPECT_GE(now.second, then.second) << phase;
  }
  return observed;
}

TEST(BuildPhaseTest, EachBuildObservesEachOfItsPhasesOnce) {
  sets::RwConfig rw;
  rw.num_sets = 150;
  rw.num_unique = 40;
  const auto c = GenerateRw(rw);
  using Phases = std::map<std::string, uint64_t>;

  auto before = BuildPhases();
  IndexOptions index_opts;
  index_opts.train.epochs = 2;
  index_opts.max_subset_size = 2;
  index_opts.hybrid = true;
  ASSERT_TRUE(LearnedSetIndex::Build(c, index_opts).ok());
  EXPECT_EQ(PhasesSince(before),
            (Phases{{"build.aux_seconds", 1},
                    {"build.bounds_seconds", 1},
                    {"build.enumerate_seconds", 1},
                    {"build.score_seconds", 1},
                    {"build.train_seconds", 1}}));

  before = BuildPhases();
  CardinalityOptions card_opts;
  card_opts.train.epochs = 2;
  card_opts.max_subset_size = 2;
  card_opts.hybrid = true;
  ASSERT_TRUE(LearnedCardinalityEstimator::Build(c, card_opts).ok());
  EXPECT_EQ(PhasesSince(before),
            (Phases{{"build.aux_seconds", 1},
                    {"build.enumerate_seconds", 1},
                    {"build.score_seconds", 1},
                    {"build.train_seconds", 1}}));

  before = BuildPhases();
  BloomOptions bloom_opts;
  bloom_opts.train.epochs = 2;
  bloom_opts.max_subset_size = 2;
  ASSERT_TRUE(LearnedBloomFilter::Build(c, bloom_opts).ok());
  EXPECT_EQ(PhasesSince(before),
            (Phases{{"build.aux_seconds", 1},
                    {"build.enumerate_seconds", 1},
                    {"build.negatives_seconds", 1},
                    {"build.score_seconds", 1},
                    {"build.train_seconds", 1}}));
}

// ---------- End-to-end: learned set index ----------

TEST(LearnedIndexTest, TrainedSubsetsAlwaysFound) {
  sets::RwConfig rw;
  rw.num_sets = 400;
  rw.num_unique = 90;
  rw.seed = 3;
  auto c = GenerateRw(rw);

  IndexOptions opts;
  opts.model.embed_dim = 8;
  opts.model.phi_hidden = {32};
  opts.model.rho_hidden = {32};
  opts.train.epochs = 15;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.hybrid = true;
  opts.keep_fraction = 0.8;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  // The core guarantee: every trained subset's first position is found.
  auto subsets = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < subsets.size(); ++i) {
    int64_t pos = index->Lookup(subsets.subset(i));
    EXPECT_EQ(pos, static_cast<int64_t>(subsets.first_position(i)))
        << "subset " << i;
  }
}

TEST(LearnedIndexTest, LookupStatsCountVisitedSets) {
  sets::RwConfig rw;
  rw.num_sets = 300;
  rw.num_unique = 80;
  rw.seed = 5;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.model.embed_dim = 8;
  opts.model.phi_hidden = {32};
  opts.model.rho_hidden = {32};
  opts.train.epochs = 4;
  opts.max_subset_size = 2;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  auto subsets = EnumerateLabeledSubsets(c, {2});
  size_t aux_hits = 0;
  for (size_t i = 0; i < subsets.size(); ++i) {
    LearnedSetIndex::LookupStats stats, probe;
    const int64_t pos = index->Lookup(subsets.subset(i), &stats);
    ASSERT_EQ(index->ProbeLookup(subsets.subset(i), &probe), pos);
    EXPECT_EQ(probe.visited, stats.visited);
    EXPECT_EQ(probe.scan_width, stats.scan_width);
    ASSERT_EQ(pos, static_cast<int64_t>(subsets.first_position(i)));
    if (stats.aux_hit) {
      ++aux_hits;
      EXPECT_EQ(stats.visited, 0);
      continue;
    }
    const auto e_r = static_cast<int64_t>(
        index->error_bounds().ErrorFor(static_cast<double>(stats.estimate)));
    const int64_t lo = std::max<int64_t>(0, stats.estimate - e_r);
    EXPECT_EQ(stats.visited, pos - lo + 1) << "subset " << i;
    EXPECT_LE(stats.visited, stats.scan_width);
  }
  EXPECT_LT(aux_hits, subsets.size());

  // A pair that no set holds: the scan examines its whole window.
  bool checked_miss = false;
  for (sets::ElementId a = 0; a < c.universe_size() && !checked_miss; ++a) {
    const std::vector<sets::ElementId> q{a, a + 1};
    if (a + 1 >= c.universe_size() ||
        c.FindFirstSuperset({q.data(), 2}, 0, c.size()) >= 0) {
      continue;
    }
    LearnedSetIndex::LookupStats stats;
    ASSERT_EQ(index->Lookup({q.data(), 2}, &stats), -1);
    EXPECT_FALSE(stats.aux_hit);
    EXPECT_EQ(stats.visited, stats.scan_width);
    checked_miss = true;
  }
  EXPECT_TRUE(checked_miss);
}

// index.scan_visited and index.scan_visited_from0 record a lookup exactly
// when index.scan_width sampled it and the window held the answer: then
// they take LookupStats::visited and pos + 1.
TEST(LearnedIndexTest, ScanVisitedHistogramsFollowSampledWindowHits) {
  sets::RwConfig rw;
  rw.num_sets = 300;
  rw.num_unique = 80;
  rw.seed = 5;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.model.embed_dim = 8;
  opts.model.phi_hidden = {32};
  opts.model.rho_hidden = {32};
  opts.train.epochs = 4;
  opts.max_subset_size = 2;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  MetricsRegistry registry;
  index->SetMetricsRegistry(&registry);

  struct Reading {
    uint64_t width = 0, visited = 0, from0 = 0;
    double visited_sum = 0, from0_sum = 0;
  };
  auto read = [&] {
    const auto snap = registry.Snapshot();
    const HistogramSnapshot* width = snap.FindHistogram("index.scan_width");
    const HistogramSnapshot* visited =
        snap.FindHistogram("index.scan_visited");
    const HistogramSnapshot* from0 =
        snap.FindHistogram("index.scan_visited_from0");
    EXPECT_NE(width, nullptr);
    EXPECT_NE(visited, nullptr);
    EXPECT_NE(from0, nullptr);
    if (width == nullptr || visited == nullptr || from0 == nullptr) {
      return Reading{};
    }
    EXPECT_EQ(visited->sample_period, width->sample_period);
    return Reading{width->count, visited->count, from0->count, visited->sum,
                   from0->sum};
  };

  auto subsets = EnumerateLabeledSubsets(c, {2});
  std::vector<std::vector<sets::ElementId>> queries;
  for (size_t i = 0; i < subsets.size(); ++i) {
    sets::SetView q = subsets.subset(i);
    queries.emplace_back(q.begin(), q.end());
  }
  // Pairs that no set holds, so some sampled scans miss their window.
  for (sets::ElementId a = 0; a + 1 < c.universe_size(); ++a) {
    const std::vector<sets::ElementId> q{a, a + 1};
    if (c.FindFirstSuperset({q.data(), 2}, 0, c.size()) < 0) {
      queries.push_back(q);
    }
  }
  size_t sampled_hits = 0, sampled_misses = 0;
  Reading before = read();
  for (const auto& qv : queries) {
    LearnedSetIndex::LookupStats stats;
    const int64_t pos = index->Lookup({qv.data(), qv.size()}, &stats);
    const Reading after = read();
    const bool sampled = after.width > before.width;
    // A window hit: the model's window answered, with no fallback scan.
    const bool window_hit = !stats.aux_hit && pos >= 0 &&
                            stats.scan_width <= static_cast<int64_t>(c.size());
    if (sampled && window_hit) {
      ++sampled_hits;
      ASSERT_EQ(after.visited, before.visited + 1);
      ASSERT_EQ(after.from0, before.from0 + 1);
      EXPECT_EQ(after.visited_sum - before.visited_sum,
                static_cast<double>(stats.visited));
      EXPECT_EQ(after.from0_sum - before.from0_sum,
                static_cast<double>(pos + 1));
    } else {
      if (sampled) ++sampled_misses;
      ASSERT_EQ(after.visited, before.visited);
      ASSERT_EQ(after.from0, before.from0);
    }
    before = after;
  }
  EXPECT_GT(sampled_hits, 0u);
  EXPECT_GT(sampled_misses, 0u);
  EXPECT_LE(before.visited, (queries.size() + 15) / 16);
}

TEST(LearnedIndexTest, LocalScanNarrowerThanGlobal) {
  sets::RwConfig rw;
  rw.num_sets = 500;
  rw.num_unique = 100;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.train.epochs = 10;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.error_range_length = 50.0;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok());
  EXPECT_LE(index->error_bounds().AverageError(),
            index->error_bounds().GlobalMaxError());
}

TEST(LearnedIndexTest, MissingQueryReturnsMinusOne) {
  sets::SetCollection c;
  c.Add({1, 2});
  c.Add({3, 4});
  IndexOptions opts;
  opts.train.epochs = 30;
  opts.train.loss = LossKind::kMse;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok());
  std::vector<sets::ElementId> q{1, 4};  // never co-occurs
  EXPECT_EQ(index->Lookup({q.data(), 2}), -1);
}

TEST(LearnedIndexTest, MemoryBreakdownPopulated) {
  sets::RwConfig rw;
  rw.num_sets = 200;
  rw.num_unique = 50;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.train.epochs = 5;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->ModelBytes(), 0u);
  EXPECT_GT(index->ErrBytes(), 0u);
  EXPECT_EQ(index->TotalBytes(),
            index->ModelBytes() + index->AuxBytes() + index->ErrBytes());
}

TEST(LearnedIndexTest, AbsorbsUpdatesIntoAuxStructure) {
  // §7.2: update a set; subsets outside the error bounds get routed to the
  // auxiliary structure and lookups stay correct without retraining.
  sets::RwConfig rw;
  rw.num_sets = 300;
  rw.num_unique = 70;
  rw.seed = 8;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.train.epochs = 10;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok());

  // Replace set 42 with brand-new elements never seen by the model.
  const sets::SetView before = c.set(42);
  const std::vector<sets::ElementId> old(before.begin(), before.end());
  std::vector<sets::ElementId> fresh{200, 201, 202};
  ASSERT_TRUE(c.UpdateSet(42, fresh).ok());
  size_t routed = index->AbsorbUpdatedSet(42, /*max_subset_size=*/2, old);
  EXPECT_GT(routed, 0u);
  EXPECT_EQ(index->updates_absorbed(), routed);

  // All subsets of the new content must now be found at position 42 (no
  // earlier set contains ids >= 200).
  sets::SetCollection probe;  // enumerate subsets of the fresh set
  probe.Add(fresh);
  auto subs = EnumerateLabeledSubsets(probe, {2});
  for (size_t i = 0; i < subs.size(); ++i) {
    EXPECT_EQ(index->Lookup(subs.subset(i)), 42);
  }
}

// ---------- Persistence of the learned structures ----------

TEST(PersistenceTest, CardinalityEstimatorRoundTrip) {
  sets::RwConfig rw;
  rw.num_sets = 150;
  rw.num_unique = 40;
  auto c = GenerateRw(rw);
  CardinalityOptions opts;
  opts.train.epochs = 5;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.hybrid = true;
  opts.keep_fraction = 0.8;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok());

  BinaryWriter w;
  est->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedCardinalityEstimator::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto subsets = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < std::min<size_t>(subsets.size(), 100); ++i) {
    EXPECT_DOUBLE_EQ(est->Estimate(subsets.subset(i)),
                     loaded->Estimate(subsets.subset(i)));
  }
  EXPECT_EQ(est->num_outliers(), loaded->num_outliers());
}

// The estimator's aux used to be a node-based map saved in its iteration
// order: (count, then per entry the element vector and a double). A
// checkpoint in that format, written here by hand in another order, loads
// and answers every subset as the estimator it was written from.
TEST(PersistenceTest, HybridEstimatorLoadsNodeMapCheckpoint) {
  sets::RwConfig rw;
  rw.num_sets = 150;
  rw.num_unique = 40;
  auto c = GenerateRw(rw);
  CardinalityOptions opts;
  opts.train.epochs = 5;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.hybrid = true;
  opts.keep_fraction = 0.8;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok());
  ASSERT_GT(est->num_outliers(), 0u);

  auto subsets = EnumerateLabeledSubsets(c, {2});
  sets::SetKeyMap<double> node_map;
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (est->IsOutlier(subsets.subset(i))) {
      node_map[sets::SetKey(subsets.subset(i))] =
          static_cast<double>(subsets.cardinality(i));
    }
  }
  ASSERT_EQ(node_map.size(), est->num_outliers());
  BinaryWriter w;
  SaveSetModel(*est->model(), &w);
  est->scaler().Save(&w);
  w.WriteU64(node_map.size());
  for (const auto& [key, value] : node_map) {
    w.WriteVector(key.elements);
    w.WriteF64(value);
  }
  BinaryReader r(w.bytes());
  auto loaded = LearnedCardinalityEstimator::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(loaded->num_outliers(), est->num_outliers());
  for (size_t i = 0; i < subsets.size(); ++i) {
    EXPECT_EQ(est->Estimate(subsets.subset(i)),
              loaded->Estimate(subsets.subset(i)));
  }
}

TEST(PersistenceTest, CompressedEstimatorRoundTrip) {
  sets::RwConfig rw;
  rw.num_sets = 100;
  rw.num_unique = 30;
  auto c = GenerateRw(rw);
  CardinalityOptions opts;
  opts.model.compressed = true;
  opts.train.epochs = 5;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok());
  BinaryWriter w;
  est->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedCardinalityEstimator::Load(&r);
  ASSERT_TRUE(loaded.ok());
  auto subsets = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < std::min<size_t>(subsets.size(), 50); ++i) {
    EXPECT_DOUBLE_EQ(est->Estimate(subsets.subset(i)),
                     loaded->Estimate(subsets.subset(i)));
  }
}

TEST(PersistenceTest, IndexRoundTripPreservesLookups) {
  sets::RwConfig rw;
  rw.num_sets = 200;
  rw.num_unique = 50;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.train.epochs = 6;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok());

  BinaryWriter w;
  index->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedSetIndex::Load(&r, c);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto subsets = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < subsets.size(); ++i) {
    EXPECT_EQ(index->Lookup(subsets.subset(i)),
              loaded->Lookup(subsets.subset(i)));
  }
  EXPECT_EQ(index->num_outliers(), loaded->num_outliers());
  EXPECT_DOUBLE_EQ(index->error_bounds().GlobalMaxError(),
                   loaded->error_bounds().GlobalMaxError());
}

std::vector<uint8_t> SavedIndexBytes(const LearnedSetIndex& index) {
  BinaryWriter w;
  index.Save(&w);
  return {w.bytes().begin(), w.bytes().end()};
}

TEST(LearnedIndexTest, BoundCopyMatchesSaveLoadCopyAndSharesModel) {
  // Every subset of a 14-element universe, two ids beyond the trained
  // vocabulary: aux hits, model scans, misses and out-of-vocabulary
  // queries are all exercised.
  constexpr sets::ElementId kTrained = 12;
  constexpr size_t kMaxSubset = 3;
  std::vector<sets::ElementId> universe(kTrained + 2);
  for (sets::ElementId e = 0; e < universe.size(); ++e) universe[e] = e;
  sets::RwConfig rw;
  rw.num_sets = 80;
  rw.num_unique = kTrained;
  rw.seed = 2;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.train.epochs = 8;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = kMaxSubset;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_GT(index->num_outliers(), 0u);

  const sets::SetCollection bound_c = c;
  const sets::SetCollection loaded_c = c;
  LearnedSetIndex bound = index->BoundTo(bound_c);
  BinaryWriter w;
  index->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedSetIndex::Load(&r, loaded_c);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(bound.model(), index->model());
  EXPECT_EQ(bound.aux().base_identity(), index->aux().base_identity());
  EXPECT_EQ(bound.train_seconds(), index->train_seconds());
  EXPECT_EQ(bound.final_train_qerror(), index->final_train_qerror());
  EXPECT_EQ(SavedIndexBytes(bound), w.bytes());

  std::vector<int64_t> answers;
  sets::ForEachSubset(
      sets::SetView(universe), kMaxSubset, [&](sets::SetView q) {
        const int64_t pos = bound.Lookup(q);
        EXPECT_EQ(pos, loaded->Lookup(q));
        EXPECT_EQ(bound.LookupEqual(q), loaded->LookupEqual(q));
        answers.push_back(pos);
      });

  // Absorbing an update into the source writes its aux tree and moves its
  // collection; the copy keeps its own tree and answers.
  const sets::SetView old_view = c.set(5);
  const std::vector<sets::ElementId> old(old_view.begin(), old_view.end());
  const std::vector<uint8_t> bound_bytes = SavedIndexBytes(bound);
  ASSERT_TRUE(c.UpdateSet(5, {1, kTrained, kTrained + 1}).ok());
  ASSERT_GT(index->AbsorbUpdatedSet(5, kMaxSubset, sets::SetView(old)), 0u);
  EXPECT_GT(index->aux().overlay_size(), 0u);
  EXPECT_EQ(bound.aux().overlay_size(), 0u);
  EXPECT_EQ(bound.aux().base_identity(), index->aux().base_identity());
  EXPECT_EQ(SavedIndexBytes(bound), bound_bytes);
  EXPECT_EQ(bound.updates_absorbed(), 0u);
  size_t k = 0;
  sets::ForEachSubset(sets::SetView(universe), kMaxSubset,
                      [&](sets::SetView q) {
                        EXPECT_EQ(bound.Lookup(q), answers[k++]);
                      });
}

TEST(PersistenceTest, BloomFilterRoundTrip) {
  sets::RwConfig rw;
  rw.num_sets = 150;
  rw.num_unique = 40;
  auto c = GenerateRw(rw);
  BloomOptions opts;
  opts.train.epochs = 8;
  opts.max_subset_size = 2;
  auto lbf = LearnedBloomFilter::Build(c, opts);
  ASSERT_TRUE(lbf.ok());
  BinaryWriter w;
  lbf->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedBloomFilter::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto positives = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < positives.size(); ++i) {
    EXPECT_EQ(lbf->MayContain(positives.subset(i)),
              loaded->MayContain(positives.subset(i)));
  }
  EXPECT_EQ(lbf->num_false_negatives(), loaded->num_false_negatives());
}

TEST(PersistenceTest, GarbageBytesRejected) {
  BinaryWriter w;
  w.WriteString("NotAModel");
  BinaryReader r(w.bytes());
  EXPECT_FALSE(LearnedCardinalityEstimator::Load(&r).ok());
}

// ---------- End-to-end: learned Bloom filter ----------

class BloomE2E : public ::testing::TestWithParam<bool> {};

TEST_P(BloomE2E, NoFalseNegativesOnTrainedPositives) {
  const bool compressed = GetParam();
  sets::RwConfig rw;
  rw.num_sets = 300;
  rw.num_unique = 80;
  auto c = GenerateRw(rw);
  BloomOptions opts;
  opts.model.compressed = compressed;
  opts.train.epochs = 15;
  opts.max_subset_size = 2;
  auto lbf = LearnedBloomFilter::Build(c, opts);
  ASSERT_TRUE(lbf.ok()) << lbf.status().ToString();

  auto positives = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < positives.size(); ++i) {
    EXPECT_TRUE(lbf->MayContain(positives.subset(i)))
        << "false negative at subset " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(LsmAndClsm, BloomE2E, ::testing::Bool());

TEST(BloomE2ETest, HighBinaryAccuracy) {
  sets::RwConfig rw;
  rw.num_sets = 300;
  rw.num_unique = 80;
  auto c = GenerateRw(rw);
  BloomOptions opts;
  opts.train.epochs = 25;
  opts.max_subset_size = 2;
  auto lbf = LearnedBloomFilter::Build(c, opts);
  ASSERT_TRUE(lbf.ok());
  baselines::InvertedIndex oracle(c);
  Rng rng(17);
  auto contains = [&](sets::SetView q) { return oracle.Contains(q); };
  auto negs = sets::SampleNegativeQueries(c.universe_size(), 2, 300,
                                          contains, &rng);
  auto positives = EnumerateLabeledSubsets(c, {2});
  size_t correct = 0, total = 0;
  for (size_t i = 0; i < positives.size(); ++i) {
    correct += lbf->MayContain(positives.subset(i)) ? 1 : 0;
    ++total;
  }
  size_t neg_correct = 0;
  for (const auto& q : negs) {
    neg_correct += lbf->MayContain(q.view()) ? 0 : 1;
    ++total;
  }
  correct += neg_correct;
  double acc = static_cast<double>(correct) / static_cast<double>(total);
  EXPECT_GT(acc, 0.8);
}

TEST(CardinalityBatchTest, BatchMatchesSingleQueryPath) {
  sets::RwConfig rw;
  rw.num_sets = 200;
  rw.num_unique = 50;
  auto c = GenerateRw(rw);
  CardinalityOptions opts;
  opts.train.epochs = 6;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 2;
  opts.hybrid = true;
  opts.keep_fraction = 0.8;
  auto est = LearnedCardinalityEstimator::Build(c, opts);
  ASSERT_TRUE(est.ok());

  auto subsets = EnumerateLabeledSubsets(c, {2});
  Rng rng(3);
  auto queries = SampleQueries(subsets, sets::QueryLabel::kCardinality, 200,
                               &rng);
  // Add an OOV query.
  sets::Query oov;
  oov.elements = {9999};
  queries.push_back(oov);

  auto batch = est->EstimateBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], est->Estimate(queries[i].view())) << "query " << i;
  }
  EXPECT_EQ(batch.back(), 0.0);
}

// ---------- Sandwiched learned Bloom filter ----------

TEST(SandwichedBloomTest, NoFalseNegativesAndFewerFalsePositives) {
  sets::RwConfig rw;
  rw.num_sets = 250;
  rw.num_unique = 60;
  auto c = GenerateRw(rw);
  SandwichedBloomOptions opts;
  opts.learned.train.epochs = 15;
  opts.learned.max_subset_size = 2;
  auto sbf = SandwichedBloomFilter::Build(c, opts);
  ASSERT_TRUE(sbf.ok()) << sbf.status().ToString();

  auto positives = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < positives.size(); ++i) {
    EXPECT_TRUE(sbf->MayContain(positives.subset(i)))
        << "false negative at " << i;
  }
  // The pre-filter must reject most random negatives outright.
  baselines::InvertedIndex oracle(c);
  Rng rng(5);
  auto contains = [&](sets::SetView q) { return oracle.Contains(q); };
  auto negs = sets::SampleNegativeQueries(c.universe_size(), 2, 500,
                                          contains, &rng);
  size_t rejected = 0;
  for (const auto& q : negs) {
    if (!sbf->MayContain(q.view())) ++rejected;
  }
  EXPECT_GT(rejected, negs.size() / 2);
  EXPECT_GT(sbf->PreFilterBytes(), 0u);
  EXPECT_EQ(sbf->TotalBytes(),
            sbf->PreFilterBytes() + sbf->LearnedBytes());
}

TEST(SandwichedBloomTest, EmptyCollectionRejected) {
  sets::SetCollection empty;
  EXPECT_FALSE(SandwichedBloomFilter::Build(empty, {}).ok());
}

TEST(MultiMembershipTest, BatchMatchesSingleAndAggregates) {
  sets::RwConfig rw;
  rw.num_sets = 200;
  rw.num_unique = 50;
  auto c = GenerateRw(rw);
  BloomOptions opts;
  opts.train.epochs = 10;
  opts.max_subset_size = 2;
  auto lbf = LearnedBloomFilter::Build(c, opts);
  ASSERT_TRUE(lbf.ok());

  auto positives = EnumerateLabeledSubsets(c, {2});
  Rng rng(3);
  std::vector<sets::Query> queries =
      SamplePositiveQueries(positives, 50, &rng);
  sets::Query oov;
  oov.elements = {40000};
  queries.push_back(oov);

  auto multi = lbf->MayContainMulti(queries);
  ASSERT_EQ(multi.verdicts.size(), queries.size());
  bool expect_any = false, expect_all = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    bool single = lbf->MayContain(queries[i].view());
    EXPECT_EQ(multi.verdicts[i], single) << "query " << i;
    expect_any |= single;
    expect_all &= single;
  }
  EXPECT_EQ(multi.any, expect_any);
  EXPECT_EQ(multi.all, expect_all);
  EXPECT_FALSE(multi.verdicts.back());  // the OOV query
}

TEST(MultiMembershipTest, EmptyBatch) {
  sets::SetCollection c;
  c.Add({1, 2});
  BloomOptions opts;
  opts.train.epochs = 2;
  auto lbf = LearnedBloomFilter::Build(c, opts);
  ASSERT_TRUE(lbf.ok());
  auto multi = lbf->MayContainMulti({});
  EXPECT_TRUE(multi.verdicts.empty());
  EXPECT_TRUE(multi.all);
  EXPECT_FALSE(multi.any);
}

// ---------- Partitioned learned Bloom filter ----------

TEST(PartitionedBloomTest, NoFalseNegatives) {
  sets::RwConfig rw;
  rw.num_sets = 250;
  rw.num_unique = 60;
  auto c = GenerateRw(rw);
  PartitionedBloomOptions opts;
  opts.learned.train.epochs = 15;
  opts.learned.max_subset_size = 2;
  opts.num_regions = 4;
  auto pbf = PartitionedBloomFilter::Build(c, opts);
  ASSERT_TRUE(pbf.ok()) << pbf.status().ToString();
  EXPECT_EQ(pbf->num_regions(), 4);

  auto positives = EnumerateLabeledSubsets(c, {2});
  for (size_t i = 0; i < positives.size(); ++i) {
    EXPECT_TRUE(pbf->MayContain(positives.subset(i)))
        << "false negative at " << i;
  }
  EXPECT_GT(pbf->BackupBytes(), 0u);
}

TEST(PartitionedBloomTest, RejectsMostNegatives) {
  sets::RwConfig rw;
  rw.num_sets = 250;
  rw.num_unique = 60;
  rw.seed = 4;
  auto c = GenerateRw(rw);
  PartitionedBloomOptions opts;
  opts.learned.train.epochs = 20;
  opts.learned.max_subset_size = 2;
  auto pbf = PartitionedBloomFilter::Build(c, opts);
  ASSERT_TRUE(pbf.ok());
  baselines::InvertedIndex oracle(c);
  Rng rng(9);
  auto contains = [&](sets::SetView q) { return oracle.Contains(q); };
  auto negs = sets::SampleNegativeQueries(c.universe_size(), 2, 400,
                                          contains, &rng);
  size_t rejected = 0;
  for (const auto& q : negs) {
    if (!pbf->MayContain(q.view())) ++rejected;
  }
  EXPECT_GT(rejected, negs.size() / 3);
}

TEST(PartitionedBloomTest, BadConfigRejected) {
  sets::SetCollection c;
  c.Add({1, 2});
  PartitionedBloomOptions opts;
  opts.num_regions = 1;
  EXPECT_FALSE(PartitionedBloomFilter::Build(c, opts).ok());
  sets::SetCollection empty;
  EXPECT_FALSE(PartitionedBloomFilter::Build(empty, {}).ok());
}

// ---------- Equality-search mode ----------

TEST(LearnedIndexTest, LookupEqualFindsExactSets) {
  sets::SetCollection c;
  c.Add({1, 2, 3});
  c.Add({1, 2});
  c.Add({2, 3});
  IndexOptions opts;
  opts.train.epochs = 60;
  opts.train.learning_rate = 0.01f;
  opts.train.loss = LossKind::kMse;
  opts.max_subset_size = 3;
  opts.fallback_full_scan = true;  // hard guarantee for the tiny example
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok());

  // {1,2} as a subset first matches position 0, but as an exact set it is
  // position 1 — the distinction §4.1 draws.
  std::vector<sets::ElementId> q{1, 2};
  EXPECT_EQ(index->Lookup({q.data(), 2}), 0);
  EXPECT_EQ(index->LookupEqual({q.data(), 2}), 1);
  std::vector<sets::ElementId> missing{1, 3};
  EXPECT_EQ(index->LookupEqual({missing.data(), 2}), -1);
}

// An out-of-vocabulary LookupEqual takes Lookup's fallback: it counts
// index.fallback_scans and reports the full scan in its LookupStats.
TEST(LearnedIndexTest, LookupEqualCountsItsOovFallback) {
  sets::RwConfig rw;
  rw.num_sets = 80;
  rw.num_unique = 12;
  rw.seed = 2;
  auto c = GenerateRw(rw);
  IndexOptions opts;
  opts.train.epochs = 2;
  opts.max_subset_size = 2;
  opts.fallback_full_scan = true;
  auto index = LearnedSetIndex::Build(c, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  MetricsRegistry registry;
  index->SetMetricsRegistry(&registry);
  auto counter = [&](const char* name) {
    return registry.GetCounter(name)->value();
  };

  // Set 5 becomes {unseen}: the only set that contains or equals it.
  const sets::ElementId unseen = c.universe_size();
  ASSERT_TRUE(c.UpdateSet(5, {unseen}).ok());
  const std::vector<sets::ElementId> q{unseen};
  LearnedSetIndex::LookupStats lookup, equal;
  ASSERT_EQ(index->Lookup(sets::SetView(q), &lookup), 5);
  EXPECT_EQ(counter("index.fallback_scans"), 1u);
  ASSERT_EQ(index->LookupEqual(sets::SetView(q), &equal), 5);
  EXPECT_EQ(counter("index.fallback_scans"), 2u);
  EXPECT_EQ(counter("index.oov_queries"), 2u);
  EXPECT_EQ(counter("index.misses"), 0u);

  EXPECT_FALSE(equal.aux_hit);
  EXPECT_EQ(equal.estimate, -1);
  EXPECT_EQ(equal.scan_width, static_cast<int64_t>(c.size()));
  EXPECT_EQ(equal.visited, 6);
  EXPECT_EQ(equal.aux_hit, lookup.aux_hit);
  EXPECT_EQ(equal.estimate, lookup.estimate);
  EXPECT_EQ(equal.scan_width, lookup.scan_width);
  EXPECT_EQ(equal.visited, lookup.visited);
}

// ---------- One query flow per structure ----------

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Every subset (up to 3 elements) of a 12-element universe plus one
// out-of-vocabulary element goes through the single, batch and shadow-probe
// flows of the three structures, all built with aux entries: the answers
// are bit-equal, Lookup and ProbeLookup report equal LookupStats, and every
// query evicted into the cardinality aux is answered exactly by Estimate
// and EstimateBatch, before and after Save -> Load.
TEST(QueryFlowTest, SingleBatchAndProbeAgreeOnEverySubset) {
  constexpr size_t kMaxSubset = 3;
  sets::RwConfig rw;
  rw.num_sets = 80;
  rw.num_unique = 12;
  rw.seed = 2;
  auto c = GenerateRw(rw);
  const sets::ElementId unseen = c.universe_size();
  ASSERT_LE(unseen, 12u);
  std::vector<sets::ElementId> universe(unseen + 1);
  std::iota(universe.begin(), universe.end(), 0);

  IndexOptions iopts;
  iopts.train.epochs = 8;
  iopts.train.loss = LossKind::kMse;
  iopts.max_subset_size = kMaxSubset;
  iopts.fallback_full_scan = true;
  auto index = LearnedSetIndex::Build(c, iopts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ASSERT_GT(index->num_outliers(), 0u);

  CardinalityOptions copts;
  copts.train.epochs = 8;
  copts.train.loss = LossKind::kMse;
  copts.max_subset_size = kMaxSubset;
  copts.hybrid = true;
  copts.keep_fraction = 0.8;
  auto card = LearnedCardinalityEstimator::Build(c, copts);
  ASSERT_TRUE(card.ok()) << card.status().ToString();
  ASSERT_GT(card->num_outliers(), 0u);
  BinaryWriter w;
  card->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedCardinalityEstimator::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  BloomOptions bopts;
  bopts.train.epochs = 8;
  bopts.max_subset_size = kMaxSubset;
  auto bloom = LearnedBloomFilter::Build(c, bopts);
  ASSERT_TRUE(bloom.ok()) << bloom.status().ToString();

  std::vector<sets::Query> queries;
  sets::ForEachSubset(sets::SetView(universe), kMaxSubset,
                      [&](sets::SetView q) {
                        queries.push_back(sets::Query{
                            std::vector<sets::ElementId>(q.begin(), q.end())});
                      });
  const std::vector<int64_t> positions = index->LookupBatch(queries);
  const std::vector<double> estimates = card->EstimateBatch(queries);
  const std::vector<double> loaded_estimates = loaded->EstimateBatch(queries);
  const std::vector<bool> verdicts = bloom->MayContainMulti(queries).verdicts;

  size_t aux_hits = 0, outliers = 0, oov = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    const sets::SetView q = queries[i].view();
    oov += q.back() == unseen;

    LearnedSetIndex::LookupStats stats, probe;
    const int64_t pos = index->Lookup(q, &stats);
    EXPECT_EQ(index->ProbeLookup(q, &probe), pos);
    EXPECT_EQ(positions[i], pos);
    EXPECT_EQ(probe.aux_hit, stats.aux_hit);
    EXPECT_EQ(probe.estimate, stats.estimate);
    EXPECT_EQ(probe.scan_width, stats.scan_width);
    EXPECT_EQ(probe.visited, stats.visited);
    aux_hits += stats.aux_hit;

    const double est = card->Estimate(q);
    EXPECT_EQ(Bits(estimates[i]), Bits(est));
    EXPECT_EQ(Bits(loaded->Estimate(q)), Bits(est));
    EXPECT_EQ(Bits(loaded_estimates[i]), Bits(est));
    EXPECT_EQ(loaded->IsOutlier(q), card->IsOutlier(q));
    if (card->IsOutlier(q)) {
      ++outliers;
      double truth = 0.0;
      for (size_t s = 0; s < c.size(); ++s) truth += c.SetContainsSorted(s, q);
      EXPECT_EQ(est, truth);
      EXPECT_EQ(estimates[i], truth);
      EXPECT_EQ(loaded->Estimate(q), truth);
      EXPECT_EQ(loaded_estimates[i], truth);
    }

    const bool verdict = bloom->MayContain(q);
    EXPECT_EQ(bloom->ProbeMayContain(q), verdict);
    EXPECT_EQ(verdicts[i], verdict);
  }
  EXPECT_GT(aux_hits, 0u);
  EXPECT_EQ(outliers, card->num_outliers());
  EXPECT_GT(oov, 0u);
}

}  // namespace
}  // namespace los::core
