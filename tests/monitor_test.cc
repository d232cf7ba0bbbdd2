// Tests for the model-quality monitoring subsystem: sampling gate
// exactness, drift statistics (PSI near zero in-distribution, firing on a
// shifted universe), shadow q-error and sampled-FPR estimators against
// exact small-universe ground truth, the latched retrain trigger, healthz
// aggregation, and the end-to-end drift -> quality rebuild -> recovery loop
// through the updatable engine.

#include "monitor/monitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <vector>

#include "baselines/inverted_index.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/updatable.h"
#include "monitor/drift.h"
#include "monitor/healthz.h"
#include "sets/generators.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los {
namespace {

sets::SetCollection SmallCollection(size_t num_sets = 300,
                                    size_t num_unique = 60,
                                    uint64_t seed = 42) {
  sets::RwConfig cfg;
  cfg.num_sets = num_sets;
  cfg.num_unique = num_unique;
  cfg.seed = seed;
  return GenerateRw(cfg);
}

sets::Query ToQuery(std::vector<sets::ElementId> elems) {
  sets::Query q;
  q.elements = std::move(elems);
  return q;
}

/// In-distribution traffic: uniform draws from the enumerated training
/// subsets — the distribution the drift reference is bound to.
std::vector<sets::Query> InDistQueries(const sets::SetCollection& c,
                                       size_t max_subset, size_t n,
                                       uint64_t seed) {
  sets::SubsetGenOptions gen;
  gen.max_subset_size = max_subset;
  auto subsets = sets::EnumerateLabeledSubsets(c, gen);
  Rng rng(seed);
  return sets::SampleQueries(subsets, sets::QueryLabel::kCardinality, n,
                             &rng);
}

/// Shifted traffic: every element offset past the collection's universe,
/// so all of it is out-of-vocabulary relative to the reference.
std::vector<sets::Query> ShiftedQueries(const sets::SetCollection& c,
                                        size_t n, uint64_t seed) {
  const sets::ElementId shift = c.universe_size();
  Rng rng(seed);
  std::vector<sets::Query> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<sets::ElementId> elems;
    const size_t size = 1 + rng.Uniform(3);
    for (size_t j = 0; j < size; ++j) {
      elems.push_back(shift + static_cast<sets::ElementId>(
                                  rng.Uniform(c.universe_size())));
    }
    sets::Canonicalize(&elems);
    out.push_back(ToQuery(std::move(elems)));
  }
  return out;
}

TEST(SamplingGateTest, ExactOneInN) {
  monitor::SamplingGate gate(4);
  size_t sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (gate.Sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 25u);
  EXPECT_EQ(gate.seen(), 100u);

  monitor::SamplingGate off(0);
  EXPECT_FALSE(off.Sample());
  monitor::SamplingGate all(1);
  EXPECT_TRUE(all.Sample());
}

TEST(RollingWindowTest, StatsAndEviction) {
  monitor::RollingWindow w(4);
  for (double v : {1.0, 2.0, 3.0, 4.0}) w.Add(v);
  auto s = w.ComputeStats();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  // Capacity 4: adding 100.0 evicts the oldest (1.0).
  w.Add(100.0);
  s = w.ComputeStats();
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean, (2.0 + 3.0 + 4.0 + 100.0) / 4.0);
  w.Reset();
  EXPECT_EQ(w.ComputeStats().count, 0u);
}

TEST(DriftSketchTest, PsiZeroForIdenticalAndPositiveForShifted) {
  monitor::FrequencySketch a(16);
  monitor::FrequencySketch b(16);
  for (sets::ElementId e = 0; e < 200; ++e) {
    a.ObserveElement(e % 40);
    b.ObserveElement(e % 40);
  }
  EXPECT_NEAR(monitor::Psi(a.Normalized(), b.Normalized()), 0.0, 1e-12);
  EXPECT_NEAR(monitor::ChiSquare(a.Normalized(), b.Normalized()), 0.0,
              1e-12);

  monitor::FrequencySketch c(16);
  for (sets::ElementId e = 0; e < 200; ++e) c.ObserveElement(1000 + e);
  EXPECT_GT(monitor::Psi(a.Normalized(), c.Normalized()), 0.0);
  EXPECT_GT(monitor::ChiSquare(a.Normalized(), c.Normalized()), 0.0);
}

TEST(DriftSketchTest, EmptySketchesAgree) {
  monitor::FrequencySketch a(8);
  monitor::FrequencySketch b(8);
  // Both normalize to uniform; empty-vs-empty is zero drift, not NaN.
  EXPECT_NEAR(monitor::Psi(a.Normalized(), b.Normalized()), 0.0, 1e-12);
}

TEST(CardinalityMonitorTest, ShadowQErrorMatchesExactTruth) {
  auto collection = SmallCollection();
  baselines::InvertedIndex exact(collection);

  MetricsRegistry registry;
  monitor::MonitorOptions opts;
  opts.sample_every = 1;  // shadow-sample everything
  opts.publish_every = 8;
  monitor::CardinalityMonitor mon(opts, &registry);
  mon.Refresh(collection, 2);

  // Serve every query at exactly twice its true cardinality: every sampled
  // q-error must be exactly 2 (and match nn::QError against brute truth).
  auto queries = InDistQueries(collection, 2, 64, 7);
  for (const auto& q : queries) {
    const double truth = static_cast<double>(exact.Cardinality(q.view()));
    mon.Observe(q.view(), 2.0 * truth);
  }
  EXPECT_EQ(mon.samples(), queries.size());
  auto s = mon.WindowStats();
  EXPECT_EQ(s.count, queries.size());
  EXPECT_DOUBLE_EQ(s.p50, 2.0);
  EXPECT_DOUBLE_EQ(s.p99, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 2.0);

  const MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hist =
      snap.FindHistogram("monitor.cardinality.qerror");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, queries.size());
  EXPECT_DOUBLE_EQ(hist->min, 2.0);
  EXPECT_DOUBLE_EQ(hist->max, 2.0);
}

TEST(CardinalityMonitorTest, SamplingGateHonored) {
  auto collection = SmallCollection();
  monitor::MonitorOptions opts;
  opts.sample_every = 8;
  monitor::CardinalityMonitor mon(opts);
  mon.Refresh(collection, 2);
  auto queries = InDistQueries(collection, 2, 64, 11);
  for (const auto& q : queries) mon.Observe(q.view(), 1.0);
  EXPECT_EQ(mon.samples(), queries.size() / 8);
}

TEST(CardinalityMonitorTest, DriftNearZeroInDistributionFiresOnShift) {
  auto collection = SmallCollection();
  monitor::MonitorOptions opts;
  opts.sample_every = 1;
  opts.publish_every = 8;
  opts.min_samples = 32;
  opts.drift_threshold = 0.25;
  monitor::CardinalityMonitor mon(opts);

  std::atomic<int> retrains{0};
  mon.SetRetrainCallback([&] { retrains.fetch_add(1); });
  mon.Refresh(collection, 2);

  // Deterministic in-distribution traffic: drift stays near zero, well
  // under the trigger threshold.
  for (const auto& q : InDistQueries(collection, 2, 512, 13)) {
    mon.Observe(q.view(), 1.0);
  }
  EXPECT_LT(mon.drift_score(), 0.25);
  EXPECT_FALSE(mon.triggered());
  EXPECT_EQ(retrains.load(), 0);

  // A 2x-shifted universe is pure OOV mass: drift fires, the callback runs
  // exactly once (latched), and Refresh re-arms it.
  for (const auto& q : ShiftedQueries(collection, 512, 17)) {
    mon.Observe(q.view(), 1.0);
  }
  EXPECT_GT(mon.drift_score(), 0.25);
  EXPECT_TRUE(mon.triggered());
  EXPECT_EQ(retrains.load(), 1);

  mon.Refresh(collection, 2);
  EXPECT_FALSE(mon.triggered());
  EXPECT_DOUBLE_EQ(mon.drift_score(), 0.0);
  for (const auto& q : ShiftedQueries(collection, 512, 19)) {
    mon.Observe(q.view(), 1.0);
  }
  EXPECT_EQ(retrains.load(), 2);
}

TEST(CardinalityMonitorTest, QErrorThresholdTriggersAndLatches) {
  auto collection = SmallCollection();
  baselines::InvertedIndex exact(collection);
  monitor::MonitorOptions opts;
  opts.sample_every = 1;
  opts.publish_every = 8;
  opts.min_samples = 16;
  opts.qerror_p95_threshold = 3.0;
  monitor::CardinalityMonitor mon(opts);
  std::atomic<int> retrains{0};
  mon.SetRetrainCallback([&] { retrains.fetch_add(1); });
  mon.Refresh(collection, 2);

  auto queries = InDistQueries(collection, 2, 128, 23);
  // Accurate estimates: no trigger.
  for (const auto& q : queries) {
    mon.Observe(q.view(),
                static_cast<double>(exact.Cardinality(q.view())));
  }
  EXPECT_FALSE(mon.triggered());
  // 10x-off estimates: q-error p95 blows through the threshold; the
  // latched callback fires exactly once however long the breach lasts.
  for (const auto& q : queries) {
    mon.Observe(q.view(),
                10.0 * static_cast<double>(exact.Cardinality(q.view())));
  }
  EXPECT_TRUE(mon.triggered());
  EXPECT_EQ(retrains.load(), 1);
}

TEST(BloomMonitorTest, SampledFprMatchesExactPoolReplay) {
  auto collection = SmallCollection(120, 24, 5);
  monitor::MonitorOptions opts;
  opts.sample_every = 1;
  opts.negative_probes = 64;
  opts.negative_probe_max_size = 2;
  opts.window = 64;
  opts.seed = 99;
  monitor::BloomMonitor mon(opts);

  // Deterministic membership verdict so the exact accept rate over the
  // monitor's probe pool can be recomputed independently.
  auto probe = [](sets::SetView q) {
    return sets::HashSetSorted(q) % 4 == 0;
  };
  mon.SetProbeFn(probe);
  mon.Refresh(collection, 2);

  // The pool is sampled with the monitor's seed against the exact oracle —
  // regenerate it the same way and brute-force the expected FPR.
  baselines::InvertedIndex exact(collection);
  Rng rng(opts.seed);
  auto pool = sets::SampleNegativeQueries(
      collection.universe_size(), opts.negative_probe_max_size,
      opts.negative_probes,
      [&](sets::SetView q) { return exact.Contains(q); }, &rng);
  ASSERT_EQ(pool.size(), opts.negative_probes);
  size_t accepted = 0;
  for (const auto& q : pool) {
    ASSERT_FALSE(exact.Contains(q.view()));  // pool is true negatives
    if (probe(q.view())) ++accepted;
  }
  const double exact_fpr =
      static_cast<double>(accepted) / static_cast<double>(pool.size());

  // Observing exactly pool-size queries replays each probe once
  // (round-robin), so the windowed estimate equals the exact pool FPR.
  auto traffic = InDistQueries(collection, 2, opts.negative_probes, 31);
  mon.ObserveBatch(traffic);
  EXPECT_EQ(mon.probes(), opts.negative_probes);
  EXPECT_DOUBLE_EQ(mon.FprEstimate(), exact_fpr);
}

TEST(IndexMonitorTest, PositionErrorAndMissesAgainstOracle) {
  auto collection = SmallCollection();
  baselines::InvertedIndex exact(collection);
  MetricsRegistry registry;
  monitor::MonitorOptions opts;
  opts.sample_every = 1;
  opts.publish_every = 4;
  monitor::IndexMonitor mon(opts, &registry);

  // Shadow lookup that answers the true first match plus 3: every judged
  // sample has position error exactly 3 and no misses.
  mon.SetLookupFn([&](sets::SetView q,
                      core::LearnedSetIndex::LookupStats* stats) -> int64_t {
    if (stats != nullptr) stats->scan_width = 5;
    const int64_t truth = exact.FirstMatch(q);
    return truth < 0 ? -1 : truth + 3;
  });
  mon.Refresh(collection, 2);

  auto queries = InDistQueries(collection, 2, 64, 37);
  for (const auto& q : queries) mon.Observe(q.view());
  auto s = mon.PositionErrorStats();
  ASSERT_GT(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_EQ(mon.misses(), 0u);

  // A lookup that loses every query: misses accumulate and the miss-rate
  // gauge converges to 1.
  mon.SetLookupFn([](sets::SetView, core::LearnedSetIndex::LookupStats*) {
    return int64_t{-1};
  });
  mon.Refresh(collection, 2);
  for (const auto& q : queries) mon.Observe(q.view());
  EXPECT_EQ(mon.misses(), queries.size());
  const MetricsSnapshot snap = registry.Snapshot();
  const GaugeSnapshot* miss_rate = snap.FindGauge("monitor.index.miss_rate");
  ASSERT_NE(miss_rate, nullptr);
  EXPECT_DOUBLE_EQ(miss_rate->value, 1.0);
}

TEST(HealthzTest, AggregatesAndFlagsBreaches) {
  MetricsRegistry registry;
  Histogram* request = registry.GetHistogram(
      "serve.cardinality.request_seconds", LatencyHistogramOptions());
  for (int i = 0; i < 100; ++i) request->Observe(4.0);
  registry.GetGauge("updatable.cardinality.generation")->Set(4.0);
  registry.GetGauge("updatable.cardinality.lag_absorbed")->Set(12.0);
  registry.GetGauge("monitor.cardinality.drift_score")->Set(0.9);
  registry.GetGauge("monitor.cardinality.qerror_p95")->Set(80.0);
  registry.GetCounter("updatable.cardinality.rebuild_failures")->Increment(2);
  registry.GetGauge("monitor.bloom.drift_score")->Set(0.01);
  registry.GetGauge("monitor.bloom.fpr_estimate")->Set(0.001);

  monitor::HealthzOptions hopts;
  hopts.max_p99_seconds = 1.0;
  hopts.max_drift_score = 0.5;
  hopts.max_qerror_p95 = 10.0;
  hopts.max_rebuild_failures = 0;
  auto report = monitor::Healthz(registry.Snapshot(), hopts);
  EXPECT_FALSE(report.ok);

  const monitor::ComponentHealth* card = report.Find("cardinality");
  ASSERT_NE(card, nullptr);
  EXPECT_FALSE(card->ok);
  EXPECT_GT(card->p99_seconds, hopts.max_p99_seconds);
  EXPECT_DOUBLE_EQ(card->generation, 4.0);
  EXPECT_DOUBLE_EQ(card->drift_score, 0.9);
  EXPECT_DOUBLE_EQ(card->rebuild_failures, 2.0);
  // request p99 + drift + qerror + rebuild failures all breached.
  EXPECT_EQ(card->issues.size(), 4u);

  const monitor::ComponentHealth* bloom = report.Find("bloom");
  ASSERT_NE(bloom, nullptr);
  EXPECT_TRUE(bloom->ok);

  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("cardinality"), std::string::npos);
}

TEST(HealthzTest, EmptySnapshotIsHealthy) {
  MetricsRegistry registry;
  auto report = monitor::Healthz(registry.Snapshot());
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.components.empty());
}

// The acceptance loop: a drifted update stream degrades the drift score
// and shadow q-error, the monitor requests a quality rebuild through the
// updatable engine, the rebuild listener rebinds the monitor, and the
// monitored q-error recovers on post-retrain traffic.
TEST(ClosedLoopTest, DriftTriggersQualityRebuildAndQErrorRecovers) {
  auto collection = SmallCollection(400, 60, 3);
  const sets::ElementId vocab = collection.universe_size();

  core::UpdatableCardinality::Options opts;
  opts.cardinality.model.embed_dim = 8;
  opts.cardinality.model.phi_hidden = {16};
  opts.cardinality.model.rho_hidden = {16};
  opts.cardinality.train.epochs = 3;
  opts.cardinality.max_subset_size = 2;
  opts.update.rebuild_after_absorbed = 0;  // quality-triggered only

  // The monitor outlives the engine: the engine's trainer thread runs the
  // rebuild listener, which refreshes `mon`, until `live` joins it.
  MetricsRegistry registry;
  monitor::MonitorOptions mopts;
  mopts.sample_every = 1;
  mopts.publish_every = 8;
  mopts.min_samples = 32;
  mopts.drift_threshold = 0.25;
  monitor::CardinalityMonitor mon(mopts, &registry);

  auto live = core::UpdatableCardinality::Build(collection, opts);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  mon.SetRetrainCallback([&] { (*live)->engine()->RequestQualityRebuild(); });
  // A retrain of this model takes a few milliseconds, so the rebuild the
  // monitor triggers mid-phase-B can finish before phase B ends. The
  // listener holds its rebind (which resets drift score and latch) until
  // phase B has been read; training itself still overlaps the traffic.
  std::promise<void> phase_b_read;
  std::shared_future<void> rebind_allowed = phase_b_read.get_future().share();
  (*live)->engine()->SetRebuildListener([&] {
    rebind_allowed.wait();
    mon.Refresh((*live)->SnapshotCollection(), 2);
  });
  mon.Refresh((*live)->SnapshotCollection(), 2);

  auto observe = [&](const sets::Query& q) {
    mon.Observe(q.view(), (*live)->Estimate(q.view()));
  };

  // Phase A: in-distribution — quiet.
  for (const auto& q : InDistQueries(collection, 2, 256, 41)) observe(q);
  EXPECT_LT(mon.drift_score(), 0.25);
  EXPECT_FALSE(mon.triggered());
  EXPECT_EQ((*live)->engine()->rebuilds(), 0u);

  // Phase B: ingest sets over a shifted vocabulary, re-ground truth, and
  // serve shifted traffic the stale model cannot answer.
  Rng urng(47);
  for (size_t i = 0; i < 150; ++i) {
    std::vector<sets::ElementId> elems;
    const size_t size = 3 + urng.Uniform(4);
    for (size_t j = 0; j < size; ++j) {
      elems.push_back(vocab + static_cast<sets::ElementId>(
                                  urng.Uniform(vocab / 2 + 1)));
    }
    sets::Canonicalize(&elems);
    (*live)->Insert(std::move(elems));
  }
  mon.RefreshOracle((*live)->SnapshotCollection());
  for (const auto& q : ShiftedQueries(collection, 256, 43)) observe(q);
  EXPECT_GT(mon.drift_score(), 0.25);
  EXPECT_TRUE(mon.triggered());
  const double degraded_p95 = mon.WindowStats().p95;
  phase_b_read.set_value();

  (*live)->WaitForRebuilds();
  EXPECT_EQ((*live)->engine()->rebuilds(), 1u);
  EXPECT_GE((*live)->generation(), 2u);
  // The rebuild listener rebound the monitor: latch re-armed, drift reset.
  EXPECT_FALSE(mon.triggered());

  // Phase C: traffic from the new training distribution scores low drift,
  // and the retrained model's q-error beats the degraded phase.
  auto post = (*live)->SnapshotCollection();
  for (const auto& q : InDistQueries(post, 2, 256, 53)) observe(q);
  EXPECT_LT(mon.drift_score(), 0.25);
  EXPECT_FALSE(mon.triggered());
  const double recovered_p95 = mon.WindowStats().p95;
  EXPECT_LT(recovered_p95, degraded_p95);

  const MetricsSnapshot global_snap = MetricsRegistry::Global()->Snapshot();
  const CounterSnapshot* quality =
      global_snap.FindCounter("updatable.cardinality.quality_rebuilds");
  ASSERT_NE(quality, nullptr);
  EXPECT_GE(quality->value, 1u);
}

}  // namespace
}  // namespace los
