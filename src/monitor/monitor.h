#ifndef LOS_MONITOR_MONITOR_H_
#define LOS_MONITOR_MONITOR_H_

// Model-quality monitoring (ROADMAP: production serving needs accuracy
// observability, not just latency): online accuracy trackers for the three
// learned structures, input-distribution drift detection, and closed-loop
// retrain triggers into the updatable engine.
//
// Design:
//   - Shadow sampling. Every monitored query passes a SamplingGate (one
//     relaxed fetch_add); 1-in-N sampled queries take the slow path — exact
//     ground truth from an InvertedIndex oracle, q-error / position-error /
//     FPR bookkeeping, and a drift-sketch update. Unsampled queries cost
//     one atomic op; a detached monitor costs one relaxed pointer load per
//     flush at the serving layer.
//   - Ground truth lifecycle. The oracle and the drift *reference* sketch
//     are bound at build time and rebound by Refresh() after each retrain —
//     the updatable engine's rebuild listener (SetRebuildListener) is the
//     intended caller. RefreshOracle() alone re-grounds truth after an
//     ingest wave without resetting the drift reference, so drift measured
//     against the *trained* distribution keeps firing until a retrain
//     actually happens.
//   - Closed loop. When the drift score or the structure's accuracy stat
//     crosses its threshold (with a min_samples guard), the monitor invokes
//     the retrain callback once — latched until the next Refresh re-arms it
//     — which is wired to UpdatableStructure::RequestQualityRebuild.
//
// Metrics (prefix `monitor.<name>.`):
//   shadow_samples    counter    sampled slow-path observations
//   drift_score       gauge      PSI of current vs reference element bands
//                                (plus an out-of-vocabulary band, so new
//                                elements register as drift even though
//                                hashing spreads them uniformly)
//   retrain_triggers  counter    quality-threshold trips (latched)
//   refreshes         counter    oracle/reference rebinds
//   cardinality: qerror histogram + qerror_p50/p95/p99 gauges (window)
//   index: position_error histogram, position_error_p95 / scan_width_p95 /
//          miss_rate gauges, misses counter
//   bloom: probes / probe_false_positives counters, fpr_estimate gauge

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "baselines/inverted_index.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/learned_index.h"
#include "monitor/drift.h"
#include "sets/set_collection.h"
#include "sets/workload.h"

namespace los::monitor {

struct MonitorOptions {
  /// Shadow-sample 1 in this many observed queries (0 disables sampling —
  /// the monitor becomes a pure pass-through).
  size_t sample_every = 128;
  /// Sliding window of sampled accuracy observations backing the gauges.
  size_t window = 512;
  /// Recompute gauges / drift / triggers every this many sampled
  /// observations (amortizes the O(window) stats pass).
  size_t publish_every = 32;
  /// Frequency-sketch bands for drift detection. In-vocabulary elements
  /// hash into these; elements unseen at reference-bind time feed one extra
  /// out-of-vocabulary band, which is what makes universe drift visible
  /// (hashing alone spreads new elements uniformly over the same bands).
  /// Fewer bands = less finite-sample PSI noise; 16 keeps the noise floor
  /// well under the conventional 0.25 "major shift" threshold.
  size_t drift_bands = 16;
  /// Drift is not computed (the gauge stays at its reset value and cannot
  /// trigger) until this many sampled elements have fed the current sketch;
  /// 0 means auto (16x drift_bands). PSI of a finite sample against a fixed
  /// reference has expectation ~ (bands-1)/elements even with zero true
  /// drift, so publishing too early manufactures phantom drift.
  size_t drift_warmup_elements = 0;
  /// Triggers stay quiet until this many sampled observations since the
  /// last Refresh — thresholds on three samples are noise.
  size_t min_samples = 64;
  /// Drift (PSI) trigger threshold; 0 disables. 0.25 = "major shift" in
  /// the conventional PSI reading.
  double drift_threshold = 0.0;
  /// Cardinality: windowed q-error p95 trigger threshold; 0 disables.
  double qerror_p95_threshold = 0.0;
  /// Index: windowed |answer - true first match| p95 threshold; 0 disables.
  double position_error_p95_threshold = 0.0;
  /// Index: sampled miss-rate (true match exists, lookup returned -1)
  /// threshold; 0 disables.
  double miss_rate_threshold = 0.0;
  /// Bloom: windowed false-positive-rate threshold; 0 disables.
  double fpr_threshold = 0.0;
  /// Bloom: negative-probe pool size (regenerated at each oracle refresh).
  size_t negative_probes = 256;
  /// Bloom: max element count of sampled negative probes.
  size_t negative_probe_max_size = 3;
  /// Deterministic seed for probe-pool sampling.
  uint64_t seed = 42;
};

/// \brief 1-in-N sampler: one relaxed fetch_add per call.
class SamplingGate {
 public:
  explicit SamplingGate(size_t every) : every_(every) {}

  bool Sample() {
    if (every_ == 0) return false;
    if (every_ == 1) return true;
    return counter_.fetch_add(1, std::memory_order_relaxed) % every_ == 0;
  }

  uint64_t seen() const { return counter_.load(std::memory_order_relaxed); }

 private:
  const size_t every_;
  std::atomic<uint64_t> counter_{0};
};

/// \brief Fixed-capacity sliding window of doubles (mutex-protected ring;
/// only the sampled slow path writes, so contention is 1-in-N of traffic).
class RollingWindow {
 public:
  explicit RollingWindow(size_t capacity);

  void Add(double v);
  void Reset();

  struct Stats {
    size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  Stats ComputeStats() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> ring_;
  size_t next_ = 0;
  size_t filled_ = 0;
};

/// \brief Shared machinery: sampling gate, ground-truth oracle binding,
/// drift sketches, and the latched retrain trigger. The typed monitors
/// below add their structure-specific accuracy stat.
class MonitorBase {
 public:
  /// `name` becomes the metric prefix `monitor.<name>.`; registry nullptr
  /// means MetricsRegistry::Global().
  MonitorBase(std::string name, const MonitorOptions& opts,
              MetricsRegistry* registry);
  virtual ~MonitorBase() = default;

  MonitorBase(const MonitorBase&) = delete;
  MonitorBase& operator=(const MonitorBase&) = delete;

  /// Rebuilds the exact ground-truth oracle (and, for Bloom, the negative
  /// probe pool) from a collection snapshot. Does NOT touch the drift
  /// reference or the trigger latch: quality keeps being judged against
  /// current truth while drift keeps being judged against the trained
  /// distribution.
  void RefreshOracle(sets::SetCollection collection);

  /// Rebinds the drift reference to `collection`'s training distribution
  /// (elements of all subsets up to `max_subset_size`, mirroring the
  /// training workload sampler), clears the current sketch and the
  /// accuracy window, and re-arms the retrain trigger.
  void RebindReference(const sets::SetCollection& collection,
                       size_t max_subset_size);

  /// RefreshOracle + RebindReference: the post-retrain reset. Wire this to
  /// UpdatableStructure::SetRebuildListener with a fresh
  /// SnapshotCollection().
  void Refresh(sets::SetCollection collection, size_t max_subset_size);

  /// `cb` runs (outside all monitor locks) when a quality threshold trips;
  /// at most once per Refresh cycle. Wire to RequestQualityRebuild.
  void SetRetrainCallback(std::function<void()> cb);

  double drift_score() const {
    return last_drift_.load(std::memory_order_relaxed);
  }
  bool triggered() const;
  uint64_t samples() const {
    return samples_total_.load(std::memory_order_relaxed);
  }
  const std::string& name() const { return name_; }
  const MonitorOptions& options() const { return opts_; }

 protected:
  /// Gate + sample accounting. True on the 1-in-N slow path.
  bool SampleOne();

  /// Pin the oracle for one sampled observation (may be null before the
  /// first RefreshOracle).
  std::shared_ptr<const baselines::InvertedIndex> oracle() const;

  /// Slow-path tail: feed the drift sketch and, every publish_every
  /// samples, recompute drift + structure gauges and evaluate the trigger.
  /// `quality_breach` is the subclass's accuracy-threshold verdict,
  /// recomputed on publish ticks via PublishStats().
  void FinishSample(sets::SetView q);

  /// Subclass hook, called on publish ticks with the window stats pass:
  /// set structure gauges, return true when the accuracy threshold is
  /// breached.
  virtual bool PublishStats() = 0;

  /// Subclass hook: extra state to reset on RebindReference (windows,
  /// per-cycle counters).
  virtual void ResetStats() {}

  /// Subclass hook: rebuild oracle-derived state (Bloom's probe pool) from
  /// a freshly built oracle. Runs with the new oracle already published.
  virtual void OnOracleRefreshed(const sets::SetCollection& /*collection*/) {}

  MetricsRegistry* registry_ = nullptr;
  RollingWindow window_;

 private:
  void EvaluateTrigger(bool quality_breach);

  std::string name_;
  MonitorOptions opts_;
  SamplingGate gate_;
  FrequencySketch current_;

  mutable std::mutex state_mu_;
  std::shared_ptr<const baselines::InvertedIndex> oracle_;
  std::shared_ptr<const sets::SetCollection> oracle_collection_;
  /// Per-band reference distribution with one trailing out-of-vocabulary
  /// entry (always 0 — the reference is in-vocabulary by construction).
  std::vector<double> reference_;
  /// Element-presence bitmap of the reference collection; sampled elements
  /// not set here count toward the OOV band instead of the sketch.
  std::shared_ptr<const std::vector<bool>> vocab_;
  bool triggered_ = false;
  std::function<void()> retrain_cb_;

  std::atomic<uint64_t> samples_total_{0};
  std::atomic<uint64_t> samples_since_publish_{0};
  std::atomic<uint64_t> invocab_elements_{0};
  std::atomic<uint64_t> oov_elements_{0};
  std::atomic<double> last_drift_{0.0};

  Counter* shadow_samples_ = nullptr;
  Counter* retrain_triggers_ = nullptr;
  Counter* refreshes_ = nullptr;
  Gauge* drift_gauge_ = nullptr;
};

/// \brief Cardinality accuracy: sampled queries are re-answered exactly by
/// the oracle and the serving estimate's q-error feeds a sliding window +
/// the `monitor.cardinality.qerror` histogram.
class CardinalityMonitor : public MonitorBase {
 public:
  explicit CardinalityMonitor(const MonitorOptions& opts,
                              MetricsRegistry* registry = nullptr);

  /// `estimate` is the answer the serving path returned for `q`.
  void Observe(sets::SetView q, double estimate);
  void ObserveBatch(const std::vector<sets::Query>& queries,
                    const std::vector<double>& estimates);

  RollingWindow::Stats WindowStats() const { return window_.ComputeStats(); }

 protected:
  bool PublishStats() override;

 private:
  Histogram* qerror_hist_ = nullptr;
  Gauge* qerror_p50_ = nullptr;
  Gauge* qerror_p95_ = nullptr;
  Gauge* qerror_p99_ = nullptr;
};

/// \brief Index accuracy: sampled queries are shadow re-executed through
/// `lookup` (a metric-silent ProbeLookup binding) and compared against the
/// oracle's true first match — position error, scan width and misses.
class IndexMonitor : public MonitorBase {
 public:
  using LookupFn = std::function<int64_t(
      sets::SetView, core::LearnedSetIndex::LookupStats*)>;

  explicit IndexMonitor(const MonitorOptions& opts,
                        MetricsRegistry* registry = nullptr);

  /// Binds the shadow re-execution path (e.g. ProbeLookup on the frozen
  /// primary, or pin-then-ProbeLookup on an UpdatableSetIndex). Must be set
  /// before observations sample.
  void SetLookupFn(LookupFn fn);

  void Observe(sets::SetView q);
  void ObserveBatch(const std::vector<sets::Query>& queries);

  RollingWindow::Stats PositionErrorStats() const {
    return window_.ComputeStats();
  }
  uint64_t misses() const { return misses_ct_.load(std::memory_order_relaxed); }

 protected:
  bool PublishStats() override;
  void ResetStats() override;

 private:
  mutable std::mutex fn_mu_;
  LookupFn lookup_;

  RollingWindow scan_width_window_;
  std::atomic<uint64_t> misses_ct_{0};
  std::atomic<uint64_t> judged_ct_{0};

  Counter* misses_ = nullptr;
  Histogram* position_error_hist_ = nullptr;
  Gauge* position_error_p95_ = nullptr;
  Gauge* scan_width_p95_ = nullptr;
  Gauge* miss_rate_ = nullptr;
};

/// \brief Bloom accuracy: a pool of known-negative probes (sampled against
/// the oracle at refresh time) is replayed 1-in-N through a metric-silent
/// membership probe; the windowed accept rate estimates the serving FPR.
class BloomMonitor : public MonitorBase {
 public:
  using ProbeFn = std::function<bool(sets::SetView)>;

  explicit BloomMonitor(const MonitorOptions& opts,
                        MetricsRegistry* registry = nullptr);

  /// Binds the membership probe (e.g. ProbeMayContain on the frozen
  /// filter, or on the generation an UpdatableBloom pins, which answers
  /// from its filter, else its delta). Must be set before observations
  /// sample.
  void SetProbeFn(ProbeFn fn);

  void Observe(sets::SetView q);
  void ObserveBatch(const std::vector<sets::Query>& queries);

  /// Windowed FPR estimate (mean of sampled probe verdicts).
  double FprEstimate() const { return window_.ComputeStats().mean; }
  uint64_t probes() const { return probes_ct_.load(std::memory_order_relaxed); }

 protected:
  bool PublishStats() override;
  void OnOracleRefreshed(const sets::SetCollection& collection) override;

 private:
  mutable std::mutex fn_mu_;
  ProbeFn probe_;
  std::vector<sets::Query> probe_pool_;
  std::atomic<size_t> probe_next_{0};
  std::atomic<uint64_t> probes_ct_{0};

  Counter* probes_counter_ = nullptr;
  Counter* probe_fps_ = nullptr;
  Gauge* fpr_gauge_ = nullptr;
};

}  // namespace los::monitor

#endif  // LOS_MONITOR_MONITOR_H_
