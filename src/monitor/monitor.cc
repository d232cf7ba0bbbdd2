#include "monitor/monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/losses.h"
#include "sets/subset_gen.h"

namespace los::monitor {

// ---------------------------------------------------------------------------
// RollingWindow
// ---------------------------------------------------------------------------

RollingWindow::RollingWindow(size_t capacity)
    : ring_(capacity < 1 ? 1 : capacity) {}

void RollingWindow::Add(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = v;
  next_ = (next_ + 1) % ring_.size();
  if (filled_ < ring_.size()) ++filled_;
}

void RollingWindow::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = 0;
  filled_ = 0;
}

RollingWindow::Stats RollingWindow::ComputeStats() const {
  std::vector<double> values;
  {
    std::lock_guard<std::mutex> lock(mu_);
    values.assign(ring_.begin(), ring_.begin() + filled_);
  }
  Stats s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  auto at = [&](double p) {
    size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()));
    if (rank >= values.size()) rank = values.size() - 1;
    return values[rank];
  };
  s.p50 = at(0.50);
  s.p95 = at(0.95);
  s.p99 = at(0.99);
  s.max = values.back();
  return s;
}

// ---------------------------------------------------------------------------
// MonitorBase
// ---------------------------------------------------------------------------

MonitorBase::MonitorBase(std::string name, const MonitorOptions& opts,
                         MetricsRegistry* registry)
    : registry_(registry != nullptr ? registry : MetricsRegistry::Global()),
      window_(opts.window),
      name_(std::move(name)),
      opts_(opts),
      gate_(opts.sample_every),
      current_(opts.drift_bands) {
  const std::string p = "monitor." + name_ + ".";
  shadow_samples_ = registry_->GetCounter(p + "shadow_samples");
  retrain_triggers_ = registry_->GetCounter(p + "retrain_triggers");
  refreshes_ = registry_->GetCounter(p + "refreshes");
  drift_gauge_ = registry_->GetGauge(p + "drift_score");
}

void MonitorBase::RefreshOracle(sets::SetCollection collection) {
  auto coll =
      std::make_shared<const sets::SetCollection>(std::move(collection));
  auto oracle = std::make_shared<const baselines::InvertedIndex>(*coll);
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    oracle_ = oracle;
    oracle_collection_ = coll;
  }
  OnOracleRefreshed(*coll);
  refreshes_->Increment();
}

void MonitorBase::RebindReference(const sets::SetCollection& collection,
                                  size_t max_subset_size) {
  // The reference distribution mirrors the training workload: SampleQueries
  // draws uniformly (with replacement) from the *distinct* enumerated
  // subsets, so the expected element-band frequencies of in-distribution
  // traffic equal the distinct subsets' own band frequencies — PSI ~ 0
  // without any traffic replay. (Occurrence-weighted enumeration would skew
  // toward elements of frequent sets and report spurious drift.)
  sets::SubsetGenOptions gen;
  gen.max_subset_size = max_subset_size;
  const sets::LabeledSubsets subsets =
      sets::EnumerateLabeledSubsets(collection, gen);
  FrequencySketch ref(opts_.drift_bands);
  for (size_t i = 0; i < subsets.size(); ++i) {
    ref.ObserveSet(subsets.subset(i));
  }
  std::vector<double> reference = ref.Normalized();
  // One extra band for out-of-vocabulary mass: by construction the
  // reference has none, so any OOV traffic shows up as drift no matter
  // which hash bands the new elements would have landed in.
  reference.push_back(0.0);
  auto vocab = std::make_shared<std::vector<bool>>(collection.universe_size(),
                                                   false);
  for (size_t i = 0; i < collection.size(); ++i) {
    for (sets::ElementId e : collection.set(i)) {
      if (static_cast<size_t>(e) < vocab->size()) (*vocab)[e] = true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    reference_ = std::move(reference);
    vocab_ = std::move(vocab);
    triggered_ = false;
  }
  current_.Reset();
  window_.Reset();
  samples_since_publish_.store(0, std::memory_order_relaxed);
  samples_total_.store(0, std::memory_order_relaxed);
  invocab_elements_.store(0, std::memory_order_relaxed);
  oov_elements_.store(0, std::memory_order_relaxed);
  last_drift_.store(0.0, std::memory_order_relaxed);
  drift_gauge_->Set(0.0);
  ResetStats();
}

void MonitorBase::Refresh(sets::SetCollection collection,
                          size_t max_subset_size) {
  RebindReference(collection, max_subset_size);
  RefreshOracle(std::move(collection));
}

void MonitorBase::SetRetrainCallback(std::function<void()> cb) {
  std::lock_guard<std::mutex> lock(state_mu_);
  retrain_cb_ = std::move(cb);
}

bool MonitorBase::triggered() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return triggered_;
}

bool MonitorBase::SampleOne() {
  if (!gate_.Sample()) return false;
  shadow_samples_->Increment();
  samples_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<const baselines::InvertedIndex> MonitorBase::oracle() const {
  std::lock_guard<std::mutex> lock(state_mu_);
  return oracle_;
}

void MonitorBase::FinishSample(sets::SetView q) {
  std::shared_ptr<const std::vector<bool>> vocab;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    vocab = vocab_;
  }
  uint64_t invocab = 0;
  uint64_t oov = 0;
  for (sets::ElementId e : q) {
    if (vocab != nullptr &&
        (static_cast<size_t>(e) >= vocab->size() || !(*vocab)[e])) {
      ++oov;
    } else {
      current_.ObserveElement(e);
      ++invocab;
    }
  }
  invocab_elements_.fetch_add(invocab, std::memory_order_relaxed);
  oov_elements_.fetch_add(oov, std::memory_order_relaxed);

  const uint64_t since =
      samples_since_publish_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (since % (opts_.publish_every < 1 ? 1 : opts_.publish_every) != 0) {
    return;
  }
  const uint64_t warmup = opts_.drift_warmup_elements > 0
                              ? opts_.drift_warmup_elements
                              : 16 * opts_.drift_bands;
  const uint64_t in_total =
      invocab_elements_.load(std::memory_order_relaxed);
  const uint64_t oov_total = oov_elements_.load(std::memory_order_relaxed);
  if (in_total + oov_total >= warmup) {
    // Current distribution = in-vocab band frequencies scaled to the
    // in-vocab mass share, plus the OOV share as the trailing band —
    // mirroring the reference layout built in RebindReference.
    std::vector<double> cur = current_.Normalized();
    const double total = static_cast<double>(in_total + oov_total);
    const double oov_frac = static_cast<double>(oov_total) / total;
    for (double& c : cur) c *= (1.0 - oov_frac);
    cur.push_back(oov_frac);
    double drift = 0.0;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (!reference_.empty()) drift = Psi(reference_, cur);
    }
    last_drift_.store(drift, std::memory_order_relaxed);
    drift_gauge_->Set(drift);
  }
  const bool quality_breach = PublishStats();
  EvaluateTrigger(quality_breach);
}

void MonitorBase::EvaluateTrigger(bool quality_breach) {
  if (samples_total_.load(std::memory_order_relaxed) < opts_.min_samples) {
    return;
  }
  const bool drift_breach =
      opts_.drift_threshold > 0.0 &&
      last_drift_.load(std::memory_order_relaxed) > opts_.drift_threshold;
  if (!drift_breach && !quality_breach) return;
  std::function<void()> cb;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (triggered_) return;  // latched until the next Refresh
    triggered_ = true;
    cb = retrain_cb_;
  }
  retrain_triggers_->Increment();
  if (cb) cb();
}

// ---------------------------------------------------------------------------
// CardinalityMonitor
// ---------------------------------------------------------------------------

CardinalityMonitor::CardinalityMonitor(const MonitorOptions& opts,
                                       MetricsRegistry* registry)
    : MonitorBase("cardinality", opts, registry) {
  qerror_hist_ = registry_->GetHistogram("monitor.cardinality.qerror",
                                         QErrorHistogramOptions());
  qerror_p50_ = registry_->GetGauge("monitor.cardinality.qerror_p50");
  qerror_p95_ = registry_->GetGauge("monitor.cardinality.qerror_p95");
  qerror_p99_ = registry_->GetGauge("monitor.cardinality.qerror_p99");
}

void CardinalityMonitor::Observe(sets::SetView q, double estimate) {
  if (!SampleOne()) return;
  auto oracle = this->oracle();
  if (oracle == nullptr) return;
  const double truth = static_cast<double>(oracle->Cardinality(q));
  const double qerr = nn::QError(estimate, truth);
  qerror_hist_->Observe(qerr);
  window_.Add(qerr);
  FinishSample(q);
}

void CardinalityMonitor::ObserveBatch(const std::vector<sets::Query>& queries,
                                      const std::vector<double>& estimates) {
  const size_t n = std::min(queries.size(), estimates.size());
  for (size_t i = 0; i < n; ++i) {
    Observe(queries[i].view(), estimates[i]);
  }
}

bool CardinalityMonitor::PublishStats() {
  const RollingWindow::Stats s = window_.ComputeStats();
  qerror_p50_->Set(s.p50);
  qerror_p95_->Set(s.p95);
  qerror_p99_->Set(s.p99);
  return options().qerror_p95_threshold > 0.0 && s.count > 0 &&
         s.p95 > options().qerror_p95_threshold;
}

// ---------------------------------------------------------------------------
// IndexMonitor
// ---------------------------------------------------------------------------

IndexMonitor::IndexMonitor(const MonitorOptions& opts,
                           MetricsRegistry* registry)
    : MonitorBase("index", opts, registry),
      scan_width_window_(opts.window) {
  misses_ = registry_->GetCounter("monitor.index.misses");
  position_error_hist_ = registry_->GetHistogram("monitor.index.position_error",
                                                 WidthHistogramOptions());
  position_error_p95_ = registry_->GetGauge("monitor.index.position_error_p95");
  scan_width_p95_ = registry_->GetGauge("monitor.index.scan_width_p95");
  miss_rate_ = registry_->GetGauge("monitor.index.miss_rate");
}

void IndexMonitor::SetLookupFn(LookupFn fn) {
  std::lock_guard<std::mutex> lock(fn_mu_);
  lookup_ = std::move(fn);
}

void IndexMonitor::Observe(sets::SetView q) {
  if (!SampleOne()) return;
  auto oracle = this->oracle();
  LookupFn lookup;
  {
    std::lock_guard<std::mutex> lock(fn_mu_);
    lookup = lookup_;
  }
  if (oracle == nullptr || !lookup) return;
  core::LearnedSetIndex::LookupStats stats;
  const int64_t answer = lookup(q, &stats);
  const int64_t truth = oracle->FirstMatch(q);
  scan_width_window_.Add(static_cast<double>(stats.scan_width));
  judged_ct_.fetch_add(1, std::memory_order_relaxed);
  if (truth >= 0 && answer < 0) {
    misses_ct_.fetch_add(1, std::memory_order_relaxed);
    misses_->Increment();
  } else if (truth >= 0 && answer >= 0) {
    const double err = std::abs(static_cast<double>(answer - truth));
    position_error_hist_->Observe(err);
    window_.Add(err);
  }
  FinishSample(q);
}

void IndexMonitor::ObserveBatch(const std::vector<sets::Query>& queries) {
  for (const sets::Query& q : queries) Observe(q.view());
}

bool IndexMonitor::PublishStats() {
  const RollingWindow::Stats pos = window_.ComputeStats();
  const RollingWindow::Stats width = scan_width_window_.ComputeStats();
  position_error_p95_->Set(pos.p95);
  scan_width_p95_->Set(width.p95);
  const uint64_t judged = judged_ct_.load(std::memory_order_relaxed);
  const double miss_rate =
      judged > 0 ? static_cast<double>(
                       misses_ct_.load(std::memory_order_relaxed)) /
                       static_cast<double>(judged)
                 : 0.0;
  miss_rate_->Set(miss_rate);
  const MonitorOptions& o = options();
  const bool pos_breach = o.position_error_p95_threshold > 0.0 &&
                          pos.count > 0 &&
                          pos.p95 > o.position_error_p95_threshold;
  const bool miss_breach =
      o.miss_rate_threshold > 0.0 && miss_rate > o.miss_rate_threshold;
  return pos_breach || miss_breach;
}

void IndexMonitor::ResetStats() {
  scan_width_window_.Reset();
  misses_ct_.store(0, std::memory_order_relaxed);
  judged_ct_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// BloomMonitor
// ---------------------------------------------------------------------------

BloomMonitor::BloomMonitor(const MonitorOptions& opts,
                           MetricsRegistry* registry)
    : MonitorBase("bloom", opts, registry) {
  probes_counter_ = registry_->GetCounter("monitor.bloom.probes");
  probe_fps_ = registry_->GetCounter("monitor.bloom.probe_false_positives");
  fpr_gauge_ = registry_->GetGauge("monitor.bloom.fpr_estimate");
}

void BloomMonitor::SetProbeFn(ProbeFn fn) {
  std::lock_guard<std::mutex> lock(fn_mu_);
  probe_ = std::move(fn);
}

void BloomMonitor::OnOracleRefreshed(const sets::SetCollection& collection) {
  // A probe is only a valid FPR sample while it is a true negative, so the
  // pool is resampled against every fresh oracle (an ingest wave can turn
  // an old negative into a member).
  auto oracle = this->oracle();
  Rng rng(options().seed);
  auto pool = sets::SampleNegativeQueries(
      collection.universe_size(), options().negative_probe_max_size,
      options().negative_probes,
      [&](sets::SetView q) { return oracle->Contains(q); }, &rng);
  std::lock_guard<std::mutex> lock(fn_mu_);
  probe_pool_ = std::move(pool);
  probe_next_.store(0, std::memory_order_relaxed);
}

void BloomMonitor::Observe(sets::SetView q) {
  if (!SampleOne()) return;
  ProbeFn probe;
  sets::Query negative;
  {
    std::lock_guard<std::mutex> lock(fn_mu_);
    probe = probe_;
    if (!probe_pool_.empty()) {
      const size_t i = probe_next_.fetch_add(1, std::memory_order_relaxed) %
                       probe_pool_.size();
      negative = probe_pool_[i];
    }
  }
  if (probe && !negative.elements.empty()) {
    const bool accepted = probe(negative.view());
    probes_ct_.fetch_add(1, std::memory_order_relaxed);
    probes_counter_->Increment();
    if (accepted) probe_fps_->Increment();
    window_.Add(accepted ? 1.0 : 0.0);
  }
  FinishSample(q);
}

void BloomMonitor::ObserveBatch(const std::vector<sets::Query>& queries) {
  for (const sets::Query& q : queries) Observe(q.view());
}

bool BloomMonitor::PublishStats() {
  const RollingWindow::Stats s = window_.ComputeStats();
  fpr_gauge_->Set(s.mean);
  return options().fpr_threshold > 0.0 && s.count > 0 &&
         s.mean > options().fpr_threshold;
}

}  // namespace los::monitor
