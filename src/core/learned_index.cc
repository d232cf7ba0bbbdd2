#include "core/learned_index.h"

#include <algorithm>
#include <cmath>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "sets/subset_gen.h"
#include "nn/losses.h"
#include "sets/set_hash.h"

namespace los::core {

Result<LearnedSetIndex> LearnedSetIndex::Build(
    const sets::SetCollection& collection, const IndexOptions& opts) {
  if (collection.empty()) {
    return Status::InvalidArgument("empty collection");
  }
  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.max_subset_size;
  sets::LabeledSubsets subsets = EnumerateLabeledSubsets(collection, gen);
  if (subsets.empty()) return Status::InvalidArgument("no training subsets");

  LearnedSetIndex index;
  index.collection_ = &collection;
  index.fallback_full_scan_ = opts.fallback_full_scan;
  index.aux_ = baselines::BPlusTree(opts.aux_branching_factor);
  index.scaler_ =
      TargetScaler::FitRange(0.0, static_cast<double>(collection.size() - 1));

  auto model = MakeSetModel(opts.model,
                            static_cast<int64_t>(collection.universe_size()));
  if (!model.ok()) return model.status();
  index.model_ = std::move(*model);

  TrainingSet data = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kFirstPosition, index.scaler_);

  TrainConfig train = opts.train;
  train.qerror_span = index.scaler_.span();

  Stopwatch sw;
  if (opts.hybrid) {
    GuidedConfig guided;
    guided.train = train;
    guided.rounds = opts.guided_rounds;
    guided.keep_fraction = opts.keep_fraction;
    GuidedResult res =
        TrainGuided(index.model_.get(), &data, index.scaler_, guided);
    for (size_t idx : res.outliers) {
      index.aux_.Insert(sets::HashSetSorted(data.subset(idx)),
                        static_cast<uint64_t>(data.raw_target(idx)));
    }
    index.num_outliers_ = res.outliers.size();
  } else {
    Trainer trainer(train);
    trainer.Train(index.model_.get(), data);
  }
  index.train_seconds_ = sw.ElapsedSeconds();

  // Local error bounds + final accuracy over the *retained* subsets.
  std::vector<size_t> active = data.ActiveIndices();
  Trainer eval(train);
  std::vector<double> preds =
      eval.PredictScaled(index.model_.get(), data, active);
  std::vector<double> estimates(active.size());
  std::vector<double> truths(active.size());
  double q_sum = 0.0, abs_sum = 0.0;
  for (size_t i = 0; i < active.size(); ++i) {
    double est = std::round(index.scaler_.Unscale(preds[i]));
    double truth = data.raw_target(active[i]);
    estimates[i] = est;
    truths[i] = truth;
    q_sum += nn::QError(est + 1.0, truth + 1.0);  // positions are 0-based
    abs_sum += std::abs(est - truth);
  }
  if (!active.empty()) {
    index.final_train_qerror_ = q_sum / static_cast<double>(active.size());
    index.final_train_abs_error_ =
        abs_sum / static_cast<double>(active.size());
  }
  index.bounds_ =
      LocalErrorBounds::Build(estimates, truths, opts.error_range_length);
  return index;
}

LearnedSetIndex LearnedSetIndex::BoundTo(
    const sets::SetCollection& collection) const {
  LearnedSetIndex copy(*this);
  copy.collection_ = &collection;
  return copy;
}

void LearnedSetIndex::Save(BinaryWriter* w) const {
  SaveSetModel(*model_, w);
  scaler_.Save(w);
  bounds_.Save(w);
  aux_.Save(w);
  w->WriteU64(num_outliers_);
  w->WriteU32(fallback_full_scan_ ? 1 : 0);
}

Result<LearnedSetIndex> LearnedSetIndex::Load(
    BinaryReader* r, const sets::SetCollection& collection) {
  LearnedSetIndex index;
  index.collection_ = &collection;
  auto model = LoadSetModel(r);
  if (!model.ok()) return model.status();
  index.model_ = std::move(*model);
  auto scaler = TargetScaler::Load(r);
  if (!scaler.ok()) return scaler.status();
  index.scaler_ = *scaler;
  auto bounds = LocalErrorBounds::Load(r);
  if (!bounds.ok()) return bounds.status();
  index.bounds_ = std::move(*bounds);
  auto aux = baselines::BPlusTree::Load(r);
  if (!aux.ok()) return aux.status();
  index.aux_ = std::move(*aux);
  auto outliers = r->ReadU64();
  if (!outliers.ok()) return outliers.status();
  index.num_outliers_ = *outliers;
  auto fb = r->ReadU32();
  if (!fb.ok()) return fb.status();
  index.fallback_full_scan_ = *fb != 0;
  return index;
}

void LearnedSetIndex::SetMetricsRegistry(MetricsRegistry* registry) {
  metrics_.lookups = registry->GetCounter("index.lookups");
  metrics_.aux_hits = registry->GetCounter("index.aux_hits");
  metrics_.oov_queries = registry->GetCounter("index.oov_queries");
  metrics_.misses = registry->GetCounter("index.misses");
  metrics_.fallback_scans = registry->GetCounter("index.fallback_scans");
  metrics_.batches = registry->GetCounter("index.lookup_batches");
  metrics_.absorbed = registry->GetCounter("index.subsets_absorbed");
  Histogram::Options width = WidthHistogramOptions();
  width.sampled = true;
  metrics_.scan_width = registry->GetHistogram("index.scan_width", width);
  metrics_.latency = registry->GetHistogram("index.lookup_seconds",
                                            SampledLatencyHistogramOptions());
  metrics_.batch_latency = registry->GetHistogram("index.lookup_batch_seconds",
                                                  LatencyHistogramOptions());
}

int64_t LearnedSetIndex::ClampEstimate(double scaled) const {
  double est = std::round(scaler_.Unscale(scaled));
  est = std::clamp(est, 0.0, static_cast<double>(collection_->size() - 1));
  return static_cast<int64_t>(est);
}

int64_t LearnedSetIndex::EstimatePosition(sets::SetView q) {
  return ClampEstimate(model_->PredictOne(q));
}

LearnedSetIndex::Window LearnedSetIndex::ScanWindow(int64_t est) const {
  const auto e_r =
      static_cast<int64_t>(bounds_.ErrorFor(static_cast<double>(est)));
  return {std::max<int64_t>(0, est - e_r),
          std::min<int64_t>(static_cast<int64_t>(collection_->size()),
                            est + e_r + 1)};
}

namespace {

// LookupStats::visited of a scan over [lo, hi) that answered `pos` (-1: miss).
int64_t Visited(int64_t pos, int64_t lo, int64_t hi) {
  return pos >= 0 ? pos - lo + 1 : hi - lo;
}

}  // namespace

int64_t LearnedSetIndex::LookupEqual(sets::SetView q, LookupStats* stats) {
  metrics_.lookups->Increment();
  ScopedLatency timer(metrics_.latency);
  TRACE_SPAN_SAMPLED("serving", "index.lookup_equal");
  // Auxiliary probe: verify exact equality at the stored position.
  auto aux_pos = aux_.FindFirst(sets::HashSetSorted(q));
  if (aux_pos.has_value()) {
    sets::SetView s = collection_->set(static_cast<size_t>(*aux_pos));
    if (s.size() == q.size() && std::equal(s.begin(), s.end(), q.begin())) {
      if (stats != nullptr) {
        *stats = {.aux_hit = true, .estimate = static_cast<int64_t>(*aux_pos)};
      }
      metrics_.aux_hits->Increment();
      return static_cast<int64_t>(*aux_pos);
    }
  }
  for (sets::ElementId e : q) {
    if (static_cast<int64_t>(e) >= model_->vocab()) {
      metrics_.oov_queries->Increment();
      int64_t pos = fallback_full_scan_
                        ? collection_->FindFirstEqual(q, 0, collection_->size())
                        : -1;
      if (pos < 0) metrics_.misses->Increment();
      return pos;
    }
  }
  const int64_t est = EstimatePosition(q);
  const Window w = ScanWindow(est);
  if (metrics_.scan_width->Sample()) {
    metrics_.scan_width->Observe(static_cast<double>(w.hi - w.lo));
  }
  int64_t pos = collection_->FindFirstEqual(q, static_cast<size_t>(w.lo),
                                            static_cast<size_t>(w.hi));
  RecordScan(stats, est, w, pos);
  if (pos < 0 && fallback_full_scan_) {
    metrics_.fallback_scans->Increment();
    pos = collection_->FindFirstEqual(q, 0, collection_->size());
  }
  if (pos < 0) metrics_.misses->Increment();
  return pos;
}

size_t LearnedSetIndex::AbsorbUpdatedSet(size_t position,
                                         size_t max_subset_size,
                                         sets::SetView old_content) {
  if (position >= collection_->size()) return 0;
  const auto pos = static_cast<int64_t>(position);
  size_t routed = 0;
  sets::ForEachSubset(collection_->set(position), max_subset_size,
                      [&](sets::SetView sub) {
                        // If the bounded search already finds a (first)
                        // superset, the error bounds still cover this
                        // subset; otherwise route it to the aux structure.
                        const int64_t found = ProbeLookup(sub);
                        if (found >= 0 && found <= pos) return;
                        aux_.Assign(sets::HashSetSorted(sub), position);
                        ++routed;
                      });
  sets::ForEachSubset(old_content, max_subset_size, [&](sets::SetView sub) {
    if (collection_->SetContainsSorted(position, sub)) return;
    // Sets before `position` did not change, so a superset among them was
    // and still is the first one; otherwise the first moved past
    // `position` (or vanished, which the bounded lookup cannot contradict:
    // it only returns verified supersets).
    const int64_t exact =
        collection_->FindFirstSuperset(sub, 0, collection_->size());
    if (exact < pos || ProbeLookup(sub) == exact) return;
    aux_.Assign(sets::HashSetSorted(sub), static_cast<uint64_t>(exact));
    ++routed;
  });
  updates_absorbed_ += routed;
  metrics_.absorbed->Increment(routed);
  return routed;
}

int64_t LearnedSetIndex::Lookup(sets::SetView q, LookupStats* stats) {
  metrics_.lookups->Increment();
  ScopedLatency timer(metrics_.latency);
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "index.lookup");
  // Algorithm 2, line 2: auxiliary structure first. Hash collisions are
  // guarded by verifying containment at the stored position.
  {
    TRACE_SPAN("serving", "index.aux_probe");
    auto aux_pos = aux_.FindFirst(sets::HashSetSorted(q));
    if (aux_pos.has_value() &&
        collection_->SetContainsSorted(static_cast<size_t>(*aux_pos), q)) {
      if (stats != nullptr) {
        *stats = {.aux_hit = true, .estimate = static_cast<int64_t>(*aux_pos)};
      }
      metrics_.aux_hits->Increment();
      span.set_arg("outcome_aux_hit", 1.0);
      return static_cast<int64_t>(*aux_pos);
    }
  }
  // Elements beyond the model's vocabulary (inserted by updates after the
  // build, §7.2) can only be answered by the auxiliary structure or a full
  // scan — the model has no embedding for them.
  for (sets::ElementId e : q) {
    if (static_cast<int64_t>(e) >= model_->vocab()) {
      metrics_.oov_queries->Increment();
      RecordScan(stats, -1, Window{}, -1);
      int64_t pos = -1;
      if (fallback_full_scan_) {
        metrics_.fallback_scans->Increment();
        pos = FallbackScan(q, stats);
      }
      if (pos < 0) metrics_.misses->Increment();
      return pos;
    }
  }
  // Lines 4-7: model estimate + bounded local scan, left to right so the
  // *first* superset position is returned.
  return ScanFromEstimate(q, EstimatePosition(q), stats);
}

int64_t LearnedSetIndex::ProbeLookup(sets::SetView q, LookupStats* stats) {
  // Mirror of Lookup's decision flow without instruments or spans — keep
  // the two in sync.
  auto aux_pos = aux_.FindFirst(sets::HashSetSorted(q));
  if (aux_pos.has_value() &&
      collection_->SetContainsSorted(static_cast<size_t>(*aux_pos), q)) {
    if (stats != nullptr) {
      *stats = {.aux_hit = true, .estimate = static_cast<int64_t>(*aux_pos)};
    }
    return static_cast<int64_t>(*aux_pos);
  }
  for (sets::ElementId e : q) {
    if (static_cast<int64_t>(e) >= model_->vocab()) {
      RecordScan(stats, -1, Window{}, -1);
      return fallback_full_scan_ ? FallbackScan(q, stats) : -1;
    }
  }
  const int64_t est = EstimatePosition(q);
  const Window w = ScanWindow(est);
  int64_t pos = collection_->FindFirstSuperset(q, static_cast<size_t>(w.lo),
                                               static_cast<size_t>(w.hi));
  RecordScan(stats, est, w, pos);
  if (pos < 0 && fallback_full_scan_) pos = FallbackScan(q, stats);
  return pos;
}

void LearnedSetIndex::RecordScan(LookupStats* stats, int64_t est, Window w,
                                 int64_t pos) {
  if (stats == nullptr) return;
  *stats = {.estimate = est,
            .scan_width = w.hi - w.lo,
            .visited = Visited(pos, w.lo, w.hi)};
}

int64_t LearnedSetIndex::FallbackScan(sets::SetView q,
                                      LookupStats* stats) const {
  const auto n = static_cast<int64_t>(collection_->size());
  const int64_t pos = collection_->FindFirstSuperset(q, 0, n);
  if (stats != nullptr) {
    stats->scan_width += n;
    stats->visited += Visited(pos, 0, n);
  }
  return pos;
}

int64_t LearnedSetIndex::ScanFromEstimate(sets::SetView q, int64_t est,
                                          LookupStats* stats) {
  TRACE_SPAN_VAR(span, "serving", "index.bounded_scan");
  const Window w = ScanWindow(est);
  if (metrics_.scan_width->Sample()) {
    metrics_.scan_width->Observe(static_cast<double>(w.hi - w.lo));
  }
  span.set_arg("scan_width", static_cast<double>(w.hi - w.lo));
  int64_t pos = collection_->FindFirstSuperset(q, static_cast<size_t>(w.lo),
                                               static_cast<size_t>(w.hi));
  RecordScan(stats, est, w, pos);
  if (pos >= 0) return pos;
  if (fallback_full_scan_) {
    metrics_.fallback_scans->Increment();
    pos = FallbackScan(q, stats);
  }
  if (pos < 0) metrics_.misses->Increment();
  return pos;
}

std::vector<int64_t> LearnedSetIndex::LookupBatch(
    const std::vector<sets::Query>& queries) {
  metrics_.batches->Increment();
  metrics_.lookups->Increment(queries.size());
  ScopedLatency timer(metrics_.batch_latency);
  TRACE_SPAN_VAR(span, "serving", "index.lookup_batch");
  span.set_arg("queries", static_cast<double>(queries.size()));
  std::vector<int64_t> results(queries.size(), -1);
  // Stage 1: resolve auxiliary hits and out-of-vocabulary queries; everything
  // else is deferred to one batched model pass.
  std::vector<size_t> deferred;
  std::vector<sets::SetView> views;
  const int64_t vocab = model_->vocab();
  for (size_t i = 0; i < queries.size(); ++i) {
    sets::SetView q = queries[i].view();
    auto aux_pos = aux_.FindFirst(sets::HashSetSorted(q));
    if (aux_pos.has_value() &&
        collection_->SetContainsSorted(static_cast<size_t>(*aux_pos), q)) {
      results[i] = static_cast<int64_t>(*aux_pos);
      metrics_.aux_hits->Increment();
      continue;
    }
    bool oov = false;
    for (sets::ElementId e : q) {
      if (static_cast<int64_t>(e) >= vocab) {
        oov = true;
        break;
      }
    }
    if (oov) {
      metrics_.oov_queries->Increment();
      if (fallback_full_scan_) {
        metrics_.fallback_scans->Increment();
        results[i] = FallbackScan(q, nullptr);
      }
      if (results[i] < 0) metrics_.misses->Increment();
      continue;
    }
    deferred.push_back(i);
    views.push_back(q);
  }
  // Stage 2: batched estimates, then per-query bounded scans.
  if (!deferred.empty()) {
    std::vector<double> preds;
    model_->PredictBatch(views.data(), views.size(), &preds);
    for (size_t k = 0; k < deferred.size(); ++k) {
      results[deferred[k]] =
          ScanFromEstimate(views[k], ClampEstimate(preds[k]), nullptr);
    }
  }
  return results;
}

}  // namespace los::core
