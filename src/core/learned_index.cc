#include "core/learned_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stopwatch.h"
#include "core/query_flow.h"
#include "nn/losses.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"

namespace los::core {

Result<LearnedSetIndex> LearnedSetIndex::Build(
    const sets::SetCollection& collection, const IndexOptions& opts) {
  if (collection.empty()) {
    return Status::InvalidArgument("empty collection");
  }
  if (collection.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("collection exceeds 2^32 sets");
  }
  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.max_subset_size;
  Stopwatch phase;
  sets::LabeledSubsets subsets = EnumerateLabeledSubsets(collection, gen);
  ObserveBuildPhase(BuildPhase::kEnumerate, phase.ElapsedSeconds());
  if (subsets.empty()) return Status::InvalidArgument("no training subsets");

  LearnedSetIndex index;
  index.collection_ = &collection;
  index.fallback_full_scan_ = opts.fallback_full_scan;
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
  double score_seconds = 0.0;
  if (opts.hybrid) {
    GuidedConfig guided;
    guided.train = train;
    guided.rounds = opts.guided_rounds;
    guided.keep_fraction = opts.keep_fraction;
    GuidedResult res =
        TrainGuided(index.model_.get(), &data, index.scaler_, guided);
    ObserveBuildPhase(BuildPhase::kTrain, res.train_seconds);
    score_seconds = res.score_seconds;
    phase.Restart();
    std::vector<std::pair<uint64_t, uint32_t>> outliers;
    outliers.reserve(res.outliers.size());
    for (size_t idx : res.outliers) {
      outliers.emplace_back(sets::HashSetSorted(data.subset(idx)),
                            static_cast<uint32_t>(data.raw_target(idx)));
    }
    index.aux_ = IndexAux::Build(std::move(outliers));
    index.num_outliers_ = res.outliers.size();
    ObserveBuildPhase(BuildPhase::kAux, phase.ElapsedSeconds());
  } else {
    Trainer trainer(train);
    phase.Restart();
    trainer.Train(index.model_.get(), data);
    ObserveBuildPhase(BuildPhase::kTrain, phase.ElapsedSeconds());
  }
  index.train_seconds_ = sw.ElapsedSeconds();

  // Local error bounds + final accuracy over the *retained* subsets.
  std::vector<size_t> active = data.ActiveIndices();
  Trainer eval(train);
  phase.Restart();
  std::vector<double> preds =
      eval.PredictScaled(index.model_.get(), data, active);
  ObserveBuildPhase(BuildPhase::kScore,
                    score_seconds + phase.ElapsedSeconds());
  phase.Restart();
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
  ObserveBuildPhase(BuildPhase::kBounds, phase.ElapsedSeconds());
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
  auto aux = IndexAux::Load(r, collection.size());
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

LearnedSetIndex::Instruments LearnedSetIndex::InstrumentsIn(
    MetricsRegistry* registry) {
  Histogram::Options width = WidthHistogramOptions();
  width.sampled = true;
  return {
      .lookups = registry->GetCounter("index.lookups"),
      .aux_hits = registry->GetCounter("index.aux_hits"),
      .oov_queries = registry->GetCounter("index.oov_queries"),
      .misses = registry->GetCounter("index.misses"),
      .fallback_scans = registry->GetCounter("index.fallback_scans"),
      .batches = registry->GetCounter("index.lookup_batches"),
      .absorbed = registry->GetCounter("index.subsets_absorbed"),
      .scan_width = registry->GetHistogram("index.scan_width", width),
      .scan_visited = registry->GetHistogram("index.scan_visited", width),
      .scan_visited_from0 =
          registry->GetHistogram("index.scan_visited_from0", width),
      .latency = registry->GetHistogram("index.lookup_seconds",
                                        SampledLatencyHistogramOptions()),
      .batch_latency = registry->GetHistogram("index.lookup_batch_seconds",
                                              LatencyHistogramOptions()),
  };
}

const LearnedSetIndex::Instruments& LearnedSetIndex::Silent() {
  static const Instruments silent = InstrumentsIn(SilentMetricsRegistry());
  return silent;
}

void LearnedSetIndex::SetMetricsRegistry(MetricsRegistry* registry) {
  metrics_ = InstrumentsIn(registry);
}

int64_t LearnedSetIndex::ClampEstimate(double scaled) const {
  double est = std::round(scaler_.Unscale(scaled));
  est = std::clamp(est, 0.0, static_cast<double>(collection_->size() - 1));
  return static_cast<int64_t>(est);
}

int64_t LearnedSetIndex::EstimatePosition(sets::SetView q) {
  return ClampEstimate(model_->PredictOne(q));
}

namespace {

// LookupStats::visited of a scan over [lo, hi) that answered `pos` (-1: miss).
int64_t Visited(int64_t pos, int64_t lo, int64_t hi) {
  return pos >= 0 ? pos - lo + 1 : hi - lo;
}

}  // namespace

bool LearnedSetIndex::Matches(uint64_t position, sets::SetView q,
                              Match match) const {
  const auto i = static_cast<size_t>(position);
  if (match == Match::kSuperset) return collection_->SetContainsSorted(i, q);
  const sets::SetView s = collection_->set(i);
  return s.size() == q.size() && std::equal(s.begin(), s.end(), q.begin());
}

int64_t LearnedSetIndex::FindFirst(sets::SetView q, Match match, int64_t lo,
                                   int64_t hi) const {
  const auto begin = static_cast<size_t>(lo);
  const auto end = static_cast<size_t>(hi);
  return match == Match::kSuperset
             ? collection_->FindFirstSuperset(q, begin, end)
             : collection_->FindFirstEqual(q, begin, end);
}

int64_t LearnedSetIndex::Lookup(sets::SetView q, LookupStats* stats) {
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "index.lookup");
  return LookupOne(q, Match::kSuperset, stats, metrics_, span);
}

int64_t LearnedSetIndex::LookupEqual(sets::SetView q, LookupStats* stats) {
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "index.lookup_equal");
  return LookupOne(q, Match::kEqual, stats, metrics_, span);
}

int64_t LearnedSetIndex::ProbeLookup(sets::SetView q, LookupStats* stats) {
  TraceSpan quiet(TraceSpan::SuppressTag{});
  return LookupOne(q, Match::kSuperset, stats, Silent(), quiet);
}

int64_t LearnedSetIndex::LookupOne(sets::SetView q, Match match,
                                   LookupStats* stats, const Instruments& m,
                                   TraceSpan& span) {
  m.lookups->Increment();
  ScopedLatency timer(m.latency);
  if (std::optional<int64_t> pos = PreModel(q, match, stats, m, span)) {
    return *pos;
  }
  return PostModel(q, match, model_->PredictOne(q), stats, m);
}

std::vector<int64_t> LearnedSetIndex::LookupBatch(
    const std::vector<sets::Query>& queries) {
  metrics_.batches->Increment();
  metrics_.lookups->Increment(queries.size());
  ScopedLatency timer(metrics_.batch_latency);
  TRACE_SPAN_VAR(span, "serving", "index.lookup_batch");
  span.set_arg("queries", static_cast<double>(queries.size()));
  TraceSpan no_query_span;
  return AnswerBatch<int64_t>(
      *model_, queries,
      [&](sets::SetView q) {
        return PreModel(q, Match::kSuperset, nullptr, metrics_,
                        no_query_span);
      },
      [&](sets::SetView q, double score) {
        return PostModel(q, Match::kSuperset, score, nullptr, metrics_);
      });
}

std::optional<int64_t> LearnedSetIndex::PreModel(sets::SetView q, Match match,
                                                 LookupStats* stats,
                                                 const Instruments& m,
                                                 TraceSpan& span) const {
  // Algorithm 2, line 2: auxiliary structure first. Hash collisions are
  // guarded by verifying the match at the stored position.
  {
    TRACE_SPAN("serving", "index.aux_probe");
    const auto aux_pos = aux_.FindFirst(sets::HashSetSorted(q));
    if (aux_pos.has_value() && Matches(*aux_pos, q, match)) {
      const auto pos = static_cast<int64_t>(*aux_pos);
      if (stats != nullptr) *stats = {.aux_hit = true, .estimate = pos};
      m.aux_hits->Increment();
      span.set_arg("outcome_aux_hit", 1.0);
      return pos;
    }
  }
  // Elements beyond the model's vocabulary (inserted by updates after the
  // build, §7.2) can only be answered by the auxiliary structure or a full
  // scan — the model has no embedding for them.
  if (model_->Covers(q)) return std::nullopt;
  m.oov_queries->Increment();
  if (stats != nullptr) *stats = {};
  return Fallback(q, match, stats, m);
}

int64_t LearnedSetIndex::PostModel(sets::SetView q, Match match, double score,
                                   LookupStats* stats,
                                   const Instruments& m) const {
  // Lines 4-7: scan [est − e_r, est + e_r], clamped to the collection, left
  // to right so the *first* matching position is returned.
  TRACE_SPAN_VAR(span, "serving", "index.bounded_scan");
  const int64_t est = ClampEstimate(score);
  const auto e_r =
      static_cast<int64_t>(bounds_.ErrorFor(static_cast<double>(est)));
  const int64_t lo = std::max<int64_t>(0, est - e_r);
  const int64_t hi = std::min<int64_t>(
      static_cast<int64_t>(collection_->size()), est + e_r + 1);
  const bool sampled = m.scan_width->Sample();
  if (sampled) m.scan_width->Observe(static_cast<double>(hi - lo));
  span.set_arg("scan_width", static_cast<double>(hi - lo));
  const int64_t pos = FindFirst(q, match, lo, hi);
  if (sampled && pos >= 0) {
    m.scan_visited->Observe(static_cast<double>(pos - lo + 1));
    m.scan_visited_from0->Observe(static_cast<double>(pos + 1));
  }
  if (stats != nullptr) {
    *stats = {.estimate = est,
              .scan_width = hi - lo,
              .visited = Visited(pos, lo, hi)};
  }
  return pos >= 0 ? pos : Fallback(q, match, stats, m);
}

int64_t LearnedSetIndex::Fallback(sets::SetView q, Match match,
                                  LookupStats* stats,
                                  const Instruments& m) const {
  int64_t pos = -1;
  if (fallback_full_scan_) {
    m.fallback_scans->Increment();
    const auto n = static_cast<int64_t>(collection_->size());
    pos = FindFirst(q, match, 0, n);
    if (stats != nullptr) {
      stats->scan_width += n;
      stats->visited += Visited(pos, 0, n);
    }
  }
  if (pos < 0) m.misses->Increment();
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
                        aux_.Assign(sets::HashSetSorted(sub),
                                    static_cast<uint32_t>(position));
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
    aux_.Assign(sets::HashSetSorted(sub), static_cast<uint32_t>(exact));
    ++routed;
  });
  updates_absorbed_ += routed;
  metrics_.absorbed->Increment(routed);
  return routed;
}

}  // namespace los::core
