#include "core/learned_cardinality.h"

#include "common/stopwatch.h"
#include "core/query_flow.h"
#include "nn/losses.h"

namespace los::core {

Result<LearnedCardinalityEstimator> LearnedCardinalityEstimator::Build(
    const sets::SetCollection& collection, const CardinalityOptions& opts) {
  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.max_subset_size;
  Stopwatch phase;
  sets::LabeledSubsets subsets = EnumerateLabeledSubsets(collection, gen);
  ObserveBuildPhase(BuildPhase::kEnumerate, phase.ElapsedSeconds());
  return BuildFromSubsets(subsets,
                          static_cast<int64_t>(collection.universe_size()),
                          opts);
}

Result<LearnedCardinalityEstimator>
LearnedCardinalityEstimator::BuildFromSubsets(
    const sets::LabeledSubsets& subsets, int64_t universe_size,
    const CardinalityOptions& opts) {
  if (subsets.empty()) {
    return Status::InvalidArgument("no training subsets");
  }
  LearnedCardinalityEstimator est;
  // The max cardinality is the largest single-element cardinality (§4.2);
  // min is 1 by construction.
  est.scaler_ = TargetScaler::FitRange(1.0, subsets.MaxCardinality());

  auto model = MakeSetModel(opts.model, universe_size);
  if (!model.ok()) return model.status();
  est.model_ = std::move(*model);

  TrainingSet data = TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, est.scaler_);

  TrainConfig train = opts.train;
  train.qerror_span = est.scaler_.span();

  Stopwatch sw;
  if (opts.hybrid) {
    GuidedConfig guided;
    guided.train = train;
    guided.rounds = opts.guided_rounds;
    guided.keep_fraction = opts.keep_fraction;
    GuidedResult res = TrainGuided(est.model_.get(), &data, est.scaler_,
                                   guided);
    ObserveBuildPhase(BuildPhase::kTrain, res.train_seconds);
    ObserveBuildPhase(BuildPhase::kScore, res.score_seconds);
    Stopwatch phase;
    std::vector<CardinalityAux::Entry> outliers;
    outliers.reserve(res.outliers.size());
    for (size_t idx : res.outliers) {
      outliers.push_back({data.subset(idx),
                          static_cast<uint32_t>(data.raw_target(idx))});
    }
    auto aux = CardinalityAux::Build(outliers);
    if (!aux.ok()) return aux.status();
    est.aux_ = std::move(*aux);
    ObserveBuildPhase(BuildPhase::kAux, phase.ElapsedSeconds());
    est.final_train_qerror_ = res.final_avg_qerror;
  } else {
    Trainer trainer(train);
    Stopwatch phase;
    trainer.Train(est.model_.get(), data);
    ObserveBuildPhase(BuildPhase::kTrain, phase.ElapsedSeconds());
    phase.Restart();
    est.final_train_qerror_ = EvaluateAvgQError(
        est.model_.get(), data, est.scaler_, data.ActiveIndices());
    ObserveBuildPhase(BuildPhase::kScore, phase.ElapsedSeconds());
  }
  est.train_seconds_ = sw.ElapsedSeconds();
  return est;
}

void LearnedCardinalityEstimator::Save(BinaryWriter* w) const {
  SaveSetModel(*model_, w);
  scaler_.Save(w);
  aux_.Save(w);
}

Result<LearnedCardinalityEstimator> LearnedCardinalityEstimator::Load(
    BinaryReader* r) {
  LearnedCardinalityEstimator est;
  auto model = LoadSetModel(r);
  if (!model.ok()) return model.status();
  est.model_ = std::move(*model);
  auto scaler = TargetScaler::Load(r);
  if (!scaler.ok()) return scaler.status();
  est.scaler_ = *scaler;
  auto aux = CardinalityAux::Load(r);
  if (!aux.ok()) return aux.status();
  est.aux_ = std::move(*aux);
  return est;
}

void LearnedCardinalityEstimator::SetMetricsRegistry(
    MetricsRegistry* registry) {
  metrics_.queries = registry->GetCounter("cardinality.queries");
  metrics_.outlier_hits = registry->GetCounter("cardinality.outlier_hits");
  metrics_.oov_queries = registry->GetCounter("cardinality.oov_queries");
  metrics_.batches = registry->GetCounter("cardinality.estimate_batches");
  metrics_.latency = registry->GetHistogram("cardinality.estimate_seconds",
                                            SampledLatencyHistogramOptions());
  metrics_.batch_latency = registry->GetHistogram(
      "cardinality.estimate_batch_seconds", LatencyHistogramOptions());
  metrics_.qerror =
      registry->GetHistogram("cardinality.qerror", QErrorHistogramOptions());
}

double LearnedCardinalityEstimator::ObserveQError(double estimate,
                                                  double truth) {
  const double q = nn::QError(estimate, truth);
  metrics_.qerror->Observe(q);
  return q;
}

double LearnedCardinalityEstimator::Estimate(sets::SetView q) {
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "cardinality.estimate");
  metrics_.queries->Increment();
  ScopedLatency timer(metrics_.latency);
  if (std::optional<double> answer = PreModel(q, span)) return *answer;
  return scaler_.Unscale(model_->PredictOne(q));
}

std::vector<double> LearnedCardinalityEstimator::EstimateBatch(
    const std::vector<sets::Query>& queries) {
  metrics_.batches->Increment();
  metrics_.queries->Increment(queries.size());
  ScopedLatency timer(metrics_.batch_latency);
  TRACE_SPAN_VAR(span, "serving", "cardinality.estimate_batch");
  span.set_arg("queries", static_cast<double>(queries.size()));
  TraceSpan no_query_span;
  return AnswerBatch<double>(
      *model_, queries,
      [&](sets::SetView q) { return PreModel(q, no_query_span); },
      [&](sets::SetView, double score) { return scaler_.Unscale(score); });
}

std::optional<double> LearnedCardinalityEstimator::PreModel(
    sets::SetView q, TraceSpan& span) const {
  {
    TRACE_SPAN("serving", "cardinality.aux_probe");
    if (std::optional<double> exact = aux_.Get(q)) {
      metrics_.outlier_hits->Increment();
      span.set_arg("outcome_aux_hit", 1.0);
      return exact;
    }
  }
  // Unseen elements occur in no set, so any superset query has cardinality
  // zero; the model has no embedding for them either.
  if (model_->Covers(q)) return std::nullopt;
  metrics_.oov_queries->Increment();
  span.set_arg("outcome_oov", 1.0);
  return 0.0;
}

}  // namespace los::core
