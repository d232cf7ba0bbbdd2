#include "core/learned_cardinality.h"

#include "common/stopwatch.h"
#include "common/trace.h"
#include "nn/losses.h"

namespace los::core {

Result<LearnedCardinalityEstimator> LearnedCardinalityEstimator::Build(
    const sets::SetCollection& collection, const CardinalityOptions& opts) {
  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.max_subset_size;
  sets::LabeledSubsets subsets = EnumerateLabeledSubsets(collection, gen);
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
    for (size_t idx : res.outliers) {
      est.aux_.Put(data.subset(idx), data.raw_target(idx));
    }
    est.final_train_qerror_ = res.final_avg_qerror;
  } else {
    Trainer trainer(train);
    trainer.Train(est.model_.get(), data);
    est.final_train_qerror_ = EvaluateAvgQError(
        est.model_.get(), data, est.scaler_, data.ActiveIndices());
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
  auto aux = OutlierMap::Load(r);
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
  metrics_.queries->Increment();
  ScopedLatency timer(metrics_.latency);
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "cardinality.estimate");
  {
    TRACE_SPAN("serving", "cardinality.aux_probe");
    if (auto exact = aux_.Get(q)) {
      metrics_.outlier_hits->Increment();
      span.set_arg("outcome_aux_hit", 1.0);
      return *exact;
    }
  }
  // Unseen elements occur in no set, so any superset query has cardinality
  // zero; the model has no embedding for them either.
  for (sets::ElementId e : q) {
    if (static_cast<int64_t>(e) >= model_->vocab()) {
      metrics_.oov_queries->Increment();
      span.set_arg("outcome_oov", 1.0);
      return 0.0;
    }
  }
  return scaler_.Unscale(model_->PredictOne(q));
}

std::vector<double> LearnedCardinalityEstimator::EstimateBatch(
    const std::vector<sets::Query>& queries) {
  metrics_.batches->Increment();
  metrics_.queries->Increment(queries.size());
  ScopedLatency timer(metrics_.batch_latency);
  TRACE_SPAN_VAR(span, "serving", "cardinality.estimate_batch");
  span.set_arg("queries", static_cast<double>(queries.size()));
  std::vector<double> out(queries.size(), 0.0);
  // Resolve aux hits and OOV queries first; batch the rest through
  // SetModel::PredictBatch, which bounds sub-batch sizes and reuses the
  // calling thread's workspace.
  std::vector<size_t> model_queries;
  std::vector<sets::SetView> views;
  const int64_t vocab = model_->vocab();
  for (size_t i = 0; i < queries.size(); ++i) {
    sets::SetView q = queries[i].view();
    if (auto exact = aux_.Get(q)) {
      out[i] = *exact;
      metrics_.outlier_hits->Increment();
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
      continue;  // stays 0
    }
    model_queries.push_back(i);
    views.push_back(q);
  }
  if (!model_queries.empty()) {
    std::vector<double> preds;
    model_->PredictBatch(views.data(), views.size(), &preds);
    for (size_t k = 0; k < model_queries.size(); ++k) {
      out[model_queries[k]] = scaler_.Unscale(preds[k]);
    }
  }
  return out;
}

}  // namespace los::core
