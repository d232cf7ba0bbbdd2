#include "core/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "common/stopwatch.h"
#include "common/trace.h"
#include "nn/losses.h"

namespace los::core {

namespace {

double ComputeLoss(LossKind kind, const nn::Tensor& pred,
                   const nn::Tensor& target, double span, nn::Tensor* dpred) {
  switch (kind) {
    case LossKind::kMse:
      return nn::MseLoss(pred, target, dpred);
    case LossKind::kMae:
      return nn::MaeLoss(pred, target, dpred);
    case LossKind::kQError:
      return nn::QErrorLoss(pred, target, span, dpred);
    case LossKind::kBce:
      return nn::BinaryCrossEntropyLoss(pred, target, dpred);
  }
  return 0.0;
}

}  // namespace

Trainer::Trainer(const TrainConfig& config) : config_(config) {
  SetMetricsRegistry(MetricsRegistry::Global());
}

void Trainer::SetMetricsRegistry(MetricsRegistry* registry) {
  metrics_.epochs = registry->GetCounter("trainer.epochs");
  metrics_.epoch_seconds = registry->GetHistogram(
      "trainer.epoch_seconds", LatencyHistogramOptions());
  metrics_.epoch_loss =
      registry->GetHistogram("trainer.epoch_loss", QErrorHistogramOptions());
  metrics_.last_loss = registry->GetGauge("trainer.last_epoch_loss");
}

std::vector<EpochStats> Trainer::Train(deepsets::SetModel* model,
                                       const TrainingSet& data) {
  std::vector<EpochStats> stats;
  std::vector<size_t> idx = data.ActiveIndices();
  if (idx.empty()) return stats;

  Rng rng(config_.seed);
  nn::Adam optimizer(config_.learning_rate);
  std::vector<nn::Parameter*> params;
  model->CollectParameters(&params);

  std::vector<sets::ElementId> ids;
  std::vector<int64_t> offsets;
  nn::Tensor targets;
  nn::Tensor dpred;

  const size_t batch = static_cast<size_t>(std::max(config_.batch_size, 1));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    TRACE_SPAN_VAR(epoch_span, "training", "trainer.epoch");
    epoch_span.set_arg("samples", static_cast<double>(idx.size()));
    Stopwatch sw;
    rng.Shuffle(&idx);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t begin = 0; begin < idx.size(); begin += batch) {
      size_t end = std::min(idx.size(), begin + batch);
      {
        TRACE_SPAN("training", "trainer.gather_batch");
        data.GatherBatch(idx, begin, end, &ids, &offsets, &targets);
      }
      const nn::Tensor& pred = model->Forward(ids, offsets);
      epoch_loss += ComputeLoss(config_.loss, pred, targets,
                                config_.qerror_span, &dpred);
      {
        TRACE_SPAN("training", "trainer.backward");
        model->Backward(dpred);
      }
      {
        TRACE_SPAN("training", "trainer.optimizer_step");
        optimizer.Step(params);
      }
      ++batches;
    }
    EpochStats es;
    es.loss = batches > 0 ? epoch_loss / static_cast<double>(batches) : 0.0;
    es.seconds = sw.ElapsedSeconds();
    stats.push_back(es);
    metrics_.epochs->Increment();
    metrics_.epoch_seconds->Observe(es.seconds);
    metrics_.epoch_loss->Observe(es.loss);
    metrics_.last_loss->Set(es.loss);
    if (config_.verbose_every > 0 && (epoch + 1) % config_.verbose_every == 0) {
      std::printf("  epoch %3d  loss %.6f  (%.2fs, %zu samples)\n", epoch + 1,
                  es.loss, es.seconds, idx.size());
    }
  }
  return stats;
}

std::vector<double> Trainer::PredictScaled(
    deepsets::SetModel* model, const TrainingSet& data,
    const std::vector<size_t>& idx) const {
  std::vector<double> out;
  out.reserve(idx.size());
  std::vector<sets::ElementId> ids;
  std::vector<int64_t> offsets;
  const size_t batch = static_cast<size_t>(std::max(config_.batch_size, 1));
  for (size_t begin = 0; begin < idx.size(); begin += batch) {
    size_t end = std::min(idx.size(), begin + batch);
    data.GatherBatch(idx, begin, end, &ids, &offsets);
    model->PredictBatchCsr(ids, offsets, &out);
  }
  return out;
}

GuidedResult TrainGuided(deepsets::SetModel* model, TrainingSet* data,
                         const TargetScaler& scaler,
                         const GuidedConfig& config) {
  GuidedResult result;
  Trainer trainer(config.train);
  const int rounds = std::max(config.rounds, 1);
  for (int round = 0; round < rounds; ++round) {
    Stopwatch train_sw;
    auto stats = trainer.Train(model, *data);
    result.train_seconds += train_sw.ElapsedSeconds();
    result.history.insert(result.history.end(), stats.begin(), stats.end());
    if (round + 1 == rounds) break;  // last round: no eviction afterwards

    TRACE_SPAN_VAR(evict_span, "training", "trainer.guided_evict");
    // Per-sample q-error in original space on the active set.
    std::vector<size_t> idx = data->ActiveIndices();
    if (idx.empty()) break;
    Stopwatch score_sw;
    std::vector<double> preds = trainer.PredictScaled(model, *data, idx);
    result.score_seconds += score_sw.ElapsedSeconds();
    std::vector<double> errors(idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      errors[i] =
          nn::QError(scaler.Unscale(preds[i]), data->raw_target(idx[i]));
    }
    // Threshold = keep_fraction percentile of the error distribution.
    std::vector<double> sorted = errors;
    std::sort(sorted.begin(), sorted.end());
    size_t cut = static_cast<size_t>(
        std::clamp(config.keep_fraction, 0.0, 1.0) *
        static_cast<double>(sorted.size()));
    if (cut >= sorted.size()) cut = sorted.size() - 1;
    double threshold =
        std::max(sorted[cut], config.min_evict_qerror);
    size_t evicted = 0;
    for (size_t i = 0; i < idx.size(); ++i) {
      if (errors[i] > threshold) {
        data->Deactivate(idx[i]);
        result.outliers.push_back(idx[i]);
        ++evicted;
      }
    }
    evict_span.set_arg("evicted", static_cast<double>(evicted));
    MetricsRegistry::Global()
        ->GetCounter("trainer.outliers_evicted")
        ->Increment(evicted);
  }
  Stopwatch score_sw;
  result.final_avg_qerror =
      EvaluateAvgQError(model, *data, scaler, data->ActiveIndices());
  result.score_seconds += score_sw.ElapsedSeconds();
  MetricsRegistry::Global()
      ->GetGauge("trainer.final_avg_qerror")
      ->Set(result.final_avg_qerror);
  return result;
}

const char* BuildPhaseMetric(BuildPhase phase) {
  switch (phase) {
    case BuildPhase::kEnumerate:
      return "build.enumerate_seconds";
    case BuildPhase::kNegatives:
      return "build.negatives_seconds";
    case BuildPhase::kTrain:
      return "build.train_seconds";
    case BuildPhase::kScore:
      return "build.score_seconds";
    case BuildPhase::kBounds:
      return "build.bounds_seconds";
    case BuildPhase::kAux:
      return "build.aux_seconds";
  }
  return "build.unknown_seconds";
}

void ObserveBuildPhase(BuildPhase phase, double seconds) {
  MetricsRegistry::Global()
      ->GetHistogram(BuildPhaseMetric(phase), LatencyHistogramOptions())
      ->Observe(seconds);
}

double EvaluateAvgQError(deepsets::SetModel* model, const TrainingSet& data,
                         const TargetScaler& scaler,
                         const std::vector<size_t>& idx) {
  if (idx.empty()) return 1.0;
  Trainer trainer(TrainConfig{});
  std::vector<double> preds = trainer.PredictScaled(model, data, idx);
  double total = 0.0;
  for (size_t i = 0; i < idx.size(); ++i) {
    total += nn::QError(scaler.Unscale(preds[i]), data.raw_target(idx[i]));
  }
  return total / static_cast<double>(idx.size());
}

}  // namespace los::core
