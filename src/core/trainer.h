#ifndef LOS_CORE_TRAINER_H_
#define LOS_CORE_TRAINER_H_

#include <vector>

#include "common/metrics.h"
#include "core/scaling.h"
#include "core/training_data.h"
#include "deepsets/set_model.h"
#include "nn/optimizer.h"

namespace los::core {

/// Loss selector (Table 1: q-error for index/cardinality, binary
/// cross-entropy for the Bloom filter; MSE/MAE "can also be considered").
enum class LossKind { kMse, kMae, kQError, kBce };

/// Mini-batch training configuration.
struct TrainConfig {
  int epochs = 30;
  int batch_size = 256;
  float learning_rate = 1e-3f;
  LossKind loss = LossKind::kQError;
  double qerror_span = 1.0;  ///< log-space span of the target scaler
  uint64_t seed = 42;
  int verbose_every = 0;  ///< print a line every N epochs; 0 = silent
};

/// Per-epoch training record.
struct EpochStats {
  double loss = 0.0;
  double seconds = 0.0;
};

/// \brief Mini-batch trainer for SetModel implementations (Adam).
class Trainer {
 public:
  explicit Trainer(const TrainConfig& config);

  /// Trains on the *active* samples of `data`; returns per-epoch stats.
  std::vector<EpochStats> Train(deepsets::SetModel* model,
                                const TrainingSet& data);

  /// Batched inference: scaled model outputs for samples `idx`.
  std::vector<double> PredictScaled(deepsets::SetModel* model,
                                    const TrainingSet& data,
                                    const std::vector<size_t>& idx) const;

  const TrainConfig& config() const { return config_; }

  /// Re-points training instrumentation (`trainer.*` metrics) at
  /// `registry`; the default is MetricsRegistry::Global(). Must not be null.
  void SetMetricsRegistry(MetricsRegistry* registry);

 private:
  struct Instruments {
    Counter* epochs = nullptr;          ///< trainer.epochs
    Histogram* epoch_seconds = nullptr; ///< trainer.epoch_seconds
    Histogram* epoch_loss = nullptr;    ///< trainer.epoch_loss
    Gauge* last_loss = nullptr;         ///< trainer.last_epoch_loss
  };

  TrainConfig config_;
  Instruments metrics_;
};

/// Guided-learning (outlier-removal) configuration — §6.
struct GuidedConfig {
  TrainConfig train;        ///< settings for each training round
  int rounds = 2;           ///< train→evict iterations (evict after all but last)
  double keep_fraction = 0.9;  ///< keep errors below this percentile
  double min_evict_qerror = 1.05;  ///< never evict samples this accurate
};

/// Outcome of guided training.
struct GuidedResult {
  std::vector<size_t> outliers;     ///< deactivated training-sample indices
  std::vector<EpochStats> history;  ///< concatenated epoch stats
  double final_avg_qerror = 0.0;    ///< avg q-error on remaining samples
  double train_seconds = 0.0;  ///< wall time in the rounds' epochs
  /// wall time scoring samples (guided eviction, the final q-error)
  double score_seconds = 0.0;
};

/// \brief Trains with iterative outlier eviction (§6): after each round, the
/// per-sample q-error (in the original label space, via `scaler`) is
/// computed, and samples above the `keep_fraction` percentile are
/// deactivated — they will be served exactly by the hybrid's auxiliary
/// structure. In the best case this leaves a pure learned model with small
/// bounded error; in the worst case (everything evicted) the hybrid degrades
/// to the traditional structure.
GuidedResult TrainGuided(deepsets::SetModel* model, TrainingSet* data,
                         const TargetScaler& scaler,
                         const GuidedConfig& config);

/// One phase of a structure's build. Each Build call observes each phase
/// it runs once.
enum class BuildPhase {
  kEnumerate,  ///< enumerating the training subsets
  kNegatives,  ///< the Bloom filter's negative sampling
  kTrain,      ///< epochs
  kScore,      ///< batched predictions over the training samples: guided
               ///< eviction, q-error, backup candidates
  kBounds,     ///< the index's local error bounds
  kAux,        ///< the hybrid's aux structure or the Bloom filter's backup
};

/// Every BuildPhase, in declaration order.
inline constexpr BuildPhase kBuildPhases[] = {
    BuildPhase::kEnumerate, BuildPhase::kNegatives, BuildPhase::kTrain,
    BuildPhase::kScore,     BuildPhase::kBounds,    BuildPhase::kAux};

/// The histogram `phase` is recorded in: "build.<phase>_seconds".
const char* BuildPhaseMetric(BuildPhase phase);

/// Records `seconds` of `phase` in the histogram BuildPhaseMetric(phase) of
/// MetricsRegistry::Global(), where the trainer's own metrics go.
void ObserveBuildPhase(BuildPhase phase, double seconds);

/// Average q-error of the model on the given samples (original space).
double EvaluateAvgQError(deepsets::SetModel* model, const TrainingSet& data,
                         const TargetScaler& scaler,
                         const std::vector<size_t>& idx);

}  // namespace los::core

#endif  // LOS_CORE_TRAINER_H_
