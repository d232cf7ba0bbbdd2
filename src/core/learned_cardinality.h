#ifndef LOS_CORE_LEARNED_CARDINALITY_H_
#define LOS_CORE_LEARNED_CARDINALITY_H_

#include <memory>
#include <optional>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/hybrid.h"
#include "core/model_factory.h"
#include "core/scaling.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "sets/subset_gen.h"

namespace los::core {

/// Build options for the learned set cardinality estimator (§4.2).
struct CardinalityOptions {
  ModelOptions model;
  TrainConfig train;
  size_t max_subset_size = 4;  ///< training-subset enumeration bound (§7.1.1)
  bool hybrid = false;         ///< guided learning + auxiliary structure (§6)
  int guided_rounds = 2;
  double keep_fraction = 0.9;  ///< Fig 6 removes errors above the 90th pct
};

/// \brief Learned set cardinality estimator: LSM/CLSM regression model, with
/// an optional hybrid auxiliary table (CardinalityAux) serving evicted
/// training subsets exactly.
///
/// Thread safety: Estimate / EstimateBatch are safe to call from concurrent
/// reader threads and run in parallel: the model, aux table and scaler are
/// read-only after Build/Load, model inference keeps its activations in
/// per-thread workspaces, and metrics are atomic.
class LearnedCardinalityEstimator {
 public:
  /// Enumerates training subsets from the collection and trains.
  static Result<LearnedCardinalityEstimator> Build(
      const sets::SetCollection& collection, const CardinalityOptions& opts);

  /// Variant reusing pre-enumerated subsets (benches share the enumeration
  /// across LSM/CLSM/hybrid builds). `universe_size` is the embedding vocab.
  static Result<LearnedCardinalityEstimator> BuildFromSubsets(
      const sets::LabeledSubsets& subsets, int64_t universe_size,
      const CardinalityOptions& opts);

  /// Estimated cardinality of sorted `q`: exact if `q` is a stored outlier,
  /// else the unscaled model prediction.
  double Estimate(sets::SetView q);

  /// Batched estimation: one model forward pass for all queries (much
  /// faster than per-query Estimate for bulk workloads). Semantics match
  /// Estimate per query.
  std::vector<double> EstimateBatch(const std::vector<sets::Query>& queries);

  /// True when the query would be answered by the auxiliary structure.
  bool IsOutlier(sets::SetView q) const {
    return aux_.Get(q).has_value();
  }

  const TargetScaler& scaler() const { return scaler_; }
  deepsets::SetModel* model() { return model_.get(); }
  size_t num_outliers() const { return aux_.size(); }

  /// Model parameter bytes.
  size_t ModelBytes() const { return model_->ByteSize(); }
  /// Auxiliary-structure bytes (0 when non-hybrid).
  size_t AuxBytes() const { return aux_.MemoryBytes(); }
  size_t TotalBytes() const { return ModelBytes() + AuxBytes(); }

  /// Seconds spent in training (for the §8.1 setup numbers).
  double train_seconds() const { return train_seconds_; }
  /// Average q-error over the retained training samples after building.
  double final_train_qerror() const { return final_train_qerror_; }

  /// Persists the trained estimator (model, scaler, auxiliary structure).
  void Save(BinaryWriter* w) const;
  static Result<LearnedCardinalityEstimator> Load(BinaryReader* r);

  /// Records the serving-time q-error of `estimate` against a known ground
  /// truth into the `cardinality.qerror` histogram and returns it. Callers
  /// that can verify estimates (benches, shadow traffic, sampled audits)
  /// use this to track accuracy drift in production — errors are only
  /// bounded if measured.
  double ObserveQError(double estimate, double truth);

  /// Re-points serving-path instrumentation (`cardinality.*` metrics) at
  /// `registry`; the default is MetricsRegistry::Global(). Must not be null.
  void SetMetricsRegistry(MetricsRegistry* registry);

 private:
  LearnedCardinalityEstimator() {
    SetMetricsRegistry(MetricsRegistry::Global());
  }

  struct Instruments {
    Counter* queries = nullptr;       ///< cardinality.queries
    Counter* outlier_hits = nullptr;  ///< cardinality.outlier_hits
    Counter* oov_queries = nullptr;   ///< cardinality.oov_queries
    Counter* batches = nullptr;       ///< cardinality.estimate_batches
    /// cardinality.estimate_seconds, sampled 1 in 16
    Histogram* latency = nullptr;
    Histogram* batch_latency = nullptr;  ///< cardinality.estimate_batch_seconds
    Histogram* qerror = nullptr;      ///< cardinality.qerror
  };

  /// Pre-model step: the exact answer of an evicted outlier, 0 for a query
  /// with an out-of-vocabulary element, or std::nullopt to defer q to the
  /// model. The post-model step is scaler_.Unscale.
  std::optional<double> PreModel(sets::SetView q, TraceSpan& span) const;

  std::unique_ptr<deepsets::SetModel> model_;
  TargetScaler scaler_;
  CardinalityAux aux_;
  double train_seconds_ = 0.0;
  double final_train_qerror_ = 0.0;
  Instruments metrics_;
};

}  // namespace los::core

#endif  // LOS_CORE_LEARNED_CARDINALITY_H_
