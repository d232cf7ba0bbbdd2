#ifndef LOS_CORE_LEARNED_BLOOM_H_
#define LOS_CORE_LEARNED_BLOOM_H_

#include <functional>
#include <memory>

#include "baselines/bloom_filter.h"
#include "common/metrics.h"
#include "core/model_factory.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::core {

/// Build options for the learned set Bloom filter (§4.3).
struct BloomOptions {
  ModelOptions model;  ///< paper: embedding 2, two 8-neuron layers
  TrainConfig train;   ///< loss forced to BCE
  size_t max_subset_size = 4;  ///< membership guarantee bound (§7.1.2)
  double negatives_per_positive = 1.0;  ///< negative-sample ratio
  double threshold = 0.5;       ///< classification cut-off τ
  double backup_fp_rate = 0.1;  ///< backup filter sizing

  BloomOptions() {
    model.embed_dim = 2;
    model.phi_hidden = {8};
    model.rho_hidden = {8};
    train.loss = LossKind::kBce;
  }
};

/// \brief Learned set Bloom filter: classification DeepSets model plus a
/// backup Bloom filter holding the model's false negatives, so that — like
/// a classical Bloom filter — no trained positive is ever reported absent.
///
/// Thread safety: MayContain / MayContainMulti / Probability are safe from
/// concurrent reader threads and run in parallel: the model, backup filter
/// and threshold are read-only after Build/Load, model inference keeps its
/// activations in per-thread workspaces, and metrics are atomic.
class LearnedBloomFilter {
 public:
  /// Builds from a collection. Positives are all subsets up to
  /// `max_subset_size`; negatives are sampled element combinations rejected
  /// against `contains` (pass an InvertedIndex probe; nullptr builds one
  /// internally).
  static Result<LearnedBloomFilter> Build(
      const sets::SetCollection& collection, const BloomOptions& opts,
      const std::function<bool(sets::SetView)>* contains = nullptr);

  /// Membership verdict for sorted `q`: model probability >= τ, else the
  /// backup filter.
  bool MayContain(sets::SetView q);

  /// Same verdict as MayContain but records no `bloom.*` instruments or
  /// trace spans — the monitor's sampled negative probes (FPR estimation)
  /// go through here so synthetic audit traffic never distorts the serving
  /// metrics' exactly-once accounting.
  bool ProbeMayContain(sets::SetView q);

  /// Raw model probability.
  double Probability(sets::SetView q) { return model_->PredictOne(q); }

  /// Multi-membership querying (the paper's future-work direction): one
  /// batched model forward for many queries. verdicts[i] matches
  /// MayContain(queries[i]); `all`/`any` aggregate them.
  struct MultiResult {
    std::vector<bool> verdicts;
    bool all = true;
    bool any = false;
  };
  MultiResult MayContainMulti(const std::vector<sets::Query>& queries);

  deepsets::SetModel* model() { return model_.get(); }
  double threshold() const { return threshold_; }
  size_t num_false_negatives() const { return backup_.inserted(); }

  size_t ModelBytes() const { return model_->ByteSize(); }
  size_t BackupBytes() const { return backup_.MemoryBytes(); }
  size_t TotalBytes() const { return ModelBytes() + BackupBytes(); }

  double train_seconds() const { return train_seconds_; }

  /// Persists the classifier, threshold and backup filter.
  void Save(BinaryWriter* w) const;
  static Result<LearnedBloomFilter> Load(BinaryReader* r);

  /// Re-points serving-path instrumentation (`bloom.*` metrics) at
  /// `registry`; the default is MetricsRegistry::Global(). Must not be null.
  void SetMetricsRegistry(MetricsRegistry* registry);

 private:
  LearnedBloomFilter() : backup_(1, 0.1) {
    SetMetricsRegistry(MetricsRegistry::Global());
  }

  /// Per-query verdict outcomes are disjoint:
  /// learned_accepts + backup_hits + rejects + oov_rejects == queries.
  struct Instruments {
    Counter* queries = nullptr;          ///< bloom.queries
    Counter* learned_accepts = nullptr;  ///< bloom.learned_accepts
    Counter* backup_hits = nullptr;      ///< bloom.backup_hits
    Counter* rejects = nullptr;          ///< bloom.rejects
    Counter* oov_rejects = nullptr;      ///< bloom.oov_rejects
    Counter* batches = nullptr;          ///< bloom.query_batches
    Histogram* latency = nullptr;        ///< bloom.query_seconds
  };

  std::unique_ptr<deepsets::SetModel> model_;
  baselines::BloomFilter backup_;
  double threshold_ = 0.5;
  double train_seconds_ = 0.0;
  Instruments metrics_;
};

}  // namespace los::core

#endif  // LOS_CORE_LEARNED_BLOOM_H_
