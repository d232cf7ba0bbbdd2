#ifndef LOS_CORE_LEARNED_INDEX_H_
#define LOS_CORE_LEARNED_INDEX_H_

#include <memory>

#include "baselines/bplus_tree.h"
#include "common/metrics.h"
#include "core/hybrid.h"
#include "core/model_factory.h"
#include "core/scaling.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::core {

/// Build options for the learned set index (§4.1 + §6).
struct IndexOptions {
  ModelOptions model;
  TrainConfig train;
  size_t max_subset_size = 4;  ///< the index must cover all query subsets
  bool hybrid = true;          ///< §8.3: "the hybrid option is a necessity"
  int guided_rounds = 2;
  double keep_fraction = 0.9;  ///< Table 5's percentile threshold
  double error_range_length = 100.0;  ///< local error bound granularity
  size_t aux_branching_factor = 100;  ///< outlier B+ tree fanout
  bool fallback_full_scan = false;  ///< scan everything if bounded scan misses
};

/// \brief Learned set index over an unordered collection (§4.1).
///
/// Maps a query subset to the *first* position i with q ⊆ S[i]. Querying
/// follows Algorithm 2: probe the auxiliary B+ tree (outliers evicted by
/// guided learning), else predict a position, look up the local error bound
/// e_r, and scan S[est - e_r .. est + e_r] left-to-right for the first
/// superset. The collection is referenced, not copied — it must outlive the
/// index.
///
/// Thread safety: Lookup / LookupEqual / LookupBatch / EstimatePosition are
/// safe from concurrent reader threads and run in parallel — the model, aux
/// B+ tree, error bounds, scaler and collection are read-only at serving
/// time, model inference keeps its activations in per-thread workspaces,
/// and metrics are atomic. The one
/// mutating entry point, AbsorbUpdatedSet, writes the aux tree and must not
/// run concurrently with readers.
class LearnedSetIndex {
 public:
  /// Per-lookup observability for benches/tests.
  struct LookupStats {
    bool aux_hit = false;
    int64_t estimate = -1;
    int64_t scan_width = 0;  ///< sets examined in the local scan
  };

  static Result<LearnedSetIndex> Build(const sets::SetCollection& collection,
                                       const IndexOptions& opts);

  /// First position whose set contains sorted `q`, or -1 if not found
  /// within the error bounds (untrained queries have no guarantee, §7).
  int64_t Lookup(sets::SetView q, LookupStats* stats = nullptr);

  /// Same answer (and LookupStats) as Lookup but records no `index.*`
  /// instruments or trace spans — the monitor's shadow re-executions go
  /// through here so sampled audit traffic never inflates the serving
  /// counters or the scan-width histogram.
  int64_t ProbeLookup(sets::SetView q, LookupStats* stats = nullptr);

  /// Equality-search mode (§4.1): first position whose set *equals* sorted
  /// `q`, or -1. Reuses the subset model's estimate and error bounds; since
  /// the bounds are fitted on first-superset labels, equality hits are
  /// guaranteed only when the equality position lies within the bounded
  /// window (enable `fallback_full_scan` for a hard guarantee).
  int64_t LookupEqual(sets::SetView q, LookupStats* stats = nullptr);

  /// Raw model estimate of q's first position (no scan, no aux probe).
  int64_t EstimatePosition(sets::SetView q);

  /// Batched Lookup: results[i] == Lookup(queries[i]). Auxiliary hits and
  /// out-of-vocabulary queries are resolved first; the remainder share
  /// batched model forwards (SetModel::PredictBatch) instead of one forward
  /// per query, which is how heavy query traffic should drive the index.
  std::vector<int64_t> LookupBatch(const std::vector<sets::Query>& queries);

  /// §7.2 update handling: after the caller updates set `position` in the
  /// collection (e.g. via SetCollection::UpdateSet), registers every subset
  /// of the new content whose bounded lookup would now miss, by inserting
  /// it into the auxiliary structure. The model is left untouched — "the
  /// auxiliary index, already containing the updated version, is queried
  /// first". Returns how many subsets were routed to the auxiliary
  /// structure. `max_subset_size` should match the build's bound.
  size_t AbsorbUpdatedSet(size_t position, size_t max_subset_size);

  /// Number of updates absorbed since the build; callers use this to decide
  /// when "the whole structure can be rebuilt".
  size_t updates_absorbed() const { return updates_absorbed_; }

  const TargetScaler& scaler() const { return scaler_; }
  const LocalErrorBounds& error_bounds() const { return bounds_; }
  deepsets::SetModel* model() { return model_.get(); }
  size_t num_outliers() const { return num_outliers_; }

  size_t ModelBytes() const { return model_->ByteSize(); }
  size_t AuxBytes() const { return aux_.MemoryBytes(); }
  size_t ErrBytes() const { return bounds_.MemoryBytes(); }
  size_t TotalBytes() const {
    return ModelBytes() + AuxBytes() + ErrBytes();
  }

  double train_seconds() const { return train_seconds_; }
  /// Average q-error on retained training subsets (Table 5's metric).
  double final_train_qerror() const { return final_train_qerror_; }
  /// Average |est - truth| on retained training subsets.
  double final_train_abs_error() const { return final_train_abs_error_; }

  /// Persists model, scaler, error bounds and the auxiliary B+ tree. Load
  /// rebinds to `collection`, which must be the collection the index was
  /// built over (positions must match).
  void Save(BinaryWriter* w) const;
  static Result<LearnedSetIndex> Load(BinaryReader* r,
                                      const sets::SetCollection& collection);

  /// Re-points serving-path instrumentation (`index.*` metrics) at
  /// `registry`; the default is MetricsRegistry::Global(). Must not be null.
  void SetMetricsRegistry(MetricsRegistry* registry);

 private:
  LearnedSetIndex() : aux_(100) {
    SetMetricsRegistry(MetricsRegistry::Global());
  }

  /// Cached instrument handles (resolution locks; observation does not).
  struct Instruments {
    Counter* lookups = nullptr;         ///< index.lookups
    Counter* aux_hits = nullptr;        ///< index.aux_hits
    Counter* oov_queries = nullptr;     ///< index.oov_queries
    Counter* misses = nullptr;          ///< index.misses
    Counter* fallback_scans = nullptr;  ///< index.fallback_scans
    Counter* batches = nullptr;         ///< index.lookup_batches
    Counter* absorbed = nullptr;        ///< index.subsets_absorbed
    Histogram* scan_width = nullptr;    ///< index.scan_width
    Histogram* latency = nullptr;       ///< index.lookup_seconds
  };

  /// Converts a scaled model output into a clamped position estimate.
  int64_t ClampEstimate(double scaled) const;

  /// Algorithm 2 lines 4-7: bounded local scan around `est` (plus optional
  /// full-scan fallback). Shared by Lookup and LookupBatch.
  int64_t ScanFromEstimate(sets::SetView q, int64_t est, LookupStats* stats);

  const sets::SetCollection* collection_ = nullptr;
  std::unique_ptr<deepsets::SetModel> model_;
  TargetScaler scaler_;
  LocalErrorBounds bounds_;
  baselines::BPlusTree aux_;  ///< set-hash -> first position
  size_t num_outliers_ = 0;
  size_t updates_absorbed_ = 0;
  bool fallback_full_scan_ = false;
  double train_seconds_ = 0.0;
  double final_train_qerror_ = 0.0;
  double final_train_abs_error_ = 0.0;
  Instruments metrics_;
};

}  // namespace los::core

#endif  // LOS_CORE_LEARNED_INDEX_H_
