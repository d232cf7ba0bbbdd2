#ifndef LOS_CORE_LEARNED_INDEX_H_
#define LOS_CORE_LEARNED_INDEX_H_

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
  bool fallback_full_scan = false;  ///< scan everything if bounded scan misses
};

/// \brief Learned set index over an unordered collection (§4.1).
///
/// Maps a query subset to the *first* position i with q ⊆ S[i]. Querying
/// follows Algorithm 2: probe the auxiliary set-hash table (IndexAux: the
/// outliers evicted by guided learning), else predict a position, look up
/// the local error bound e_r, and scan S[est - e_r .. est + e_r]
/// left-to-right for the first superset. The collection is referenced, not copied — it must outlive the
/// index.
///
/// Thread safety: Lookup / LookupEqual / LookupBatch / EstimatePosition are
/// safe from concurrent reader threads and run in parallel — the model, aux
/// table, error bounds, scaler and collection are read-only at serving
/// time, model inference keeps its activations in per-thread workspaces,
/// and metrics are atomic. The one mutating entry point, AbsorbUpdatedSet,
/// writes the aux overlay and must not run concurrently with readers of the
/// same index. BoundTo copies share the model and the aux base, both
/// immutable after Build.
class LearnedSetIndex {
 public:
  LearnedSetIndex(LearnedSetIndex&&) = default;
  LearnedSetIndex& operator=(LearnedSetIndex&&) = default;

  /// Per-lookup observability for benches/tests.
  struct LookupStats {
    bool aux_hit = false;
    int64_t estimate = -1;
    int64_t scan_width = 0;  ///< sets in the scan window(s)
    /// Sets the scan examined up to the answer: pos − lo + 1 on a window
    /// hit, the whole window on a miss (plus what a fallback scan
    /// examined), 0 on an aux hit. visited / (truth + 1) is the share of a
    /// scan from position 0 that the model's estimate still pays.
    int64_t visited = 0;
  };

  static Result<LearnedSetIndex> Build(const sets::SetCollection& collection,
                                       const IndexOptions& opts);

  /// First position whose set contains sorted `q`, or -1 if not found
  /// within the error bounds (untrained queries have no guarantee, §7).
  int64_t Lookup(sets::SetView q, LookupStats* stats = nullptr);

  /// Lookup's flow with silent instruments and every span suppressed: the
  /// same answer and LookupStats, but no `index.*` instrument or trace span
  /// records it. The monitor's shadow re-executions and AbsorbUpdatedSet go
  /// through here, so audit traffic never inflates the serving counters,
  /// the scan-width histogram or the traced forwards.
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
  /// The per-query LookupStats are not reported.
  std::vector<int64_t> LookupBatch(const std::vector<sets::Query>& queries);

  /// §7.2 update handling: after the caller updates set `position` in the
  /// collection (e.g. via SetCollection::UpdateSet), registers every subset
  /// of the new content whose bounded lookup would now miss, by writing it
  /// into the auxiliary structure. The model is left untouched — "the
  /// auxiliary index, already containing the updated version, is queried
  /// first". `old_content` is the set's content before the update: each of
  /// its subsets that the new content dropped, and whose first position was
  /// `position`, now first occurs later (or nowhere); where the bounded
  /// lookup no longer finds that exact position, the aux structure is made
  /// to answer it. Each write replaces every aux entry under the subset's
  /// hash (IndexAux::Assign). Returns how many subsets were written to the
  /// auxiliary structure. `max_subset_size` should match the build's bound.
  size_t AbsorbUpdatedSet(size_t position, size_t max_subset_size,
                          sets::SetView old_content);

  /// Subsets AbsorbUpdatedSet wrote to the aux structure since the build;
  /// callers use this to decide when "the whole structure can be rebuilt".
  size_t updates_absorbed() const { return updates_absorbed_; }

  const TargetScaler& scaler() const { return scaler_; }
  const LocalErrorBounds& error_bounds() const { return bounds_; }
  deepsets::SetModel* model() { return model_.get(); }
  size_t num_outliers() const { return num_outliers_; }
  const IndexAux& aux() const { return aux_; }

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

  /// A copy bound to `collection`, which must be position-compatible with
  /// this index's. It shares the trained model and the aux base and owns
  /// everything else (the aux overlay included), so AbsorbUpdatedSet on
  /// either side leaves the other unchanged.
  LearnedSetIndex BoundTo(const sets::SetCollection& collection) const;

  /// Persists model, scaler, error bounds and the auxiliary table. Load
  /// rebinds to `collection`, which must be the collection the index was
  /// built over (positions must match; an aux position past its end is
  /// DataLoss).
  void Save(BinaryWriter* w) const;
  static Result<LearnedSetIndex> Load(BinaryReader* r,
                                      const sets::SetCollection& collection);

  /// Re-points serving-path instrumentation (`index.*` metrics) at
  /// `registry`; the default is MetricsRegistry::Global(). Must not be null.
  void SetMetricsRegistry(MetricsRegistry* registry);

 private:
  LearnedSetIndex() {
    SetMetricsRegistry(MetricsRegistry::Global());
  }
  /// Private so that every copy goes through BoundTo and rebinds.
  LearnedSetIndex(const LearnedSetIndex&) = default;

  /// Cached instrument handles (resolution locks; observation does not).
  struct Instruments {
    Counter* lookups = nullptr;         ///< index.lookups
    Counter* aux_hits = nullptr;        ///< index.aux_hits
    Counter* oov_queries = nullptr;     ///< index.oov_queries
    Counter* misses = nullptr;          ///< index.misses
    Counter* fallback_scans = nullptr;  ///< index.fallback_scans
    Counter* batches = nullptr;         ///< index.lookup_batches
    Counter* absorbed = nullptr;        ///< index.subsets_absorbed
    Histogram* scan_width = nullptr;    ///< index.scan_width (sampled)
    /// index.scan_visited and index.scan_visited_from0 (sampled with
    /// scan_width, window hits only): the sets the scan examined up to its
    /// answer, pos − lo + 1, and those a scan from position 0 would have,
    /// pos + 1. 1 − visited / visited_from0 is what the estimate saves.
    Histogram* scan_visited = nullptr;
    Histogram* scan_visited_from0 = nullptr;
    Histogram* latency = nullptr;       ///< index.lookup_seconds (sampled)
    Histogram* batch_latency = nullptr;  ///< index.lookup_batch_seconds
  };
  static Instruments InstrumentsIn(MetricsRegistry* registry);
  /// Handles into SilentMetricsRegistry(), for ProbeLookup.
  static const Instruments& Silent();

  /// What a position must hold to answer q: a superset (Lookup) or q
  /// itself (LookupEqual). It picks the aux check and the scan kernel.
  enum class Match { kSuperset, kEqual };
  bool Matches(uint64_t position, sets::SetView q, Match match) const;
  /// First matching position in [lo, hi), or -1.
  int64_t FindFirst(sets::SetView q, Match match, int64_t lo,
                    int64_t hi) const;

  /// The single-query flow of Lookup, LookupEqual and ProbeLookup, which
  /// differ in `match`, the instruments and the query's span.
  int64_t LookupOne(sets::SetView q, Match match, LookupStats* stats,
                    const Instruments& m, TraceSpan& span);
  /// Pre-model step (Algorithm 2, lines 2-3): the verified aux answer, an
  /// out-of-vocabulary query's fallback answer, or std::nullopt to defer q
  /// to the model.
  std::optional<int64_t> PreModel(sets::SetView q, Match match,
                                  LookupStats* stats, const Instruments& m,
                                  TraceSpan& span) const;
  /// Post-model step (lines 4-7): the bounded scan around the score's
  /// position estimate, then the optional full-scan fallback.
  int64_t PostModel(sets::SetView q, Match match, double score,
                    LookupStats* stats, const Instruments& m) const;
  /// The optional full scan after a window miss or for an OOV query; adds
  /// its sets to `stats` (if any) and counts the miss if it finds nothing.
  int64_t Fallback(sets::SetView q, Match match, LookupStats* stats,
                   const Instruments& m) const;

  /// Converts a scaled model output into a clamped position estimate.
  int64_t ClampEstimate(double scaled) const;

  const sets::SetCollection* collection_ = nullptr;
  std::shared_ptr<deepsets::SetModel> model_;  ///< shared by BoundTo copies
  TargetScaler scaler_;
  LocalErrorBounds bounds_;
  IndexAux aux_;  ///< set-hash -> first position
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
