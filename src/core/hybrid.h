#ifndef LOS_CORE_HYBRID_H_
#define LOS_CORE_HYBRID_H_

#include <optional>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "sets/set_collection.h"
#include "sets/set_hash.h"

namespace los::core {

/// \brief Per-range maximum absolute error bounds (§6, Algorithm 2).
///
/// A single global max error forces every lookup to scan the worst-case
/// radius; instead the prediction domain is cut into equally sized ranges of
/// length `range_length` and each range stores its own max |est - truth|.
/// The paper's example: RW-200k's global error 171853 drops to an average
/// local bound of 11901 at range length 100.
class LocalErrorBounds {
 public:
  LocalErrorBounds() = default;

  /// Builds bounds from matched (estimate, truth) pairs.
  static LocalErrorBounds Build(const std::vector<double>& estimates,
                                const std::vector<double>& truths,
                                double range_length);

  /// Local bound for a prediction (max error of its range). Estimates
  /// outside the observed domain get the neighbouring range's bound.
  double ErrorFor(double estimate) const;

  /// Max error across the whole domain (the non-local baseline).
  double GlobalMaxError() const;

  /// Mean of the per-range bounds (reported by the local-vs-global bench).
  double AverageError() const;

  size_t num_ranges() const { return errors_.size(); }
  double range_length() const { return range_length_; }

  /// Bytes of the stored error array ("Err." column of Table 7).
  size_t MemoryBytes() const { return errors_.size() * sizeof(double); }

  void Save(BinaryWriter* w) const;
  static Result<LocalErrorBounds> Load(BinaryReader* r);

 private:
  size_t RangeOf(double estimate) const;

  double min_val_ = 0.0;
  double range_length_ = 100.0;
  std::vector<double> errors_;
};

/// \brief Exact subset → value store used as the hybrid's auxiliary
/// structure for cardinality estimation (outliers evicted by guided
/// learning live here and are answered exactly).
class OutlierMap {
 public:
  void Put(sets::SetView subset, double value) {
    map_[sets::SetKey(subset)] = value;
  }

  std::optional<double> Get(sets::SetView subset) const {
    auto it = map_.find(subset);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  size_t size() const { return map_.size(); }

  /// Hash-map footprint ("Aux.Str." column of the memory tables).
  size_t MemoryBytes() const;

  void Save(BinaryWriter* w) const;
  static Result<OutlierMap> Load(BinaryReader* r);

 private:
  sets::SetKeyMap<double> map_;
};

}  // namespace los::core

#endif  // LOS_CORE_HYBRID_H_
