#ifndef LOS_BASELINES_HASH_MAP_ESTIMATOR_H_
#define LOS_BASELINES_HASH_MAP_ESTIMATOR_H_

#include <cstdint>

#include "sets/set_collection.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"

namespace los::baselines {

/// \brief Exact subset-cardinality store — the paper's cardinality
/// competitor: "we create combinations of the elements in the sets and store
/// them in a HashMap" (§8.1.2).
///
/// Keys are canonical subsets (full element sequences, so lookups are
/// collision-proof); values are exact counts. Accuracy is always 1 at the
/// cost of an enormous memory footprint (Table 3's point).
class HashMapEstimator {
 public:
  HashMapEstimator() = default;

  /// Builds from pre-enumerated labelled subsets.
  explicit HashMapEstimator(const sets::LabeledSubsets& subsets);

  /// Builds by enumerating all subsets of `collection` up to
  /// `max_subset_size`.
  HashMapEstimator(const sets::SetCollection& collection,
                   size_t max_subset_size);

  /// Inserts/overwrites one subset count.
  void Put(sets::SetView subset, uint64_t count);

  /// Exact cardinality of `q` (sorted); 0 if never seen.
  uint64_t Estimate(sets::SetView q) const;

  size_t size() const { return map_.size(); }

  /// Hash-map footprint: buckets, node headers, and key payloads. This is
  /// what Table 3 reports for the competitor.
  size_t MemoryBytes() const;

 private:
  sets::SetKeyMap<uint64_t> map_;
};

}  // namespace los::baselines

#endif  // LOS_BASELINES_HASH_MAP_ESTIMATOR_H_
