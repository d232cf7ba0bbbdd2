#include "baselines/hash_map_estimator.h"

namespace los::baselines {

HashMapEstimator::HashMapEstimator(const sets::LabeledSubsets& subsets) {
  map_.reserve(subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    Put(subsets.subset(i), static_cast<uint64_t>(subsets.cardinality(i)));
  }
}

HashMapEstimator::HashMapEstimator(const sets::SetCollection& collection,
                                   size_t max_subset_size) {
  sets::SubsetGenOptions opts;
  opts.max_subset_size = max_subset_size;
  sets::LabeledSubsets subsets = EnumerateLabeledSubsets(collection, opts);
  map_.reserve(subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    Put(subsets.subset(i), static_cast<uint64_t>(subsets.cardinality(i)));
  }
}

void HashMapEstimator::Put(sets::SetView subset, uint64_t count) {
  map_[sets::SetKey(subset)] = count;
}

uint64_t HashMapEstimator::Estimate(sets::SetView q) const {
  auto it = map_.find(q);
  return it == map_.end() ? 0 : it->second;
}

size_t HashMapEstimator::MemoryBytes() const {
  // Bucket array + one node per entry (libstdc++ node = hash + next ptr +
  // payload) + out-of-line key element storage.
  size_t bytes = map_.bucket_count() * sizeof(void*);
  for (const auto& [key, value] : map_) {
    bytes += sizeof(void*) + sizeof(size_t);  // node header
    bytes += key.MemoryBytes() + sizeof(value);
  }
  return bytes;
}

}  // namespace los::baselines
