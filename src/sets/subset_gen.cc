#include "sets/subset_gen.h"

#include <algorithm>
#include <limits>

#include "sets/set_hash.h"

namespace los::sets {

void LabeledSubsets::Append(SetView subset, double cardinality,
                            double first_position) {
  elements_.insert(elements_.end(), subset.begin(), subset.end());
  offsets_.push_back(elements_.size());
  cardinality_.push_back(cardinality);
  first_position_.push_back(first_position);
}

double LabeledSubsets::MaxCardinality() const {
  double m = 0.0;
  for (double c : cardinality_) m = std::max(m, c);
  return m;
}

double LabeledSubsets::MaxFirstPosition() const {
  double m = 0.0;
  for (double p : first_position_) m = std::max(m, p);
  return m;
}

void ForEachSubset(SetView s, size_t max_size,
                   const std::function<void(SetView)>& fn) {
  const size_t n = s.size();
  max_size = std::min(max_size, n);
  std::vector<ElementId> buf;
  buf.reserve(max_size);
  // Iterative combinations per target size k, via index vector.
  std::vector<size_t> idx;
  for (size_t k = 1; k <= max_size; ++k) {
    idx.resize(k);
    for (size_t i = 0; i < k; ++i) idx[i] = i;
    bool more = true;
    while (more) {
      buf.clear();
      for (size_t i = 0; i < k; ++i) buf.push_back(s[idx[i]]);
      fn(SetView(buf.data(), buf.size()));
      // Advance to the next combination; stop when idx is exhausted.
      more = false;
      size_t i = k;
      while (i-- > 0) {
        if (idx[i] + (k - i) < n) {
          ++idx[i];
          for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
          more = true;
          break;
        }
      }
    }
  }
}

size_t CountSubsets(size_t n, size_t max_size) {
  size_t total = 0;
  max_size = std::min(max_size, n);
  for (size_t k = 1; k <= max_size; ++k) {
    // C(n, k) with overflow saturation.
    size_t c = 1;
    for (size_t i = 0; i < k; ++i) {
      size_t num = n - i;
      if (c > std::numeric_limits<size_t>::max() / num) {
        return std::numeric_limits<size_t>::max();
      }
      c = c * num / (i + 1);
    }
    if (total > std::numeric_limits<size_t>::max() - c) {
      return std::numeric_limits<size_t>::max();
    }
    total += c;
  }
  return total;
}

LabeledSubsets EnumerateLabeledSubsets(const SetCollection& collection,
                                       const SubsetGenOptions& options) {
  struct Labels {
    uint64_t count = 0;
    uint64_t first_pos = 0;
  };
  SetKeyMap<Labels> map;
  const size_t cap = options.max_distinct_subsets;
  for (size_t i = 0; i < collection.size(); ++i) {
    ForEachSubset(collection.set(i), options.max_subset_size,
                  [&](SetView sub) {
                    auto it = map.find(sub);
                    if (it == map.end()) {
                      if (cap != 0 && map.size() >= cap) return;
                      map.emplace(SetKey(sub), Labels{1, i});
                    } else {
                      // Sets are visited in position order, so the first
                      // insertion already recorded the first position.
                      ++it->second.count;
                    }
                  });
  }
  LabeledSubsets out;
  for (const auto& [key, labels] : map) {
    out.Append(key.view(), static_cast<double>(labels.count),
               static_cast<double>(labels.first_pos));
  }
  return out;
}

}  // namespace los::sets
