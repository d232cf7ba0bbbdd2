#ifndef LOS_SETS_SET_HASH_H_
#define LOS_SETS_SET_HASH_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sets/set_collection.h"

namespace los::sets {

/// \brief Permutation-invariant 64-bit hash of a set.
///
/// §8.1.2: traditional competitors "either concatenate sorted elements and
/// hash them or use a permutation invariant hash function". We provide both:
/// `HashSetSorted` hashes the canonical sorted sequence (exact, used for
/// keys), and `CommutativeHash` combines per-element hashes with + so order
/// never matters (usable on unsorted input).
uint64_t HashSetSorted(SetView s);

/// Order-independent hash: sum of mixed per-element hashes.
uint64_t CommutativeHash(SetView s);

/// Strong per-element mix (splitmix64 finalizer); the building block of both
/// set hashes and of the Bloom filter's double hashing.
uint64_t MixElement(uint64_t x);

/// \brief Heterogeneous map key wrapping a canonical (sorted, distinct) set.
///
/// Used by exact stores (HashMapEstimator, outlier structures) so that hash
/// collisions cannot conflate different subsets — equality compares the
/// actual elements.
struct SetKey {
  std::vector<ElementId> elements;  // sorted, distinct

  SetKey() = default;
  explicit SetKey(SetView v) : elements(v.begin(), v.end()) {}
  explicit SetKey(std::vector<ElementId> v) : elements(std::move(v)) {}

  bool operator==(const SetKey& o) const { return elements == o.elements; }

  SetView view() const { return SetView(elements.data(), elements.size()); }

  size_t MemoryBytes() const {
    return sizeof(SetKey) + elements.capacity() * sizeof(ElementId);
  }
};

/// Hash functor for SetKey (sorted-sequence hash). Transparent: a SetView
/// hashes like the SetKey holding the same elements, so maps can be probed
/// with a view and no key is built.
struct SetKeyHash {
  using is_transparent = void;
  size_t operator()(SetView v) const {
    return static_cast<size_t>(HashSetSorted(v));
  }
  size_t operator()(const SetKey& k) const { return (*this)(k.view()); }
};

/// Element-wise equality of SetKeys and SetViews in any combination.
struct SetKeyEq {
  using is_transparent = void;
  bool operator()(SetView a, SetView b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  bool operator()(const SetKey& a, SetView b) const {
    return (*this)(a.view(), b);
  }
  bool operator()(SetView a, const SetKey& b) const {
    return (*this)(a, b.view());
  }
  bool operator()(const SetKey& a, const SetKey& b) const {
    return a.elements == b.elements;
  }
};

/// Canonical subset -> V map; `find(SetView)` allocates nothing.
template <typename V>
using SetKeyMap = std::unordered_map<SetKey, V, SetKeyHash, SetKeyEq>;

}  // namespace los::sets

#endif  // LOS_SETS_SET_HASH_H_
