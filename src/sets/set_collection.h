#ifndef LOS_SETS_SET_COLLECTION_H_
#define LOS_SETS_SET_COLLECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace los::sets {

/// Element identifier. Elements of the universe are dense integer ids, the
/// representation the paper's compression step requires ("the elements of
/// the sets need to be represented as integer values").
using ElementId = uint32_t;

/// Non-owning view over one set's sorted, distinct elements.
using SetView = std::span<const ElementId>;

/// \brief The collection S = [X_1, ..., X_N] from the problem statement.
///
/// Sets are stored CSR-style (one flat element array plus offsets), sorted
/// and de-duplicated per set. The collection order is meaningful — it is the
/// target of the indexing task — and may contain duplicate sets.
class SetCollection {
 public:
  SetCollection() : offsets_{0} {}

  /// Appends a set; elements are sorted and de-duplicated (each X_i contains
  /// no duplicate elements, per the problem statement). Returns the position
  /// of the new set.
  size_t Add(std::vector<ElementId> elements);

  /// Appends a set already known to be sorted + distinct (no checks).
  size_t AddSorted(std::vector<ElementId> elements);

  /// Number of sets N.
  size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// View of set `i`.
  SetView set(size_t i) const {
    return SetView(elements_.data() + offsets_[i],
                   offsets_[i + 1] - offsets_[i]);
  }

  size_t set_size(size_t i) const { return offsets_[i + 1] - offsets_[i]; }

  /// Total elements across all sets.
  size_t total_elements() const { return elements_.size(); }

  /// Largest element id present plus one (0 for empty collections) —
  /// the vocabulary size for embeddings and the compressor's max value.
  ElementId universe_size() const { return universe_size_; }

  /// Number of *distinct* element ids present (Table 2's "Uniq. Elem.").
  size_t CountDistinctElements() const;

  /// Min and max set size over the collection ({0,0} when empty).
  std::pair<size_t, size_t> SetSizeRange() const;

  /// True iff q ⊆ set(i). `q` must be sorted.
  bool SetContainsSorted(size_t i, SetView q) const;

  /// First position in [begin, end) whose set is a superset of sorted `q`,
  /// or -1. This is the hybrid index's bounded local scan. Every set keeps a
  /// 64-bit element signature, bit (e & 63) set for each element e; a
  /// candidate whose signature lacks a bit of the query's cannot contain the
  /// query and is skipped. The others go through the merge check in position
  /// order, so the answer is exact.
  int64_t FindFirstSuperset(SetView q, size_t begin, size_t end) const;

  /// First position in [begin, end) whose set *equals* sorted `q`, or -1
  /// (the equality-search mode of §4.1). Candidates whose signature differs
  /// from the query's are skipped before the element comparison.
  int64_t FindFirstEqual(SetView q, size_t begin, size_t end) const;

  /// Replaces set `i` with new contents (used by the update-handling path,
  /// §7.2). The new set is sorted/deduped. Sizes may differ; storage is
  /// rewritten, so this is O(total elements) — updates are expected to be
  /// batched.
  Status UpdateSet(size_t i, std::vector<ElementId> elements);

  /// Approximate heap footprint in bytes: elements, offsets and one 8-byte
  /// signature per set.
  size_t MemoryBytes() const {
    return elements_.size() * sizeof(ElementId) +
           offsets_.size() * sizeof(uint64_t) +
           signatures_.size() * sizeof(uint64_t);
  }

  /// Signatures are not serialized; Load derives them from the elements.
  void Save(BinaryWriter* w) const;
  static Result<SetCollection> Load(BinaryReader* r);

 private:
  std::vector<ElementId> elements_;
  std::vector<uint64_t> offsets_;
  std::vector<uint64_t> signatures_;  // Element signature of each set.
  ElementId universe_size_ = 0;
};

/// True iff sorted `q` is a subset of sorted `s` (merge scan).
bool IsSubsetSorted(SetView q, SetView s);

/// True iff sorted multiset `q` is a sub-multiset of sorted multiset `s`
/// (each element's multiplicity in q must not exceed its multiplicity in
/// s). Groundwork for the paper's future-work multi-set querying; the
/// DeepSets models already consume repeated ids natively (sum pooling
/// counts multiplicity).
bool IsSubmultisetSorted(SetView q, SetView s);

/// Sorts + dedups `v` in place, producing the canonical set representation.
void Canonicalize(std::vector<ElementId>* v);

}  // namespace los::sets

#endif  // LOS_SETS_SET_COLLECTION_H_
