#ifndef LOS_CORE_HYBRID_H_
#define LOS_CORE_HYBRID_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
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

/// \brief Sorted 64-bit set hashes under a one-level radix directory: a
/// read-only B+ tree with one inner level, in two flat arrays.
///
/// `dir_[b]` is the first row whose key's top bits are ≥ b; the table keeps
/// between n/2 and n buckets, so a probe reads two directory words and a
/// bucket of one or two keys. Rows are the caller's payload indices:
/// IndexAux and CardinalityAux keep dense payload arrays parallel to the
/// rows. Equal keys (set-hash collisions) are adjacent and share a bucket.
class SetHashTable {
 public:
  SetHashTable() : SetHashTable(std::vector<uint64_t>{}) {}
  /// `sorted_keys` ascending; duplicates allowed. At most 2^32 - 1 rows.
  explicit SetHashTable(std::vector<uint64_t> sorted_keys);

  /// Rows [first, second) holding `key`; an empty range when absent.
  std::pair<uint32_t, uint32_t> EqualRange(uint64_t key) const {
    const size_t b = static_cast<size_t>(key >> shift_);
    uint32_t lo = dir_[b];
    const uint32_t end = dir_[b + 1];
    while (lo < end && keys_[lo] < key) ++lo;
    uint32_t hi = lo;
    while (hi < end && keys_[hi] == key) ++hi;
    return {lo, hi};
  }

  uint64_t key(size_t row) const { return keys_[row]; }
  size_t size() const { return keys_.size(); }
  /// Keys plus directory; 0 for an empty table, like an empty hash map.
  size_t MemoryBytes() const;

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> dir_;  ///< 2^bits + 1 row offsets
  int shift_ = 63;             ///< 64 - bits, bits ≥ 1
};

/// \brief The learned index's auxiliary structure (§6, Algorithm 2): set
/// hash → first position of the outliers guided learning evicted.
///
/// The built entries form an immutable base (a SetHashTable plus a 32-bit
/// position per row) held in a `shared_ptr<const>`, so copies share it.
/// Assign writes a small sorted overlay that shadows every base row under
/// its key; a frozen index's overlay is empty and costs one size check per
/// probe, and a copy (an index generation's publish) copies only the
/// overlay. Hash collisions are not resolved here: the index verifies the
/// returned position against its collection.
class IndexAux {
 public:
  IndexAux();
  /// Builds the base from (set hash, position) entries. Equal keys keep
  /// their order, as the B+ tree's stable duplicates did.
  static IndexAux Build(std::vector<std::pair<uint64_t, uint32_t>> entries);

  /// Smallest position stored under `key` (the first occurrence), or the
  /// overlay's position if Assign wrote one.
  std::optional<uint64_t> FindFirst(uint64_t key) const {
    if (!overlay_.empty()) {
      const auto it = std::lower_bound(
          overlay_.begin(), overlay_.end(), key,
          [](const Entry& e, uint64_t k) { return e.key < k; });
      if (it != overlay_.end() && it->key == key) return it->position;
    }
    const auto [lo, hi] = base_->table.EqualRange(key);
    if (lo == hi) return std::nullopt;
    return *std::min_element(base_->positions.begin() + lo,
                             base_->positions.begin() + hi);
  }

  /// Makes `position` the only answer under `key`, shadowing the base.
  void Assign(uint64_t key, uint32_t position);

  /// Entries as Save writes them: base rows plus overlay-only keys.
  size_t size() const;
  size_t overlay_size() const { return overlay_.size(); }
  /// The shared base; copies of one index compare equal here.
  const void* base_identity() const { return base_.get(); }
  /// Base arrays plus the overlay ("Aux.Str." column of Table 7).
  size_t MemoryBytes() const;

  /// The byte format of `baselines::BPlusTree::Save`: a fanout word, the
  /// entry count, then (key, position) pairs sorted by key, overlay values
  /// written over every base row of their key. Load accepts any fanout
  /// and rejects positions ≥ `num_positions` (a collection's size), which
  /// a query would otherwise read past the collection.
  void Save(BinaryWriter* w) const;
  static Result<IndexAux> Load(BinaryReader* r, size_t num_positions);

 private:
  struct Base {
    SetHashTable table;
    std::vector<uint32_t> positions;  ///< per table row
  };
  struct Entry {
    uint64_t key;
    uint32_t position;
  };

  std::shared_ptr<const Base> base_;
  std::vector<Entry> overlay_;  ///< sorted by key, keys distinct
};

/// \brief The cardinality estimator's auxiliary structure (§6): exact
/// counts of the subsets guided learning evicted.
///
/// Rows of a SetHashTable keyed by each subset's `HashSetSorted`, with a
/// count per row and the subset's elements packed in one array behind
/// per-row offsets. Get verifies a hit element by element, so a hash
/// collision cannot answer another subset's count: answers are exact, not
/// probabilistic.
class CardinalityAux {
 public:
  struct Entry {
    sets::SetView subset;  ///< sorted, distinct elements
    uint32_t count;
  };

  /// Builds from distinct subsets; InvalidArgument if a subset is unsorted,
  /// repeats an element, or is given twice.
  static Result<CardinalityAux> Build(const std::vector<Entry>& entries);

  /// The count stored for sorted `q`, or std::nullopt.
  std::optional<double> Get(sets::SetView q) const {
    const auto [lo, hi] = table_.EqualRange(sets::HashSetSorted(q));
    for (uint32_t row = lo; row < hi; ++row) {
      const sets::SetView e = subset(row);
      if (std::equal(e.begin(), e.end(), q.begin(), q.end())) {
        return static_cast<double>(counts_[row]);
      }
    }
    return std::nullopt;
  }

  size_t size() const { return counts_.size(); }
  /// Table, counts, offsets and elements ("Aux.Str." of Table 3).
  size_t MemoryBytes() const;

  /// Format: entry count, then per entry the element vector and the count
  /// as a double (the format of the node-based map this table replaced, so
  /// its checkpoints load). Load rejects unsorted or repeated elements,
  /// repeated subsets, and counts that are not finite non-negative
  /// integers below 2^32.
  void Save(BinaryWriter* w) const;
  static Result<CardinalityAux> Load(BinaryReader* r);

 private:
  sets::SetView subset(uint32_t row) const {
    return sets::SetView(elements_.data() + offsets_[row],
                         offsets_[row + 1] - offsets_[row]);
  }

  SetHashTable table_;
  std::vector<uint32_t> counts_;  ///< per row
  /// Row r's elements are elements_[offsets_[r], offsets_[r + 1]).
  std::vector<uint32_t> offsets_{0};
  std::vector<sets::ElementId> elements_;
};

}  // namespace los::core

#endif  // LOS_CORE_HYBRID_H_
