#ifndef LOS_BASELINES_BPLUS_TREE_H_
#define LOS_BASELINES_BPLUS_TREE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace los::baselines {

/// \brief In-memory B+ tree over 64-bit keys with duplicate-key support.
///
/// The paper's set-index competitor (§8.1.2): "a B+ Tree, where as a key we
/// use a hash function over the set also allowing duplicate keys". Values
/// are 64-bit payloads (collection positions). Leaves are chained for range
/// iteration; `branching_factor` is the max keys per node (paper uses 100).
class BPlusTree {
 public:
  explicit BPlusTree(size_t branching_factor = 100);
  ~BPlusTree();

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;
  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;

  /// Inserts a key/value pair; duplicates of `key` are kept.
  void Insert(uint64_t key, uint64_t value);

  /// Makes `value` the only value stored under `key`: every existing entry
  /// under `key` is overwritten in place, or one entry is inserted if there
  /// is none. Unlike Insert, a new value can therefore replace a smaller,
  /// stale one that FindFirst would otherwise keep returning.
  void Assign(uint64_t key, uint64_t value);

  /// Smallest value stored under `key`, if any. With position payloads this
  /// is the *first* occurrence, matching the index task's semantics.
  std::optional<uint64_t> FindFirst(uint64_t key) const;

  /// All values stored under `key` (ascending insertion into leaves keeps
  /// them sorted by value for our usage pattern; order is not guaranteed in
  /// general).
  std::vector<uint64_t> FindAll(uint64_t key) const;

  /// True iff at least one entry with `key` exists.
  bool Contains(uint64_t key) const { return FindFirst(key).has_value(); }

  /// Number of stored entries.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree (1 = just a leaf).
  size_t height() const;

  /// Total bytes of all nodes (keys, values, child pointers, headers) —
  /// what Table 7 reports for the competitor.
  size_t MemoryBytes() const;

  /// Validates B+ tree invariants (sortedness, fill, uniform leaf depth).
  /// Exposed for tests.
  Status CheckInvariants() const;

  /// Serializes as a sorted (key, value) entry list; Load re-bulk-inserts.
  void Save(BinaryWriter* w) const;
  static Result<BPlusTree> Load(BinaryReader* r);

 private:
  struct Node;
  struct SplitResult;

  SplitResult InsertRecursive(Node* node, uint64_t key, uint64_t value);
  const Node* LeftmostLeafFor(uint64_t key) const;
  void FreeRecursive(Node* node);
  size_t MemoryRecursive(const Node* node) const;
  Status CheckRecursive(const Node* node, size_t depth, size_t leaf_depth,
                        bool is_root) const;
  size_t LeafDepth() const;

  size_t branching_factor_;
  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace los::baselines

#endif  // LOS_BASELINES_BPLUS_TREE_H_
