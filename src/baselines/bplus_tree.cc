#include "baselines/bplus_tree.h"

#include <algorithm>
#include <cassert>

namespace los::baselines {

/// Node layout: leaves hold parallel keys/values arrays; internal nodes hold
/// separator keys and children (children.size() == keys.size() + 1).
struct BPlusTree::Node {
  bool is_leaf;
  std::vector<uint64_t> keys;
  std::vector<uint64_t> values;   // leaves only
  std::vector<Node*> children;    // internal only
  Node* next = nullptr;           // leaf chain

  explicit Node(bool leaf) : is_leaf(leaf) {}
};

/// Result of a recursive insert: if the child split, `separator` and
/// `new_node` describe the right half to add to the parent.
struct BPlusTree::SplitResult {
  bool split = false;
  uint64_t separator = 0;
  Node* new_node = nullptr;
};

BPlusTree::BPlusTree(size_t branching_factor)
    : branching_factor_(std::max<size_t>(branching_factor, 4)) {
  root_ = new Node(/*leaf=*/true);
}

BPlusTree::~BPlusTree() {
  if (root_ != nullptr) FreeRecursive(root_);
}

BPlusTree::BPlusTree(BPlusTree&& other) noexcept
    : branching_factor_(other.branching_factor_),
      root_(other.root_),
      size_(other.size_) {
  other.root_ = nullptr;
  other.size_ = 0;
}

BPlusTree& BPlusTree::operator=(BPlusTree&& other) noexcept {
  if (this != &other) {
    if (root_ != nullptr) FreeRecursive(root_);
    branching_factor_ = other.branching_factor_;
    root_ = other.root_;
    size_ = other.size_;
    other.root_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void BPlusTree::FreeRecursive(Node* node) {
  if (!node->is_leaf) {
    for (Node* c : node->children) FreeRecursive(c);
  }
  delete node;
}

void BPlusTree::Insert(uint64_t key, uint64_t value) {
  SplitResult res = InsertRecursive(root_, key, value);
  if (res.split) {
    Node* new_root = new Node(/*leaf=*/false);
    new_root->keys.push_back(res.separator);
    new_root->children.push_back(root_);
    new_root->children.push_back(res.new_node);
    root_ = new_root;
  }
  ++size_;
}

BPlusTree::SplitResult BPlusTree::InsertRecursive(Node* node, uint64_t key,
                                                  uint64_t value) {
  if (node->is_leaf) {
    // upper_bound keeps equal keys in insertion order (stable duplicates).
    auto it = std::upper_bound(node->keys.begin(), node->keys.end(), key);
    size_t pos = static_cast<size_t>(it - node->keys.begin());
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + static_cast<int64_t>(pos),
                        value);
    if (node->keys.size() <= branching_factor_) return {};
    // Split leaf: right half moves to a new node chained after this one.
    size_t mid = node->keys.size() / 2;
    Node* right = new Node(/*leaf=*/true);
    right->keys.assign(node->keys.begin() + static_cast<int64_t>(mid),
                       node->keys.end());
    right->values.assign(node->values.begin() + static_cast<int64_t>(mid),
                         node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    right->next = node->next;
    node->next = right;
    return {true, right->keys.front(), right};
  }
  // Internal: descend into the child whose range covers `key`.
  size_t idx = static_cast<size_t>(
      std::upper_bound(node->keys.begin(), node->keys.end(), key) -
      node->keys.begin());
  SplitResult child_split = InsertRecursive(node->children[idx], key, value);
  if (!child_split.split) return {};
  node->keys.insert(node->keys.begin() + static_cast<int64_t>(idx),
                    child_split.separator);
  node->children.insert(node->children.begin() + static_cast<int64_t>(idx) + 1,
                        child_split.new_node);
  if (node->keys.size() <= branching_factor_) return {};
  // Split internal node: middle key moves up.
  size_t mid = node->keys.size() / 2;
  uint64_t up_key = node->keys[mid];
  Node* right = new Node(/*leaf=*/false);
  right->keys.assign(node->keys.begin() + static_cast<int64_t>(mid) + 1,
                     node->keys.end());
  right->children.assign(node->children.begin() + static_cast<int64_t>(mid) + 1,
                         node->children.end());
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return {true, up_key, right};
}

const BPlusTree::Node* BPlusTree::LeftmostLeafFor(uint64_t key) const {
  // Descend via lower_bound so that equal keys split across a separator are
  // approached from the left; duplicates are then collected by walking the
  // leaf chain forward.
  const Node* node = root_;
  while (!node->is_leaf) {
    size_t idx = static_cast<size_t>(
        std::lower_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    node = node->children[idx];
  }
  return node;
}

void BPlusTree::Assign(uint64_t key, uint64_t value) {
  bool found = false;
  // Same walk as FindFirst; the tree owns its nodes, so writing through the
  // const descent is sound.
  for (Node* node = const_cast<Node*>(LeftmostLeafFor(key)); node != nullptr;
       node = node->next) {
    size_t i = static_cast<size_t>(
        std::lower_bound(node->keys.begin(), node->keys.end(), key) -
        node->keys.begin());
    for (; i < node->keys.size() && node->keys[i] == key; ++i) {
      node->values[i] = value;
      found = true;
    }
    if (i < node->keys.size()) break;  // past the key
  }
  if (!found) Insert(key, value);
}

std::optional<uint64_t> BPlusTree::FindFirst(uint64_t key) const {
  std::optional<uint64_t> best;
  for (const Node* node = LeftmostLeafFor(key); node != nullptr;
       node = node->next) {
    bool past_key = false;
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    for (size_t i = static_cast<size_t>(it - node->keys.begin());
         i < node->keys.size(); ++i) {
      if (node->keys[i] > key) {
        past_key = true;
        break;
      }
      if (!best || node->values[i] < *best) best = node->values[i];
    }
    if (past_key) break;
  }
  return best;
}

std::vector<uint64_t> BPlusTree::FindAll(uint64_t key) const {
  std::vector<uint64_t> out;
  for (const Node* node = LeftmostLeafFor(key); node != nullptr;
       node = node->next) {
    bool past_key = false;
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    for (size_t i = static_cast<size_t>(it - node->keys.begin());
         i < node->keys.size(); ++i) {
      if (node->keys[i] > key) {
        past_key = true;
        break;
      }
      out.push_back(node->values[i]);
    }
    if (past_key) break;
  }
  return out;
}

size_t BPlusTree::height() const {
  size_t h = 1;
  const Node* node = root_;
  while (!node->is_leaf) {
    node = node->children.front();
    ++h;
  }
  return h;
}

size_t BPlusTree::MemoryBytes() const { return MemoryRecursive(root_); }

size_t BPlusTree::MemoryRecursive(const Node* node) const {
  size_t bytes = sizeof(Node) + node->keys.capacity() * sizeof(uint64_t) +
                 node->values.capacity() * sizeof(uint64_t) +
                 node->children.capacity() * sizeof(Node*);
  if (!node->is_leaf) {
    for (const Node* c : node->children) bytes += MemoryRecursive(c);
  }
  return bytes;
}

size_t BPlusTree::LeafDepth() const {
  size_t d = 0;
  const Node* node = root_;
  while (!node->is_leaf) {
    node = node->children.front();
    ++d;
  }
  return d;
}

Status BPlusTree::CheckRecursive(const Node* node, size_t depth,
                                 size_t leaf_depth, bool is_root) const {
  if (!std::is_sorted(node->keys.begin(), node->keys.end())) {
    return Status::Internal("unsorted keys in node");
  }
  if (node->keys.size() > branching_factor_) {
    return Status::Internal("overfull node");
  }
  if (node->is_leaf) {
    if (depth != leaf_depth) return Status::Internal("uneven leaf depth");
    if (node->keys.size() != node->values.size()) {
      return Status::Internal("leaf key/value size mismatch");
    }
    return Status::OK();
  }
  if (node->children.size() != node->keys.size() + 1) {
    return Status::Internal("internal fanout mismatch");
  }
  if (!is_root && node->keys.empty()) {
    return Status::Internal("empty non-root internal node");
  }
  for (const Node* c : node->children) {
    LOS_RETURN_NOT_OK(CheckRecursive(c, depth + 1, leaf_depth, false));
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  return CheckRecursive(root_, 0, LeafDepth(), /*is_root=*/true);
}

void BPlusTree::Save(BinaryWriter* w) const {
  w->WriteU64(branching_factor_);
  w->WriteU64(size_);
  // Walk the leaf chain left to right.
  const Node* node = root_;
  while (!node->is_leaf) node = node->children.front();
  while (node != nullptr) {
    for (size_t i = 0; i < node->keys.size(); ++i) {
      w->WriteU64(node->keys[i]);
      w->WriteU64(node->values[i]);
    }
    node = node->next;
  }
}

Result<BPlusTree> BPlusTree::Load(BinaryReader* r) {
  auto bf = r->ReadU64();
  if (!bf.ok()) return bf.status();
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  BPlusTree tree(*bf);
  for (uint64_t i = 0; i < *n; ++i) {
    auto key = r->ReadU64();
    if (!key.ok()) return key.status();
    auto value = r->ReadU64();
    if (!value.ok()) return value.status();
    tree.Insert(*key, *value);
  }
  return tree;
}

}  // namespace los::baselines
