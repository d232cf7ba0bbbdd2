#include "core/hybrid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace los::core {

LocalErrorBounds LocalErrorBounds::Build(const std::vector<double>& estimates,
                                         const std::vector<double>& truths,
                                         double range_length) {
  assert(estimates.size() == truths.size());
  LocalErrorBounds b;
  b.range_length_ = std::max(range_length, 1.0);
  if (estimates.empty()) {
    b.errors_.assign(1, 0.0);
    return b;
  }
  double lo = *std::min_element(estimates.begin(), estimates.end());
  double hi = *std::max_element(estimates.begin(), estimates.end());
  b.min_val_ = lo;
  size_t num_ranges =
      static_cast<size_t>((hi - lo) / b.range_length_) + 1;
  b.errors_.assign(num_ranges, 0.0);
  for (size_t i = 0; i < estimates.size(); ++i) {
    size_t r = b.RangeOf(estimates[i]);
    double err = std::abs(estimates[i] - truths[i]);
    b.errors_[r] = std::max(b.errors_[r], err);
  }
  return b;
}

size_t LocalErrorBounds::RangeOf(double estimate) const {
  if (errors_.empty()) return 0;
  double offset = (estimate - min_val_) / range_length_;
  if (offset < 0.0) return 0;
  size_t r = static_cast<size_t>(offset);
  return std::min(r, errors_.size() - 1);
}

double LocalErrorBounds::ErrorFor(double estimate) const {
  if (errors_.empty()) return 0.0;
  return errors_[RangeOf(estimate)];
}

double LocalErrorBounds::GlobalMaxError() const {
  double m = 0.0;
  for (double e : errors_) m = std::max(m, e);
  return m;
}

double LocalErrorBounds::AverageError() const {
  if (errors_.empty()) return 0.0;
  double s = 0.0;
  for (double e : errors_) s += e;
  return s / static_cast<double>(errors_.size());
}

void LocalErrorBounds::Save(BinaryWriter* w) const {
  w->WriteF64(min_val_);
  w->WriteF64(range_length_);
  w->WriteVector(errors_);
}

Result<LocalErrorBounds> LocalErrorBounds::Load(BinaryReader* r) {
  auto mv = r->ReadF64();
  if (!mv.ok()) return mv.status();
  auto rl = r->ReadF64();
  if (!rl.ok()) return rl.status();
  auto errs = r->ReadVector<double>();
  if (!errs.ok()) return errs.status();
  // Validate before accepting: RangeOf divides by range_length_, and the
  // errors widen scan windows, so corrupted bytes here silently produce
  // garbage lookups instead of a load failure.
  if (!std::isfinite(*mv) || !std::isfinite(*rl)) {
    return Status::DataLoss("non-finite LocalErrorBounds header");
  }
  if (*rl < 1.0) {
    return Status::DataLoss("LocalErrorBounds range_length < 1");
  }
  for (double e : *errs) {
    if (!std::isfinite(e) || e < 0.0) {
      return Status::DataLoss("corrupted LocalErrorBounds error entry");
    }
  }
  LocalErrorBounds b;
  b.min_val_ = *mv;
  b.range_length_ = *rl;
  b.errors_ = std::move(*errs);
  return b;
}

SetHashTable::SetHashTable(std::vector<uint64_t> sorted_keys)
    : keys_(std::move(sorted_keys)) {
  assert(std::is_sorted(keys_.begin(), keys_.end()));
  assert(keys_.size() < std::numeric_limits<uint32_t>::max());
  // 2^bits buckets with 2^bits ≤ n < 2^(bits + 1): n/2 to n buckets.
  int bits = 1;
  while (bits < 32 && (size_t{1} << (bits + 1)) <= keys_.size()) ++bits;
  shift_ = 64 - bits;
  const size_t buckets = size_t{1} << bits;
  dir_.resize(buckets + 1);
  size_t row = 0;
  for (size_t b = 0; b <= buckets; ++b) {
    while (row < keys_.size() && (keys_[row] >> shift_) < b) ++row;
    dir_[b] = static_cast<uint32_t>(row);
  }
}

size_t SetHashTable::MemoryBytes() const {
  if (keys_.empty()) return 0;
  return keys_.capacity() * sizeof(uint64_t) +
         dir_.capacity() * sizeof(uint32_t);
}

namespace {

// The fanout word BPlusTree::Save wrote ahead of its entries; kept so the
// index's checkpoints stay byte-identical.
constexpr uint64_t kIndexAuxFanout = 100;

}  // namespace

IndexAux::IndexAux() : base_(std::make_shared<const Base>()) {}

IndexAux IndexAux::Build(std::vector<std::pair<uint64_t, uint32_t>> entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<uint64_t> keys(entries.size());
  auto base = std::make_shared<Base>();
  base->positions.resize(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    keys[i] = entries[i].first;
    base->positions[i] = entries[i].second;
  }
  base->table = SetHashTable(std::move(keys));
  IndexAux aux;
  aux.base_ = std::move(base);
  return aux;
}

void IndexAux::Assign(uint64_t key, uint32_t position) {
  const auto it = std::lower_bound(
      overlay_.begin(), overlay_.end(), key,
      [](const Entry& e, uint64_t k) { return e.key < k; });
  if (it != overlay_.end() && it->key == key) {
    it->position = position;
  } else {
    overlay_.insert(it, {key, position});
  }
}

size_t IndexAux::size() const {
  size_t n = base_->table.size();
  for (const Entry& e : overlay_) {
    const auto [lo, hi] = base_->table.EqualRange(e.key);
    if (lo == hi) ++n;
  }
  return n;
}

size_t IndexAux::MemoryBytes() const {
  return base_->table.MemoryBytes() +
         base_->positions.capacity() * sizeof(uint32_t) +
         overlay_.capacity() * sizeof(Entry);
}

void IndexAux::Save(BinaryWriter* w) const {
  w->WriteU64(kIndexAuxFanout);
  w->WriteU64(size());
  const SetHashTable& table = base_->table;
  size_t row = 0;
  for (const Entry& e : overlay_) {
    for (; row < table.size() && table.key(row) < e.key; ++row) {
      w->WriteU64(table.key(row));
      w->WriteU64(base_->positions[row]);
    }
    bool shadowed = false;
    for (; row < table.size() && table.key(row) == e.key; ++row) {
      w->WriteU64(e.key);
      w->WriteU64(e.position);
      shadowed = true;
    }
    if (!shadowed) {
      w->WriteU64(e.key);
      w->WriteU64(e.position);
    }
  }
  for (; row < table.size(); ++row) {
    w->WriteU64(table.key(row));
    w->WriteU64(base_->positions[row]);
  }
}

Result<IndexAux> IndexAux::Load(BinaryReader* r, size_t num_positions) {
  auto fanout = r->ReadU64();
  if (!fanout.ok()) return fanout.status();
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  if (*n > r->remaining() / (2 * sizeof(uint64_t))) {
    return Status::OutOfRange("truncated index aux entries");
  }
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  entries.reserve(static_cast<size_t>(*n));
  for (uint64_t i = 0; i < *n; ++i) {
    auto key = r->ReadU64();
    if (!key.ok()) return key.status();
    auto position = r->ReadU64();
    if (!position.ok()) return position.status();
    if (*position >= num_positions) {
      return Status::DataLoss("index aux position past the collection");
    }
    entries.emplace_back(*key, static_cast<uint32_t>(*position));
  }
  return Build(std::move(entries));
}

Result<CardinalityAux> CardinalityAux::Build(
    const std::vector<Entry>& entries) {
  size_t num_elements = 0;
  for (const Entry& e : entries) {
    if (std::adjacent_find(e.subset.begin(), e.subset.end(),
                           std::greater_equal<>()) != e.subset.end()) {
      return Status::InvalidArgument(
          "cardinality aux subset is unsorted or repeats an element");
    }
    num_elements += e.subset.size();
  }
  if (entries.size() >= std::numeric_limits<uint32_t>::max() ||
      num_elements >= std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("cardinality aux exceeds 2^32 entries");
  }
  std::vector<std::pair<uint64_t, uint32_t>> order(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    order[i] = {sets::HashSetSorted(entries[i].subset),
                static_cast<uint32_t>(i)};
  }
  // By hash, then by elements, so equal subsets end up adjacent and the
  // row order does not depend on the input order.
  const auto less = [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    const sets::SetView x = entries[a.second].subset;
    const sets::SetView y = entries[b.second].subset;
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  };
  std::sort(order.begin(), order.end(), less);
  std::vector<uint64_t> keys(order.size());
  std::vector<uint32_t> counts(order.size());
  std::vector<uint32_t> offsets(order.size() + 1, 0);
  std::vector<sets::ElementId> elements;
  elements.reserve(num_elements);
  for (size_t row = 0; row < order.size(); ++row) {
    if (row > 0 && !less(order[row - 1], order[row])) {
      return Status::InvalidArgument("cardinality aux repeats a subset");
    }
    const Entry& e = entries[order[row].second];
    keys[row] = order[row].first;
    counts[row] = e.count;
    elements.insert(elements.end(), e.subset.begin(), e.subset.end());
    offsets[row + 1] = static_cast<uint32_t>(elements.size());
  }
  CardinalityAux aux;
  aux.table_ = SetHashTable(std::move(keys));
  aux.counts_ = std::move(counts);
  aux.offsets_ = std::move(offsets);
  aux.elements_ = std::move(elements);
  return aux;
}

size_t CardinalityAux::MemoryBytes() const {
  if (counts_.empty()) return 0;
  return table_.MemoryBytes() + counts_.capacity() * sizeof(uint32_t) +
         offsets_.capacity() * sizeof(uint32_t) +
         elements_.capacity() * sizeof(sets::ElementId);
}

void CardinalityAux::Save(BinaryWriter* w) const {
  w->WriteU64(counts_.size());
  for (uint32_t row = 0; row < counts_.size(); ++row) {
    const sets::SetView e = subset(row);
    w->WriteVector(std::vector<sets::ElementId>(e.begin(), e.end()));
    w->WriteF64(static_cast<double>(counts_[row]));
  }
}

Result<CardinalityAux> CardinalityAux::Load(BinaryReader* r) {
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  // Each entry holds at least an element count and a value.
  if (*n > r->remaining() / (2 * sizeof(uint64_t))) {
    return Status::OutOfRange("truncated cardinality aux entries");
  }
  std::vector<std::vector<sets::ElementId>> subsets;
  std::vector<uint32_t> counts;
  subsets.reserve(static_cast<size_t>(*n));
  counts.reserve(static_cast<size_t>(*n));
  for (uint64_t i = 0; i < *n; ++i) {
    auto elems = r->ReadVector<sets::ElementId>();
    if (!elems.ok()) return elems.status();
    auto value = r->ReadF64();
    if (!value.ok()) return value.status();
    const double v = *value;
    if (!std::isfinite(v) || v < 0.0 || v != std::floor(v) ||
        v > static_cast<double>(std::numeric_limits<uint32_t>::max())) {
      return Status::DataLoss("cardinality aux count is not a count");
    }
    subsets.push_back(std::move(*elems));
    counts.push_back(static_cast<uint32_t>(v));
  }
  std::vector<Entry> entries(subsets.size());
  for (size_t i = 0; i < subsets.size(); ++i) {
    entries[i] = {sets::SetView(subsets[i]), counts[i]};
  }
  auto aux = Build(entries);
  if (!aux.ok()) return Status::DataLoss(aux.status().message());
  return aux;
}

}  // namespace los::core
