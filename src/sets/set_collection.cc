#include "sets/set_collection.h"

#include <algorithm>
#include <unordered_set>

namespace los::sets {

namespace {

// Bit (e & 63) set for each element e. If q ⊆ s, Signature(q) ⊆ Signature(s).
uint64_t Signature(SetView s) {
  uint64_t sig = 0;
  for (ElementId e : s) sig |= uint64_t{1} << (e & 63);
  return sig;
}

}  // namespace

bool IsSubsetSorted(SetView q, SetView s) {
  size_t i = 0, j = 0;
  while (i < q.size() && j < s.size()) {
    if (q[i] == s[j]) {
      ++i;
      ++j;
    } else if (q[i] > s[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == q.size();
}

bool IsSubmultisetSorted(SetView q, SetView s) {
  size_t i = 0, j = 0;
  while (i < q.size() && j < s.size()) {
    if (q[i] == s[j]) {
      ++i;
      ++j;
    } else if (q[i] > s[j]) {
      ++j;
    } else {
      return false;
    }
  }
  return i == q.size();
}

void Canonicalize(std::vector<ElementId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

size_t SetCollection::Add(std::vector<ElementId> elements) {
  Canonicalize(&elements);
  return AddSorted(std::move(elements));
}

size_t SetCollection::AddSorted(std::vector<ElementId> elements) {
  for (ElementId e : elements) {
    if (e + 1 > universe_size_) universe_size_ = e + 1;
  }
  elements_.insert(elements_.end(), elements.begin(), elements.end());
  offsets_.push_back(elements_.size());
  signatures_.push_back(Signature(elements));
  return size() - 1;
}

size_t SetCollection::CountDistinctElements() const {
  std::unordered_set<ElementId> distinct(elements_.begin(), elements_.end());
  return distinct.size();
}

std::pair<size_t, size_t> SetCollection::SetSizeRange() const {
  if (empty()) return {0, 0};
  size_t lo = set_size(0), hi = set_size(0);
  for (size_t i = 1; i < size(); ++i) {
    lo = std::min(lo, set_size(i));
    hi = std::max(hi, set_size(i));
  }
  return {lo, hi};
}

bool SetCollection::SetContainsSorted(size_t i, SetView q) const {
  return IsSubsetSorted(q, set(i));
}

int64_t SetCollection::FindFirstSuperset(SetView q, size_t begin,
                                         size_t end) const {
  end = std::min(end, size());
  const uint64_t qsig = Signature(q);
  for (size_t i = begin; i < end; ++i) {
    if ((signatures_[i] & qsig) != qsig) continue;
    if (IsSubsetSorted(q, set(i))) return static_cast<int64_t>(i);
  }
  return -1;
}

int64_t SetCollection::FindFirstEqual(SetView q, size_t begin,
                                      size_t end) const {
  end = std::min(end, size());
  const uint64_t qsig = Signature(q);
  for (size_t i = begin; i < end; ++i) {
    if (signatures_[i] != qsig) continue;
    SetView s = set(i);
    if (s.size() == q.size() && std::equal(s.begin(), s.end(), q.begin())) {
      return static_cast<int64_t>(i);
    }
  }
  return -1;
}

Status SetCollection::UpdateSet(size_t i, std::vector<ElementId> elements) {
  if (i >= size()) return Status::OutOfRange("set index out of range");
  Canonicalize(&elements);
  for (ElementId e : elements) {
    if (e + 1 > universe_size_) universe_size_ = e + 1;
  }
  const int64_t old_len = static_cast<int64_t>(offsets_[i + 1] - offsets_[i]);
  const int64_t new_len = static_cast<int64_t>(elements.size());
  const int64_t delta = new_len - old_len;
  std::vector<ElementId> rebuilt;
  rebuilt.reserve(elements_.size() + static_cast<size_t>(std::max<int64_t>(delta, 0)));
  rebuilt.insert(rebuilt.end(), elements_.begin(),
                 elements_.begin() + static_cast<int64_t>(offsets_[i]));
  rebuilt.insert(rebuilt.end(), elements.begin(), elements.end());
  rebuilt.insert(rebuilt.end(),
                 elements_.begin() + static_cast<int64_t>(offsets_[i + 1]),
                 elements_.end());
  elements_ = std::move(rebuilt);
  for (size_t k = i + 1; k < offsets_.size(); ++k) {
    offsets_[k] = static_cast<uint64_t>(static_cast<int64_t>(offsets_[k]) + delta);
  }
  signatures_[i] = Signature(elements);
  return Status::OK();
}

void SetCollection::Save(BinaryWriter* w) const {
  w->WriteVector(elements_);
  w->WriteVector(offsets_);
  w->WriteU32(universe_size_);
}

Result<SetCollection> SetCollection::Load(BinaryReader* r) {
  auto elems = r->ReadVector<ElementId>();
  if (!elems.ok()) return elems.status();
  auto offs = r->ReadVector<uint64_t>();
  if (!offs.ok()) return offs.status();
  auto uni = r->ReadU32();
  if (!uni.ok()) return uni.status();
  if (offs->empty() || offs->front() != 0 ||
      offs->back() != elems->size() ||
      !std::is_sorted(offs->begin(), offs->end())) {
    return Status::Internal("corrupt SetCollection offsets");
  }
  SetCollection c;
  c.elements_ = std::move(*elems);
  c.offsets_ = std::move(*offs);
  c.universe_size_ = *uni;
  c.signatures_.reserve(c.size());
  for (size_t i = 0; i < c.size(); ++i) {
    c.signatures_.push_back(Signature(c.set(i)));
  }
  return c;
}

}  // namespace los::sets
