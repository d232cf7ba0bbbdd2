#include "sets/set_collection.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace los::sets {

namespace {

// Sets per block of the signature scan. 32 keeps a block's candidate mask in
// one uint32_t and a window of ~2,000 sets at ~60 blocks.
constexpr size_t kScanBlock = 32;

// Bit 63 is set iff t == 0. Plain 64-bit subtract, and-not and shift, so a
// block of these vectorizes on SSE2, which has no 64-bit lane compare.
inline uint64_t ZeroTopBit(uint64_t t) { return (t - 1) & ~t; }

// First position in [begin, end) that passes the signature test and `hit`,
// or -1. `miss(sig)` is zero exactly for the signatures that may hold the
// answer. Each full block is first OR-reduced to one "any candidate" word;
// only a block with a candidate builds its mask and merge-checks the
// candidates in position order. The tail runs the same test per set.
template <typename Miss, typename Hit>
int64_t ScanSignatures(const uint64_t* sigs, size_t begin, size_t end,
                       Miss miss, Hit hit) {
  size_t i = begin;
  for (; i < end && end - i >= kScanBlock; i += kScanBlock) {
    const uint64_t* block = sigs + i;
    uint64_t any = 0;
    for (size_t j = 0; j < kScanBlock; ++j) any |= ZeroTopBit(miss(block[j]));
    if ((any >> 63) == 0) continue;
    uint32_t mask = 0;
    for (size_t j = 0; j < kScanBlock; ++j) {
      mask |= static_cast<uint32_t>(ZeroTopBit(miss(block[j])) >> 63) << j;
    }
    for (; mask != 0; mask &= mask - 1) {
      const size_t k = i + static_cast<size_t>(std::countr_zero(mask));
      if (hit(k)) return static_cast<int64_t>(k);
    }
  }
  for (; i < end; ++i) {
    if (miss(sigs[i]) == 0 && hit(i)) return static_cast<int64_t>(i);
  }
  return -1;
}

}  // namespace

uint64_t SetSignature(SetView s) {
  uint64_t sig = 0;
  for (ElementId e : s) {
    const uint64_t hashed = (uint64_t{e} * 0x9E3779B97F4A7C15ull) >> 58;
    sig |= (uint64_t{1} << (e & 63)) | (uint64_t{1} << hashed);
  }
  return sig;
}

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
  // The merge already consumes one element of s per matched element of q,
  // so on sorted multisets it compares multiplicities.
  return IsSubsetSorted(q, s);
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
  signatures_.push_back(SetSignature(elements));
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
  const uint64_t qsig = SetSignature(q);
  return ScanSignatures(
      signatures_.data(), begin, std::min(end, size()),
      [qsig](uint64_t sig) { return qsig & ~sig; },
      [&](size_t i) { return IsSubsetSorted(q, set(i)); });
}

int64_t SetCollection::FindFirstEqual(SetView q, size_t begin,
                                      size_t end) const {
  const uint64_t qsig = SetSignature(q);
  return ScanSignatures(
      signatures_.data(), begin, std::min(end, size()),
      [qsig](uint64_t sig) { return qsig ^ sig; },
      [&](size_t i) {
        SetView s = set(i);
        return s.size() == q.size() &&
               std::equal(s.begin(), s.end(), q.begin());
      });
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
  signatures_[i] = SetSignature(elements);
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
    c.signatures_.push_back(SetSignature(c.set(i)));
  }
  return c;
}

}  // namespace los::sets
