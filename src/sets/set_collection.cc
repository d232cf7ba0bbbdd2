#include "sets/set_collection.h"

#include <algorithm>
#include <bit>
#include <unordered_set>

namespace los::sets {

namespace {

constexpr size_t kSliceBlock = 64;  // Sets per block of signature slices.

// Slices ANDed by the unrolled step of every block: the 2·|q| bits of a
// query of up to three elements. A query with fewer bits repeats one of
// its slices (x & x == x); one with more ANDs the rest in a loop.
constexpr size_t kUnrolledSlices = 6;

// First position in [begin, end) whose signature holds every bit of `qsig`
// and that passes `hit`, or -1; `end` must not pass the collection. A
// block's candidate mask is the AND of the slices of qsig's bits, clipped to
// the window at its first and last block; candidates go to `hit` lowest bit
// first, so in position order. Plain 64-bit loads and ANDs, the same code on
// every ISA.
template <typename Hit>
int64_t ScanSlices(const uint64_t* slices, uint64_t qsig, size_t begin,
                   size_t end, Hit hit) {
  if (begin >= end) return -1;
  if (qsig == 0) {  // The empty query: every set is a candidate.
    for (size_t i = begin; i < end; ++i) {
      if (hit(i)) return static_cast<int64_t>(i);
    }
    return -1;
  }
  // s[k][64·w] is block w's slice of the query's k-th signature bit. Only
  // the entries below max(num_slices, kUnrolledSlices) are read, and each
  // is written first; zeroing all 64 cost ~5 ns per scan.
  const uint64_t* s[kSliceBlock];
  size_t num_slices = 0;
  for (; qsig != 0; qsig &= qsig - 1) {
    s[num_slices++] = slices + std::countr_zero(qsig);
  }
  for (size_t k = num_slices; k < kUnrolledSlices; ++k) s[k] = s[0];
  const size_t last = (end - 1) / kSliceBlock;
  uint64_t window = ~uint64_t{0} << (begin % kSliceBlock);
  for (size_t w = begin / kSliceBlock; w <= last; ++w) {
    if (w == last) window &= ~uint64_t{0} >> (63 - (end - 1) % kSliceBlock);
    const size_t at = w * kSliceBlock;
    uint64_t mask = window & s[0][at] & s[1][at] & s[2][at] & s[3][at] &
                    s[4][at] & s[5][at];
    for (size_t k = kUnrolledSlices; k < num_slices; ++k) mask &= s[k][at];
    for (; mask != 0; mask &= mask - 1) {
      const size_t i = at + static_cast<size_t>(std::countr_zero(mask));
      if (hit(i)) return static_cast<int64_t>(i);
    }
    window = ~uint64_t{0};
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
  StoreSignature(size() - 1, SetSignature(elements));
  return size() - 1;
}

void SetCollection::StoreSignature(size_t i, uint64_t sig) {
  const size_t block = i / kSliceBlock * kSliceBlock;
  if (block == slices_.size()) slices_.resize(block + kSliceBlock, 0);
  const size_t j = i % kSliceBlock;
  uint64_t* slice = slices_.data() + block;
  for (size_t b = 0; b < kSliceBlock; ++b) {
    slice[b] = (slice[b] & ~(uint64_t{1} << j)) | (((sig >> b) & 1) << j);
  }
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
  return ScanSlices(slices_.data(), SetSignature(q), begin,
                    std::min(end, size()),
                    [&](size_t i) { return IsSubsetSorted(q, set(i)); });
}

int64_t SetCollection::FindFirstEqual(SetView q, size_t begin,
                                      size_t end) const {
  return ScanSlices(slices_.data(), SetSignature(q), begin,
                    std::min(end, size()), [&](size_t i) {
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
  StoreSignature(i, SetSignature(elements));
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
  for (size_t i = 0; i < c.size(); ++i) {
    c.StoreSignature(i, SetSignature(c.set(i)));
  }
  return c;
}

}  // namespace los::sets
