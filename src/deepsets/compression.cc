#include "deepsets/compression.h"

#include <cmath>

namespace los::deepsets {

Result<ElementCompressor> ElementCompressor::Create(
    uint64_t max_value, int ns, uint64_t divisor_override) {
  if (ns < 1 || ns > kMaxNs) {
    return Status::InvalidArgument("ns must be in [1, 64]");
  }
  uint64_t divisor;
  if (ns == 1) {
    divisor = max_value + 1;  // identity: the single slot holds the element
  } else if (divisor_override != 0) {
    if (divisor_override < 2) {
      return Status::InvalidArgument("divisor must be >= 2");
    }
    divisor = divisor_override;
  } else {
    // ceil(max_value^(1/ns)), corrected for floating-point error.
    double root = std::pow(static_cast<double>(max_value),
                           1.0 / static_cast<double>(ns));
    divisor = static_cast<uint64_t>(std::ceil(root));
    while (divisor > 2 &&
           std::pow(static_cast<double>(divisor - 1),
                    static_cast<double>(ns)) >=
               static_cast<double>(max_value)) {
      --divisor;
    }
    if (divisor < 2) divisor = 2;
  }
  return ElementCompressor(max_value, ns, divisor);
}

uint64_t ElementCompressor::SlotVocab(int slot) const {
  if (ns_ == 1) return max_value_ + 1;
  if (slot < ns_ - 1) return divisor_;
  // Final quotient after dividing ns-1 times.
  uint64_t q = max_value_;
  for (int i = 0; i < ns_ - 1; ++i) q /= divisor_;
  return q + 1;
}

void ElementCompressor::CompressInto(uint64_t elem, uint32_t* out) const {
  // Algorithm 1: repeatedly divmod; remainders first, final quotient last.
  uint64_t cur = elem;
  for (int i = 0; i < ns_ - 1; ++i) {
    out[i] = static_cast<uint32_t>(cur % divisor_);
    cur /= divisor_;
  }
  out[ns_ - 1] = static_cast<uint32_t>(cur);
}

std::vector<uint32_t> ElementCompressor::Compress(uint64_t elem) const {
  std::vector<uint32_t> out(static_cast<size_t>(ns_));
  CompressInto(elem, out.data());
  return out;
}

uint64_t ElementCompressor::Decompress(const uint32_t* sub, int n) const {
  uint64_t value = sub[n - 1];
  for (int i = n - 2; i >= 0; --i) {
    value = value * divisor_ + sub[i];
  }
  return value;
}

uint64_t ElementCompressor::TotalVocab() const {
  uint64_t total = 0;
  for (int i = 0; i < ns_; ++i) total += SlotVocab(i);
  return total;
}

void ElementCompressor::Save(BinaryWriter* w) const {
  w->WriteU64(max_value_);
  w->WriteU32(static_cast<uint32_t>(ns_));
  w->WriteU64(divisor_);
}

Result<ElementCompressor> ElementCompressor::Load(BinaryReader* r) {
  auto mv = r->ReadU64();
  if (!mv.ok()) return mv.status();
  auto ns = r->ReadU32();
  if (!ns.ok()) return ns.status();
  auto d = r->ReadU64();
  if (!d.ok()) return d.status();
  if (*ns < 1 || *ns > static_cast<uint32_t>(kMaxNs)) {
    return Status::DataLoss("corrupt compressor ns");
  }
  if (*ns == 1 ? *d != *mv + 1 || *d == 0 : *d < 2) {
    return Status::DataLoss("corrupt compressor divisor");
  }
  return ElementCompressor(*mv, static_cast<int>(*ns), *d);
}

}  // namespace los::deepsets
