#ifndef LOS_DEEPSETS_COMPRESSION_H_
#define LOS_DEEPSETS_COMPRESSION_H_

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace los::deepsets {

/// \brief Lossless per-element compression (Algorithm 1 of the paper,
/// adopted from LMKG).
///
/// An element id `x` is decomposed into `ns` sub-elements by repeated
/// div/mod with divisor `sv_d`:
///   ns=2: x -> (r, q) with q = x / sv_d, r = x % sv_d.
/// The optimal divisor is ceil(max_value^(1/ns)), shrinking the embedding
/// vocabulary from `max_value+1` to ~ns tables of ~max_value^(1/ns) rows
/// each. `sv_d` is tunable (Table 6): any value between the optimum and
/// "no compression" trades memory for accuracy.
class ElementCompressor {
 public:
  static constexpr int kMaxNs = 64;

  /// \param max_value largest element id that will be compressed
  /// \param ns number of sub-elements (1..kMaxNs; 1 means identity)
  /// \param divisor_override non-zero to tune sv_d manually (Table 6);
  ///        0 picks the optimal ceil(max_value^(1/ns))
  static Result<ElementCompressor> Create(uint64_t max_value, int ns,
                                          uint64_t divisor_override = 0);

  /// Number of sub-elements per element.
  int ns() const { return ns_; }

  /// The divisor sv_d.
  uint64_t divisor() const { return divisor_; }

  uint64_t max_value() const { return max_value_; }

  /// Vocabulary size of sub-element slot `slot` in [0, ns). Slots 0..ns-2
  /// are remainders (vocab = sv_d); slot ns-1 is the final quotient
  /// (vocab = max_value / sv_d^(ns-1) + 1).
  uint64_t SlotVocab(int slot) const;

  /// Writes the ns sub-elements of `elem` into out[0..ns). Layout:
  /// out[i] = i-th remainder for i < ns-1; out[ns-1] = final quotient.
  void CompressInto(uint64_t elem, uint32_t* out) const;

  /// Convenience wrapper returning a fresh vector.
  std::vector<uint32_t> Compress(uint64_t elem) const;

  /// Inverse of Compress — the compression is lossless.
  uint64_t Decompress(const uint32_t* sub, int n) const;

  /// Sum of all slot vocabularies — the total embedding-table rows the
  /// compressed model needs (Figure 8's "input dimensions").
  uint64_t TotalVocab() const;

  void Save(BinaryWriter* w) const;
  /// Rejects what Create cannot produce (ns outside [1, kMaxNs], a divisor
  /// below 2, an identity whose divisor is not max_value + 1) with DataLoss.
  static Result<ElementCompressor> Load(BinaryReader* r);

 private:
  ElementCompressor(uint64_t max_value, int ns, uint64_t divisor)
      : max_value_(max_value), ns_(ns), divisor_(divisor) {}

  uint64_t max_value_;
  int ns_;
  uint64_t divisor_;
};

}  // namespace los::deepsets

#endif  // LOS_DEEPSETS_COMPRESSION_H_
