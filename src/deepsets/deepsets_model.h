#ifndef LOS_DEEPSETS_DEEPSETS_MODEL_H_
#define LOS_DEEPSETS_DEEPSETS_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "deepsets/compression.h"
#include "deepsets/set_model.h"
#include "nn/mlp.h"

namespace los::deepsets {

/// Hyper-parameters of the LSM and the CLSM (the paper sweeps embedding size
/// {2..32}, neurons {8..256} and layers {1,2}).
struct DeepSetsConfig {
  int64_t vocab = 0;           ///< universe size (max id + 1)
  int64_t embed_dim = 8;       ///< embedding vector size
  std::vector<int64_t> phi_hidden = {32};  ///< φ layer widths (may be empty)
  std::vector<int64_t> rho_hidden = {32};  ///< ρ hidden layer widths
  nn::Activation hidden_act = nn::Activation::kRelu;
  nn::Activation output_act = nn::Activation::kSigmoid;  ///< Table 1
  nn::Pooling pooling = nn::Pooling::kSum;  ///< paper uses sum
  uint64_t seed = 42;
  /// CLSM: split every element into `ns` sub-elements. False is the LSM,
  /// whose one slot is the element itself; `ns` and `divisor_override` are
  /// then unused.
  bool compressed = false;
  int ns = 2;                     ///< CLSM sub-elements (paper: 2)
  uint64_t divisor_override = 0;  ///< CLSM sv_d (Table 6); 0 = optimal
};

/// \brief The learned set model: DeepSets (Figure 2), uncompressed (LSM) or
/// compressed (CLSM, Figure 4).
///
/// y = ρ( pool_{x ∈ X} φ([e_1(x_1), ..., e_ns(x_ns)]) ): the
/// ElementCompressor splits each element into `ns` sub-elements x_s (the
/// LSM's one slot is the identity), each slot has its own embedding table
/// e_s (all quotients share one encoder, all remainders another), and an
/// element's slot embeddings are concatenated before φ. Pooling makes the
/// function permutation invariant and size-agnostic by construction. The φ
/// step is what preserves the CLSM's quotient↔remainder interconnection:
/// pooling raw concatenations would let the sum conflate different sets
/// (see §5's X = {(q1,r1),(q2,r2)} vs Z = {(q2,r1),(q1,r2)} example), and
/// `phi_hidden = {}` reproduces exactly that broken ablation, which the
/// property tests exercise.
class DeepSetsModel : public SetModel {
 public:
  /// Fails on a non-positive vocab or a CLSM `ns`/`divisor_override` that
  /// ElementCompressor::Create rejects.
  static Result<std::unique_ptr<DeepSetsModel>> Create(
      const DeepSetsConfig& config);

  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  size_t ByteSize() const override;
  std::string name() const override {
    return config_.compressed ? "CLSM" : "LSM";
  }
  int64_t vocab() const override { return config_.vocab; }

  const DeepSetsConfig& config() const { return config_; }
  const ElementCompressor& compressor() const { return compressor_; }

  double PredictOne(sets::SetView s) const override;

  void Save(BinaryWriter* w) const override;
  /// Reads what Save wrote for either kind.
  static Result<std::unique_ptr<DeepSetsModel>> Load(BinaryReader* r);

 protected:
  std::unique_ptr<Workspace> NewWorkspace() const override;
  Workspace* ThreadWorkspace() const override;
  const nn::Tensor& ForwardPass(const std::vector<sets::ElementId>& ids,
                                const std::vector<int64_t>& offsets,
                                Workspace* ws) const override;
  void BackwardPass(Workspace* ws, const nn::Tensor& dout) override;

 private:
  struct Activations;

  DeepSetsModel(const DeepSetsConfig& config, ElementCompressor compressor);

  bool has_phi() const { return !config_.phi_hidden.empty(); }

  /// Slot `s`'s embedding ids for the batch `ids` recorded in `ws`: the
  /// ids themselves for the LSM, the compressed sub-elements for a CLSM.
  const std::vector<uint32_t>& SlotIds(const Activations& ws,
                                       const std::vector<sets::ElementId>& ids,
                                       size_t s) const;

  DeepSetsConfig config_;
  ElementCompressor compressor_;
  std::vector<nn::Embedding> slot_embeds_;  // one per sub-element slot
  nn::Mlp phi_;  // per-element transform (identity when phi_hidden empty)
  nn::Mlp rho_;  // post-pooling transform, ends in 1 output
  nn::SegmentPool pool_;

  // Backward scratch.
  nn::Tensor dpooled_;
  nn::Tensor dphi_out_;
  nn::Tensor dembedded_;
};

}  // namespace los::deepsets

#endif  // LOS_DEEPSETS_DEEPSETS_MODEL_H_
