#ifndef LOS_DEEPSETS_COMPRESSED_MODEL_H_
#define LOS_DEEPSETS_COMPRESSED_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "deepsets/compression.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_model.h"
#include "nn/mlp.h"

namespace los::deepsets {

/// CLSM-specific options on top of DeepSetsConfig.
struct CompressedConfig {
  DeepSetsConfig base;          ///< vocab = universe size (max id + 1)
  int ns = 2;                   ///< sub-elements per element (paper: 2)
  uint64_t divisor_override = 0;  ///< tune sv_d (Table 6); 0 = optimal
};

/// \brief The compressed learned set model (CLSM) — Figure 4.
///
/// Every element is losslessly decomposed into `ns` sub-elements; each slot
/// has its own small embedding table (all quotients share one encoder, all
/// remainders another). Per element, the slot embeddings are *concatenated*
/// and passed through φ **before** pooling — the φ step is what preserves
/// the quotient↔remainder interconnection; pooling raw concatenations would
/// let the permutation-invariant sum conflate different sets (see §5's
/// X = {(q1,r1),(q2,r2)} vs Z = {(q2,r1),(q1,r2)} example). Setting
/// `base.phi_hidden = {}` reproduces exactly that broken ablation, which the
/// property tests exercise.
class CompressedDeepSetsModel : public SetModel {
 public:
  static Result<std::unique_ptr<CompressedDeepSetsModel>> Create(
      const CompressedConfig& config);

  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  size_t ByteSize() const override;
  std::string name() const override { return "CLSM"; }
  int64_t vocab() const override { return config_.base.vocab; }

  const CompressedConfig& config() const { return config_; }
  const ElementCompressor& compressor() const { return compressor_; }

  double PredictOne(sets::SetView s) const override;

  void Save(BinaryWriter* w) const override;
  static Result<std::unique_ptr<CompressedDeepSetsModel>> Load(
      BinaryReader* r);

 protected:
  std::unique_ptr<Workspace> NewWorkspace() const override;
  Workspace* ThreadWorkspace() const override;
  const nn::Tensor& ForwardPass(const std::vector<sets::ElementId>& ids,
                                const std::vector<int64_t>& offsets,
                                Workspace* ws) const override;
  void BackwardPass(Workspace* ws, const nn::Tensor& dout) override;

 private:
  struct Activations;

  CompressedDeepSetsModel(const CompressedConfig& config,
                          ElementCompressor compressor);

  bool has_phi() const { return !config_.base.phi_hidden.empty(); }

  CompressedConfig config_;
  ElementCompressor compressor_;
  std::vector<nn::Embedding> slot_embeds_;  // one per sub-element slot
  nn::Mlp phi_;
  nn::Mlp rho_;
  nn::SegmentPool pool_;

  // Backward scratch.
  nn::Tensor dpooled_;
  nn::Tensor dphi_out_;
  nn::Tensor dconcat_;
};

}  // namespace los::deepsets

#endif  // LOS_DEEPSETS_COMPRESSED_MODEL_H_
