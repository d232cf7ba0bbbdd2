#ifndef LOS_DEEPSETS_DEEPSETS_MODEL_H_
#define LOS_DEEPSETS_DEEPSETS_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "deepsets/set_model.h"
#include "nn/mlp.h"

namespace los::deepsets {

/// Hyper-parameters shared by LSM and CLSM (the paper sweeps embedding size
/// {2..32}, neurons {8..256} and layers {1,2}).
struct DeepSetsConfig {
  int64_t vocab = 0;           ///< universe size (embedding rows)
  int64_t embed_dim = 8;       ///< embedding vector size
  std::vector<int64_t> phi_hidden = {32};  ///< φ layer widths (may be empty)
  std::vector<int64_t> rho_hidden = {32};  ///< ρ hidden layer widths
  nn::Activation hidden_act = nn::Activation::kRelu;
  nn::Activation output_act = nn::Activation::kSigmoid;  ///< Table 1
  nn::Pooling pooling = nn::Pooling::kSum;  ///< paper uses sum
  uint64_t seed = 42;
};

/// \brief The non-compressed learned set model (LSM): DeepSets as in
/// Figure 2.
///
/// y = ρ( pool_{x ∈ X} φ(e(x)) ), with a single shared embedding `e`, making
/// the function permutation invariant and size-agnostic by construction.
class DeepSetsModel : public SetModel {
 public:
  explicit DeepSetsModel(const DeepSetsConfig& config);

  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  size_t ByteSize() const override;
  std::string name() const override { return "LSM"; }
  int64_t vocab() const override { return config_.vocab; }

  const DeepSetsConfig& config() const { return config_; }

  void Save(BinaryWriter* w) const override;
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

  bool has_phi() const { return !config_.phi_hidden.empty(); }

  DeepSetsConfig config_;
  nn::Embedding embed_;
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
