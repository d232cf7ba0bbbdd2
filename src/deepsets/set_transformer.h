#ifndef LOS_DEEPSETS_SET_TRANSFORMER_H_
#define LOS_DEEPSETS_SET_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "deepsets/set_model.h"
#include "nn/mlp.h"

namespace los::deepsets {

/// Hyper-parameters of the attention-based set model.
struct SetTransformerConfig {
  int64_t vocab = 0;
  int64_t embed_dim = 8;   ///< element embedding size
  int64_t att_dim = 16;    ///< attention width d (divisible by num_heads)
  int64_t num_heads = 1;   ///< attention heads (d/num_heads per head)
  int64_t ff_hidden = 32;  ///< feed-forward hidden width inside the SAB
  std::vector<int64_t> rho_hidden = {32};  ///< decoder MLP widths
  nn::Activation hidden_act = nn::Activation::kRelu;
  nn::Activation output_act = nn::Activation::kSigmoid;
  uint64_t seed = 42;
};

/// \brief Single-head Set Transformer (Lee et al. 2019) — the Related-Work
/// alternative to DeepSets (§2/§3.2 of the paper).
///
/// Architecture: embedding → input projection → one SAB (self-attention
/// block with residuals and a feed-forward sublayer) → PMA pooling (one
/// learned seed vector attending over the set) → decoder MLP. Attention is
/// computed *within each set* (CSR segments), so the model remains
/// permutation invariant and size-agnostic. The paper picks DeepSets over
/// this architecture for speed/size; the ablation bench quantifies that
/// trade-off on our tasks.
class SetTransformerModel : public SetModel {
 public:
  static Result<std::unique_ptr<SetTransformerModel>> Create(
      const SetTransformerConfig& config);

  void CollectParameters(std::vector<nn::Parameter*>* out) override;
  size_t ByteSize() const override;
  std::string name() const override { return "SetTransformer"; }
  int64_t vocab() const override { return config_.vocab; }
  void Save(BinaryWriter* w) const override;
  static Result<std::unique_ptr<SetTransformerModel>> Load(BinaryReader* r);

  const SetTransformerConfig& config() const { return config_; }

 protected:
  std::unique_ptr<Workspace> NewWorkspace() const override;
  Workspace* ThreadWorkspace() const override;
  const nn::Tensor& ForwardPass(const std::vector<sets::ElementId>& ids,
                                const std::vector<int64_t>& offsets,
                                Workspace* ws) const override;
  void BackwardPass(Workspace* ws, const nn::Tensor& dout) override;

 private:
  struct Activations;

  explicit SetTransformerModel(const SetTransformerConfig& config);

  SetTransformerConfig config_;
  nn::Embedding embed_;
  nn::Dense input_proj_;           // embed_dim -> d
  nn::Parameter wq_, wk_, wv_;     // (d x d) SAB projections
  nn::Mlp ff_;                     // d -> ff_hidden -> d
  nn::Parameter seed_;             // (1 x d) PMA seed
  nn::Parameter pwk_, pwv_;        // (d x d) PMA projections
  nn::Mlp rho_;                    // d -> rho_hidden -> 1
};

}  // namespace los::deepsets

#endif  // LOS_DEEPSETS_SET_TRANSFORMER_H_
