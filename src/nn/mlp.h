#ifndef LOS_NN_MLP_H_
#define LOS_NN_MLP_H_

#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "nn/layers.h"

namespace los::nn {

/// \brief Stack of Dense layers — the φ and ρ transformations of DeepSets.
class Mlp {
 public:
  /// Per-layer activation cache for one forward pass; reused across batches
  /// to avoid reallocation. Each Mlp caller owns its workspace.
  struct Workspace {
    std::vector<Tensor> activations;  // activations[i] = output of layer i
    std::vector<Tensor> grads;        // scratch for backward
  };

  Mlp() = default;

  /// Builds a stack with the given layer sizes. `dims` = {in, h1, ..., out};
  /// hidden layers use `hidden_act`, the final layer uses `output_act`.
  Mlp(const std::vector<int64_t>& dims, Activation hidden_act,
      Activation output_act, Rng* rng);

  /// Forward pass; returns a reference to the final activation held in `ws`.
  const Tensor& Forward(const Tensor& x, Workspace* ws) const;

  /// Inference forward over `m` rows: runs the m rows of in_dim() floats at
  /// `x` through every layer's Dense::ForwardRows, alternating between the
  /// scratch buffers `a` and `b` (each at least m * max_width() floats,
  /// neither overlapping `x`), and returns whichever holds the m rows of
  /// out_dim() outputs. Every row is bit-identical to the matching row of
  /// Forward; allocates nothing.
  const float* ForwardRows(const float* x, int64_t m, float* a,
                           float* b) const;

  /// Widest layer output: the scratch ForwardRows needs per row and buffer.
  int64_t max_width() const;

  /// Backward pass. `x`/`ws` must come from the matching Forward. `dy` is
  /// the upstream grad (clobbered). If `dx` is non-null, receives dL/dx.
  void Backward(const Tensor& x, Workspace* ws, Tensor* dy, Tensor* dx);

  int64_t in_dim() const { return layers_.empty() ? 0 : layers_.front().in_dim(); }
  int64_t out_dim() const { return layers_.empty() ? 0 : layers_.back().out_dim(); }
  size_t num_layers() const { return layers_.size(); }
  const Dense& layer(size_t i) const { return layers_[i]; }

  void CollectParameters(std::vector<Parameter*>* out) {
    for (auto& l : layers_) l.CollectParameters(out);
  }

  /// Total parameter bytes.
  size_t ByteSize() const;

  void Save(BinaryWriter* w) const;
  Status Load(BinaryReader* r);

 private:
  std::vector<Dense> layers_;
};

}  // namespace los::nn

#endif  // LOS_NN_MLP_H_
