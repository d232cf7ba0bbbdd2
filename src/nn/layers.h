#ifndef LOS_NN_LAYERS_H_
#define LOS_NN_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/status.h"
#include "nn/ops.h"
#include "nn/tensor.h"

namespace los::nn {

/// \brief A trainable tensor: value plus accumulated gradient.
///
/// Layers expose their parameters as `Parameter*` lists; the optimizer
/// updates `value` from `grad` and zeroes `grad` between steps.
struct Parameter {
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(int64_t rows, int64_t cols)
      : value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad.SetZero(); }
  size_t ByteSize() const { return value.ByteSize(); }
};

const char* ActivationName(Activation a);

/// Multiplies `dy` in place by the activation derivative, expressed through
/// the activation *output* `y`.
void ActivationBackward(Activation act, const Tensor& y, Tensor* dy);

/// \brief Fully connected layer: Y = act(X W + b).
class Dense {
 public:
  Dense() = default;

  /// \param in input feature count
  /// \param out output feature count
  /// \param act activation applied after the affine map
  Dense(int64_t in, int64_t out, Activation act, Rng* rng);

  /// Forward: writes `y` (n x out, resized to it) for input `x` (n x in),
  /// which must be another tensor. ForwardRows on the tensors' rows.
  void Forward(const Tensor& x, Tensor* y) const;

  /// Forward over `m` rows: writes m rows of out_dim() floats at `y` for the
  /// m rows of in_dim() floats at `x` (which must not overlap `y`). One
  /// DenseRows call: the bias add (and a ReLU) run in registers before each
  /// output's store, and each row's bits depend on that row alone, so a
  /// query's rows match the same rows of a training batch. Allocates
  /// nothing.
  void ForwardRows(const float* x, int64_t m, float* y) const;

  /// Backward. `x` and `y` must be the tensors from the matching Forward;
  /// `dy` is the upstream gradient and is clobbered. If `dx` is non-null it
  /// receives the input gradient. Parameter grads are *accumulated*.
  void Backward(const Tensor& x, const Tensor& y, Tensor* dy, Tensor* dx);

  int64_t in_dim() const { return weight_.value.rows(); }
  int64_t out_dim() const { return weight_.value.cols(); }
  Activation activation() const { return act_; }

  Parameter* weight() { return &weight_; }
  Parameter* bias() { return &bias_; }
  const Parameter& weight() const { return weight_; }
  const Parameter& bias() const { return bias_; }

  /// Appends this layer's parameters to `out` (for the optimizer).
  void CollectParameters(std::vector<Parameter*>* out) {
    out->push_back(&weight_);
    out->push_back(&bias_);
  }

  /// Parameter bytes (what the memory benches count).
  size_t ByteSize() const { return weight_.ByteSize() + bias_.ByteSize(); }

  void Save(BinaryWriter* w) const;
  Status Load(BinaryReader* r);

 private:
  Parameter weight_;  // (in x out)
  Parameter bias_;    // (1 x out)
  Activation act_ = Activation::kNone;
};

/// \brief Embedding lookup table: id -> row vector.
///
/// Shared across all positions of a set, which is what makes the DeepSets
/// encoder permutation invariant (every element is embedded identically,
/// independent of position).
class Embedding {
 public:
  Embedding() = default;

  /// \param vocab number of distinct ids (table rows)
  /// \param dim embedding dimension (table cols)
  Embedding(int64_t vocab, int64_t dim, Rng* rng);

  /// Copies the rows for `ids` into `out` (ids.size() x dim).
  void Forward(const std::vector<uint32_t>& ids, Tensor* out) const;

  /// Variant writing into `out` starting at column `col_offset`; used by the
  /// compressed architecture to concatenate several embeddings per element.
  void ForwardInto(const std::vector<uint32_t>& ids, Tensor* out,
                   int64_t col_offset) const;

  /// Scatters upstream grads back into the table gradient, in gather order.
  void Backward(const std::vector<uint32_t>& ids, const Tensor& dout);

  /// Variant reading the upstream grad from columns
  /// [col_offset, col_offset + dim) of `dout`.
  void BackwardFrom(const std::vector<uint32_t>& ids, const Tensor& dout,
                    int64_t col_offset);

  int64_t vocab() const { return table_.value.rows(); }
  int64_t dim() const { return table_.value.cols(); }

  Parameter* table() { return &table_; }
  const Parameter& table() const { return table_; }

  void CollectParameters(std::vector<Parameter*>* out) {
    out->push_back(&table_);
  }

  size_t ByteSize() const { return table_.ByteSize(); }

  void Save(BinaryWriter* w) const;
  Status Load(BinaryReader* r);

 private:
  Parameter table_;  // (vocab x dim)
};

/// Permutation-invariant pooling operators over a set's element vectors.
enum class Pooling { kSum, kMean, kMax };

const char* PoolingName(Pooling p);

/// \brief Segment pooling over variable-size sets.
///
/// The batch's sets are flattened into one `(total_elements x d)` matrix;
/// `offsets` (size num_sets + 1) delimits each set's rows, CSR-style. This
/// is how DeepSets handles variable set sizes without padding.
class SegmentPool {
 public:
  explicit SegmentPool(Pooling pooling) : pooling_(pooling) {}

  /// pooled(s) = op over rows [offsets[s], offsets[s+1]) of `x`.
  /// Empty segments pool to zero. For kMax, `argmax` (same shape as pooled)
  /// records winner row indices for the backward pass; pass nullptr if no
  /// backward is needed.
  void Forward(const Tensor& x, const std::vector<int64_t>& offsets,
               Tensor* pooled, std::vector<int64_t>* argmax) const;

  /// Pools one set: the `rows` contiguous rows of `d` floats at `x` into the
  /// `d` floats at `pooled`, with Forward's per-set arithmetic (same
  /// accumulation order, -inf start for max, zero for an empty set).
  void ForwardRow(const float* x, int64_t rows, int64_t d,
                  float* pooled) const;

  /// Scatters `dpooled` back to element rows in `dx`, which is resized to
  /// (total_elements x d) and overwritten. For sum and mean, `offsets` must
  /// span all of [0, total_elements).
  void Backward(const Tensor& dpooled, const std::vector<int64_t>& offsets,
                const std::vector<int64_t>& argmax, int64_t total_elements,
                Tensor* dx) const;

  Pooling pooling() const { return pooling_; }

 private:
  Pooling pooling_;
};

}  // namespace los::nn

#endif  // LOS_NN_LAYERS_H_
