#include "nn/layers.h"

#include <cassert>
#include <cstring>
#include <limits>

#include "nn/init.h"
#include "nn/ops.h"

namespace los::nn {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kNone:
      return "none";
    case Activation::kRelu:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

void ActivationBackward(Activation act, const Tensor& y, Tensor* dy) {
  switch (act) {
    case Activation::kNone:
      return;
    case Activation::kRelu:
      ReluBackwardInPlace(y, dy);
      return;
    case Activation::kSigmoid:
      SigmoidBackwardInPlace(y, dy);
      return;
    case Activation::kTanh:
      TanhBackwardInPlace(y, dy);
      return;
  }
}

Dense::Dense(int64_t in, int64_t out, Activation act, Rng* rng)
    : weight_(in, out), bias_(1, out), act_(act) {
  GlorotUniform(&weight_.value, in, out, rng);
  // Bias starts at zero (Keras default).
}

void Dense::Forward(const Tensor& x, Tensor* y) const {
  assert(x.cols() == in_dim());
  y->Resize(x.rows(), out_dim());
  ForwardRows(x.data(), x.rows(), y->data());
}

void Dense::ForwardRows(const float* x, int64_t m, float* y) const {
  DenseRows(x, m, weight_.value.data(), bias_.value.data(), in_dim(),
            out_dim(), act_, y);
}

void Dense::Backward(const Tensor& x, const Tensor& y, Tensor* dy,
                     Tensor* dx) {
  // Through the activation first; dy becomes the grad of the pre-activation.
  ActivationBackward(act_, y, dy);
  // dW += X^T dY ; db += column sums of dY ; dX = dY W^T.
  Gemm(x, true, *dy, false, 1.0f, 1.0f, &weight_.grad);
  SumRowsAccumulate(*dy, &bias_.grad);
  if (dx != nullptr) {
    if (!dx->SameShape(x)) dx->ResizeAndZero(x.rows(), x.cols());
    Gemm(*dy, false, weight_.value, true, 1.0f, 0.0f, dx);
  }
}

void Dense::Save(BinaryWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(act_));
  weight_.value.Save(w);
  bias_.value.Save(w);
}

Status Dense::Load(BinaryReader* r) {
  auto act = r->ReadU32();
  if (!act.ok()) return act.status();
  act_ = static_cast<Activation>(*act);
  auto wt = Tensor::Load(r);
  if (!wt.ok()) return wt.status();
  auto bt = Tensor::Load(r);
  if (!bt.ok()) return bt.status();
  weight_.value = std::move(*wt);
  weight_.grad = Tensor::Zeros(weight_.value.rows(), weight_.value.cols());
  bias_.value = std::move(*bt);
  bias_.grad = Tensor::Zeros(bias_.value.rows(), bias_.value.cols());
  return Status::OK();
}

Embedding::Embedding(int64_t vocab, int64_t dim, Rng* rng)
    : table_(vocab, dim) {
  UniformInit(&table_.value, 0.05f, rng);  // Keras RandomUniform default.
}

void Embedding::Forward(const std::vector<uint32_t>& ids, Tensor* out) const {
  if (out->rows() != static_cast<int64_t>(ids.size()) || out->cols() != dim()) {
    out->ResizeAndZero(static_cast<int64_t>(ids.size()), dim());
  }
  ForwardInto(ids, out, 0);
}

void Embedding::ForwardInto(const std::vector<uint32_t>& ids, Tensor* out,
                            int64_t col_offset) const {
  const int64_t d = dim();
  assert(out->rows() == static_cast<int64_t>(ids.size()));
  assert(col_offset + d <= out->cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    assert(ids[i] < table_.value.rows());
    std::memcpy(out->row(static_cast<int64_t>(i)) + col_offset,
                table_.value.row(ids[i]),
                static_cast<size_t>(d) * sizeof(float));
  }
}

void Embedding::Backward(const std::vector<uint32_t>& ids,
                         const Tensor& dout) {
  BackwardFrom(ids, dout, 0);
}

void Embedding::BackwardFrom(const std::vector<uint32_t>& ids,
                             const Tensor& dout, int64_t col_offset) {
  const int64_t d = dim();
  assert(dout.rows() == static_cast<int64_t>(ids.size()));
  assert(col_offset + d <= dout.cols());
  // Scatter-add in gather order: each table row receives its additions in
  // ascending position order.
  for (size_t i = 0; i < ids.size(); ++i) {
    const float* src = dout.row(static_cast<int64_t>(i)) + col_offset;
    float* dst = table_.grad.row(ids[i]);
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

void Embedding::Save(BinaryWriter* w) const { table_.value.Save(w); }

Status Embedding::Load(BinaryReader* r) {
  auto t = Tensor::Load(r);
  if (!t.ok()) return t.status();
  table_.value = std::move(*t);
  table_.grad = Tensor::Zeros(table_.value.rows(), table_.value.cols());
  return Status::OK();
}

const char* PoolingName(Pooling p) {
  switch (p) {
    case Pooling::kSum:
      return "sum";
    case Pooling::kMean:
      return "mean";
    case Pooling::kMax:
      return "max";
  }
  return "?";
}

namespace {

/// Pools rows [begin, end) of the row-major `x` (row stride `d`) into
/// `prow`. `argmax`, if non-null, receives the winning row index per
/// column for kMax. Shared by the batched and single-set forwards so both
/// run the same arithmetic.
void PoolSegment(Pooling pooling, const float* x, int64_t begin, int64_t end,
                 int64_t d, float* prow, int64_t* argmax) {
  if (pooling == Pooling::kMax) {
    for (int64_t j = 0; j < d; ++j) {
      prow[j] = begin < end ? -std::numeric_limits<float>::infinity() : 0.0f;
    }
    for (int64_t e = begin; e < end; ++e) {
      const float* xr = x + e * d;
      for (int64_t j = 0; j < d; ++j) {
        if (xr[j] > prow[j]) {
          prow[j] = xr[j];
          if (argmax != nullptr) argmax[j] = e;
        }
      }
    }
    return;
  }
  ColumnSums(x + begin * d, end - begin, d, prow);
  if (pooling == Pooling::kMean && end > begin) {
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (int64_t j = 0; j < d; ++j) prow[j] *= inv;
  }
}

}  // namespace

void SegmentPool::Forward(const Tensor& x, const std::vector<int64_t>& offsets,
                          Tensor* pooled, std::vector<int64_t>* argmax) const {
  const int64_t num_sets = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t d = x.cols();
  if (pooled->rows() != num_sets || pooled->cols() != d) {
    pooled->ResizeAndZero(num_sets, d);
  }
  int64_t* argmax_d = nullptr;
  if (pooling_ == Pooling::kMax && argmax != nullptr) {
    argmax->assign(static_cast<size_t>(num_sets * d), -1);
    argmax_d = argmax->data();
  }
  for (int64_t s = 0; s < num_sets; ++s) {
    PoolSegment(pooling_, x.data(), offsets[static_cast<size_t>(s)],
                offsets[static_cast<size_t>(s) + 1], d, pooled->row(s),
                argmax_d == nullptr ? nullptr : argmax_d + s * d);
  }
}

void SegmentPool::ForwardRow(const float* x, int64_t rows, int64_t d,
                             float* pooled) const {
  PoolSegment(pooling_, x, 0, rows, d, pooled, nullptr);
}

void SegmentPool::Backward(const Tensor& dpooled,
                           const std::vector<int64_t>& offsets,
                           const std::vector<int64_t>& argmax,
                           int64_t total_elements, Tensor* dx) const {
  const int64_t num_sets = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t d = dpooled.cols();
  if (pooling_ == Pooling::kMax) {
    dx->ResizeAndZero(total_elements, d);
    for (int64_t s = 0; s < num_sets; ++s) {
      const float* prow = dpooled.row(s);
      for (int64_t j = 0; j < d; ++j) {
        int64_t winner = argmax[static_cast<size_t>(s * d + j)];
        if (winner >= 0) (*dx)(winner, j) += prow[j];
      }
    }
    return;
  }
  // Sum and mean write every element row once, as 0 + g: the value of a
  // zeroed row plus its gradient, so a -0 gradient stores +0. Sum scales by
  // 1, which changes no bit.
  assert(offsets.front() == 0 && offsets.back() == total_elements);
  dx->Resize(total_elements, d);
  for (int64_t s = 0; s < num_sets; ++s) {
    const int64_t begin = offsets[static_cast<size_t>(s)];
    const int64_t end = offsets[static_cast<size_t>(s) + 1];
    const float* prow = dpooled.row(s);
    const float inv = pooling_ == Pooling::kMean && end > begin
                          ? 1.0f / static_cast<float>(end - begin)
                          : 1.0f;
    for (int64_t e = begin; e < end; ++e) {
      float* xr = dx->row(e);
      for (int64_t j = 0; j < d; ++j) xr[j] = 0.0f + prow[j] * inv;
    }
  }
}

}  // namespace los::nn
