#include "nn/mlp.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace los::nn {

Mlp::Mlp(const std::vector<int64_t>& dims, Activation hidden_act,
         Activation output_act, Rng* rng) {
  assert(dims.size() >= 2);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    Activation act = (i + 2 == dims.size()) ? output_act : hidden_act;
    layers_.emplace_back(dims[i], dims[i + 1], act, rng);
  }
}

const Tensor& Mlp::Forward(const Tensor& x, Workspace* ws) const {
  ws->activations.resize(layers_.size());
  const Tensor* cur = &x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].Forward(*cur, &ws->activations[i]);
    cur = &ws->activations[i];
  }
  return *cur;
}

const float* Mlp::ForwardRows(const float* x, int64_t m, float* a,
                              float* b) const {
  const float* cur = x;
  for (const Dense& layer : layers_) {
    layer.ForwardRows(cur, m, a);
    cur = a;
    std::swap(a, b);
  }
  return cur;
}

int64_t Mlp::max_width() const {
  int64_t w = 0;
  for (const Dense& layer : layers_) w = std::max(w, layer.out_dim());
  return w;
}

void Mlp::Backward(const Tensor& x, Workspace* ws, Tensor* dy, Tensor* dx) {
  assert(ws->activations.size() == layers_.size());
  ws->grads.resize(layers_.size());
  Tensor* upstream = dy;
  for (size_t i = layers_.size(); i-- > 0;) {
    const Tensor& input = (i == 0) ? x : ws->activations[i - 1];
    Tensor* input_grad = (i == 0) ? dx : &ws->grads[i - 1];
    layers_[i].Backward(input, ws->activations[i], upstream, input_grad);
    upstream = input_grad;
  }
}

size_t Mlp::ByteSize() const {
  size_t total = 0;
  for (const auto& l : layers_) total += l.ByteSize();
  return total;
}

void Mlp::Save(BinaryWriter* w) const {
  w->WriteU64(layers_.size());
  for (const auto& l : layers_) l.Save(w);
}

Status Mlp::Load(BinaryReader* r) {
  auto n = r->ReadU64();
  if (!n.ok()) return n.status();
  // A layer serializes to at least ~40 bytes; reject corrupted counts
  // before allocating.
  if (*n > r->remaining() / 40 + 1) {
    return Status::Internal("mlp layer count exceeds payload");
  }
  layers_.assign(*n, Dense());
  for (auto& l : layers_) LOS_RETURN_NOT_OK(l.Load(r));
  return Status::OK();
}

}  // namespace los::nn
