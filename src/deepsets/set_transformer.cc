#include "deepsets/set_transformer.h"

#include <cassert>
#include <cmath>
#include <cstring>

#include "common/trace.h"
#include "nn/init.h"
#include "nn/ops.h"

namespace los::deepsets {

namespace {

/// Row-wise softmax in place.
void SoftmaxRows(nn::Tensor* t) {
  for (int64_t i = 0; i < t->rows(); ++i) {
    float* row = t->row(i);
    float m = row[0];
    for (int64_t j = 1; j < t->cols(); ++j) m = std::max(m, row[j]);
    float sum = 0.0f;
    for (int64_t j = 0; j < t->cols(); ++j) {
      row[j] = std::exp(row[j] - m);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (int64_t j = 0; j < t->cols(); ++j) row[j] *= inv;
  }
}

/// Backward of a row-wise softmax: given softmax outputs `y` and upstream
/// grad `dy`, writes dz (grad of the pre-softmax logits) into `dy` in place:
/// dz_i = (dy_i - <dy_i, y_i>) * y_i per row.
void SoftmaxRowsBackwardInPlace(const nn::Tensor& y, nn::Tensor* dy) {
  assert(y.SameShape(*dy));
  for (int64_t i = 0; i < y.rows(); ++i) {
    const float* yr = y.row(i);
    float* dr = dy->row(i);
    float dot = 0.0f;
    for (int64_t j = 0; j < y.cols(); ++j) dot += dr[j] * yr[j];
    for (int64_t j = 0; j < y.cols(); ++j) dr[j] = (dr[j] - dot) * yr[j];
  }
}

/// Copies rows [begin, end) of `src` into `dst` (resized to (end-begin) x d).
void CopyRows(const nn::Tensor& src, int64_t begin, int64_t end,
              nn::Tensor* dst) {
  const int64_t n = end - begin;
  dst->ResizeAndZero(n, src.cols());
  std::memcpy(dst->data(), src.row(begin),
              static_cast<size_t>(n * src.cols()) * sizeof(float));
}

/// Copies a column block [col0, col0+w) of `src` into `dst` ((rows x w)).
void CopyColBlock(const nn::Tensor& src, int64_t col0, int64_t w,
                  nn::Tensor* dst) {
  dst->ResizeAndZero(src.rows(), w);
  for (int64_t i = 0; i < src.rows(); ++i) {
    std::memcpy(dst->row(i), src.row(i) + col0,
                static_cast<size_t>(w) * sizeof(float));
  }
}

/// Adds `src` ((rows x w)) into the column block [col0, col0+w) of `dst`.
void AddColBlock(const nn::Tensor& src, int64_t col0, nn::Tensor* dst) {
  for (int64_t i = 0; i < src.rows(); ++i) {
    float* out = dst->row(i) + col0;
    const float* in = src.row(i);
    for (int64_t j = 0; j < src.cols(); ++j) out[j] += in[j];
  }
}

}  // namespace

SetTransformerModel::SetTransformerModel(const SetTransformerConfig& config)
    : config_(config) {
  Rng rng(config_.seed);
  const int64_t d = config_.att_dim;
  embed_ = nn::Embedding(config_.vocab, config_.embed_dim, &rng);
  input_proj_ = nn::Dense(config_.embed_dim, d, nn::Activation::kNone, &rng);
  wq_ = nn::Parameter(d, d);
  wk_ = nn::Parameter(d, d);
  wv_ = nn::Parameter(d, d);
  pwk_ = nn::Parameter(d, d);
  pwv_ = nn::Parameter(d, d);
  for (nn::Parameter* p : {&wq_, &wk_, &wv_, &pwk_, &pwv_}) {
    nn::GlorotUniform(&p->value, d, d, &rng);
  }
  seed_ = nn::Parameter(1, d);
  nn::GaussianInit(&seed_.value, 0.5f, &rng);
  ff_ = nn::Mlp({d, config_.ff_hidden, d}, config_.hidden_act,
                nn::Activation::kNone, &rng);
  std::vector<int64_t> rho_dims{d};
  rho_dims.insert(rho_dims.end(), config_.rho_hidden.begin(),
                  config_.rho_hidden.end());
  rho_dims.push_back(1);
  rho_ = nn::Mlp(rho_dims, config_.hidden_act, config_.output_act, &rng);
}

Result<std::unique_ptr<SetTransformerModel>> SetTransformerModel::Create(
    const SetTransformerConfig& config) {
  if (config.vocab <= 0) return Status::InvalidArgument("vocab must be > 0");
  if (config.att_dim <= 0 || config.embed_dim <= 0) {
    return Status::InvalidArgument("dims must be positive");
  }
  if (config.num_heads <= 0 || config.att_dim % config.num_heads != 0) {
    return Status::InvalidArgument("att_dim must be divisible by num_heads");
  }
  return std::unique_ptr<SetTransformerModel>(
      new SetTransformerModel(config));
}

struct SetTransformerModel::Activations : SetModel::Workspace {
  /// Per-set attention activations.
  struct SetCache {
    nn::Tensor x;    // (n x d) projected inputs
    nn::Tensor q;    // (n x d)
    nn::Tensor k;    // (n x d)
    nn::Tensor v;    // (n x d)
    nn::Tensor attn;  // (heads*n x n) softmax rows, stacked per head
    nn::Tensor h;    // (n x d) x + attn*v (residual)
    nn::Mlp::Workspace ff_ws;
    nn::Tensor f;    // (n x d) h + FF(h)
    nn::Tensor pk;   // (n x d) PMA keys
    nn::Tensor pv;   // (n x d) PMA values
    nn::Tensor pattn;  // (heads x n) PMA softmax, one row per head
  };

  nn::Tensor embedded;
  nn::Tensor projected;
  std::vector<SetCache> set_caches;
  nn::Tensor pooled;  // (num_sets x d)
  nn::Mlp::Workspace rho_ws;
  // Per-head scratch, reused across sets.
  nn::Tensor qh, kh, vh, ah, oh, pkh, pvh, seed_h;
};

std::unique_ptr<SetModel::Workspace> SetTransformerModel::NewWorkspace()
    const {
  return std::make_unique<Activations>();
}

SetModel::Workspace* SetTransformerModel::ThreadWorkspace() const {
  thread_local Activations ws;
  return &ws;
}

const nn::Tensor& SetTransformerModel::ForwardPass(
    const std::vector<sets::ElementId>& ids,
    const std::vector<int64_t>& offsets, Workspace* base) const {
  auto* ws = static_cast<Activations*>(base);
  TRACE_SPAN_VAR(span, "model", "model.forward");
  span.set_arg("elements", static_cast<double>(ids.size()));
  const int64_t d = config_.att_dim;
  const int64_t heads = config_.num_heads;
  const int64_t dh = d / heads;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  const int64_t num_sets = static_cast<int64_t>(offsets.size()) - 1;

  {
    TRACE_SPAN("model", "model.embed_gather");
    embed_.Forward(ids, &ws->embedded);
    input_proj_.Forward(ws->embedded, &ws->projected);
  }

  TRACE_SPAN_VAR(attn_span, "model", "model.attention");
  ws->set_caches.resize(static_cast<size_t>(num_sets));
  ws->pooled.ResizeAndZero(num_sets, d);
  nn::Tensor &qh = ws->qh, &kh = ws->kh, &vh = ws->vh, &ah = ws->ah,
             &oh = ws->oh, &pkh = ws->pkh, &pvh = ws->pvh,
             &seed_h = ws->seed_h;
  for (int64_t s = 0; s < num_sets; ++s) {
    Activations::SetCache& c = ws->set_caches[static_cast<size_t>(s)];
    const int64_t begin = offsets[static_cast<size_t>(s)];
    const int64_t end = offsets[static_cast<size_t>(s) + 1];
    const int64_t n = end - begin;
    if (n == 0) {
      // Empty set: pooled row stays zero.
      c.x.ResizeAndZero(0, d);
      continue;
    }
    CopyRows(ws->projected, begin, end, &c.x);
    c.q.ResizeAndZero(n, d);
    c.k.ResizeAndZero(n, d);
    c.v.ResizeAndZero(n, d);
    Gemm(c.x, false, wq_.value, false, 1.0f, 0.0f, &c.q);
    Gemm(c.x, false, wk_.value, false, 1.0f, 0.0f, &c.k);
    Gemm(c.x, false, wv_.value, false, 1.0f, 0.0f, &c.v);
    // Multihead self-attention with residual: per head h,
    // out_h = softmax(Q_h K_h^T / sqrt(dh)) V_h.
    c.attn.ResizeAndZero(heads * n, n);
    c.h = c.x;
    for (int64_t h = 0; h < heads; ++h) {
      CopyColBlock(c.q, h * dh, dh, &qh);
      CopyColBlock(c.k, h * dh, dh, &kh);
      CopyColBlock(c.v, h * dh, dh, &vh);
      ah.ResizeAndZero(n, n);
      Gemm(qh, false, kh, true, inv_sqrt_dh, 0.0f, &ah);
      SoftmaxRows(&ah);
      std::memcpy(c.attn.row(h * n), ah.data(),
                  static_cast<size_t>(n * n) * sizeof(float));
      oh.ResizeAndZero(n, dh);
      Gemm(ah, false, vh, false, 1.0f, 0.0f, &oh);
      AddColBlock(oh, h * dh, &c.h);
    }
    // Feed-forward sublayer with residual.
    const nn::Tensor& ff_out = ff_.Forward(c.h, &c.ff_ws);
    c.f = c.h;
    c.f.Add(ff_out);
    // Multihead PMA: the learned seed attends over the set per head.
    c.pk.ResizeAndZero(n, d);
    c.pv.ResizeAndZero(n, d);
    Gemm(c.f, false, pwk_.value, false, 1.0f, 0.0f, &c.pk);
    Gemm(c.f, false, pwv_.value, false, 1.0f, 0.0f, &c.pv);
    c.pattn.ResizeAndZero(heads, n);
    float* prow = ws->pooled.row(s);
    for (int64_t h = 0; h < heads; ++h) {
      CopyColBlock(c.pk, h * dh, dh, &pkh);
      CopyColBlock(c.pv, h * dh, dh, &pvh);
      CopyColBlock(seed_.value, h * dh, dh, &seed_h);
      ah.ResizeAndZero(1, n);
      Gemm(seed_h, false, pkh, true, inv_sqrt_dh, 0.0f, &ah);
      SoftmaxRows(&ah);
      std::memcpy(c.pattn.row(h), ah.data(),
                  static_cast<size_t>(n) * sizeof(float));
      // pooled head block = pattn_h * PV_h.
      for (int64_t i = 0; i < n; ++i) {
        const float a = ah(0, i);
        const float* pv = pvh.row(i);
        for (int64_t j = 0; j < dh; ++j) prow[h * dh + j] += a * pv[j];
      }
    }
  }
  attn_span.Stop();
  TRACE_SPAN("model", "model.rho");
  return rho_.Forward(ws->pooled, &ws->rho_ws);
}

void SetTransformerModel::BackwardPass(Workspace* base,
                                       const nn::Tensor& dout) {
  auto* ws = static_cast<Activations*>(base);
  const int64_t d = config_.att_dim;
  const int64_t heads = config_.num_heads;
  const int64_t dh = d / heads;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::vector<int64_t>& offsets = ws->offsets;
  const int64_t num_sets = static_cast<int64_t>(offsets.size()) - 1;

  nn::Tensor dy = dout;
  nn::Tensor dpooled;
  rho_.Backward(ws->pooled, &ws->rho_ws, &dy, &dpooled);

  nn::Tensor dprojected(ws->projected.rows(), ws->projected.cols());
  nn::Tensor dph(1, dh), da, df, dh_grad, dq, dk, dv, dpk, dpv, dff_in;
  nn::Tensor qh, kh, vh, ah, pkh, pvh, seed_h, dqh, dkh, dvh, doh;
  for (int64_t s = 0; s < num_sets; ++s) {
    Activations::SetCache& c = ws->set_caches[static_cast<size_t>(s)];
    const int64_t begin = offsets[static_cast<size_t>(s)];
    const int64_t n = offsets[static_cast<size_t>(s) + 1] - begin;
    if (n == 0) continue;

    // ---- PMA backward (per head): pooled_h = pattn_h * PV_h.
    dpk.ResizeAndZero(n, d);
    dpv.ResizeAndZero(n, d);
    for (int64_t h = 0; h < heads; ++h) {
      std::memcpy(dph.data(), dpooled.row(s) + h * dh,
                  static_cast<size_t>(dh) * sizeof(float));
      CopyColBlock(c.pk, h * dh, dh, &pkh);
      CopyColBlock(c.pv, h * dh, dh, &pvh);
      CopyColBlock(seed_.value, h * dh, dh, &seed_h);
      const float* pa = c.pattn.row(h);
      for (int64_t i = 0; i < n; ++i) {
        float* r = dpv.row(i) + h * dh;
        for (int64_t j = 0; j < dh; ++j) r[j] += pa[i] * dph(0, j);
      }
      da.ResizeAndZero(1, n);
      Gemm(dph, false, pvh, true, 1.0f, 0.0f, &da);
      ah.ResizeAndZero(1, n);
      std::memcpy(ah.data(), pa, static_cast<size_t>(n) * sizeof(float));
      SoftmaxRowsBackwardInPlace(ah, &da);
      // logits = seed_h PK_h^T / sqrt(dh).
      nn::Tensor dseed_h(1, dh);
      Gemm(da, false, pkh, false, inv_sqrt_dh, 0.0f, &dseed_h);
      for (int64_t j = 0; j < dh; ++j) {
        seed_.grad(0, h * dh + j) += dseed_h(0, j);
      }
      nn::Tensor dpkh(n, dh);
      Gemm(da, true, seed_h, false, inv_sqrt_dh, 0.0f, &dpkh);
      AddColBlock(dpkh, h * dh, &dpk);
    }
    // PK = F pwk, PV = F pwv.
    Gemm(c.f, true, dpk, false, 1.0f, 1.0f, &pwk_.grad);
    Gemm(c.f, true, dpv, false, 1.0f, 1.0f, &pwv_.grad);
    df.ResizeAndZero(n, d);
    Gemm(dpk, false, pwk_.value, true, 1.0f, 0.0f, &df);
    Gemm(dpv, false, pwv_.value, true, 1.0f, 1.0f, &df);

    // ---- FF sublayer backward: F = H + FF(H).
    nn::Tensor dff = df;  // grad into FF output
    ff_.Backward(c.h, &c.ff_ws, &dff, &dff_in);
    dh_grad = df;
    dh_grad.Add(dff_in);

    // ---- Multihead self-attention backward: H = X + concat_h(A_h V_h).
    dq.ResizeAndZero(n, d);
    dk.ResizeAndZero(n, d);
    dv.ResizeAndZero(n, d);
    for (int64_t h = 0; h < heads; ++h) {
      CopyColBlock(c.q, h * dh, dh, &qh);
      CopyColBlock(c.k, h * dh, dh, &kh);
      CopyColBlock(c.v, h * dh, dh, &vh);
      CopyColBlock(dh_grad, h * dh, dh, &doh);  // grad of out_h
      ah.ResizeAndZero(n, n);
      std::memcpy(ah.data(), c.attn.row(h * n),
                  static_cast<size_t>(n * n) * sizeof(float));
      nn::Tensor dah(n, n);
      Gemm(doh, false, vh, true, 1.0f, 0.0f, &dah);
      dvh.ResizeAndZero(n, dh);
      Gemm(ah, true, doh, false, 1.0f, 0.0f, &dvh);
      SoftmaxRowsBackwardInPlace(ah, &dah);
      dqh.ResizeAndZero(n, dh);
      Gemm(dah, false, kh, false, inv_sqrt_dh, 0.0f, &dqh);
      dkh.ResizeAndZero(n, dh);
      Gemm(dah, true, qh, false, inv_sqrt_dh, 0.0f, &dkh);
      AddColBlock(dqh, h * dh, &dq);
      AddColBlock(dkh, h * dh, &dk);
      AddColBlock(dvh, h * dh, &dv);
    }
    // Projections.
    Gemm(c.x, true, dq, false, 1.0f, 1.0f, &wq_.grad);
    Gemm(c.x, true, dk, false, 1.0f, 1.0f, &wk_.grad);
    Gemm(c.x, true, dv, false, 1.0f, 1.0f, &wv_.grad);
    // dX = dH (residual) + dQ Wq^T + dK Wk^T + dV Wv^T.
    nn::Tensor dx = dh_grad;
    Gemm(dq, false, wq_.value, true, 1.0f, 1.0f, &dx);
    Gemm(dk, false, wk_.value, true, 1.0f, 1.0f, &dx);
    Gemm(dv, false, wv_.value, true, 1.0f, 1.0f, &dx);
    std::memcpy(dprojected.row(begin), dx.data(),
                static_cast<size_t>(n * d) * sizeof(float));
  }

  nn::Tensor dembedded;
  input_proj_.Backward(ws->embedded, ws->projected, &dprojected, &dembedded);
  embed_.Backward(ws->ids, dembedded);
}

void SetTransformerModel::CollectParameters(
    std::vector<nn::Parameter*>* out) {
  embed_.CollectParameters(out);
  input_proj_.CollectParameters(out);
  for (nn::Parameter* p : {&wq_, &wk_, &wv_, &seed_, &pwk_, &pwv_}) {
    out->push_back(p);
  }
  ff_.CollectParameters(out);
  rho_.CollectParameters(out);
}

size_t SetTransformerModel::ByteSize() const {
  size_t total = embed_.ByteSize() + input_proj_.ByteSize() + ff_.ByteSize() +
                 rho_.ByteSize();
  for (const nn::Parameter* p : {&wq_, &wk_, &wv_, &seed_, &pwk_, &pwv_}) {
    total += p->ByteSize();
  }
  return total;
}

void SetTransformerModel::Save(BinaryWriter* w) const {
  w->WriteString("SetTransformer");
  w->WriteI64(config_.vocab);
  w->WriteI64(config_.embed_dim);
  w->WriteI64(config_.att_dim);
  w->WriteI64(config_.num_heads);
  w->WriteI64(config_.ff_hidden);
  w->WriteU64(config_.rho_hidden.size());
  for (int64_t r : config_.rho_hidden) w->WriteI64(r);
  w->WriteU32(static_cast<uint32_t>(config_.hidden_act));
  w->WriteU32(static_cast<uint32_t>(config_.output_act));
  w->WriteU64(config_.seed);
  embed_.Save(w);
  input_proj_.Save(w);
  for (const nn::Parameter* p : {&wq_, &wk_, &wv_, &seed_, &pwk_, &pwv_}) {
    p->value.Save(w);
  }
  ff_.Save(w);
  rho_.Save(w);
}

Result<std::unique_ptr<SetTransformerModel>> SetTransformerModel::Load(
    BinaryReader* r) {
  auto tag = r->ReadString();
  if (!tag.ok()) return tag.status();
  if (*tag != "SetTransformer") {
    return Status::Internal("expected SetTransformer model tag");
  }
  SetTransformerConfig c;
  auto vocab = r->ReadI64();
  if (!vocab.ok()) return vocab.status();
  c.vocab = *vocab;
  auto ed = r->ReadI64();
  if (!ed.ok()) return ed.status();
  c.embed_dim = *ed;
  auto ad = r->ReadI64();
  if (!ad.ok()) return ad.status();
  c.att_dim = *ad;
  auto nh = r->ReadI64();
  if (!nh.ok()) return nh.status();
  c.num_heads = *nh;
  auto ffh = r->ReadI64();
  if (!ffh.ok()) return ffh.status();
  c.ff_hidden = *ffh;
  auto nr = r->ReadU64();
  if (!nr.ok()) return nr.status();
  c.rho_hidden.clear();
  for (uint64_t i = 0; i < *nr; ++i) {
    auto dim = r->ReadI64();
    if (!dim.ok()) return dim.status();
    c.rho_hidden.push_back(*dim);
  }
  auto ha = r->ReadU32();
  if (!ha.ok()) return ha.status();
  c.hidden_act = static_cast<nn::Activation>(*ha);
  auto oa = r->ReadU32();
  if (!oa.ok()) return oa.status();
  c.output_act = static_cast<nn::Activation>(*oa);
  auto seed = r->ReadU64();
  if (!seed.ok()) return seed.status();
  c.seed = *seed;
  // Create() validates head/att-dim relations; additionally reject
  // corrupted sizes before the constructor allocates.
  const int64_t kMaxDim = int64_t{1} << 24;
  if (c.vocab <= 0 || c.embed_dim <= 0 || c.att_dim <= 0 ||
      c.ff_hidden <= 0 || c.embed_dim > kMaxDim || c.att_dim > kMaxDim ||
      c.ff_hidden > kMaxDim ||
      static_cast<uint64_t>(c.vocab) * static_cast<uint64_t>(c.embed_dim) >
          r->remaining() / sizeof(float) + 1024) {
    return Status::Internal("corrupt SetTransformer dimensions");
  }
  for (int64_t dim : c.rho_hidden) {
    if (dim <= 0 || dim > kMaxDim) {
      return Status::Internal("corrupt SetTransformer rho width");
    }
  }
  auto model = Create(c);
  if (!model.ok()) return model.status();
  LOS_RETURN_NOT_OK((*model)->embed_.Load(r));
  LOS_RETURN_NOT_OK((*model)->input_proj_.Load(r));
  for (nn::Parameter* p :
       {&(*model)->wq_, &(*model)->wk_, &(*model)->wv_, &(*model)->seed_,
        &(*model)->pwk_, &(*model)->pwv_}) {
    auto t = nn::Tensor::Load(r);
    if (!t.ok()) return t.status();
    if (!t->SameShape(p->value)) {
      return Status::Internal("set-transformer parameter shape mismatch");
    }
    p->value = std::move(*t);
  }
  LOS_RETURN_NOT_OK((*model)->ff_.Load(r));
  LOS_RETURN_NOT_OK((*model)->rho_.Load(r));
  return model;
}

}  // namespace los::deepsets
