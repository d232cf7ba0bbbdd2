#include "deepsets/deepsets_model.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>

#include "common/trace.h"

namespace los::deepsets {

namespace {

/// Builds {in, hidden..., } dims for φ: output dim is the last hidden width.
std::vector<int64_t> PhiDims(int64_t in, const std::vector<int64_t>& hidden) {
  std::vector<int64_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  return dims;
}

/// Builds {in, hidden..., 1} dims for ρ.
std::vector<int64_t> RhoDims(int64_t in, const std::vector<int64_t>& hidden) {
  std::vector<int64_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(1);
  return dims;
}

}  // namespace

DeepSetsModel::DeepSetsModel(const DeepSetsConfig& config)
    : config_(config), pool_(config.pooling) {
  Rng rng(config_.seed);
  embed_ = nn::Embedding(config_.vocab, config_.embed_dim, &rng);
  int64_t phi_out = config_.embed_dim;
  if (has_phi()) {
    phi_ = nn::Mlp(PhiDims(config_.embed_dim, config_.phi_hidden),
                   config_.hidden_act, config_.hidden_act, &rng);
    phi_out = config_.phi_hidden.back();
  }
  rho_ = nn::Mlp(RhoDims(phi_out, config_.rho_hidden), config_.hidden_act,
                 config_.output_act, &rng);
}

struct DeepSetsModel::Activations : SetModel::Workspace {
  nn::Tensor embedded;
  nn::Mlp::Workspace phi;
  nn::Tensor pooled;
  std::vector<int64_t> pool_argmax;
  nn::Mlp::Workspace rho;
  RowScratch row;
};

std::unique_ptr<SetModel::Workspace> DeepSetsModel::NewWorkspace() const {
  return std::make_unique<Activations>();
}

SetModel::Workspace* DeepSetsModel::ThreadWorkspace() const {
  thread_local Activations ws;
  return &ws;
}

const nn::Tensor& DeepSetsModel::ForwardPass(
    const std::vector<sets::ElementId>& ids,
    const std::vector<int64_t>& offsets, Workspace* base) const {
  auto* ws = static_cast<Activations*>(base);
  TRACE_SPAN_VAR(span, "model", "model.forward");
  span.set_arg("elements", static_cast<double>(ids.size()));
  {
    TRACE_SPAN("model", "model.embed_gather");
    embed_.Forward(ids, &ws->embedded);
  }
  const nn::Tensor* phi_out = &ws->embedded;
  if (has_phi()) {
    TRACE_SPAN("model", "model.phi");
    phi_out = &phi_.Forward(ws->embedded, &ws->phi);
  }
  {
    TRACE_SPAN("model", "model.pool");
    pool_.Forward(*phi_out, offsets, &ws->pooled, &ws->pool_argmax);
  }
  TRACE_SPAN("model", "model.rho");
  return rho_.Forward(ws->pooled, &ws->rho);
}

float PhiPoolRhoRow(const nn::Mlp* phi, const nn::SegmentPool& pool,
                    const nn::Mlp& rho, int64_t n, int64_t in_dim,
                    RowScratch* rs, TraceSpan* stage) {
  const int64_t width =
      std::max(phi != nullptr ? phi->max_width() : 0, rho.max_width());
  float* ping = RowScratch::Grow(&rs->ping, static_cast<size_t>(width));
  float* pong = RowScratch::Grow(&rs->pong, static_cast<size_t>(width));
  const float* rows = rs->in.data();
  int64_t d = in_dim;
  if (phi != nullptr) {
    stage->Next("model.phi");
    d = phi->out_dim();
    float* out = RowScratch::Grow(&rs->phi, static_cast<size_t>(n * d));
    for (int64_t i = 0; i < n; ++i) {
      const float* y = phi->ForwardRow(rows + i * in_dim, ping, pong);
      std::memcpy(out + i * d, y, static_cast<size_t>(d) * sizeof(float));
    }
    rows = out;
  }
  stage->Next("model.pool");
  float* pooled = RowScratch::Grow(&rs->pooled, static_cast<size_t>(d));
  pool.ForwardRow(rows, n, d, pooled);
  stage->Next("model.rho");
  return rho.ForwardRow(pooled, ping, pong)[0];
}

double DeepSetsModel::PredictOne(sets::SetView s) const {
  RowScratch* rs = &static_cast<Activations*>(ThreadWorkspace())->row;
  TRACE_SPAN_VAR(span, "model", "model.forward");
  const int64_t n = static_cast<int64_t>(s.size());
  span.set_arg("elements", static_cast<double>(n));
  TRACE_SPAN_VAR(stage, "model", "model.embed_gather");
  const int64_t d = config_.embed_dim;
  float* in = RowScratch::Grow(&rs->in, static_cast<size_t>(n * d));
  const nn::Tensor& table = embed_.table().value;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = s[static_cast<size_t>(i)];
    assert(id < table.rows());
    std::memcpy(in + i * d, table.row(id),
                static_cast<size_t>(d) * sizeof(float));
  }
  return static_cast<double>(PhiPoolRhoRow(has_phi() ? &phi_ : nullptr,
                                           pool_, rho_, n, d, rs, &stage));
}

void DeepSetsModel::BackwardPass(Workspace* base, const nn::Tensor& dout) {
  auto* ws = static_cast<Activations*>(base);
  nn::Tensor dy = dout;
  rho_.Backward(ws->pooled, &ws->rho, &dy, &dpooled_);
  const int64_t total_elements = static_cast<int64_t>(ws->ids.size());
  pool_.Backward(dpooled_, ws->offsets, ws->pool_argmax, total_elements,
                 &dphi_out_);
  if (has_phi()) {
    phi_.Backward(ws->embedded, &ws->phi, &dphi_out_, &dembedded_);
    embed_.Backward(ws->ids, dembedded_);
  } else {
    embed_.Backward(ws->ids, dphi_out_);
  }
}

void DeepSetsModel::CollectParameters(std::vector<nn::Parameter*>* out) {
  embed_.CollectParameters(out);
  if (has_phi()) phi_.CollectParameters(out);
  rho_.CollectParameters(out);
}

size_t DeepSetsModel::ByteSize() const {
  return embed_.ByteSize() + (has_phi() ? phi_.ByteSize() : 0) +
         rho_.ByteSize();
}

void DeepSetsModel::Save(BinaryWriter* w) const {
  w->WriteString("LSM");
  w->WriteI64(config_.vocab);
  w->WriteI64(config_.embed_dim);
  w->WriteU64(config_.phi_hidden.size());
  for (int64_t d : config_.phi_hidden) w->WriteI64(d);
  w->WriteU64(config_.rho_hidden.size());
  for (int64_t d : config_.rho_hidden) w->WriteI64(d);
  w->WriteU32(static_cast<uint32_t>(config_.hidden_act));
  w->WriteU32(static_cast<uint32_t>(config_.output_act));
  w->WriteU32(static_cast<uint32_t>(config_.pooling));
  w->WriteU64(config_.seed);
  embed_.Save(w);
  if (has_phi()) phi_.Save(w);
  rho_.Save(w);
}


namespace {

/// Rejects corrupted config fields before any allocation: every dimension
/// must be positive and small enough that its tensors could actually be
/// present in the remaining payload.
bool SaneDim(int64_t d) { return d > 0 && d <= (int64_t{1} << 24); }

bool SaneEmbedding(int64_t rows, int64_t cols, const BinaryReader& r) {
  if (!SaneDim(rows) || !SaneDim(cols)) return false;
  // The table's floats must fit in what is left of the buffer (slack for
  // headers).
  return static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) <=
         r.remaining() / sizeof(float) + 1024;
}

}  // namespace
Result<std::unique_ptr<DeepSetsModel>> DeepSetsModel::Load(BinaryReader* r) {
  auto tag = r->ReadString();
  if (!tag.ok()) return tag.status();
  if (*tag != "LSM") return Status::Internal("expected LSM model tag");
  DeepSetsConfig c;
  auto vocab = r->ReadI64();
  if (!vocab.ok()) return vocab.status();
  c.vocab = *vocab;
  auto ed = r->ReadI64();
  if (!ed.ok()) return ed.status();
  c.embed_dim = *ed;
  auto np = r->ReadU64();
  if (!np.ok()) return np.status();
  c.phi_hidden.clear();
  for (uint64_t i = 0; i < *np; ++i) {
    auto d = r->ReadI64();
    if (!d.ok()) return d.status();
    c.phi_hidden.push_back(*d);
  }
  auto nr = r->ReadU64();
  if (!nr.ok()) return nr.status();
  c.rho_hidden.clear();
  for (uint64_t i = 0; i < *nr; ++i) {
    auto d = r->ReadI64();
    if (!d.ok()) return d.status();
    c.rho_hidden.push_back(*d);
  }
  auto ha = r->ReadU32();
  if (!ha.ok()) return ha.status();
  c.hidden_act = static_cast<nn::Activation>(*ha);
  auto oa = r->ReadU32();
  if (!oa.ok()) return oa.status();
  c.output_act = static_cast<nn::Activation>(*oa);
  auto po = r->ReadU32();
  if (!po.ok()) return po.status();
  c.pooling = static_cast<nn::Pooling>(*po);
  auto seed = r->ReadU64();
  if (!seed.ok()) return seed.status();
  c.seed = *seed;
  if (!SaneEmbedding(c.vocab, c.embed_dim, *r)) {
    return Status::Internal("corrupt LSM dimensions");
  }
  for (int64_t d : c.phi_hidden) {
    if (!SaneDim(d)) return Status::Internal("corrupt LSM phi width");
  }
  for (int64_t d : c.rho_hidden) {
    if (!SaneDim(d)) return Status::Internal("corrupt LSM rho width");
  }
  auto model = std::make_unique<DeepSetsModel>(c);
  LOS_RETURN_NOT_OK(model->embed_.Load(r));
  if (!c.phi_hidden.empty()) LOS_RETURN_NOT_OK(model->phi_.Load(r));
  LOS_RETURN_NOT_OK(model->rho_.Load(r));
  return model;
}

}  // namespace los::deepsets
