#include "deepsets/compressed_model.h"

#include <cassert>

#include "common/trace.h"

namespace los::deepsets {

namespace {

std::vector<int64_t> WithPrefix(int64_t in, const std::vector<int64_t>& rest,
                                bool append_one) {
  std::vector<int64_t> dims{in};
  dims.insert(dims.end(), rest.begin(), rest.end());
  if (append_one) dims.push_back(1);
  return dims;
}

}  // namespace

CompressedDeepSetsModel::CompressedDeepSetsModel(
    const CompressedConfig& config, ElementCompressor compressor)
    : config_(config),
      compressor_(compressor),
      pool_(config.base.pooling) {
  Rng rng(config_.base.seed);
  const int ns = compressor_.ns();
  slot_embeds_.reserve(static_cast<size_t>(ns));
  for (int s = 0; s < ns; ++s) {
    slot_embeds_.emplace_back(
        static_cast<int64_t>(compressor_.SlotVocab(s)),
        config_.base.embed_dim, &rng);
  }
  const int64_t concat_dim = ns * config_.base.embed_dim;
  int64_t phi_out = concat_dim;
  if (has_phi()) {
    phi_ = nn::Mlp(WithPrefix(concat_dim, config_.base.phi_hidden, false),
                   config_.base.hidden_act, config_.base.hidden_act, &rng);
    phi_out = config_.base.phi_hidden.back();
  }
  rho_ = nn::Mlp(WithPrefix(phi_out, config_.base.rho_hidden, true),
                 config_.base.hidden_act, config_.base.output_act, &rng);
}

Result<std::unique_ptr<CompressedDeepSetsModel>>
CompressedDeepSetsModel::Create(const CompressedConfig& config) {
  if (config.base.vocab <= 0) {
    return Status::InvalidArgument("vocab must be positive");
  }
  auto comp = ElementCompressor::Create(
      static_cast<uint64_t>(config.base.vocab) - 1, config.ns,
      config.divisor_override);
  if (!comp.ok()) return comp.status();
  return std::unique_ptr<CompressedDeepSetsModel>(
      new CompressedDeepSetsModel(config, *comp));
}

struct CompressedDeepSetsModel::Activations : SetModel::Workspace {
  std::vector<uint32_t> sub;                    // one element's sub-elements
  std::vector<std::vector<uint32_t>> slot_ids;  // per slot, per element
  nn::Tensor concat;                            // (elements x ns*embed_dim)
  nn::Mlp::Workspace phi;
  nn::Tensor pooled;
  std::vector<int64_t> pool_argmax;
  nn::Mlp::Workspace rho;
};

std::unique_ptr<SetModel::Workspace> CompressedDeepSetsModel::NewWorkspace()
    const {
  return std::make_unique<Activations>();
}

SetModel::Workspace* CompressedDeepSetsModel::ThreadWorkspace() const {
  thread_local Activations ws;
  return &ws;
}

const nn::Tensor& CompressedDeepSetsModel::ForwardPass(
    const std::vector<sets::ElementId>& ids,
    const std::vector<int64_t>& offsets, Workspace* base) const {
  auto* ws = static_cast<Activations*>(base);
  TRACE_SPAN_VAR(span, "model", "model.forward");
  span.set_arg("elements", static_cast<double>(ids.size()));
  const size_t ns = static_cast<size_t>(compressor_.ns());
  const size_t n = ids.size();
  {
    TRACE_SPAN("model", "model.compress");
    ws->sub.resize(ns);
    ws->slot_ids.resize(ns);
    for (auto& slot : ws->slot_ids) slot.resize(n);
    for (size_t i = 0; i < n; ++i) {
      compressor_.CompressInto(ids[i], ws->sub.data());
      for (size_t s = 0; s < ns; ++s) ws->slot_ids[s][i] = ws->sub[s];
    }
  }
  const int64_t d = config_.base.embed_dim;
  {
    TRACE_SPAN("model", "model.embed_gather");
    ws->concat.ResizeAndZero(static_cast<int64_t>(n),
                             static_cast<int64_t>(ns) * d);
    for (size_t s = 0; s < ns; ++s) {
      slot_embeds_[s].ForwardInto(ws->slot_ids[s], &ws->concat,
                                  static_cast<int64_t>(s) * d);
    }
  }
  const nn::Tensor* phi_out = &ws->concat;
  if (has_phi()) {
    TRACE_SPAN("model", "model.phi");
    phi_out = &phi_.Forward(ws->concat, &ws->phi);
  }
  {
    TRACE_SPAN("model", "model.pool");
    pool_.Forward(*phi_out, offsets, &ws->pooled, &ws->pool_argmax);
  }
  TRACE_SPAN("model", "model.rho");
  return rho_.Forward(ws->pooled, &ws->rho);
}

void CompressedDeepSetsModel::BackwardPass(Workspace* base,
                                           const nn::Tensor& dout) {
  auto* ws = static_cast<Activations*>(base);
  nn::Tensor dy = dout;
  rho_.Backward(ws->pooled, &ws->rho, &dy, &dpooled_);
  const int64_t total_elements = static_cast<int64_t>(ws->ids.size());
  pool_.Backward(dpooled_, ws->offsets, ws->pool_argmax, total_elements,
                 &dphi_out_);
  const nn::Tensor* dconcat = &dphi_out_;
  if (has_phi()) {
    phi_.Backward(ws->concat, &ws->phi, &dphi_out_, &dconcat_);
    dconcat = &dconcat_;
  }
  const int64_t d = config_.base.embed_dim;
  for (size_t s = 0; s < ws->slot_ids.size(); ++s) {
    slot_embeds_[s].BackwardFrom(ws->slot_ids[s], *dconcat,
                                 static_cast<int64_t>(s) * d);
  }
}

void CompressedDeepSetsModel::CollectParameters(
    std::vector<nn::Parameter*>* out) {
  for (auto& e : slot_embeds_) e.CollectParameters(out);
  if (has_phi()) phi_.CollectParameters(out);
  rho_.CollectParameters(out);
}

size_t CompressedDeepSetsModel::ByteSize() const {
  size_t total = (has_phi() ? phi_.ByteSize() : 0) + rho_.ByteSize();
  for (const auto& e : slot_embeds_) total += e.ByteSize();
  return total;
}

void CompressedDeepSetsModel::Save(BinaryWriter* w) const {
  w->WriteString("CLSM");
  w->WriteI64(config_.base.vocab);
  w->WriteI64(config_.base.embed_dim);
  w->WriteU64(config_.base.phi_hidden.size());
  for (int64_t d : config_.base.phi_hidden) w->WriteI64(d);
  w->WriteU64(config_.base.rho_hidden.size());
  for (int64_t d : config_.base.rho_hidden) w->WriteI64(d);
  w->WriteU32(static_cast<uint32_t>(config_.base.hidden_act));
  w->WriteU32(static_cast<uint32_t>(config_.base.output_act));
  w->WriteU32(static_cast<uint32_t>(config_.base.pooling));
  w->WriteU64(config_.base.seed);
  w->WriteU32(static_cast<uint32_t>(config_.ns));
  w->WriteU64(config_.divisor_override);
  compressor_.Save(w);
  for (const auto& e : slot_embeds_) e.Save(w);
  if (has_phi()) phi_.Save(w);
  rho_.Save(w);
}


namespace {

/// Rejects corrupted config fields before any allocation: every dimension
/// must be positive and small enough that its tensors could actually be
/// present in the remaining payload.
bool SaneDimC(int64_t d) { return d > 0 && d <= (int64_t{1} << 24); }

bool SaneEmbeddingC(int64_t rows, int64_t cols, const BinaryReader& r) {
  if (!SaneDimC(rows) || !SaneDimC(cols)) return false;
  // The table's floats must fit in what is left of the buffer (slack for
  // headers).
  return static_cast<uint64_t>(rows) * static_cast<uint64_t>(cols) <=
         r.remaining() / sizeof(float) + 1024;
}

}  // namespace
Result<std::unique_ptr<CompressedDeepSetsModel>>
CompressedDeepSetsModel::Load(BinaryReader* r) {
  auto tag = r->ReadString();
  if (!tag.ok()) return tag.status();
  if (*tag != "CLSM") return Status::Internal("expected CLSM model tag");
  CompressedConfig c;
  auto vocab = r->ReadI64();
  if (!vocab.ok()) return vocab.status();
  c.base.vocab = *vocab;
  auto ed = r->ReadI64();
  if (!ed.ok()) return ed.status();
  c.base.embed_dim = *ed;
  auto np = r->ReadU64();
  if (!np.ok()) return np.status();
  c.base.phi_hidden.clear();
  for (uint64_t i = 0; i < *np; ++i) {
    auto d = r->ReadI64();
    if (!d.ok()) return d.status();
    c.base.phi_hidden.push_back(*d);
  }
  auto nr = r->ReadU64();
  if (!nr.ok()) return nr.status();
  c.base.rho_hidden.clear();
  for (uint64_t i = 0; i < *nr; ++i) {
    auto d = r->ReadI64();
    if (!d.ok()) return d.status();
    c.base.rho_hidden.push_back(*d);
  }
  auto ha = r->ReadU32();
  if (!ha.ok()) return ha.status();
  c.base.hidden_act = static_cast<nn::Activation>(*ha);
  auto oa = r->ReadU32();
  if (!oa.ok()) return oa.status();
  c.base.output_act = static_cast<nn::Activation>(*oa);
  auto po = r->ReadU32();
  if (!po.ok()) return po.status();
  c.base.pooling = static_cast<nn::Pooling>(*po);
  auto seed = r->ReadU64();
  if (!seed.ok()) return seed.status();
  c.base.seed = *seed;
  auto ns = r->ReadU32();
  if (!ns.ok()) return ns.status();
  c.ns = static_cast<int>(*ns);
  auto dv = r->ReadU64();
  if (!dv.ok()) return dv.status();
  c.divisor_override = *dv;
  auto comp = ElementCompressor::Load(r);
  if (!comp.ok()) return comp.status();
  if (c.ns < 1 || c.ns > 64 || comp->ns() != c.ns ||
      !SaneEmbeddingC(static_cast<int64_t>(comp->TotalVocab()),
                      c.base.embed_dim, *r)) {
    return Status::Internal("corrupt CLSM dimensions");
  }
  for (int64_t d : c.base.phi_hidden) {
    if (!SaneDimC(d)) return Status::Internal("corrupt CLSM phi width");
  }
  for (int64_t d : c.base.rho_hidden) {
    if (!SaneDimC(d)) return Status::Internal("corrupt CLSM rho width");
  }
  std::unique_ptr<CompressedDeepSetsModel> model(
      new CompressedDeepSetsModel(c, *comp));
  for (auto& e : model->slot_embeds_) LOS_RETURN_NOT_OK(e.Load(r));
  if (!c.base.phi_hidden.empty()) LOS_RETURN_NOT_OK(model->phi_.Load(r));
  LOS_RETURN_NOT_OK(model->rho_.Load(r));
  return model;
}

}  // namespace los::deepsets
