#include "deepsets/deepsets_model.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "common/random.h"
#include "common/trace.h"

namespace los::deepsets {

namespace {

/// Builds {in, hidden...} dims, plus a final 1 for ρ's scalar head.
std::vector<int64_t> LayerDims(int64_t in, const std::vector<int64_t>& hidden,
                               bool scalar_head) {
  std::vector<int64_t> dims{in};
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  if (scalar_head) dims.push_back(1);
  return dims;
}

/// \brief Scratch of the single-set forward (PredictOne). Buffers only
/// grow, so a warmed thread allocates nothing; the float rows are
/// cache-line aligned like the weights they meet.
struct RowScratch {
  std::vector<uint32_t> sub;    ///< CLSM: each element's sub-elements
  nn::AlignedVector<float> in;  ///< gathered φ inputs (elements x in_dim)
  nn::AlignedVector<float> pooled;
  nn::AlignedVector<float> ping, pong;  ///< Mlp::ForwardRows scratch

  /// `v` grown to at least `n` entries; returns its data.
  template <typename V>
  static auto* Grow(V* v, size_t n) {
    if (v->size() < n) v->resize(n);
    return v->data();
  }
};

}  // namespace

DeepSetsModel::DeepSetsModel(const DeepSetsConfig& config,
                             ElementCompressor compressor)
    : config_(config), compressor_(compressor), pool_(config.pooling) {
  Rng rng(config_.seed);
  const int ns = compressor_.ns();
  slot_embeds_.reserve(static_cast<size_t>(ns));
  for (int s = 0; s < ns; ++s) {
    slot_embeds_.emplace_back(static_cast<int64_t>(compressor_.SlotVocab(s)),
                              config_.embed_dim, &rng);
  }
  int64_t phi_out = ns * config_.embed_dim;
  if (has_phi()) {
    phi_ = nn::Mlp(LayerDims(phi_out, config_.phi_hidden, false),
                   config_.hidden_act, config_.hidden_act, &rng);
    phi_out = config_.phi_hidden.back();
  }
  rho_ = nn::Mlp(LayerDims(phi_out, config_.rho_hidden, true),
                 config_.hidden_act, config_.output_act, &rng);
}

Result<std::unique_ptr<DeepSetsModel>> DeepSetsModel::Create(
    const DeepSetsConfig& config) {
  if (config.vocab <= 0) {
    return Status::InvalidArgument("vocab must be positive");
  }
  auto comp = ElementCompressor::Create(
      static_cast<uint64_t>(config.vocab) - 1,
      config.compressed ? config.ns : 1,
      config.compressed ? config.divisor_override : 0);
  if (!comp.ok()) return comp.status();
  return std::unique_ptr<DeepSetsModel>(new DeepSetsModel(config, *comp));
}

struct DeepSetsModel::Activations : SetModel::Workspace {
  std::vector<std::vector<uint32_t>> slot_ids;  // CLSM: per slot, per element
  nn::Tensor embedded;  // (elements x ns*embed_dim), slots side by side
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

const std::vector<uint32_t>& DeepSetsModel::SlotIds(
    const Activations& ws, const std::vector<sets::ElementId>& ids,
    size_t s) const {
  return config_.compressed ? ws.slot_ids[s] : ids;
}

const nn::Tensor& DeepSetsModel::ForwardPass(
    const std::vector<sets::ElementId>& ids,
    const std::vector<int64_t>& offsets, Workspace* base) const {
  auto* ws = static_cast<Activations*>(base);
  TRACE_SPAN_VAR(span, "model", "model.forward");
  span.set_arg("elements", static_cast<double>(ids.size()));
  const size_t ns = static_cast<size_t>(compressor_.ns());
  const size_t n = ids.size();
  if (config_.compressed) {
    TRACE_SPAN("model", "model.compress");
    uint32_t sub[ElementCompressor::kMaxNs] = {};
    ws->slot_ids.resize(ns);
    for (auto& slot : ws->slot_ids) slot.resize(n);
    for (size_t i = 0; i < n; ++i) {
      compressor_.CompressInto(ids[i], sub);
      for (size_t s = 0; s < ns; ++s) ws->slot_ids[s][i] = sub[s];
    }
  }
  const int64_t d = config_.embed_dim;
  {
    TRACE_SPAN("model", "model.embed_gather");
    // Every column is overwritten by exactly one slot's gather.
    const auto rows = static_cast<int64_t>(n);
    const auto cols = static_cast<int64_t>(ns) * d;
    if (ws->embedded.rows() != rows || ws->embedded.cols() != cols) {
      ws->embedded.ResizeAndZero(rows, cols);
    }
    for (size_t s = 0; s < ns; ++s) {
      slot_embeds_[s].ForwardInto(SlotIds(*ws, ids, s), &ws->embedded,
                                  static_cast<int64_t>(s) * d);
    }
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

double DeepSetsModel::PredictOne(sets::SetView s) const {
  RowScratch* rs = &static_cast<Activations*>(ThreadWorkspace())->row;
  TRACE_SPAN_VAR(span, "model", "model.forward");
  const size_t n = s.size();
  span.set_arg("elements", static_cast<double>(n));
  TRACE_SPAN_VAR(stage, "model",
                 config_.compressed ? "model.compress" : "model.embed_gather");
  const size_t ns = static_cast<size_t>(compressor_.ns());
  const uint32_t* sub = s.data();  // the LSM's one slot is the element
  if (config_.compressed) {
    uint32_t* out = RowScratch::Grow(&rs->sub, n * ns);
    for (size_t i = 0; i < n; ++i) compressor_.CompressInto(s[i], out + i * ns);
    sub = out;
    stage.Next("model.embed_gather");
  }
  const size_t d = static_cast<size_t>(config_.embed_dim);
  const size_t in_dim = ns * d;
  float* in = RowScratch::Grow(&rs->in, n * in_dim);
  for (size_t t = 0; t < ns; ++t) {
    const nn::Tensor& table = slot_embeds_[t].table().value;
    for (size_t i = 0; i < n; ++i) {
      const int64_t id = sub[i * ns + t];
      assert(id < table.rows());
      std::memcpy(in + i * in_dim + t * d, table.row(id), d * sizeof(float));
    }
  }
  // φ over all n element rows in one call, then pool into one row, then
  // ρ on it; both ping-pong the same two buffers.
  const size_t width = std::max(
      has_phi() ? n * static_cast<size_t>(phi_.max_width()) : 0,
      static_cast<size_t>(rho_.max_width()));
  float* ping = RowScratch::Grow(&rs->ping, width);
  float* pong = RowScratch::Grow(&rs->pong, width);
  const float* rows = in;
  size_t row_dim = in_dim;
  if (has_phi()) {
    stage.Next("model.phi");
    rows = phi_.ForwardRows(in, static_cast<int64_t>(n), ping, pong);
    row_dim = static_cast<size_t>(phi_.out_dim());
  }
  stage.Next("model.pool");
  float* pooled = RowScratch::Grow(&rs->pooled, row_dim);
  pool_.ForwardRow(rows, static_cast<int64_t>(n),
                   static_cast<int64_t>(row_dim), pooled);
  stage.Next("model.rho");
  return static_cast<double>(rho_.ForwardRows(pooled, 1, ping, pong)[0]);
}

void DeepSetsModel::BackwardPass(Workspace* base, const nn::Tensor& dout) {
  auto* ws = static_cast<Activations*>(base);
  nn::Tensor dy = dout;
  rho_.Backward(ws->pooled, &ws->rho, &dy, &dpooled_);
  const int64_t total_elements = static_cast<int64_t>(ws->ids.size());
  pool_.Backward(dpooled_, ws->offsets, ws->pool_argmax, total_elements,
                 &dphi_out_);
  const nn::Tensor* dembedded = &dphi_out_;
  if (has_phi()) {
    phi_.Backward(ws->embedded, &ws->phi, &dphi_out_, &dembedded_);
    dembedded = &dembedded_;
  }
  const int64_t d = config_.embed_dim;
  for (size_t s = 0; s < slot_embeds_.size(); ++s) {
    slot_embeds_[s].BackwardFrom(SlotIds(*ws, ws->ids, s), *dembedded,
                                 static_cast<int64_t>(s) * d);
  }
}

void DeepSetsModel::CollectParameters(std::vector<nn::Parameter*>* out) {
  for (auto& e : slot_embeds_) e.CollectParameters(out);
  if (has_phi()) phi_.CollectParameters(out);
  rho_.CollectParameters(out);
}

size_t DeepSetsModel::ByteSize() const {
  size_t total = (has_phi() ? phi_.ByteSize() : 0) + rho_.ByteSize();
  for (const auto& e : slot_embeds_) total += e.ByteSize();
  return total;
}

// Format: name(), the shared config, then for a CLSM its ns,
// divisor_override and compressor, then the slot tables, φ and ρ.
void DeepSetsModel::Save(BinaryWriter* w) const {
  w->WriteString(name());
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
  if (config_.compressed) {
    w->WriteU32(static_cast<uint32_t>(config_.ns));
    w->WriteU64(config_.divisor_override);
    compressor_.Save(w);
  }
  for (const auto& e : slot_embeds_) e.Save(w);
  if (has_phi()) phi_.Save(w);
  rho_.Save(w);
}

namespace {

/// Rejects corrupted config fields before any allocation: every dimension
/// must be positive and small enough that its tensors could actually be
/// present in the remaining payload.
constexpr int64_t kMaxDim = int64_t{1} << 24;

bool SaneDim(int64_t d) { return d > 0 && d <= kMaxDim; }

/// True when every slot table of `comp` has a sane row count and all of
/// them fit in what is left of the buffer (slack for headers).
bool SaneEmbeddings(const ElementCompressor& comp, int64_t embed_dim,
                    const BinaryReader& r) {
  if (!SaneDim(embed_dim)) return false;
  uint64_t rows = 0;  // at most 64 slots of 2^24 rows: cannot overflow
  for (int s = 0; s < comp.ns(); ++s) {
    const uint64_t v = comp.SlotVocab(s);
    if (v == 0 || v > static_cast<uint64_t>(kMaxDim)) return false;
    rows += v;
  }
  return rows * static_cast<uint64_t>(embed_dim) <=
         r.remaining() / sizeof(float) + 1024;
}

Result<std::vector<int64_t>> ReadDims(BinaryReader* r) {
  uint64_t count = 0;
  LOS_ASSIGN_OR_RETURN(count, r->ReadU64());
  std::vector<int64_t> dims;
  for (uint64_t i = 0; i < count; ++i) {
    int64_t d = 0;
    LOS_ASSIGN_OR_RETURN(d, r->ReadI64());
    if (!SaneDim(d)) return Status::DataLoss("corrupt model layer width");
    dims.push_back(d);
  }
  return dims;
}

}  // namespace

Result<std::unique_ptr<DeepSetsModel>> DeepSetsModel::Load(BinaryReader* r) {
  std::string tag;
  LOS_ASSIGN_OR_RETURN(tag, r->ReadString());
  DeepSetsConfig c;
  c.compressed = tag == "CLSM";
  if (!c.compressed && tag != "LSM") {
    return Status::Internal("expected LSM or CLSM model tag");
  }
  LOS_ASSIGN_OR_RETURN(c.vocab, r->ReadI64());
  LOS_ASSIGN_OR_RETURN(c.embed_dim, r->ReadI64());
  LOS_ASSIGN_OR_RETURN(c.phi_hidden, ReadDims(r));
  LOS_ASSIGN_OR_RETURN(c.rho_hidden, ReadDims(r));
  uint32_t hidden_act = 0, output_act = 0, pooling = 0;
  LOS_ASSIGN_OR_RETURN(hidden_act, r->ReadU32());
  LOS_ASSIGN_OR_RETURN(output_act, r->ReadU32());
  LOS_ASSIGN_OR_RETURN(pooling, r->ReadU32());
  c.hidden_act = static_cast<nn::Activation>(hidden_act);
  c.output_act = static_cast<nn::Activation>(output_act);
  c.pooling = static_cast<nn::Pooling>(pooling);
  LOS_ASSIGN_OR_RETURN(c.seed, r->ReadU64());
  // No cap here: a CLSM's vocab may exceed 2^24, since only its slot
  // tables are allocated, and SaneEmbeddings caps each of them (for the
  // LSM, the one table of vocab rows).
  if (c.vocab <= 0) return Status::DataLoss("corrupt model vocab");
  const uint64_t max_value = static_cast<uint64_t>(c.vocab) - 1;
  auto comp = ElementCompressor::Create(max_value, 1);
  if (c.compressed) {
    uint32_t ns = 0;
    LOS_ASSIGN_OR_RETURN(ns, r->ReadU32());
    c.ns = static_cast<int>(ns);
    LOS_ASSIGN_OR_RETURN(c.divisor_override, r->ReadU64());
    comp = ElementCompressor::Load(r);
    if (!comp.ok()) return comp.status();
    if (comp->ns() != c.ns) return Status::DataLoss("corrupt CLSM ns");
  }
  // An element below vocab must land inside every slot's table.
  if (comp->max_value() != max_value ||
      !SaneEmbeddings(*comp, c.embed_dim, *r)) {
    return Status::DataLoss("corrupt model dimensions");
  }
  std::unique_ptr<DeepSetsModel> model(new DeepSetsModel(c, *comp));
  const auto built = model->ParameterShapes();
  for (auto& e : model->slot_embeds_) LOS_RETURN_NOT_OK(e.Load(r));
  if (model->has_phi()) LOS_RETURN_NOT_OK(model->phi_.Load(r));
  LOS_RETURN_NOT_OK(model->rho_.Load(r));
  // The stored tensors must have the shapes the config implies: a table
  // shorter than its slot's vocab would be read past by a covered query.
  if (model->ParameterShapes() != built) {
    return Status::DataLoss("model tensor shapes do not match its config");
  }
  return model;
}

}  // namespace los::deepsets
