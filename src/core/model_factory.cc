#include "core/model_factory.h"

namespace los::core {

Result<std::unique_ptr<deepsets::SetModel>> MakeSetModel(
    const ModelOptions& options, int64_t vocab) {
  deepsets::DeepSetsConfig c;
  c.vocab = vocab;
  c.embed_dim = options.embed_dim;
  c.phi_hidden = options.phi_hidden;
  c.rho_hidden = options.rho_hidden;
  c.pooling = options.pooling;
  c.output_act = nn::Activation::kSigmoid;
  c.seed = options.seed;
  c.compressed = options.compressed;
  c.ns = options.ns;
  c.divisor_override = options.divisor_override;
  auto model = deepsets::DeepSetsModel::Create(c);
  if (!model.ok()) return model.status();
  return std::unique_ptr<deepsets::SetModel>(std::move(*model));
}

void SaveSetModel(const deepsets::SetModel& model, BinaryWriter* w) {
  w->WriteString(model.name());
  model.Save(w);
}

Result<std::unique_ptr<deepsets::SetModel>> LoadSetModel(BinaryReader* r) {
  auto kind = r->ReadString();
  if (!kind.ok()) return kind.status();
  if (*kind == "LSM" || *kind == "CLSM") {
    auto m = deepsets::DeepSetsModel::Load(r);
    if (!m.ok()) return m.status();
    if ((*m)->name() != *kind) return Status::DataLoss("model kind mismatch");
    return std::unique_ptr<deepsets::SetModel>(std::move(*m));
  }
  if (*kind == "SetTransformer") {
    auto m = deepsets::SetTransformerModel::Load(r);
    if (!m.ok()) return m.status();
    return std::unique_ptr<deepsets::SetModel>(std::move(*m));
  }
  return Status::Internal("unknown model kind: " + *kind);
}

}  // namespace los::core
