#ifndef LOS_CORE_MODEL_FACTORY_H_
#define LOS_CORE_MODEL_FACTORY_H_

#include <memory>

#include "common/status.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"
#include "deepsets/set_model.h"

namespace los::core {

/// Model-architecture knobs shared by the three learned structures
/// (the dimensions swept in §8.1).
struct ModelOptions {
  bool compressed = false;        ///< LSM vs CLSM
  int ns = 2;                     ///< CLSM sub-elements
  uint64_t divisor_override = 0;  ///< CLSM sv_d tuning (0 = optimal)
  int64_t embed_dim = 8;
  std::vector<int64_t> phi_hidden = {32};
  std::vector<int64_t> rho_hidden = {32};
  nn::Pooling pooling = nn::Pooling::kSum;
  uint64_t seed = 42;
};

/// Builds an LSM or CLSM with a sigmoid scalar head for universe size
/// `vocab`.
Result<std::unique_ptr<deepsets::SetModel>> MakeSetModel(
    const ModelOptions& options, int64_t vocab);

/// Serializes any SetModel with a leading type marker so LoadSetModel can
/// dispatch to the right implementation.
void SaveSetModel(const deepsets::SetModel& model, BinaryWriter* w);

/// Inverse of SaveSetModel.
Result<std::unique_ptr<deepsets::SetModel>> LoadSetModel(BinaryReader* r);

}  // namespace los::core

#endif  // LOS_CORE_MODEL_FACTORY_H_
