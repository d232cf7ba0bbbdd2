// Numerical gradient checks for every hand-written backward pass: Dense,
// MLP, DeepSetsModel (LSM over all poolings, CLSM over ns), LSTM, GRU.
// Analytic gradients from Backward() are compared against central finite
// differences of the forward pass.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "common/random.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"
#include "nn/init.h"
#include "nn/mlp.h"
#include "nn/rnn.h"

namespace los {
namespace {

using deepsets::DeepSetsConfig;
using deepsets::DeepSetsModel;
using deepsets::SetModel;
using nn::Activation;
using nn::Parameter;
using nn::Pooling;
using nn::Tensor;

/// Weighted sum of a tensor with a fixed coefficient tensor: the scalar
/// objective whose parameter gradient we check.
double WeightedSum(const Tensor& out, const Tensor& coeff) {
  double s = 0.0;
  for (int64_t i = 0; i < out.size(); ++i) {
    s += static_cast<double>(out.data()[i]) * coeff.data()[i];
  }
  return s;
}

/// Central-difference vs. analytic gradient comparison over all parameters.
/// `forward` must recompute the objective from current parameter values;
/// `params` must already hold analytic grads for that objective.
void CheckGradients(const std::vector<Parameter*>& params,
                    const std::function<double()>& forward,
                    double eps = 1e-3, double tol = 2e-2) {
  size_t checked = 0;
  for (Parameter* p : params) {
    for (int64_t i = 0; i < p->value.size(); ++i) {
      float saved = p->value.data()[i];
      p->value.data()[i] = saved + static_cast<float>(eps);
      double up = forward();
      p->value.data()[i] = saved - static_cast<float>(eps);
      double down = forward();
      p->value.data()[i] = saved;
      double numeric = (up - down) / (2.0 * eps);
      double analytic = static_cast<double>(p->grad.data()[i]);
      double denom = std::max({std::abs(numeric), std::abs(analytic), 1.0});
      EXPECT_NEAR(numeric / denom, analytic / denom, tol)
          << "param entry " << i << " numeric=" << numeric
          << " analytic=" << analytic;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(GradCheck, DenseLayerAllActivations) {
  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kSigmoid, Activation::kTanh}) {
    Rng rng(11);
    nn::Dense dense(3, 2, act, &rng);
    Tensor x(4, 3);
    GaussianInit(&x, 1.0f, &rng);
    Tensor coeff(4, 2);
    GaussianInit(&coeff, 1.0f, &rng);

    Tensor y;
    dense.Forward(x, &y);
    Tensor dy = coeff;
    dense.weight()->ZeroGrad();
    dense.bias()->ZeroGrad();
    dense.Backward(x, y, &dy, nullptr);

    std::vector<Parameter*> params{dense.weight(), dense.bias()};
    Tensor scratch;
    CheckGradients(params, [&]() {
      dense.Forward(x, &scratch);
      return WeightedSum(scratch, coeff);
    });
  }
}

TEST(GradCheck, DenseInputGradient) {
  Rng rng(5);
  nn::Dense dense(3, 2, Activation::kTanh, &rng);
  Tensor x(2, 3);
  GaussianInit(&x, 1.0f, &rng);
  Tensor coeff(2, 2);
  GaussianInit(&coeff, 1.0f, &rng);

  Tensor y;
  dense.Forward(x, &y);
  Tensor dy = coeff;
  Tensor dx;
  dense.Backward(x, y, &dy, &dx);

  const double eps = 1e-3;
  Tensor scratch;
  for (int64_t i = 0; i < x.size(); ++i) {
    float saved = x.data()[i];
    x.data()[i] = saved + static_cast<float>(eps);
    dense.Forward(x, &scratch);
    double up = WeightedSum(scratch, coeff);
    x.data()[i] = saved - static_cast<float>(eps);
    dense.Forward(x, &scratch);
    double down = WeightedSum(scratch, coeff);
    x.data()[i] = saved;
    EXPECT_NEAR((up - down) / (2 * eps), dx.data()[i], 2e-2);
  }
}

TEST(GradCheck, MlpTwoLayers) {
  Rng rng(21);
  nn::Mlp mlp({3, 5, 2}, Activation::kTanh, Activation::kSigmoid, &rng);
  Tensor x(3, 3);
  GaussianInit(&x, 1.0f, &rng);
  Tensor coeff(3, 2);
  GaussianInit(&coeff, 1.0f, &rng);

  nn::Mlp::Workspace ws;
  mlp.Forward(x, &ws);
  Tensor dy = coeff;
  std::vector<Parameter*> params;
  mlp.CollectParameters(&params);
  for (auto* p : params) p->ZeroGrad();
  mlp.Backward(x, &ws, &dy, nullptr);

  nn::Mlp::Workspace ws2;
  CheckGradients(params, [&]() {
    return WeightedSum(mlp.Forward(x, &ws2), coeff);
  });
}

// A small batch of variable-size sets for the set-model checks.
struct SetBatch {
  std::vector<sets::ElementId> ids{3, 7, 1, 9, 9, 2, 0, 5};
  std::vector<int64_t> offsets{0, 3, 4, 8};
};

void CheckSetModel(SetModel* model) {
  Rng rng(33);
  SetBatch batch;
  Tensor coeff(3, 1);
  GaussianInit(&coeff, 1.0f, &rng);

  model->Forward(batch.ids, batch.offsets);
  std::vector<Parameter*> params;
  model->CollectParameters(&params);
  for (auto* p : params) p->ZeroGrad();
  model->Backward(coeff);

  CheckGradients(params, [&]() {
    return WeightedSum(model->Forward(batch.ids, batch.offsets), coeff);
  });
}

class DeepSetsGradCheck : public ::testing::TestWithParam<Pooling> {};

TEST_P(DeepSetsGradCheck, AllParametersMatchNumeric) {
  DeepSetsConfig c;
  c.vocab = 10;
  c.embed_dim = 3;
  c.hidden_act = Activation::kTanh;  // smooth: finite differences hate ReLU kinks
  c.phi_hidden = {4};
  c.rho_hidden = {4};
  c.pooling = GetParam();
  c.output_act = Activation::kSigmoid;
  c.seed = 17;
  auto model = DeepSetsModel::Create(c);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  CheckSetModel(model->get());
}

/// Runs Forward and Backward over `ids`/`offsets` with upstream gradient
/// `coeff`; returns the parameters, holding their gradients.
std::vector<Parameter*> Gradients(SetModel* model,
                                  const std::vector<sets::ElementId>& ids,
                                  const std::vector<int64_t>& offsets,
                                  const Tensor& coeff) {
  std::vector<Parameter*> params;
  model->CollectParameters(&params);
  for (auto* p : params) p->ZeroGrad();
  model->Forward(ids, offsets);
  model->Backward(coeff);
  return params;
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// With ns = 1 the compressor is the identity, so a one-slot CLSM is the
// LSM of the same config and seed: every prediction, parameter and
// gradient must be equal bit for bit.
TEST_P(DeepSetsGradCheck, OneSlotClsmMatchesLsmBitForBit) {
  for (bool with_phi : {false, true}) {
    DeepSetsConfig c;
    c.vocab = 10;
    c.embed_dim = 3;
    c.phi_hidden = with_phi ? std::vector<int64_t>{4} : std::vector<int64_t>{};
    c.rho_hidden = {4};
    c.pooling = GetParam();
    c.seed = 17;
    auto lsm = DeepSetsModel::Create(c);
    c.compressed = true;
    c.ns = 1;
    auto clsm = DeepSetsModel::Create(c);
    ASSERT_TRUE(lsm.ok() && clsm.ok());
    ASSERT_EQ((*clsm)->name(), "CLSM");

    // 100 random sets of 0-8 elements, repeats allowed.
    Rng rng(41);
    std::vector<sets::ElementId> ids;
    std::vector<int64_t> offsets{0};
    for (int s = 0; s < 100; ++s) {
      for (int i = 0; i < s % 9; ++i) {
        ids.push_back(static_cast<sets::ElementId>(rng.Uniform(10)));
      }
      offsets.push_back(static_cast<int64_t>(ids.size()));
    }
    std::vector<sets::SetView> views;
    for (size_t s = 0; s + 1 < offsets.size(); ++s) {
      views.emplace_back(ids.data() + offsets[s],
                         static_cast<size_t>(offsets[s + 1] - offsets[s]));
    }
    const std::vector<double> lsm_batch = (*lsm)->PredictBatch(views);
    const std::vector<double> clsm_batch = (*clsm)->PredictBatch(views);
    ASSERT_EQ(lsm_batch.size(), views.size());
    ASSERT_EQ(clsm_batch.size(), views.size());
    EXPECT_EQ(std::memcmp(lsm_batch.data(), clsm_batch.data(),
                          views.size() * sizeof(double)),
              0);
    for (size_t s = 0; s < views.size(); ++s) {
      const double a = (*lsm)->PredictOne(views[s]);
      const double b = (*clsm)->PredictOne(views[s]);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
          << "phi " << with_phi << ", set " << s;
    }

    Tensor coeff(static_cast<int64_t>(views.size()), 1);
    GaussianInit(&coeff, 1.0f, &rng);
    const auto lsm_params = Gradients(lsm->get(), ids, offsets, coeff);
    const auto clsm_params = Gradients(clsm->get(), ids, offsets, coeff);
    ASSERT_EQ(lsm_params.size(), clsm_params.size());
    for (size_t p = 0; p < lsm_params.size(); ++p) {
      EXPECT_TRUE(SameBits(lsm_params[p]->value, clsm_params[p]->value))
          << "phi " << with_phi << ", parameter " << p;
      EXPECT_TRUE(SameBits(lsm_params[p]->grad, clsm_params[p]->grad))
          << "phi " << with_phi << ", gradient of parameter " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Poolings, DeepSetsGradCheck,
                         ::testing::Values(Pooling::kSum, Pooling::kMean,
                                           Pooling::kMax));

TEST(GradCheck, DeepSetsWithoutPhi) {
  DeepSetsConfig c;
  c.vocab = 10;
  c.embed_dim = 3;
  c.hidden_act = Activation::kTanh;
  c.phi_hidden = {};
  c.rho_hidden = {4};
  c.seed = 23;
  auto model = DeepSetsModel::Create(c);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  CheckSetModel(model->get());
}

class CompressedGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(CompressedGradCheck, AllParametersMatchNumeric) {
  DeepSetsConfig c;
  c.vocab = 10;
  c.embed_dim = 2;
  c.hidden_act = Activation::kTanh;
  c.phi_hidden = {5};
  c.rho_hidden = {4};
  c.seed = 29;
  c.compressed = true;
  c.ns = GetParam();
  auto model = DeepSetsModel::Create(c);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  CheckSetModel(model->get());
}

INSTANTIATE_TEST_SUITE_P(NsValues, CompressedGradCheck,
                         ::testing::Values(1, 2, 3));

class SetTransformerGradCheck : public ::testing::TestWithParam<int> {};

TEST_P(SetTransformerGradCheck, MatchesNumericForHeads) {
  deepsets::SetTransformerConfig cfg;
  cfg.vocab = 10;
  cfg.embed_dim = 3;
  cfg.att_dim = 4;
  cfg.num_heads = GetParam();
  cfg.ff_hidden = 5;
  cfg.rho_hidden = {4};
  cfg.hidden_act = Activation::kTanh;
  cfg.seed = 51;
  auto model = deepsets::SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // ReLU kinks in ff/rho: use a larger eps + tolerance.
  Rng rng(33);
  SetBatch batch;
  Tensor coeff(3, 1);
  GaussianInit(&coeff, 1.0f, &rng);
  (*model)->Forward(batch.ids, batch.offsets);
  std::vector<Parameter*> params;
  (*model)->CollectParameters(&params);
  for (auto* p : params) p->ZeroGrad();
  (*model)->Backward(coeff);
  CheckGradients(
      params,
      [&]() {
        return WeightedSum((*model)->Forward(batch.ids, batch.offsets),
                           coeff);
      },
      /*eps=*/1e-2, /*tol=*/4e-2);
}

INSTANTIATE_TEST_SUITE_P(Heads, SetTransformerGradCheck,
                         ::testing::Values(1, 2, 4));

class RnnGradCheck : public ::testing::TestWithParam<nn::RnnKind> {};

TEST_P(RnnGradCheck, SequenceRegressorMatchesNumeric) {
  Rng rng(41);
  nn::SequenceRegressor model(GetParam(), /*vocab=*/8, /*embed_dim=*/3,
                              /*hidden_dim=*/4, &rng);
  // Batch of 2 sequences of length 3.
  std::vector<uint32_t> ids{1, 5, 2, 7, 0, 3};
  const int64_t batch = 2, len = 3;
  Tensor coeff(batch, 1);
  GaussianInit(&coeff, 1.0f, &rng);

  std::vector<Parameter*> params;
  model.CollectParameters(&params);
  for (auto* p : params) p->ZeroGrad();
  Tensor out;
  model.ForwardBackward(ids, batch, len, &out, coeff);

  Tensor scratch;
  CheckGradients(
      params,
      [&]() {
        model.Forward(ids, batch, len, &scratch);
        return WeightedSum(scratch, coeff);
      },
      /*eps=*/1e-2, /*tol=*/3e-2);
}

INSTANTIATE_TEST_SUITE_P(Cells, RnnGradCheck,
                         ::testing::Values(nn::RnnKind::kLstm,
                                           nn::RnnKind::kGru));

}  // namespace
}  // namespace los
