// Bit identity of the single-query inference path. SetModel::PredictOne
// runs LSM and CLSM through Dense::ForwardRows (the nn::DenseRows kernel:
// φ over all of a query's element rows in one call, ρ on the pooled row)
// instead of the batched Tensor forward, and LearnedBloomFilter's
// no-false-negative guarantee needs both to agree exactly. This checks:
//   - Dense::ForwardRows and Dense::Forward (one kernel, nn::DenseRows)
//     against the chain the training forward used to run, nn::Gemm then
//     AddRowBroadcast then an activation pass, kept in the test, at 1-9,
//     17 and 2048 rows (every fused tile height and short last tile,
//     against each instance of the GEMM tile kernel: one row, rows as
//     lanes, 8-row tiles, threaded) and at training's 513 and 1,300 rows
//     for φ's and ρ's shapes, every activation, the paper's layer shapes
//     and 1-wide heads whose k leaves a partial tail or spans two 256-step
//     blocks, with ±0 and NaN inputs;
//   - PredictOne against PredictBatch over pooling, hidden activation, φ
//     depth and ρ width for LSM and CLSM, on sets of 0-8 elements;
//   - a learned Bloom filter answering MayContain for every member.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iomanip>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/learned_bloom.h"
#include "deepsets/deepsets_model.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"

namespace los {
namespace {

using nn::Activation;

constexpr int64_t kHeights[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 2048};
/// Training's batch heights, for φ (16 -> 64, 8 -> 32) and ρ (64 -> 64,
/// 64 -> 1): a last row tile and a last 128-row chunk that are partial.
constexpr int64_t kTrainingHeights[] = {513, 1300};
constexpr int64_t kMinInputsPerCase = 2000;
constexpr Activation kActivations[] = {Activation::kNone, Activation::kRelu,
                                       Activation::kSigmoid,
                                       Activation::kTanh};

/// Every trainable value nudged by Gaussian noise, so biases are non-zero
/// and no weight sits at its initializer's structure.
void Perturb(const std::vector<nn::Parameter*>& params, float stddev,
             Rng* rng) {
  for (nn::Parameter* p : params) {
    nn::Tensor noise(p->value.rows(), p->value.cols());
    nn::GaussianInit(&noise, stddev, rng);
    for (int64_t i = 0; i < noise.size(); ++i) {
      p->value.data()[i] += noise.data()[i];
    }
  }
}

/// Sets about one input in 16 to +0, -0 or NaN. With the Gaussian rest
/// (negative pre-activations included) they pin ReLU's select (NaN and
/// -0 to +0) and which partial a 1-wide head's tail steps reach.
void SprinkleSpecials(nn::Tensor* x, Rng* rng) {
  const float specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::quiet_NaN()};
  for (int64_t e = 0; e < x->size(); ++e) {
    if (rng->Uniform(16) == 0) x->data()[e] = specials[rng->Uniform(3)];
  }
}

// ---------- Dense::Forward and ForwardRows vs Gemm + bias + act ----------

/// The training forward before it ran nn::DenseRows: Gemm into a zeroed
/// output, AddRowBroadcast, then a pass of the activation.
nn::Tensor ChainForward(const nn::Dense& layer, const nn::Tensor& x) {
  nn::Tensor y(x.rows(), layer.out_dim());
  nn::Gemm(x, false, layer.weight().value, false, 1.0f, 0.0f, &y);
  nn::AddRowBroadcast(layer.bias().value, &y);
  switch (layer.activation()) {
    case Activation::kNone:
      break;
    case Activation::kRelu:
      for (int64_t e = 0; e < y.size(); ++e) {
        y.data()[e] = y.data()[e] > 0.0f ? y.data()[e] : 0.0f;
      }
      break;
    case Activation::kSigmoid:
      nn::SigmoidInPlace(&y);
      break;
    case Activation::kTanh:
      nn::TanhInPlace(&y);
      break;
  }
  return y;
}

/// Counts the elements of the m x out floats at `got` whose bits differ
/// from `want`'s, keeping the first as text.
int64_t CountMismatches(const nn::Tensor& want, const float* got,
                        const char* what, std::string* first) {
  int64_t mismatches = 0;
  for (int64_t i = 0; i < want.rows(); ++i) {
    for (int64_t j = 0; j < want.cols(); ++j) {
      const float w = want(i, j);
      const float g = got[i * want.cols() + j];
      if (std::bit_cast<uint32_t>(w) == std::bit_cast<uint32_t>(g)) continue;
      ++mismatches;
      if (first->empty()) {
        std::ostringstream os;
        os << std::setprecision(9) << what << " row " << i << " col " << j
           << ": chain " << w << " vs " << g;
        *first = os.str();
      }
    }
  }
  return mismatches;
}

class DenseForwardRowTest
    : public testing::TestWithParam<std::pair<int64_t, int64_t>> {};

TEST_P(DenseForwardRowTest, MatchesEveryRowOfForward) {
  const auto [in, out] = GetParam();
  std::vector<int64_t> heights(std::begin(kHeights), std::end(kHeights));
  if ((in == 16 && out == 64) || (in == 8 && out == 32) ||
      (in == 64 && (out == 64 || out == 1))) {
    heights.insert(heights.end(), std::begin(kTrainingHeights),
                   std::end(kTrainingHeights));
  }
  Rng rng(static_cast<uint64_t>(in * 1000 + out));
  for (Activation act : kActivations) {
    nn::Dense layer(in, out, act, &rng);
    std::vector<nn::Parameter*> params;
    layer.CollectParameters(&params);
    Perturb(params, 0.1f, &rng);
    for (int64_t m : heights) {
      int64_t inputs = 0;
      int64_t mismatches = 0;
      std::string first;
      std::vector<float> rows(static_cast<size_t>(m * out));
      while (inputs < kMinInputsPerCase) {
        nn::Tensor x(m, in);
        nn::GaussianInit(&x, 1.0f, &rng);
        SprinkleSpecials(&x, &rng);
        const nn::Tensor want = ChainForward(layer, x);
        nn::Tensor y;
        layer.Forward(x, &y);
        layer.ForwardRows(x.data(), m, rows.data());
        ASSERT_TRUE(y.SameShape(want));
        mismatches += CountMismatches(want, y.data(), "Forward", &first);
        mismatches += CountMismatches(want, rows.data(), "ForwardRows", &first);
        inputs += m;
      }
      EXPECT_EQ(mismatches, 0)
          << in << "->" << out << " " << nn::ActivationName(act) << " m=" << m
          << ", first " << first;
    }
  }
}

std::string ShapeName(
    const testing::TestParamInfo<std::pair<int64_t, int64_t>>& info) {
  return std::to_string(info.param.first) + "to" +
         std::to_string(info.param.second);
}

INSTANTIATE_TEST_SUITE_P(
    PaperShapes, DenseForwardRowTest,
    testing::Values(std::make_pair(8, 32), std::make_pair(32, 32),
                    std::make_pair(32, 1), std::make_pair(16, 64),
                    std::make_pair(64, 64), std::make_pair(64, 1),
                    std::make_pair(33, 17), std::make_pair(512, 512),
                    std::make_pair(13, 1), std::make_pair(300, 1)),
    ShapeName);

// ---------- PredictOne vs PredictBatch ----------

constexpr uint32_t kVocab = 500;

using ModelParam = std::tuple<bool, nn::Pooling, Activation>;

std::unique_ptr<deepsets::SetModel> MakeModel(bool compressed,
                                              deepsets::DeepSetsConfig cfg) {
  cfg.compressed = compressed;
  cfg.ns = 2;
  return std::move(deepsets::DeepSetsModel::Create(cfg)).value();
}

/// `count` random sets whose sizes cycle through 0..8.
std::vector<std::vector<sets::ElementId>> RandomSets(size_t count,
                                                     Rng* rng) {
  std::vector<std::vector<sets::ElementId>> out(count);
  for (size_t i = 0; i < count; ++i) {
    auto& s = out[i];
    s.resize(i % 9);
    for (auto& e : s) e = static_cast<sets::ElementId>(rng->Uniform(kVocab));
    sets::Canonicalize(&s);
  }
  return out;
}

class PredictOneTest : public testing::TestWithParam<ModelParam> {};

TEST_P(PredictOneTest, MatchesPredictBatch) {
  const auto [compressed, pooling, act] = GetParam();
  const std::vector<std::vector<int64_t>> phis = {{}, {32}, {64, 32}};
  const std::vector<int64_t> rho_widths = {32, 64, 512};
  Rng rng(7);
  for (const auto& phi : phis) {
    for (int64_t rho : rho_widths) {
      deepsets::DeepSetsConfig base;
      base.vocab = kVocab;
      base.embed_dim = 8;
      base.phi_hidden = phi;
      base.rho_hidden = {rho};
      base.hidden_act = act;
      base.pooling = pooling;
      base.seed = rng.Next();
      auto model = MakeModel(compressed, base);
      std::vector<nn::Parameter*> params;
      model->CollectParameters(&params);
      Perturb(params, 0.05f, &rng);

      const auto raw = RandomSets(180, &rng);
      std::vector<sets::SetView> views;
      for (const auto& s : raw) views.emplace_back(s.data(), s.size());
      const std::vector<double> batched = model->PredictBatch(views);
      ASSERT_EQ(batched.size(), views.size());
      for (size_t i = 0; i < views.size(); ++i) {
        EXPECT_EQ(model->PredictOne(views[i]), batched[i])
            << model->name() << " phi " << phi.size() << " layers, rho "
            << rho << ", set " << i << " of size " << views[i].size();
      }
    }
  }
}

std::string ModelName(const testing::TestParamInfo<ModelParam>& info) {
  const auto [compressed, pooling, act] = info.param;
  return std::string(compressed ? "Clsm" : "Lsm") + "_" +
         nn::PoolingName(pooling) + "_" + nn::ActivationName(act);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, PredictOneTest,
    testing::Combine(testing::Bool(),
                     testing::Values(nn::Pooling::kSum, nn::Pooling::kMean,
                                     nn::Pooling::kMax),
                     testing::Values(Activation::kRelu, Activation::kTanh,
                                     Activation::kSigmoid)),
    ModelName);

// ---------- The guarantee the identity protects ----------

TEST(SingleRowBloomTest, EveryMemberIsContained) {
  for (bool compressed : {false, true}) {
    sets::RwConfig rw;
    rw.num_sets = 300;
    rw.num_unique = 80;
    const sets::SetCollection c = sets::GenerateRw(rw);
    core::BloomOptions opts;
    opts.model.compressed = compressed;
    opts.model.embed_dim = 8;
    opts.model.phi_hidden = {64};
    opts.model.rho_hidden = {64};
    opts.train.epochs = 4;
    opts.max_subset_size = 2;
    auto lbf = core::LearnedBloomFilter::Build(c, opts);
    ASSERT_TRUE(lbf.ok()) << lbf.status().ToString();
    const auto members = sets::EnumerateLabeledSubsets(c, {2});
    ASSERT_GT(members.size(), 0u);
    for (size_t i = 0; i < members.size(); ++i) {
      ASSERT_TRUE(lbf->MayContain(members.subset(i)))
          << (compressed ? "CLSM" : "LSM") << " false negative at member "
          << i;
    }
  }
}

}  // namespace
}  // namespace los
