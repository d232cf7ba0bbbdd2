// Property and unit tests for the DeepSets models: permutation invariance,
// variable set sizes, compression losslessness, the φ-interconnection
// property of §5, and model persistence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "deepsets/compression.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"

namespace los::deepsets {
namespace {

using nn::Activation;
using nn::Pooling;
using nn::Tensor;

// ---------- ElementCompressor (Algorithm 1) ----------

TEST(CompressorTest, PaperExampleNs2Max100) {
  // Figure 4: max id 100, ns = 2 -> sv_d = ceil(sqrt(100)) = 10;
  // 91 -> (9, 1): quotient 9, remainder 1. Our layout is [r, q].
  auto comp = ElementCompressor::Create(100, 2);
  ASSERT_TRUE(comp.ok());
  EXPECT_EQ(comp->divisor(), 10u);
  auto sub = comp->Compress(91);
  EXPECT_EQ(sub[0], 1u);  // remainder
  EXPECT_EQ(sub[1], 9u);  // quotient
  EXPECT_EQ(comp->Compress(12)[0], 2u);
  EXPECT_EQ(comp->Compress(12)[1], 1u);
  EXPECT_EQ(comp->Compress(23)[0], 3u);
  EXPECT_EQ(comp->Compress(23)[1], 2u);
}

class CompressorRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(CompressorRoundTrip, LosslessForAllValues) {
  auto [ns, max_value] = GetParam();
  auto comp = ElementCompressor::Create(max_value, ns);
  ASSERT_TRUE(comp.ok());
  uint64_t step = std::max<uint64_t>(1, max_value / 997);
  for (uint64_t v = 0; v <= max_value; v += step) {
    auto sub = comp->Compress(v);
    EXPECT_EQ(comp->Decompress(sub.data(), ns), v) << "value " << v;
    for (int s = 0; s < ns; ++s) {
      EXPECT_LT(sub[static_cast<size_t>(s)], comp->SlotVocab(s));
    }
  }
  // Boundary values always checked.
  auto hi = comp->Compress(max_value);
  EXPECT_EQ(comp->Decompress(hi.data(), ns), max_value);
}

INSTANTIATE_TEST_SUITE_P(
    NsAndRanges, CompressorRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(uint64_t{9}, uint64_t{100},
                                         uint64_t{999}, uint64_t{123456},
                                         uint64_t{1000000})));

TEST(CompressorTest, DivisorOverrideRoundTrips) {
  // Table 6: sv_d tunable between optimal and no compression.
  for (uint64_t svd : {500u, 1000u, 5000u, 10000u}) {
    auto comp = ElementCompressor::Create(73617, 2, svd);
    ASSERT_TRUE(comp.ok());
    EXPECT_EQ(comp->divisor(), svd);
    for (uint64_t v : {0ull, 1ull, 4999ull, 73617ull}) {
      auto sub = comp->Compress(v);
      EXPECT_EQ(comp->Decompress(sub.data(), 2), v);
    }
  }
}

TEST(CompressorTest, VocabularyShrinks) {
  // §5's motivating example: 1M elements, ns=2 -> two tables of ~1000 rows.
  auto comp = ElementCompressor::Create(999999, 2);
  ASSERT_TRUE(comp.ok());
  EXPECT_LE(comp->SlotVocab(0), 1001u);
  EXPECT_LE(comp->SlotVocab(1), 1001u);
  EXPECT_LT(comp->TotalVocab(), 2100u);
}

TEST(CompressorTest, TotalVocabDecreasesWithNs) {
  // Figure 8: input dimensions shrink drastically as ns grows.
  uint64_t prev = 1u << 31;
  for (int ns = 1; ns <= 4; ++ns) {
    auto comp = ElementCompressor::Create(10'000'000, ns);
    ASSERT_TRUE(comp.ok());
    EXPECT_LT(comp->TotalVocab(), prev);
    prev = comp->TotalVocab();
  }
}

TEST(CompressorTest, InvalidArgsRejected) {
  EXPECT_FALSE(ElementCompressor::Create(100, 0).ok());
  EXPECT_FALSE(ElementCompressor::Create(100, 2, 1).ok());
  EXPECT_FALSE(ElementCompressor::Create(100, ElementCompressor::kMaxNs + 1)
                   .ok());
}

TEST(CompressorTest, SaveLoadRoundTrip) {
  auto comp = ElementCompressor::Create(5000, 3);
  ASSERT_TRUE(comp.ok());
  BinaryWriter w;
  comp->Save(&w);
  BinaryReader r(w.bytes());
  auto back = ElementCompressor::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->divisor(), comp->divisor());
  EXPECT_EQ(back->ns(), comp->ns());
  EXPECT_EQ(back->max_value(), comp->max_value());
}

// ---------- Model factories for the property tests ----------

std::unique_ptr<DeepSetsModel> MakeLsm(Pooling pooling, uint64_t seed = 7) {
  DeepSetsConfig c;
  c.vocab = 50;
  c.embed_dim = 4;
  c.phi_hidden = {8};
  c.rho_hidden = {8};
  c.pooling = pooling;
  c.seed = seed;
  return std::move(DeepSetsModel::Create(c)).value();
}

std::unique_ptr<DeepSetsModel> MakeClsm(bool with_phi, uint64_t seed = 7) {
  DeepSetsConfig c;
  c.vocab = 50;
  c.embed_dim = 4;
  c.phi_hidden = with_phi ? std::vector<int64_t>{8} : std::vector<int64_t>{};
  c.rho_hidden = {8};
  c.seed = seed;
  c.compressed = true;
  c.ns = 2;
  return std::move(DeepSetsModel::Create(c)).value();
}

// ---------- Permutation invariance ----------

class PermutationInvariance : public ::testing::TestWithParam<Pooling> {};

TEST_P(PermutationInvariance, LsmOutputsIdenticalUnderShuffle) {
  auto model = MakeLsm(GetParam());
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<sets::ElementId> set;
    size_t n = 1 + rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      set.push_back(static_cast<sets::ElementId>(rng.Uniform(50)));
    }
    double base = model->PredictOne({set.data(), set.size()});
    for (int shuffle = 0; shuffle < 4; ++shuffle) {
      rng.Shuffle(&set);
      EXPECT_EQ(model->PredictOne({set.data(), set.size()}), base);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Poolings, PermutationInvariance,
                         ::testing::Values(Pooling::kSum, Pooling::kMean,
                                           Pooling::kMax));

TEST(PermutationInvarianceTest, ClsmOutputsIdenticalUnderShuffle) {
  auto model = MakeClsm(/*with_phi=*/true);
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<sets::ElementId> set;
    size_t n = 1 + rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      set.push_back(static_cast<sets::ElementId>(rng.Uniform(50)));
    }
    double base = model->PredictOne({set.data(), set.size()});
    rng.Shuffle(&set);
    EXPECT_EQ(model->PredictOne({set.data(), set.size()}), base);
  }
}

// ---------- Variable set sizes / batching ----------

TEST(DeepSetsModelTest, HandlesVariableSetSizesInOneBatch) {
  auto model = MakeLsm(Pooling::kSum);
  std::vector<sets::ElementId> ids{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int64_t> offsets{0, 1, 4, 10};
  const Tensor& out = model->Forward(ids, offsets);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 1);
  // Batch output equals per-set output.
  std::vector<sets::ElementId> s1{1};
  double solo = model->PredictOne({s1.data(), 1});
  const Tensor& out2 = model->Forward(ids, offsets);
  EXPECT_FLOAT_EQ(static_cast<float>(solo),
                  out2(0, 0));
}

TEST(DeepSetsModelTest, OutputInUnitInterval) {
  auto model = MakeLsm(Pooling::kSum);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    std::vector<sets::ElementId> s;
    size_t n = 1 + rng.Uniform(6);
    for (size_t j = 0; j < n; ++j) {
      s.push_back(static_cast<sets::ElementId>(rng.Uniform(50)));
    }
    double p = model->PredictOne({s.data(), s.size()});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(DeepSetsModelTest, SensitiveToSetContents) {
  auto model = MakeLsm(Pooling::kSum);
  std::vector<sets::ElementId> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_NE(model->PredictOne({a.data(), 3}), model->PredictOne({b.data(), 3}));
}

// ---------- The §5 interconnection property ----------

TEST(CompressedModelTest, PhiSeparatesRecombinedPairs) {
  // §5: with sv_d = 7, elements x1 = 1*7+0 = 7 and x2 = 2*7+1 = 15 compress
  // to (q=1,r=0), (q=2,r=1); the recombination z1 = 1*7+1 = 8, z2 = 2*7+0=14
  // swaps the remainders. Without φ (sum-pool the raw concatenations) the
  // two sets are indistinguishable by construction; with φ they are not.
  DeepSetsConfig no_phi;
  no_phi.vocab = 50;
  no_phi.embed_dim = 4;
  no_phi.phi_hidden = {};
  no_phi.rho_hidden = {8};
  no_phi.seed = 11;
  no_phi.compressed = true;
  no_phi.ns = 2;
  no_phi.divisor_override = 7;
  auto broken = DeepSetsModel::Create(no_phi);
  ASSERT_TRUE(broken.ok());

  std::vector<sets::ElementId> x{7, 15}, z{8, 14};
  double bx = (*broken)->PredictOne({x.data(), 2});
  double bz = (*broken)->PredictOne({z.data(), 2});
  EXPECT_FLOAT_EQ(static_cast<float>(bx), static_cast<float>(bz))
      << "without phi the model must conflate X and Z";

  DeepSetsConfig with_phi = no_phi;
  with_phi.phi_hidden = {8};
  auto fixed = DeepSetsModel::Create(with_phi);
  ASSERT_TRUE(fixed.ok());
  double fx = (*fixed)->PredictOne({x.data(), 2});
  double fz = (*fixed)->PredictOne({z.data(), 2});
  EXPECT_NE(fx, fz) << "phi must separate X and Z";
}

TEST(SetTransformerTest, PermutationInvariant) {
  SetTransformerConfig cfg;
  cfg.vocab = 50;
  cfg.embed_dim = 4;
  cfg.att_dim = 8;
  cfg.seed = 3;
  auto model = SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<sets::ElementId> set;
    size_t n = 1 + rng.Uniform(8);
    for (size_t i = 0; i < n; ++i) {
      set.push_back(static_cast<sets::ElementId>(rng.Uniform(50)));
    }
    double base = (*model)->PredictOne({set.data(), set.size()});
    rng.Shuffle(&set);
    // Attention sums are reassociated under permutation; allow float fuzz.
    EXPECT_NEAR((*model)->PredictOne({set.data(), set.size()}), base, 1e-5);
  }
}

TEST(SetTransformerTest, HandlesVariableSizesAndBatches) {
  SetTransformerConfig cfg;
  cfg.vocab = 20;
  cfg.seed = 5;
  auto model = SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  std::vector<sets::ElementId> ids{1, 2, 3, 4, 5, 6};
  std::vector<int64_t> offsets{0, 1, 3, 6};
  const nn::Tensor& out = (*model)->Forward(ids, offsets);
  EXPECT_EQ(out.rows(), 3);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_GE(out(i, 0), 0.0f);
    EXPECT_LE(out(i, 0), 1.0f);
  }
}

TEST(SetTransformerTest, RejectsBadConfig) {
  SetTransformerConfig cfg;
  cfg.vocab = 0;
  EXPECT_FALSE(SetTransformerModel::Create(cfg).ok());
  cfg.vocab = 10;
  cfg.att_dim = 6;
  cfg.num_heads = 4;  // 6 % 4 != 0
  EXPECT_FALSE(SetTransformerModel::Create(cfg).ok());
}

TEST(SetTransformerTest, MultiheadPermutationInvariant) {
  SetTransformerConfig cfg;
  cfg.vocab = 40;
  cfg.att_dim = 16;
  cfg.num_heads = 4;
  cfg.seed = 13;
  auto model = SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<sets::ElementId> set;
    size_t n = 2 + rng.Uniform(6);
    for (size_t i = 0; i < n; ++i) {
      set.push_back(static_cast<sets::ElementId>(rng.Uniform(40)));
    }
    double base = (*model)->PredictOne({set.data(), set.size()});
    rng.Shuffle(&set);
    EXPECT_NEAR((*model)->PredictOne({set.data(), set.size()}), base, 1e-5);
  }
}

// ---------- Persistence ----------

TEST(DeepSetsModelTest, SaveLoadPreservesPredictions) {
  auto model = MakeLsm(Pooling::kSum, /*seed=*/13);
  BinaryWriter w;
  model->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = DeepSetsModel::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "LSM");
  std::vector<sets::ElementId> s{3, 17, 42};
  EXPECT_EQ(model->PredictOne({s.data(), 3}),
            (*loaded)->PredictOne({s.data(), 3}));
}

TEST(CompressedModelTest, SaveLoadPreservesPredictions) {
  auto model = MakeClsm(/*with_phi=*/true, /*seed=*/17);
  BinaryWriter w;
  model->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = DeepSetsModel::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->name(), "CLSM");
  std::vector<sets::ElementId> s{5, 23, 49};
  EXPECT_EQ(model->PredictOne({s.data(), 3}),
            (*loaded)->PredictOne({s.data(), 3}));
}

TEST(SetTransformerTest, SaveLoadPreservesPredictions) {
  SetTransformerConfig cfg;
  cfg.vocab = 30;
  cfg.seed = 9;
  auto model = SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  (*model)->Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = SetTransformerModel::Load(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::vector<sets::ElementId> s{2, 7, 19};
  EXPECT_EQ((*model)->PredictOne({s.data(), 3}),
            (*loaded)->PredictOne({s.data(), 3}));
}

TEST(ModelLoadTest, WrongTagRejected) {
  SetTransformerConfig cfg;
  cfg.vocab = 30;
  auto model = SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  BinaryWriter w;
  (*model)->Save(&w);
  BinaryReader r(w.bytes());
  EXPECT_FALSE(DeepSetsModel::Load(&r).ok());
}

// ---------- Memory scaling (the point of §5) ----------

TEST(MemoryTest, ClsmDrasticallySmallerThanLsmForLargeVocab) {
  DeepSetsConfig lsm_cfg;
  lsm_cfg.vocab = 100000;
  lsm_cfg.embed_dim = 8;
  lsm_cfg.phi_hidden = {16};
  lsm_cfg.rho_hidden = {16};
  auto lsm = DeepSetsModel::Create(lsm_cfg);
  ASSERT_TRUE(lsm.ok());

  DeepSetsConfig clsm_cfg = lsm_cfg;
  clsm_cfg.compressed = true;
  clsm_cfg.ns = 2;
  auto clsm = DeepSetsModel::Create(clsm_cfg);
  ASSERT_TRUE(clsm.ok());
  // Embedding dominates LSM; CLSM's two ~317-row tables are tiny.
  EXPECT_GT((*lsm)->ByteSize(), (*clsm)->ByteSize() * 50);
}

TEST(MemoryTest, DivisorOverrideInterpolatesSize) {
  // Table 6: larger sv_d -> more parameters -> more memory.
  size_t prev = 0;
  for (uint64_t svd : {0u /*optimal*/, 1000u, 5000u, 10000u}) {
    DeepSetsConfig cfg;
    cfg.vocab = 73618;  // Tweets universe
    cfg.embed_dim = 8;
    cfg.phi_hidden = {16};
    cfg.rho_hidden = {16};
    cfg.compressed = true;
    cfg.ns = 2;
    cfg.divisor_override = svd;
    auto m = DeepSetsModel::Create(cfg);
    ASSERT_TRUE(m.ok());
    EXPECT_GT((*m)->ByteSize(), prev);
    prev = (*m)->ByteSize();
  }
}

}  // namespace
}  // namespace los::deepsets
