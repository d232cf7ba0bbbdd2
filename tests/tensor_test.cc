// Unit tests for the nn substrate: Tensor, GEMM, activations, losses,
// optimizers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/mlp.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"

namespace los::nn {
namespace {

TEST(TensorTest, ConstructionAndAccess) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_EQ(t.size(), 6);
  t(1, 2) = 5.0f;
  EXPECT_EQ(t(1, 2), 5.0f);
  EXPECT_EQ(t(0, 0), 0.0f);
}

TEST(TensorTest, FromValuesRowMajor) {
  Tensor t = Tensor::FromValues(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t(0, 0), 1);
  EXPECT_EQ(t(0, 1), 2);
  EXPECT_EQ(t(1, 0), 3);
  EXPECT_EQ(t(1, 1), 4);
}

TEST(TensorTest, FillScaleAddAxpy) {
  Tensor a = Tensor::Full(2, 2, 2.0f);
  Tensor b = Tensor::Full(2, 2, 3.0f);
  a.Scale(2.0f);       // 4
  a.Add(b);            // 7
  a.Axpy(-2.0f, b);    // 1
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a.data()[i], 1.0f);
}

TEST(TensorTest, SumMeanAbsMax) {
  Tensor t = Tensor::FromValues(1, 4, {1, -5, 2, 2});
  EXPECT_DOUBLE_EQ(t.Sum(), 0.0);
  EXPECT_DOUBLE_EQ(t.Mean(), 0.0);
  EXPECT_FLOAT_EQ(t.AbsMax(), 5.0f);
}

TEST(TensorTest, ReshapeKeepsData) {
  Tensor t = Tensor::FromValues(2, 3, {1, 2, 3, 4, 5, 6});
  t.Reshape(3, 2);
  EXPECT_EQ(t(2, 1), 6);
  EXPECT_EQ(t(1, 0), 3);
}

TEST(TensorTest, SaveLoadRoundTrip) {
  Tensor t = Tensor::FromValues(2, 2, {1.5f, -2.5f, 0.0f, 9.0f});
  BinaryWriter w;
  t.Save(&w);
  BinaryReader r(w.bytes());
  auto back = Tensor::Load(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->SameShape(t));
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back->data()[i], t.data()[i]);
  }
}

bool CacheLineAligned(const Tensor& t) {
  return reinterpret_cast<uintptr_t>(t.data()) % kCacheLine == 0;
}

// Weights and activations start on a cache line however a tensor is made,
// so a forward's speed does not depend on where the heap put them.
TEST(TensorTest, StorageIsCacheLineAligned) {
  for (int64_t cols : {1, 3, 16, 17, 64}) {
    Tensor t(5, cols);
    EXPECT_TRUE(CacheLineAligned(t)) << "constructed, cols " << cols;
    t.ResizeAndZero(7, cols + 1);
    EXPECT_TRUE(CacheLineAligned(t)) << "resized, cols " << cols;
    Tensor v = Tensor::FromValues(
        1, cols, std::vector<float>(static_cast<size_t>(cols), 1.5f));
    EXPECT_TRUE(CacheLineAligned(v)) << "from values, cols " << cols;
    BinaryWriter w;
    v.Save(&w);
    BinaryReader r(w.bytes());
    auto loaded = Tensor::Load(&r);
    ASSERT_TRUE(loaded.ok());
    EXPECT_TRUE(CacheLineAligned(*loaded)) << "loaded, cols " << cols;
    Tensor copy = t;
    EXPECT_TRUE(CacheLineAligned(copy)) << "copied, cols " << cols;
    Tensor assigned;
    assigned = v;
    EXPECT_TRUE(CacheLineAligned(assigned)) << "copy-assigned, cols " << cols;
    Tensor moved = std::move(copy);
    EXPECT_TRUE(CacheLineAligned(moved)) << "moved, cols " << cols;
  }
}

// Reference GEMM for validation.
Tensor NaiveGemm(const Tensor& a, bool ta, const Tensor& b, bool tb) {
  int64_t m = ta ? a.cols() : a.rows();
  int64_t k = ta ? a.rows() : a.cols();
  int64_t n = tb ? b.rows() : b.cols();
  Tensor c(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float s = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        float av = ta ? a(kk, i) : a(i, kk);
        float bv = tb ? b(j, kk) : b(kk, j);
        s += av * bv;
      }
      c(i, j) = s;
    }
  }
  return c;
}

class GemmTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  auto [ta, tb] = GetParam();
  Rng rng(42);
  int64_t m = 5, k = 7, n = 3;
  Tensor a = ta ? Tensor(k, m) : Tensor(m, k);
  Tensor b = tb ? Tensor(n, k) : Tensor(k, n);
  GaussianInit(&a, 1.0f, &rng);
  GaussianInit(&b, 1.0f, &rng);
  Tensor c(m, n);
  Gemm(a, ta, b, tb, 1.0f, 0.0f, &c);
  Tensor ref = NaiveGemm(a, ta, b, tb);
  for (int64_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

TEST(GemmTest, AlphaBetaAccumulate) {
  Tensor a = Tensor::FromValues(1, 2, {1, 2});
  Tensor b = Tensor::FromValues(2, 1, {3, 4});
  Tensor c = Tensor::Full(1, 1, 10.0f);
  Gemm(a, false, b, false, 2.0f, 1.0f, &c);  // 2*(1*3+2*4) + 10 = 32
  EXPECT_FLOAT_EQ(c(0, 0), 32.0f);
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor x = Tensor::Zeros(2, 3);
  Tensor b = Tensor::FromValues(1, 3, {1, 2, 3});
  AddRowBroadcast(b, &x);
  EXPECT_FLOAT_EQ(x(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(x(1, 2), 3.0f);
}

TEST(OpsTest, SumRowsAccumulate) {
  Tensor x = Tensor::FromValues(2, 2, {1, 2, 3, 4});
  Tensor out = Tensor::Full(1, 2, 1.0f);
  SumRowsAccumulate(x, &out);
  EXPECT_FLOAT_EQ(out(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out(0, 1), 7.0f);
}

TEST(OpsTest, SigmoidValues) {
  Tensor x = Tensor::FromValues(1, 3, {0.0f, 100.0f, -100.0f});
  SigmoidInPlace(&x);
  EXPECT_FLOAT_EQ(x(0, 0), 0.5f);
  EXPECT_NEAR(x(0, 1), 1.0f, 1e-6);
  EXPECT_NEAR(x(0, 2), 0.0f, 1e-6);
}

TEST(OpsTest, HadamardProducts) {
  Tensor a = Tensor::FromValues(1, 2, {2, 3});
  Tensor b = Tensor::FromValues(1, 2, {4, 5});
  Tensor out(1, 2);
  Hadamard(a, b, &out);
  EXPECT_FLOAT_EQ(out(0, 0), 8.0f);
  HadamardAccumulate(a, b, &out);
  EXPECT_FLOAT_EQ(out(0, 1), 30.0f);
}

TEST(LossTest, MseValueAndGrad) {
  Tensor pred = Tensor::FromValues(2, 1, {1.0f, 3.0f});
  Tensor target = Tensor::FromValues(2, 1, {0.0f, 1.0f});
  Tensor d;
  double loss = MseLoss(pred, target, &d);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 4.0) / 2.0);
  EXPECT_FLOAT_EQ(d(0, 0), 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(d(1, 0), 2.0f * 2.0f / 2.0f);
}

TEST(LossTest, MaeValueAndGradSign) {
  Tensor pred = Tensor::FromValues(2, 1, {1.0f, -3.0f});
  Tensor target = Tensor::FromValues(2, 1, {0.0f, 0.0f});
  Tensor d;
  double loss = MaeLoss(pred, target, &d);
  EXPECT_DOUBLE_EQ(loss, 2.0);
  EXPECT_GT(d(0, 0), 0.0f);
  EXPECT_LT(d(1, 0), 0.0f);
}

TEST(LossTest, BcePerfectPredictionsNearZero) {
  Tensor pred = Tensor::FromValues(2, 1, {0.9999f, 0.0001f});
  Tensor target = Tensor::FromValues(2, 1, {1.0f, 0.0f});
  Tensor d;
  EXPECT_LT(BinaryCrossEntropyLoss(pred, target, &d), 0.01);
}

TEST(LossTest, BceGradDirection) {
  Tensor pred = Tensor::FromValues(2, 1, {0.3f, 0.7f});
  Tensor target = Tensor::FromValues(2, 1, {1.0f, 0.0f});
  Tensor d;
  BinaryCrossEntropyLoss(pred, target, &d);
  EXPECT_LT(d(0, 0), 0.0f);  // push prediction up toward 1
  EXPECT_GT(d(1, 0), 0.0f);  // push prediction down toward 0
}

TEST(LossTest, QErrorMinimumAtTarget) {
  Tensor target = Tensor::FromValues(1, 1, {0.5f});
  Tensor exact = Tensor::FromValues(1, 1, {0.5f});
  Tensor off = Tensor::FromValues(1, 1, {0.8f});
  Tensor d;
  double at_min = QErrorLoss(exact, target, 5.0, &d);
  EXPECT_NEAR(at_min, 1.0, 1e-6);
  EXPECT_NEAR(d(0, 0), 0.0f, 1e-6);
  EXPECT_GT(QErrorLoss(off, target, 5.0, &d), at_min);
  EXPECT_GT(d(0, 0), 0.0f);
}

TEST(LossTest, QErrorExactFunction) {
  EXPECT_DOUBLE_EQ(QError(10.0, 5.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(5.0, 10.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(3.0, 3.0), 1.0);
  // Floor prevents division blow-up.
  EXPECT_DOUBLE_EQ(QError(0.0, 4.0, 1.0), 4.0);
}

TEST(LossTest, BinaryAccuracy) {
  Tensor pred = Tensor::FromValues(4, 1, {0.9f, 0.2f, 0.6f, 0.4f});
  Tensor target = Tensor::FromValues(4, 1, {1.0f, 0.0f, 0.0f, 1.0f});
  EXPECT_DOUBLE_EQ(BinaryAccuracy(pred, target), 0.5);
}

TEST(InitTest, GlorotRange) {
  Rng rng(1);
  Tensor t(64, 64);
  GlorotUniform(&t, 64, 64, &rng);
  float limit = std::sqrt(6.0f / 128.0f);
  EXPECT_LE(t.AbsMax(), limit + 1e-6f);
  EXPECT_GT(t.AbsMax(), limit * 0.5f);  // actually spreads out
}

TEST(DenseTest, ForwardLinear) {
  Rng rng(1);
  Dense d(2, 1, Activation::kNone, &rng);
  d.weight()->value = Tensor::FromValues(2, 1, {2.0f, 3.0f});
  d.bias()->value = Tensor::FromValues(1, 1, {1.0f});
  Tensor x = Tensor::FromValues(1, 2, {1.0f, 1.0f});
  Tensor y;
  d.Forward(x, &y);
  EXPECT_FLOAT_EQ(y(0, 0), 6.0f);
}

TEST(EmbeddingTest, LookupCopiesRows) {
  Rng rng(2);
  Embedding e(4, 3, &rng);
  Tensor out;
  e.Forward({2, 0, 2}, &out);
  EXPECT_EQ(out.rows(), 3);
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out(0, j), e.table()->value(2, j));
    EXPECT_EQ(out(1, j), e.table()->value(0, j));
    EXPECT_EQ(out(2, j), out(0, j));
  }
}

TEST(SegmentPoolTest, SumMeanMax) {
  Tensor x = Tensor::FromValues(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<int64_t> offsets{0, 2, 4};
  Tensor pooled;
  std::vector<int64_t> argmax;

  SegmentPool sum(Pooling::kSum);
  sum.Forward(x, offsets, &pooled, nullptr);
  EXPECT_FLOAT_EQ(pooled(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(pooled(1, 1), 14.0f);

  SegmentPool mean(Pooling::kMean);
  mean.Forward(x, offsets, &pooled, nullptr);
  EXPECT_FLOAT_EQ(pooled(0, 0), 2.0f);

  SegmentPool max(Pooling::kMax);
  max.Forward(x, offsets, &pooled, &argmax);
  EXPECT_FLOAT_EQ(pooled(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(pooled(1, 1), 8.0f);
  EXPECT_EQ(argmax[0], 1);  // row 1 wins segment 0, col 0
}

TEST(SegmentPoolTest, EmptySegmentPoolsToZero) {
  Tensor x = Tensor::FromValues(2, 1, {3, 4});
  std::vector<int64_t> offsets{0, 0, 2};
  Tensor pooled;
  SegmentPool sum(Pooling::kSum);
  sum.Forward(x, offsets, &pooled, nullptr);
  EXPECT_FLOAT_EQ(pooled(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(pooled(1, 0), 7.0f);
}

TEST(SegmentPoolTest, ForwardBackwardMatchNaiveLoops) {
  // Every width class of the register-block reductions (1; 8; 63, every
  // tail strip; 64, one block; 65, a block and a 1-wide tail; 512),
  // segments of 0-3 rows around one of 1,300, and ±0 and NaN among the
  // inputs and gradients. Forward, ForwardRow and Backward must match
  // plain loops bit for bit: pooling order fixes the trained weights.
  std::vector<int64_t> offsets{0};
  for (int64_t rows : {0, 1, 2, 3, 1300, 3, 0, 2, 1}) {
    offsets.push_back(offsets.back() + rows);
  }
  const int64_t sets = static_cast<int64_t>(offsets.size()) - 1;
  const int64_t total = offsets.back();
  const float specials[] = {0.0f, -0.0f,
                            std::numeric_limits<float>::quiet_NaN()};
  auto same_bits = [](const float* a, const float* b, int64_t n) {
    return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
  };
  Rng rng(17);
  for (int64_t d : {1, 8, 63, 64, 65, 512}) {
    Tensor x(total, d), dpooled(sets, d);
    GaussianInit(&x, 1.0f, &rng);
    GaussianInit(&dpooled, 1.0f, &rng);
    for (Tensor* t : {&x, &dpooled}) {
      for (int64_t e = 0; e < t->size(); ++e) {
        if (rng.Uniform(16) == 0) t->data()[e] = specials[rng.Uniform(3)];
      }
    }
    for (Pooling pooling : {Pooling::kSum, Pooling::kMean, Pooling::kMax}) {
      // The loops: sum from +0 in row order, mean then scaled by 1/rows,
      // max from -inf taking strictly greater values (0 when empty);
      // backward adds each gradient into a zeroed dx.
      Tensor want(sets, d), want_dx(total, d);
      std::vector<int64_t> want_argmax(static_cast<size_t>(sets * d), -1);
      for (int64_t s = 0; s < sets; ++s) {
        const int64_t begin = offsets[static_cast<size_t>(s)];
        const int64_t end = offsets[static_cast<size_t>(s) + 1];
        const float inv = 1.0f / static_cast<float>(end - begin);
        for (int64_t j = 0; j < d; ++j) {
          float acc = pooling == Pooling::kMax && end > begin
                          ? -std::numeric_limits<float>::infinity()
                          : 0.0f;
          for (int64_t e = begin; e < end; ++e) {
            if (pooling != Pooling::kMax) {
              acc += x(e, j);
            } else if (x(e, j) > acc) {
              acc = x(e, j);
              want_argmax[static_cast<size_t>(s * d + j)] = e;
            }
          }
          if (pooling == Pooling::kMean && end > begin) acc *= inv;
          want(s, j) = acc;
          if (pooling == Pooling::kMax) {
            const int64_t winner = want_argmax[static_cast<size_t>(s * d + j)];
            if (winner >= 0) want_dx(winner, j) += dpooled(s, j);
          } else {
            for (int64_t e = begin; e < end; ++e) {
              want_dx(e, j) += pooling == Pooling::kMean ? dpooled(s, j) * inv
                                                         : dpooled(s, j);
            }
          }
        }
      }

      const SegmentPool pool(pooling);
      const std::string what = std::string(PoolingName(pooling)) +
                               " d=" + std::to_string(d);
      Tensor pooled, dx(3, 7);  // dx starts at another shape
      std::vector<int64_t> argmax;
      pool.Forward(x, offsets, &pooled, &argmax);
      EXPECT_TRUE(same_bits(want.data(), pooled.data(), want.size())) << what;
      if (pooling == Pooling::kMax) {
        EXPECT_EQ(argmax, want_argmax) << what;
      }
      pool.Forward(x, offsets, &pooled, nullptr);
      EXPECT_TRUE(same_bits(want.data(), pooled.data(), want.size())) << what;
      std::vector<float> row(static_cast<size_t>(d));
      for (int64_t s = 0; s < sets; ++s) {
        const int64_t begin = offsets[static_cast<size_t>(s)];
        const int64_t end = offsets[static_cast<size_t>(s) + 1];
        pool.ForwardRow(x.row(begin), end - begin, d, row.data());
        EXPECT_TRUE(same_bits(want.row(s), row.data(), d))
            << what << " ForwardRow set " << s;
      }
      pool.Backward(dpooled, offsets, argmax, total, &dx);
      ASSERT_TRUE(dx.SameShape(want_dx)) << what;
      EXPECT_TRUE(same_bits(want_dx.data(), dx.data(), want_dx.size()))
          << what << " Backward";
    }
  }
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2 by hand-fed gradients.
  Parameter w(1, 1);
  w.value(0, 0) = 0.0f;
  Sgd opt(0.1f);
  for (int i = 0; i < 200; ++i) {
    w.grad(0, 0) = 2.0f * (w.value(0, 0) - 3.0f);
    opt.Step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 3.0f, 1e-3);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  Parameter w(1, 1);
  w.value(0, 0) = -5.0f;
  Adam opt(0.1f);
  for (int i = 0; i < 500; ++i) {
    w.grad(0, 0) = 2.0f * (w.value(0, 0) - 3.0f);
    opt.Step({&w});
  }
  EXPECT_NEAR(w.value(0, 0), 3.0f, 1e-2);
}

TEST(OptimizerTest, StepZeroesGradients) {
  Parameter w(1, 1);
  w.grad(0, 0) = 1.0f;
  Adam opt(0.01f);
  opt.Step({&w});
  EXPECT_EQ(w.grad(0, 0), 0.0f);
}

TEST(MlpTest, LearnsXor) {
  Rng rng(7);
  Mlp mlp({2, 8, 1}, Activation::kTanh, Activation::kSigmoid, &rng);
  Tensor x = Tensor::FromValues(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  Tensor y = Tensor::FromValues(4, 1, {0, 1, 1, 0});
  std::vector<Parameter*> params;
  mlp.CollectParameters(&params);
  Adam opt(0.05f);
  Mlp::Workspace ws;
  Tensor d;
  for (int i = 0; i < 800; ++i) {
    const Tensor& pred = mlp.Forward(x, &ws);
    BinaryCrossEntropyLoss(pred, y, &d);
    mlp.Backward(x, &ws, &d, nullptr);
    opt.Step(params);
  }
  const Tensor& pred = mlp.Forward(x, &ws);
  EXPECT_LT(pred(0, 0), 0.2f);
  EXPECT_GT(pred(1, 0), 0.8f);
  EXPECT_GT(pred(2, 0), 0.8f);
  EXPECT_LT(pred(3, 0), 0.2f);
}

TEST(MlpTest, SaveLoadPreservesOutputs) {
  Rng rng(3);
  Mlp mlp({3, 5, 1}, Activation::kRelu, Activation::kSigmoid, &rng);
  Tensor x(2, 3);
  GaussianInit(&x, 1.0f, &rng);
  Mlp::Workspace ws;
  Tensor before = mlp.Forward(x, &ws);

  BinaryWriter w;
  mlp.Save(&w);
  BinaryReader r(w.bytes());
  Mlp loaded;
  ASSERT_TRUE(loaded.Load(&r).ok());
  Tensor after = loaded.Forward(x, &ws);
  for (int64_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.data()[i], after.data()[i]);
  }
}

}  // namespace
}  // namespace los::nn
