// Tests for the parallel + SIMD compute backend: tile GEMM equivalence
// against the scalar reference, determinism under threading, nested
// ParallelFor safety, and PredictBatch/PredictOne agreement for every
// SetModel implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/learned_index.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "deepsets/deepsets_model.h"
#include "deepsets/set_transformer.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"

namespace los {
namespace {

using nn::Tensor;

/// Injects a multi-worker pool into the nn kernels for the test's lifetime,
/// so threaded code paths are exercised even on single-core CI hosts.
class ScopedKernelPool {
 public:
  explicit ScopedKernelPool(size_t threads) : pool_(threads) {
    nn::SetKernelThreadPool(&pool_);
  }
  ~ScopedKernelPool() { nn::SetKernelThreadPool(nullptr); }

 private:
  ThreadPool pool_;
};

// ---------- Gemm vs reference ----------

struct GemmShape {
  int64_t m, n, k;
};

TEST(GemmTest, MatchesReferenceAcrossShapesAndFlags) {
  ScopedKernelPool pool(4);
  // Covers the one-row and rows-as-lanes instances (m or n of 1), the
  // 8-row tiles, tile remainders (non-multiples of 8 and 32) and k-block
  // splits (> 256 depth).
  const std::vector<GemmShape> shapes = {
      {1, 1, 1},    {3, 5, 7},       {17, 31, 13},   {64, 64, 64},
      {1, 300, 2},  {97, 101, 103},  {130, 70, 257}, {160, 160, 160},
      {256, 33, 300}, {257, 255, 129},
  };
  const std::vector<std::pair<float, float>> coeffs = {
      {1.0f, 0.0f}, {0.5f, 1.0f}, {1.3f, 0.7f}};
  Rng rng(11);
  for (const auto& s : shapes) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        for (const auto& [alpha, beta] : coeffs) {
          Tensor a(trans_a ? s.k : s.m, trans_a ? s.m : s.k);
          Tensor b(trans_b ? s.n : s.k, trans_b ? s.k : s.n);
          Tensor c0(s.m, s.n);
          nn::GaussianInit(&a, 1.0f, &rng);
          nn::GaussianInit(&b, 1.0f, &rng);
          nn::GaussianInit(&c0, 1.0f, &rng);
          Tensor c_new = c0;
          Tensor c_ref = c0;
          nn::Gemm(a, trans_a, b, trans_b, alpha, beta, &c_new);
          nn::GemmReference(a, trans_a, b, trans_b, alpha, beta, &c_ref);
          double max_diff = 0.0;
          for (int64_t i = 0; i < c_new.size(); ++i) {
            max_diff = std::max(
                max_diff, std::abs(static_cast<double>(c_new.data()[i]) -
                                   static_cast<double>(c_ref.data()[i])));
          }
          // The tile kernel's partial sums reorder float accumulation, so
          // allow a k-scaled tolerance rather than exact equality.
          EXPECT_LT(max_diff, 1e-3 * std::sqrt(static_cast<double>(s.k)))
              << "m=" << s.m << " n=" << s.n << " k=" << s.k
              << " ta=" << trans_a << " tb=" << trans_b << " alpha=" << alpha
              << " beta=" << beta;
        }
      }
    }
  }
}

/// Scalar reference of the per-element accumulation contract every Gemm
/// path keeps (nn/ops.h): C is scaled by beta first; k is cut into blocks
/// of 256 steps; within a block the element keeps S partial sums (S = 8
/// for a 1-wide output, else 2), partial s accumulating (alpha * a) * b
/// over k ≡ s (mod S) in increasing k, fused exactly when the build has
/// FMA, partial 0 seeded from the running value and the others from zero;
/// each block ends with the running value = the partials added by halves
/// (p[s] += p[s + h] for h = S/2, ..., 1). Plain loops that share no code
/// with the kernels, so a kernel that drifts from the contract cannot
/// drift with it.
void PartialSumGemm(const Tensor& a, bool trans_a, const Tensor& b,
                    bool trans_b, float alpha, float beta, Tensor* c) {
  constexpr int64_t kBlock = 256;
  const int64_t m = c->rows();
  const int64_t n = c->cols();
  const int64_t k = trans_a ? a.rows() : a.cols();
  const int64_t sums = n == 1 ? 8 : 2;
  if (beta == 0.0f) {
    c->SetZero();
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }
  if (k == 0 || alpha == 0.0f) return;
  const float* ad = a.data();
  const float* bd = b.data();
  std::vector<float> p(static_cast<size_t>(sums * n));
  for (int64_t i = 0; i < m; ++i) {
    float* crow = c->row(i);  // the running values
    for (int64_t k0 = 0; k0 < k; k0 += kBlock) {
      std::fill(p.begin(), p.end(), 0.0f);
      std::copy(crow, crow + n, p.begin());
      for (int64_t kk = k0; kk < std::min(k, k0 + kBlock); ++kk) {
        const float av =
            alpha * (trans_a ? ad[kk * a.cols() + i] : ad[i * a.cols() + kk]);
        float* part = p.data() + ((kk - k0) % sums) * n;
        for (int64_t j = 0; j < n; ++j) {
          const float bv =
              trans_b ? bd[j * b.cols() + kk] : bd[kk * b.cols() + j];
#ifdef __FMA__
          part[j] = std::fmaf(av, bv, part[j]);
#else
          part[j] = av * bv + part[j];
#endif
        }
      }
      for (int64_t h = sums / 2; h >= 1; h /= 2) {
        for (int64_t s = 0; s < h; ++s) {
          for (int64_t j = 0; j < n; ++j) p[s * n + j] += p[(s + h) * n + j];
        }
      }
      std::copy(p.begin(), p.begin() + n, crow);
    }
  }
}

TEST(GemmTest, EveryPathMatchesPartialSumContractBitExact) {
  ScopedKernelPool pool(4);
  // Spans every instance of the tile kernel: the single row (m = 1; n = 63
  // takes every power-of-two tail strip, 65 a 1-wide one after a full
  // 64-lane strip), the n = 1 transposed tile (rows as lanes; m = 63, 65
  // and 1341 leave lane tails), and the multi-row tiles at every height
  // (m = 2..9, 17, 63 and 65 leave last tiles of 1 to 7 rows) and width
  // (n = 2..33 and 63 leave every tail below 32), both orientations of A
  // and B, threaded for the large products. k = 1, 3, 5, 7, 13, 31, 66 and
  // 257 leave remainders 1, 2, 3, 5 and 7 mod 8 (a 1-wide output's
  // partials), the odd ones 1 mod 2; k > 256 splits blocks.
  const std::vector<int64_t> ms = {1, 2,  3,  4,  5,  6,   7,   8,
                                   9, 16, 17, 63, 65, 512, 1341};
  const std::vector<int64_t> ns = {1,  2,  7,  8,  15, 16, 17,
                                   31, 32, 33, 63, 64, 65};
  const std::vector<int64_t> ks = {1,  3,  5,  7,  8,  13, 16,
                                   31, 64, 66, 257, 512};
  const std::vector<std::pair<float, float>> coeffs = {{1.0f, 0.0f},
                                                       {0.7f, 1.0f}};
  Rng rng(23);
  Tensor values(1, 1341 * 512 + 64);
  nn::GaussianInit(&values, 1.0f, &rng);
  // Distinct offsets into one random pool give A, B and C unrelated data
  // without drawing fresh numbers for each of the ~18,700 products.
  auto fill = [&values](Tensor* t, int64_t offset) {
    std::memcpy(t->data(), values.data() + offset,
                static_cast<size_t>(t->size()) * sizeof(float));
  };
  int failures = 0;
  for (bool trans_a : {false, true}) {
    for (bool trans_b : {false, true}) {
      for (int64_t m : ms) {
        for (int64_t k : ks) {
          Tensor a(trans_a ? k : m, trans_a ? m : k);
          fill(&a, 0);
          for (int64_t n : ns) {
            Tensor b(trans_b ? n : k, trans_b ? k : n);
            fill(&b, 31);
            Tensor c0(m, n);
            fill(&c0, 57);
            for (const auto& [alpha, beta] : coeffs) {
              Tensor c_gemm = c0;
              Tensor c_ref = c0;
              nn::Gemm(a, trans_a, b, trans_b, alpha, beta, &c_gemm);
              PartialSumGemm(a, trans_a, b, trans_b, alpha, beta, &c_ref);
              const bool same =
                  std::memcmp(c_gemm.data(), c_ref.data(),
                              static_cast<size_t>(c_ref.size()) *
                                  sizeof(float)) == 0;
              EXPECT_TRUE(same) << "m=" << m << " n=" << n << " k=" << k
                                << " ta=" << trans_a << " tb=" << trans_b
                                << " alpha=" << alpha << " beta=" << beta;
              if (!same && ++failures >= 10) return;
            }
          }
        }
      }
    }
  }
}

TEST(GemmTest, ThreadedIsBitIdenticalToSerial) {
  // 320^3 (~32.8M multiply-adds) is just below the threading crossover
  // (2^25) and runs on the caller's thread; 1,043 x 96 x 384 (~38.4M) is
  // above it and splits its 131 row tiles (the last one partial) into four
  // chunks.
  for (const GemmShape shape : {GemmShape{320, 320, 320},
                                GemmShape{1043, 96, 384}}) {
    Rng rng(5);
    Tensor a(shape.m, shape.k), b(shape.k, shape.n);
    nn::GaussianInit(&a, 1.0f, &rng);
    nn::GaussianInit(&b, 1.0f, &rng);
    Tensor c_serial(shape.m, shape.n), c_threaded(shape.m, shape.n);
    nn::SetKernelThreading(false);
    nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c_serial);
    nn::SetKernelThreading(true);
    {
      ScopedKernelPool pool(4);
      nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c_threaded);
    }
    EXPECT_EQ(std::memcmp(c_serial.data(), c_threaded.data(),
                          static_cast<size_t>(c_serial.size()) * sizeof(float)),
              0)
        << shape.m << " x " << shape.n << " x " << shape.k;
  }
}

TEST(DenseRowsTest, ThreadedIsBitIdenticalToSerial) {
  // A dense layer's forward threads its row tiles under Gemm's rule: 320 x
  // 320 -> 320 (~32.8M multiply-adds) stays on the caller's thread, 1,043 x
  // 384 -> 96 (~38.4M) splits into 128-row chunks with a partial last tile.
  // Sigmoid and tanh over its 100,128 outputs also split, as elementwise
  // passes from 2^16 floats.
  for (const GemmShape shape : {GemmShape{320, 320, 320},
                                GemmShape{1043, 96, 384}}) {
    Rng rng(6);
    Tensor x(shape.m, shape.k), w(shape.k, shape.n), bias(1, shape.n);
    nn::GaussianInit(&x, 1.0f, &rng);
    nn::GaussianInit(&w, 0.1f, &rng);
    nn::GaussianInit(&bias, 0.1f, &rng);
    const size_t bytes = static_cast<size_t>(shape.m * shape.n) * sizeof(float);
    for (nn::Activation act : {nn::Activation::kNone, nn::Activation::kRelu,
                               nn::Activation::kSigmoid,
                               nn::Activation::kTanh}) {
      std::vector<float> serial(static_cast<size_t>(shape.m * shape.n));
      nn::SetKernelThreading(false);
      nn::DenseRows(x.data(), shape.m, w.data(), bias.data(), shape.k,
                    shape.n, act, serial.data());
      nn::SetKernelThreading(true);
      for (size_t workers : {2u, 4u, 8u}) {
        std::vector<float> threaded(serial.size());
        {
          ScopedKernelPool pool(workers);
          nn::DenseRows(x.data(), shape.m, w.data(), bias.data(), shape.k,
                        shape.n, act, threaded.data());
        }
        EXPECT_EQ(std::memcmp(serial.data(), threaded.data(), bytes), 0)
            << shape.m << " x " << shape.k << " -> " << shape.n << ", "
            << nn::ActivationName(act) << ", " << workers << " workers";
      }
    }
  }
}

TEST(GemmTest, PerRowResultsAreShapeInvariant) {
  ScopedKernelPool pool(4);
  // Batched and single-query forwards put the same logical row through very
  // different GEMM shapes (threaded 8-row tiles vs the one-row instance).
  // Build/serve consistency of the learned structures — most critically the
  // Bloom filter's no-false-negative guarantee — requires the per-row
  // result to be bit-identical regardless of problem shape.
  // n = 8, 16 (the narrow backward products) and 64 run 8-row tiles; n = 1
  // (the output head) rows as lanes.
  const int64_t m = 257;
  const int64_t k = 300;  // > kKc, so k splits into two blocks
  Rng rng(17);
  for (int64_t n : {1, 8, 16, 64}) {
    for (bool trans_a : {false, true}) {
      for (bool trans_b : {false, true}) {
        Tensor a(trans_a ? k : m, trans_a ? m : k);
        Tensor b(trans_b ? n : k, trans_b ? k : n);
        Tensor c0(m, n);
        nn::GaussianInit(&a, 1.0f, &rng);
        nn::GaussianInit(&b, 1.0f, &rng);
        nn::GaussianInit(&c0, 1.0f, &rng);
        Tensor c_full = c0;
        nn::Gemm(a, trans_a, b, trans_b, 1.3f, 0.7f, &c_full);
        for (int64_t i = 0; i < m; i += 17) {
          // Row i of op(A) as a one-row operand of the same orientation.
          Tensor a1(trans_a ? k : 1, trans_a ? 1 : k);
          for (int64_t kk = 0; kk < k; ++kk) {
            a1.data()[kk] = trans_a ? a(kk, i) : a(i, kk);
          }
          Tensor c1(1, n);
          std::memcpy(c1.data(), c0.row(i),
                      static_cast<size_t>(n) * sizeof(float));
          nn::Gemm(a1, trans_a, b, trans_b, 1.3f, 0.7f, &c1);
          EXPECT_EQ(std::memcmp(c1.data(), c_full.row(i),
                                static_cast<size_t>(n) * sizeof(float)),
                    0)
              << "row " << i << " n=" << n << " trans_a=" << trans_a
              << " trans_b=" << trans_b;
        }
      }
    }
  }
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count(0);
  pool.ParallelFor(
      4,
      [&](size_t outer_begin, size_t outer_end) {
        for (size_t i = outer_begin; i < outer_end; ++i) {
          // Nested call from a worker thread: must run inline instead of
          // waiting on tasks the blocked workers can never execute.
          pool.ParallelFor(
              8, [&](size_t begin, size_t end) {
                count += static_cast<int>(end - begin);
              },
              1);
        }
      },
      1);
  EXPECT_EQ(count.load(), 4 * 8);
}

TEST(ThreadPoolTest, SingleWorkerNestedParallelForCompletes) {
  ThreadPool pool(1);
  std::atomic<int> count(0);
  pool.ParallelFor(
      2,
      [&](size_t outer_begin, size_t outer_end) {
        for (size_t i = outer_begin; i < outer_end; ++i) {
          pool.ParallelFor(4, [&](size_t begin, size_t end) {
            count += static_cast<int>(end - begin);
          }, 1);
        }
      },
      1);
  EXPECT_EQ(count.load(), 2 * 4);
}

// ---------- PredictBatch vs PredictOne ----------

std::vector<std::vector<sets::ElementId>> RandomSets(size_t count,
                                                     uint32_t vocab,
                                                     Rng* rng) {
  std::vector<std::vector<sets::ElementId>> out(count);
  for (auto& s : out) {
    s.resize(1 + rng->Uniform(8));
    for (auto& e : s) e = static_cast<sets::ElementId>(rng->Uniform(vocab));
    sets::Canonicalize(&s);
  }
  return out;
}

void CheckBatchMatchesOne(deepsets::SetModel* model, size_t count) {
  Rng rng(23);
  auto raw = RandomSets(count, static_cast<uint32_t>(model->vocab()), &rng);
  std::vector<sets::SetView> views;
  views.reserve(raw.size());
  for (const auto& s : raw) views.emplace_back(s.data(), s.size());
  std::vector<double> batched = model->PredictBatch(views);
  ASSERT_EQ(batched.size(), views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    // Exact, not approximate: the GEMM kernels accumulate each output
    // element in the same order regardless of problem shape, so batching
    // must not change a set's prediction at all. The learned Bloom filter's
    // no-false-negative guarantee (backup built from batched scores, served
    // per-query) relies on this.
    EXPECT_EQ(batched[i], model->PredictOne(views[i]))
        << model->name() << " set " << i;
  }
}

TEST(PredictBatchTest, LsmMatchesPredictOne) {
  ScopedKernelPool pool(4);
  deepsets::DeepSetsConfig cfg;
  cfg.vocab = 500;
  cfg.embed_dim = 8;
  cfg.phi_hidden = {32};
  cfg.rho_hidden = {32};
  auto model = deepsets::DeepSetsModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  // > 2048 sets so the internal sub-batch chunking is exercised too.
  CheckBatchMatchesOne(model->get(), 2500);
}

TEST(PredictBatchTest, ClsmMatchesPredictOne) {
  deepsets::DeepSetsConfig cfg;
  cfg.vocab = 500;
  cfg.embed_dim = 6;
  cfg.phi_hidden = {16};
  cfg.rho_hidden = {16};
  cfg.compressed = true;
  cfg.ns = 2;
  auto model = deepsets::DeepSetsModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  CheckBatchMatchesOne(model->get(), 200);
}

TEST(PredictBatchTest, SetTransformerMatchesPredictOne) {
  deepsets::SetTransformerConfig cfg;
  cfg.vocab = 500;
  cfg.embed_dim = 4;
  cfg.att_dim = 8;
  auto model = deepsets::SetTransformerModel::Create(cfg);
  ASSERT_TRUE(model.ok());
  CheckBatchMatchesOne(model->get(), 200);
}

TEST(PredictBatchTest, LookupBatchMatchesLookup) {
  ScopedKernelPool pool(4);
  sets::RwConfig gen;
  gen.num_sets = 400;
  gen.num_unique = 120;
  gen.seed = 3;
  auto collection = GenerateRw(gen);
  core::IndexOptions opts;
  opts.train.epochs = 5;
  // Strict config (also the default): no full-scan safety net, so any
  // batch/single estimate divergence would surface as a -1 vs found
  // mismatch here.
  opts.fallback_full_scan = false;
  auto index = core::LearnedSetIndex::Build(collection, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::vector<sets::Query> queries;
  for (size_t i = 0; i < collection.size(); i += 7) {
    auto v = collection.set(i);
    queries.push_back({{v.begin(), v.end()}, 0});
  }
  queries.push_back({{999999u}, 0});             // out-of-vocabulary element
  queries.push_back({{1u, 2u, 3u, 4u, 5u}, 0});  // likely-absent combination

  std::vector<int64_t> batch = index->LookupBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], index->Lookup(queries[i].view(), nullptr))
        << "query " << i;
  }
}

TEST(PredictBatchTest, LookupBatchMatchesLookupWithFullScanFallback) {
  ScopedKernelPool pool(4);
  sets::RwConfig gen;
  gen.num_sets = 400;
  gen.num_unique = 120;
  gen.seed = 3;
  auto collection = GenerateRw(gen);
  core::IndexOptions opts;
  opts.train.epochs = 5;
  opts.fallback_full_scan = true;
  auto index = core::LearnedSetIndex::Build(collection, opts);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::vector<sets::Query> queries;
  for (size_t i = 0; i < collection.size(); i += 7) {
    auto v = collection.set(i);
    queries.push_back({{v.begin(), v.end()}, 0});
  }
  queries.push_back({{999999u}, 0});             // out-of-vocabulary element
  queries.push_back({{1u, 2u, 3u, 4u, 5u}, 0});  // likely-absent combination

  std::vector<int64_t> batch = index->LookupBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batch[i], index->Lookup(queries[i].view(), nullptr))
        << "query " << i;
  }
}

// ---------- Deterministic threaded training ----------

std::vector<float> TrainAndDumpWeights() {
  sets::RwConfig gen;
  gen.num_sets = 120;
  gen.num_unique = 150;
  gen.seed = 9;
  auto collection = GenerateRw(gen);
  auto subsets = EnumerateLabeledSubsets(collection, {});
  core::TargetScaler scaler =
      core::TargetScaler::FitRange(1.0, subsets.MaxCardinality());
  core::TrainingSet data = core::TrainingSet::FromSubsets(
      subsets, sets::QueryLabel::kCardinality, scaler);

  deepsets::DeepSetsConfig cfg;
  // A 4,096 x 16 table: 2^16 floats, so the Adam step over it threads.
  cfg.vocab = 4096;
  cfg.embed_dim = 16;
  cfg.phi_hidden = {64};
  cfg.rho_hidden = {64};
  cfg.seed = 1;
  auto model = std::move(deepsets::DeepSetsModel::Create(cfg)).value();

  core::TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 64;
  tc.seed = 2;
  core::Trainer trainer(tc);
  trainer.Train(model.get(), data);

  std::vector<nn::Parameter*> params;
  model->CollectParameters(&params);
  std::vector<float> weights;
  for (const auto* p : params) {
    const float* d = p->value.data();
    weights.insert(weights.end(), d, d + p->value.size());
  }
  return weights;
}

TEST(DeterminismTest, ThreadedTrainingReproducesWeightsBitExact) {
  ScopedKernelPool pool(4);
  std::vector<float> run1 = TrainAndDumpWeights();
  std::vector<float> run2 = TrainAndDumpWeights();
  ASSERT_EQ(run1.size(), run2.size());
  ASSERT_FALSE(run1.empty());
  EXPECT_EQ(std::memcmp(run1.data(), run2.data(),
                        run1.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace los
