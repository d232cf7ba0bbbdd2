// Determinism tests for the training pipeline: the fixed-order backward
// kernels (chunked SumRows reduction, embedding scatter-add), the fused Adam
// step — one of the two threaded kernels — and the guided-learning eviction
// pass must produce bit-identical results for serial execution and any
// worker count. These tests are the ones the TSan CI job runs — every
// threaded code path below must also be race-free by construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "baselines/inverted_index.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/scaling.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "deepsets/deepsets_model.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los {
namespace {

using nn::Tensor;

/// Injects a multi-worker pool into the nn kernels for the scope's
/// lifetime (worker count independent of the host's core count).
class ScopedKernelPool {
 public:
  explicit ScopedKernelPool(size_t threads) : pool_(threads) {
    nn::SetKernelThreadPool(&pool_);
  }
  ~ScopedKernelPool() { nn::SetKernelThreadPool(nullptr); }

 private:
  ThreadPool pool_;
};

/// Forces fully serial kernel execution for the scope's lifetime.
class ScopedSerialKernels {
 public:
  ScopedSerialKernels() { nn::SetKernelThreading(false); }
  ~ScopedSerialKernels() { nn::SetKernelThreading(true); }
};

// ---------- Kernel-level determinism ----------

TEST(SumRowsTest, ChunkedReductionInvariantAcrossWorkerCounts) {
  // 1,100 rows: > 4 fixed chunks of 256 rows, with a remainder. 48 columns
  // take two tail strips of the 64-column register blocks, 65 a block and
  // a 1-wide strip, 130 two blocks and a 2-wide strip.
  for (int64_t cols : {48, 1, 65, 130}) {
    Rng rng(3);
    Tensor x(1100, cols);
    nn::GaussianInit(&x, 1.0f, &rng);
    Tensor base(1, cols);
    nn::GaussianInit(&base, 1.0f, &rng);

    // Expected result: each 256-row chunk summed into a zeroed partial in
    // row order, the partials added into `base` in chunk order. Bias
    // gradients, and so every trained model's Save() bytes, depend on this
    // order.
    Tensor expected = base;
    for (int64_t c = 0; c * 256 < x.rows(); ++c) {
      std::vector<float> part(static_cast<size_t>(cols), 0.0f);
      for (int64_t i = c * 256;
           i < std::min<int64_t>(x.rows(), (c + 1) * 256); ++i) {
        for (int64_t j = 0; j < cols; ++j) part[j] += x(i, j);
      }
      for (int64_t j = 0; j < cols; ++j) expected.data()[j] += part[j];
    }
    for (size_t workers : {0u, 1u, 2u, 8u}) {
      std::unique_ptr<ScopedSerialKernels> serial;
      std::unique_ptr<ScopedKernelPool> pool;
      if (workers == 0) {
        serial = std::make_unique<ScopedSerialKernels>();
      } else {
        pool = std::make_unique<ScopedKernelPool>(workers);
      }
      Tensor out = base;
      nn::SumRowsAccumulate(x, &out);
      EXPECT_EQ(std::memcmp(expected.data(), out.data(),
                            static_cast<size_t>(out.size()) * sizeof(float)),
                0)
          << cols << " columns, " << workers << " workers";
    }
  }
}

TEST(EmbeddingScatterTest, BackwardAddsRowsInGatherOrder) {
  const int64_t vocab = 300;
  const int64_t dim = 16;
  const size_t n = 2048;
  Rng rng(7);
  std::vector<uint32_t> ids(n);
  for (auto& id : ids) {
    // Skewed ids so many rows repeat.
    id = static_cast<uint32_t>(rng.Uniform(static_cast<uint64_t>(vocab)) / 2);
  }
  Tensor dout(static_cast<int64_t>(n), dim);
  nn::GaussianInit(&dout, 1.0f, &rng);

  // Expected result: every row's additions applied in gather order.
  Tensor expected(vocab, dim);
  for (size_t i = 0; i < n; ++i) {
    const float* src = dout.row(static_cast<int64_t>(i));
    float* dst = expected.row(ids[i]);
    for (int64_t j = 0; j < dim; ++j) dst[j] += src[j];
  }

  ScopedKernelPool pool(4);
  Rng init_rng(7);
  nn::Embedding embed(vocab, dim, &init_rng);
  embed.Backward(ids, dout);
  EXPECT_EQ(std::memcmp(expected.data(), embed.table()->grad.data(),
                        static_cast<size_t>(expected.size()) * sizeof(float)),
            0);
}

TEST(AdamStepTest, FusedMatchesReferenceBitExact) {
  // 255 x 257 floats, one below the elementwise crossover (2^16), run on
  // the caller's thread; 263 x 251 is above it and splits into one chunk
  // per worker, so chunk boundaries fall inside rows.
  struct Shape {
    int64_t rows, cols;
  };
  for (const Shape shape : {Shape{255, 257}, Shape{263, 251}}) {
    Rng rng(11);
    Tensor value(shape.rows, shape.cols), grad(shape.rows, shape.cols);
    Tensor m(shape.rows, shape.cols), v(shape.rows, shape.cols);
    nn::GaussianInit(&value, 1.0f, &rng);
    nn::GaussianInit(&grad, 1.0f, &rng);
    nn::GaussianInit(&m, 0.1f, &rng);
    // Second moments must be non-negative.
    nn::GaussianInit(&v, 0.1f, &rng);
    for (int64_t i = 0; i < v.size(); ++i) {
      v.data()[i] = std::abs(v.data()[i]);
    }

    Tensor value_ref = value, grad_ref = grad, m_ref = m, v_ref = v;
    nn::AdamStepReference(1e-3f, 0.9f, 0.999f, 1e-7f, &value_ref, &grad_ref,
                          &m_ref, &v_ref);
    const size_t bytes = static_cast<size_t>(value.size()) * sizeof(float);
    for (size_t workers : {2u, 4u, 8u}) {
      ScopedKernelPool pool(workers);
      Tensor value_f = value, grad_f = grad, m_f = m, v_f = v;
      nn::AdamStepFused(1e-3f, 0.9f, 0.999f, 1e-7f, &value_f, &grad_f, &m_f,
                        &v_f);
      EXPECT_EQ(std::memcmp(value_ref.data(), value_f.data(), bytes), 0)
          << shape.rows << " x " << shape.cols << ", " << workers
          << " workers";
      EXPECT_EQ(std::memcmp(m_ref.data(), m_f.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(v_ref.data(), v_f.data(), bytes), 0);
      EXPECT_EQ(grad_f.AbsMax(), 0.0f) << "fused step must zero the gradient";
    }
  }
}

TEST(AdamStepTest, MomentsFollowParameterIndexAcrossReallocation) {
  // Index-keyed optimizer state: moments belong to slot i of the params
  // vector, not to the Parameter's address. Moving the parameter to a new
  // object mid-run must not reset (or, worse, mismatch) its moments.
  Rng rng(13);
  nn::Parameter a(8, 8);
  nn::GaussianInit(&a.value, 1.0f, &rng);
  nn::Parameter b(8, 8);
  b.value = a.value;

  auto fake_grad = [](nn::Parameter* p) { p->grad = p->value; };

  nn::Adam uninterrupted(1e-2f);
  for (int t = 0; t < 6; ++t) {
    fake_grad(&a);
    uninterrupted.Step({&a});
  }

  nn::Adam interrupted(1e-2f);
  for (int t = 0; t < 3; ++t) {
    fake_grad(&b);
    interrupted.Step({&b});
  }
  auto moved = std::make_unique<nn::Parameter>();
  moved->value = std::move(b.value);
  moved->grad = std::move(b.grad);
  for (int t = 0; t < 3; ++t) {
    fake_grad(moved.get());
    interrupted.Step({moved.get()});
  }

  EXPECT_EQ(std::memcmp(a.value.data(), moved->value.data(),
                        static_cast<size_t>(a.value.size()) * sizeof(float)),
            0);
}

// ---------- End-to-end training determinism ----------

enum class Task { kIndex, kCardinality, kBloom };

sets::SetCollection TestCollection() {
  sets::RwConfig gen;
  gen.num_sets = 150;
  gen.num_unique = 160;
  gen.seed = 21;
  return GenerateRw(gen);
}

// TestCollection with its ids renumbered in order to 0..distinct-1, so every
// id below universe_size() occurs and every embedding row is trained.
sets::SetCollection DenseTestCollection() {
  const sets::SetCollection sparse = TestCollection();
  std::vector<sets::ElementId> rank(sparse.universe_size(), 0);
  for (size_t i = 0; i < sparse.size(); ++i) {
    for (sets::ElementId e : sparse.set(i)) rank[e] = 1;
  }
  sets::ElementId next = 0;
  for (auto& r : rank) r = r != 0 ? next++ : 0;
  sets::SetCollection dense;
  for (size_t i = 0; i < sparse.size(); ++i) {
    std::vector<sets::ElementId> s;
    for (sets::ElementId e : sparse.set(i)) s.push_back(rank[e]);
    dense.AddSorted(std::move(s));
  }
  return dense;
}

core::TrainingSet BuildData(Task task, const sets::SetCollection& collection,
                            core::TargetScaler* scaler) {
  auto subsets = EnumerateLabeledSubsets(collection, {});
  switch (task) {
    case Task::kIndex:
      *scaler = core::TargetScaler::FitRange(
          0.0, static_cast<double>(collection.size() - 1));
      return core::TrainingSet::FromSubsets(
          subsets, sets::QueryLabel::kFirstPosition, *scaler);
    case Task::kCardinality:
      *scaler = core::TargetScaler::FitRange(1.0, subsets.MaxCardinality());
      return core::TrainingSet::FromSubsets(
          subsets, sets::QueryLabel::kCardinality, *scaler);
    case Task::kBloom: {
      *scaler = core::TargetScaler::FitRange(0.0, 1.0);
      baselines::InvertedIndex index(collection);
      std::function<bool(sets::SetView)> contains =
          [&index](sets::SetView q) { return index.Contains(q); };
      Rng rng(5);
      std::vector<sets::Query> negatives = sets::SampleNegativeQueries(
          collection.universe_size(), 3, subsets.size(), contains, &rng);
      return core::TrainingSet::FromMembership(subsets, negatives);
    }
  }
  return core::TrainingSet();
}

core::TrainConfig TestTrainConfig(Task task) {
  core::TrainConfig tc;
  tc.epochs = 3;
  // Batch of 256 sets: enough gathered rows to cross the chunked SumRows
  // threshold, so the fixed chunk order is the one under test.
  tc.batch_size = 256;
  tc.seed = 2;
  tc.loss = task == Task::kBloom ? core::LossKind::kBce : core::LossKind::kMse;
  return tc;
}

deepsets::DeepSetsConfig TestModelConfig(
    const sets::SetCollection& collection, bool compressed) {
  deepsets::DeepSetsConfig cfg;
  // The LSM's 4,096 x 32 table is above the elementwise crossover (2^16
  // floats), so every step's Adam pass over it is threaded.
  cfg.vocab = compressed ? static_cast<int64_t>(collection.universe_size())
                         : 4096;
  cfg.embed_dim = compressed ? 16 : 32;
  cfg.phi_hidden = {32};
  cfg.rho_hidden = {32};
  cfg.seed = 1;
  cfg.compressed = compressed;
  cfg.ns = 2;
  return cfg;
}

std::unique_ptr<deepsets::SetModel> TestModel(
    const deepsets::DeepSetsConfig& cfg) {
  auto model = deepsets::DeepSetsModel::Create(cfg);
  EXPECT_TRUE(model.ok());
  return std::move(*model);
}

std::vector<float> DumpWeights(deepsets::SetModel* model) {
  std::vector<nn::Parameter*> params;
  model->CollectParameters(&params);
  std::vector<float> weights;
  for (const auto* p : params) {
    const float* d = p->value.data();
    weights.insert(weights.end(), d, d + p->value.size());
  }
  return weights;
}

/// Trains a fresh model on fresh data; workers == 0 means fully serial.
/// `embed_dim` > 0 instead trains an LSM of that width on
/// DenseTestCollection(), with one embedding row per id of its universe.
std::vector<float> TrainWeights(Task task, bool compressed, size_t workers,
                                int64_t embed_dim = 0) {
  std::unique_ptr<ScopedSerialKernels> serial;
  std::unique_ptr<ScopedKernelPool> pool;
  if (workers == 0) {
    serial = std::make_unique<ScopedSerialKernels>();
  } else {
    pool = std::make_unique<ScopedKernelPool>(workers);
  }
  auto collection = embed_dim > 0 ? DenseTestCollection() : TestCollection();
  core::TargetScaler scaler;
  core::TrainingSet data = BuildData(task, collection, &scaler);
  deepsets::DeepSetsConfig cfg = TestModelConfig(collection, compressed);
  if (embed_dim > 0) {
    cfg.vocab = static_cast<int64_t>(collection.universe_size());
    cfg.embed_dim = embed_dim;
  }
  auto model = TestModel(cfg);
  core::Trainer trainer(TestTrainConfig(task));
  trainer.Train(model.get(), data);
  return DumpWeights(model.get());
}

class TrainingDeterminismTest : public ::testing::TestWithParam<Task> {};

TEST_P(TrainingDeterminismTest, WeightsBitIdenticalAcrossWorkerCounts) {
  std::vector<float> serial = TrainWeights(GetParam(), false, 0);
  ASSERT_FALSE(serial.empty());
  for (size_t workers : {1u, 2u, 8u}) {
    std::vector<float> threaded = TrainWeights(GetParam(), false, workers);
    ASSERT_EQ(serial.size(), threaded.size());
    EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                          serial.size() * sizeof(float)),
              0)
        << workers << " workers";
  }
}

INSTANTIATE_TEST_SUITE_P(AllStructureTypes, TrainingDeterminismTest,
                         ::testing::Values(Task::kIndex, Task::kCardinality,
                                           Task::kBloom),
                         [](const auto& info) {
                           switch (info.param) {
                             case Task::kIndex:
                               return "Index";
                             case Task::kCardinality:
                               return "Cardinality";
                             case Task::kBloom:
                               return "Bloom";
                           }
                           return "Unknown";
                         });

TEST(TrainingDeterminismCompressedTest, ClsmWeightsBitIdenticalAcrossWorkers) {
  std::vector<float> serial = TrainWeights(Task::kCardinality, true, 0);
  ASSERT_FALSE(serial.empty());
  for (size_t workers : {2u, 8u}) {
    std::vector<float> threaded = TrainWeights(Task::kCardinality, true,
                                               workers);
    ASSERT_EQ(serial.size(), threaded.size());
    EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                          serial.size() * sizeof(float)),
              0)
        << workers << " workers";
  }
}

// The LSM above puts the Adam step's chunk boundaries in rows of ids the
// 160-id universe never uses, whose gradients and moments stay zero, so a
// misplaced boundary goes unseen there. A 512-wide table over the 136 ids
// the collection uses is just above the elementwise crossover (2^16
// floats), and every row is trained, so each boundary at 2, 4 and 8 workers
// falls on a live row.
TEST(TrainingDeterminismWideEmbedTest, AdamChunksOverLiveRowsAreBitExact) {
  const sets::SetCollection collection = DenseTestCollection();
  ASSERT_EQ(collection.CountDistinctElements(), collection.universe_size());
  const int64_t floats =
      static_cast<int64_t>(collection.universe_size()) * 512;
  ASSERT_GT(floats, int64_t{1} << 16);
  ASSERT_LT(floats, int64_t{1} << 17);
  std::vector<float> serial = TrainWeights(Task::kCardinality, false, 0, 512);
  ASSERT_FALSE(serial.empty());
  for (size_t workers : {2u, 4u, 8u}) {
    std::vector<float> threaded =
        TrainWeights(Task::kCardinality, false, workers, 512);
    ASSERT_EQ(serial.size(), threaded.size());
    EXPECT_EQ(std::memcmp(serial.data(), threaded.data(),
                          serial.size() * sizeof(float)),
              0)
        << workers << " workers";
  }
}

// ---------- Guided learning (outlier eviction) determinism ----------

std::vector<size_t> GuidedOutliers(size_t workers) {
  std::unique_ptr<ScopedSerialKernels> serial;
  std::unique_ptr<ScopedKernelPool> pool;
  if (workers == 0) {
    serial = std::make_unique<ScopedSerialKernels>();
  } else {
    pool = std::make_unique<ScopedKernelPool>(workers);
  }
  auto collection = TestCollection();
  core::TargetScaler scaler;
  core::TrainingSet data = BuildData(Task::kIndex, collection, &scaler);
  auto model = TestModel(TestModelConfig(collection, false));
  core::GuidedConfig guided;
  guided.train = TestTrainConfig(Task::kIndex);
  guided.train.epochs = 2;
  guided.rounds = 3;
  guided.keep_fraction = 0.8;
  core::GuidedResult res =
      TrainGuided(model.get(), &data, scaler, guided);
  return res.outliers;
}

TEST(GuidedDeterminismTest, EvictsIdenticalOutlierSetAtEveryWorkerCount) {
  std::vector<size_t> serial = GuidedOutliers(0);
  EXPECT_FALSE(serial.empty()) << "config must actually evict something";
  for (size_t workers : {1u, 2u, 8u}) {
    EXPECT_EQ(serial, GuidedOutliers(workers)) << workers << " workers";
  }
}

}  // namespace
}  // namespace los
