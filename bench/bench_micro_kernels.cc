// Google-benchmark microbenchmarks for the hot kernels underlying all the
// paper experiments: GEMM, model forward passes, and the traditional
// structures' probe operations. Useful for spotting performance regressions
// in the substrate.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/bloom_filter.h"
#include "baselines/bplus_tree.h"
#include "baselines/inverted_index.h"
#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/hybrid.h"
#include "core/learned_cardinality.h"
#include "core/updatable.h"
#include "deepsets/deepsets_model.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "sets/generators.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace {

using los::Rng;
using los::nn::Tensor;

// Values passed to benchmark::DoNotOptimize are named, non-const lvalues:
// google-benchmark 1.8 deprecates the const-reference overload that
// temporaries and const values would bind to.

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(n, n), b(n, n), c(n, n);
  los::nn::GaussianInit(&a, 1.0f, &rng);
  los::nn::GaussianInit(&b, 1.0f, &rng);
  for (auto _ : state) {
    los::nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    auto* ptr = c.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// The seed scalar kernel, kept as the before/after baseline for the SIMD
// tile kernel above (EXPERIMENTS.md records the ratio).
void BM_GemmReference(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a(n, n), b(n, n), c(n, n);
  los::nn::GaussianInit(&a, 1.0f, &rng);
  los::nn::GaussianInit(&b, 1.0f, &rng);
  for (auto _ : state) {
    los::nn::GemmReference(a, false, b, false, 1.0f, 0.0f, &c);
    auto* ptr = c.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmReference)->Arg(128)->Arg(256)->Arg(512);

/// Runs the nn kernels serially (threads <= 1) or on an injected pool of
/// `threads` workers for the scope's lifetime.
class BenchKernelThreads {
 public:
  explicit BenchKernelThreads(int64_t threads) {
    if (threads <= 1) {
      los::nn::SetKernelThreading(false);
    } else {
      pool_ = std::make_unique<los::ThreadPool>(static_cast<size_t>(threads));
      los::nn::SetKernelThreadPool(pool_.get());
    }
  }
  ~BenchKernelThreads() {
    los::nn::SetKernelThreading(true);
    los::nn::SetKernelThreadPool(nullptr);
  }

 private:
  std::unique_ptr<los::ThreadPool> pool_;
};

// Threaded-vs-serial sweep on both sides of the GEMM threading crossover
// (2^25 multiply-adds): `threads` workers via an injected pool (threads = 1
// disables kernel threading entirely). Below the crossover the library runs
// on the caller's thread whatever the pool, so those rows match threads = 1.
// On a single-core host all rows collapse to the serial number.
void BM_GemmThreads(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  Rng rng(1);
  Tensor a(m, k), b(k, n), c(m, n);
  los::nn::GaussianInit(&a, 1.0f, &rng);
  los::nn::GaussianInit(&b, 1.0f, &rng);
  BenchKernelThreads threads(state.range(3));
  for (auto _ : state) {
    los::nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    auto* ptr = c.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{1340}, {64}, {16}, {1, 4}})  // CLSM φ forward, batch 512
    ->ArgsProduct({{512}, {64}, {64}, {1, 4}})   // 64-wide ρ forward
    ->ArgsProduct({{256}, {256}, {256}, {1, 4}})
    ->ArgsProduct({{320}, {320}, {320}, {1, 4}})  // just below
    ->ArgsProduct({{512}, {256}, {256}, {1, 4}})  // 256-wide ρ: 2^25
    ->ArgsProduct({{512}, {512}, {512}, {1, 2, 4}})  // 512-wide layer
    ->ArgNames({"m", "n", "k", "threads"})
    ->UseRealTime();

// The products one training batch of perfbench's models runs (batch 512,
// ~1,340 element rows): the CLSM φ input gradient dY·Wᵀ (n = 16), the
// index model's (n = 8), the 1-wide ρ head forward and its weight gradient
// Xᵀ·dY, the φ forward E × 16 · 16 × 64 and the φ weight gradient
// (m = 16). Two serving micro-batches of 8 queries close the list: they run
// the same 8-row tile instance as training. Items are flops.
void BM_GemmTrainShapes(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  const bool trans_a = state.range(3) != 0;
  const bool trans_b = state.range(4) != 0;
  Rng rng(1);
  Tensor a(trans_a ? k : m, trans_a ? m : k);
  Tensor b(trans_b ? n : k, trans_b ? k : n);
  Tensor c(m, n);
  los::nn::GaussianInit(&a, 1.0f, &rng);
  los::nn::GaussianInit(&b, 1.0f, &rng);
  for (auto _ : state) {
    los::nn::Gemm(a, trans_a, b, trans_b, 1.0f, 0.0f, &c);
    auto* ptr = c.data();
    benchmark::DoNotOptimize(ptr);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
}
BENCHMARK(BM_GemmTrainShapes)
    ->Args({1340, 16, 64, 0, 1})   // CLSM φ dX = dY[E x 64] · W[16 x 64]ᵀ
    ->Args({1340, 8, 32, 0, 1})    // index φ dX = dY[E x 32] · W[8 x 32]ᵀ
    ->Args({512, 1, 64, 0, 0})     // ρ head forward X[512 x 64] · W[64 x 1]
    ->Args({64, 1, 512, 1, 0})     // ρ head dW = X[512 x 64]ᵀ · dY[512 x 1]
    ->Args({1340, 64, 16, 0, 0})   // CLSM φ forward X[E x 16] · W[16 x 64]
    ->Args({16, 64, 1340, 1, 0})   // CLSM φ dW = X[E x 16]ᵀ · dY[E x 64]
    ->Args({8, 64, 64, 0, 0})      // 8 queries through a 64-wide layer
    ->Args({8, 512, 512, 0, 0})    // 8 queries through a 512-wide layer
    ->ArgNames({"m", "n", "k", "ta", "tb"})
    ->UseRealTime();

// The fused Adam step (one pass updating moments + weights + zeroing the
// grad) serial (threads = 1) and on a 4-worker pool, on both sides of the
// elementwise threading crossover (2^16 floats): a paper-size table
// (universe 901 x embed 8), the crossover's neighbours, and tables of
// 16,384 and 65,536 ids x 32.
void BM_AdamStepFused(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cols = state.range(1);
  Rng rng(5);
  Tensor value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols);
  los::nn::GaussianInit(&value, 1.0f, &rng);
  los::nn::GaussianInit(&grad, 1.0f, &rng);
  const Tensor grad0 = grad;  // the step zeroes grad; refresh it each
                              // iteration so the moments never decay into
                              // denormals (which would dominate the timing)
  const size_t grad_bytes = static_cast<size_t>(grad.size()) * sizeof(float);
  BenchKernelThreads threads(state.range(2));
  for (auto _ : state) {
    std::memcpy(grad.data(), grad0.data(), grad_bytes);
    los::nn::AdamStepFused(1e-3f, 0.9f, 0.999f, 1e-7f, &value, &grad, &m, &v);
    auto* ptr = value.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_AdamStepFused)
    ->ArgsProduct({{901}, {8}, {1, 4}})
    ->ArgsProduct({{1024, 2048, 16384, 65536}, {32}, {1, 4}})
    ->ArgNames({"rows", "cols", "threads"})
    ->UseRealTime();

// The seed's scalar update loop (same expressions), kept as the
// before/after baseline for the fused kernel — results are bit-identical.
void BM_AdamStepReference(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(5);
  Tensor value(rows, 32), grad(rows, 32), m(rows, 32), v(rows, 32);
  los::nn::GaussianInit(&value, 1.0f, &rng);
  los::nn::GaussianInit(&grad, 1.0f, &rng);
  const Tensor grad0 = grad;
  const size_t grad_bytes = static_cast<size_t>(grad.size()) * sizeof(float);
  for (auto _ : state) {
    std::memcpy(grad.data(), grad0.data(), grad_bytes);
    los::nn::AdamStepReference(1e-3f, 0.9f, 0.999f, 1e-7f, &value, &grad, &m,
                               &v);
    auto* ptr = value.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * rows * 32);
}
BENCHMARK(BM_AdamStepReference)->Arg(1024)->Arg(16384)->Arg(65536);

// Embedding scatter-add vs. the row count (skewed ids).
void BM_EmbeddingScatterAdd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int64_t dim = 32;
  Rng rng(9);
  los::nn::Embedding embed(1 << 14, dim, &rng);
  std::vector<uint32_t> ids(n);
  for (auto& id : ids) {
    id = static_cast<uint32_t>(rng.Uniform(1 << 12));
  }
  Tensor dout(static_cast<int64_t>(n), dim);
  los::nn::GaussianInit(&dout, 1.0f, &rng);
  for (auto _ : state) {
    embed.Backward(ids, dout);
    auto* ptr = embed.table()->grad.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * dim);
}
BENCHMARK(BM_EmbeddingScatterAdd)->Arg(256)->Arg(2048)->Arg(16384);

// One dense layer on one row, at the single-row property test's shapes
// (in -> out; 1-wide heads use sigmoid, the rest relu): the fused kernel
// PredictOne runs (Dense::ForwardRows at m = 1).
los::nn::Dense MakeBenchDense(int64_t in, int64_t out) {
  Rng rng(3);
  return los::nn::Dense(in, out,
                        out == 1 ? los::nn::Activation::kSigmoid
                                 : los::nn::Activation::kRelu,
                        &rng);
}

void DenseShapes(benchmark::internal::Benchmark* b) {
  for (auto [in, out] : {std::pair<int64_t, int64_t>{8, 32}, {32, 32},
                         {32, 1}, {16, 64}, {64, 64}, {64, 1}, {33, 17},
                         {512, 512}}) {
    b->Args({in, out});
  }
  b->ArgNames({"in", "out"});
}

Tensor BenchRow(int64_t in) {
  Rng rng(4);
  Tensor x(1, in);
  los::nn::GaussianInit(&x, 1.0f, &rng);
  return x;
}

void BM_DenseForwardRow(benchmark::State& state) {
  const los::nn::Dense layer = MakeBenchDense(state.range(0), state.range(1));
  const Tensor x = BenchRow(state.range(0));
  std::vector<float> y(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    layer.ForwardRows(x.data(), 1, y.data());
    auto* ptr = y.data();
    benchmark::DoNotOptimize(ptr);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DenseForwardRow)->Apply(DenseShapes);

// A dense layer over a training batch, Dense::Forward on a Tensor as the
// epochs and PredictScaled run it: 1,300 element rows through perfbench's φ
// layers (16 -> 64 for the cardinality and Bloom models, 8 -> 32 for the
// index's), then 512 pooled rows through ρ's hidden layers and its 1-wide
// sigmoid head. Items are multiply-adds.
void BM_DenseForwardTrain(benchmark::State& state) {
  const int64_t m = state.range(0);
  const los::nn::Dense layer = MakeBenchDense(state.range(1), state.range(2));
  Rng rng(7);
  Tensor x(m, state.range(1));
  los::nn::GaussianInit(&x, 1.0f, &rng);
  Tensor y;
  for (auto _ : state) {
    layer.Forward(x, &y);
    auto* ptr = y.data();
    benchmark::DoNotOptimize(ptr);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * state.range(1) *
                          state.range(2));
}
BENCHMARK(BM_DenseForwardTrain)
    ->Args({1300, 16, 64})
    ->Args({1300, 8, 32})
    ->Args({512, 64, 64})
    ->Args({512, 32, 32})
    ->Args({512, 64, 1})
    ->ArgNames({"m", "in", "out"});

// A bias gradient: the column sums of a training batch's dY added into
// the gradient row (SumRowsAccumulate, in 256-row chunks above 256 rows).
// 1,300 x 64 and 1,300 x 32 are φ's, 512 x 64 and 512 x 1 ρ's.
void BM_SumRows(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t cols = state.range(1);
  Rng rng(8);
  Tensor x(rows, cols);
  los::nn::GaussianInit(&x, 1.0f, &rng);
  Tensor out(1, cols);
  for (auto _ : state) {
    los::nn::SumRowsAccumulate(x, &out);
    auto* ptr = out.data();
    benchmark::DoNotOptimize(ptr);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_SumRows)
    ->Args({1300, 64})
    ->Args({1300, 32})
    ->Args({512, 64})
    ->Args({512, 1})
    ->ArgNames({"rows", "cols"});

// Set pooling of φ's output as one training batch runs it: 512 sets of
// 1-4 element rows (1,280 rows) of width d, SegmentPool::Forward (pass 0)
// or Backward (pass 1); pass 2 pools one 3-row set through ForwardRow, as
// PredictOne does. Pooling 0 is sum, 1 mean, 2 max.
void BM_SegmentPool(benchmark::State& state) {
  const int64_t d = state.range(0);
  const auto pooling = static_cast<los::nn::Pooling>(state.range(1));
  const int64_t pass = state.range(2);
  std::vector<int64_t> offsets{0};
  for (int64_t s = 0; s < 512; ++s) {
    offsets.push_back(offsets.back() + 1 + s % 4);
  }
  const int64_t rows = offsets.back();
  Rng rng(9);
  Tensor x(rows, d), pooled, dpooled(512, d), dx;
  los::nn::GaussianInit(&x, 1.0f, &rng);
  los::nn::GaussianInit(&dpooled, 1.0f, &rng);
  std::vector<int64_t> argmax;
  const los::nn::SegmentPool pool(pooling);
  pool.Forward(x, offsets, &pooled, &argmax);
  for (auto _ : state) {
    float* ptr = nullptr;
    if (pass == 0) {
      pool.Forward(x, offsets, &pooled, &argmax);
      ptr = pooled.data();
    } else if (pass == 1) {
      pool.Backward(dpooled, offsets, argmax, rows, &dx);
      ptr = dx.data();
    } else {
      pool.ForwardRow(x.data(), 3, d, pooled.data());
      ptr = pooled.data();
    }
    benchmark::DoNotOptimize(ptr);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * (pass == 2 ? 3 : rows) * d);
}
BENCHMARK(BM_SegmentPool)
    ->ArgsProduct({{64, 32}, {0, 1, 2}, {0, 1, 2}})
    ->ArgNames({"d", "pooling", "pass"});

// φ's forward as PredictOne runs it: one ReLU layer over all of a query's
// element rows in one Dense::ForwardRows call. 16 -> 64 is the
// cardinality and Bloom models' φ (a CLSM's two 8-wide slot embeddings),
// 8 -> 32 the index's; perfbench's queries have 1-3 elements.
void BM_PhiForwardRows(benchmark::State& state) {
  const int64_t in = state.range(0);
  const int64_t out = state.range(1);
  const int64_t rows = state.range(2);
  Rng rng(6);
  const los::nn::Dense layer(in, out, los::nn::Activation::kRelu, &rng);
  Tensor x(rows, in);
  los::nn::GaussianInit(&x, 1.0f, &rng);
  std::vector<float> y(static_cast<size_t>(rows * out));
  for (auto _ : state) {
    layer.ForwardRows(x.data(), rows, y.data());
    auto* ptr = y.data();
    benchmark::DoNotOptimize(ptr);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PhiForwardRows)
    ->ArgsProduct({{16}, {64}, {1, 3, 8}})
    ->ArgsProduct({{8}, {32}, {1, 3, 8}})
    ->ArgNames({"in", "out", "rows"});

// ρ's forward as PredictOne runs it: a width -> width ReLU layer and then
// the 1-wide sigmoid head, each one DenseRows call (the kernel
// Dense::ForwardRows runs). Width 64 is the cardinality and Bloom models'
// ρ, 32 the index's. Every buffer (weights, biases, input, hidden row)
// starts `offset` bytes past a cache-line boundary: 0 is where Tensor
// storage puts them, 16 where a 16-byte-aligned std::vector may.
void BM_RhoForwardRow(benchmark::State& state) {
  const auto width = static_cast<size_t>(state.range(0));
  const auto offset = static_cast<size_t>(state.range(1));
  const size_t sizes[] = {width * width, width, width, 1, width, width};
  std::vector<float> arena(8 * width * width + 256);
  float* bufs[6];
  auto next = reinterpret_cast<uintptr_t>(arena.data());
  Rng rng(5);
  for (int i = 0; i < 6; ++i) {
    constexpr uintptr_t kLine = 64;  // one cache line
    next = ((next + kLine - 1) & ~(kLine - 1)) + offset;
    bufs[i] = reinterpret_cast<float*>(next);
    for (size_t j = 0; j < sizes[i]; ++j) {
      bufs[i][j] = static_cast<float>(0.2 * rng.NextGaussian());
    }
    next += sizes[i] * sizeof(float);
  }
  const float* w1 = bufs[0];
  const float* b1 = bufs[1];
  const float* w2 = bufs[2];
  const float* b2 = bufs[3];
  const float* x = bufs[4];
  float* hidden = bufs[5];
  const auto k = static_cast<int64_t>(width);
  for (auto _ : state) {
    los::nn::DenseRows(x, 1, w1, b1, k, k, los::nn::Activation::kRelu,
                       hidden);
    float out = 0.0f;
    los::nn::DenseRows(hidden, 1, w2, b2, k, 1, los::nn::Activation::kSigmoid,
                       &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_RhoForwardRow)
    ->Args({64, 0})
    ->Args({64, 16})
    ->Args({32, 0})
    ->Args({32, 16})
    ->ArgNames({"width", "offset"});

/// The model benches' LSM, or CLSM with ns = 2: vocab 10,000, embed 8,
/// φ and ρ 64 wide.
std::unique_ptr<los::deepsets::DeepSetsModel> BenchModel(bool compressed) {
  los::deepsets::DeepSetsConfig cfg;
  cfg.vocab = 10000;
  cfg.embed_dim = 8;
  cfg.phi_hidden = {64};
  cfg.rho_hidden = {64};
  cfg.compressed = compressed;
  cfg.ns = 2;
  return std::move(los::deepsets::DeepSetsModel::Create(cfg)).value();
}

void ForwardSingleSet(benchmark::State& state, bool compressed) {
  auto model = BenchModel(compressed);
  std::vector<los::sets::ElementId> ids{17, 423, 999, 5000};
  std::vector<int64_t> offsets{0, 4};
  for (auto _ : state) {
    const Tensor& out = model->Forward(ids, offsets);
    auto* ptr = out.data();
    benchmark::DoNotOptimize(ptr);
  }
}

void BM_LsmForwardSingleSet(benchmark::State& state) {
  ForwardSingleSet(state, /*compressed=*/false);
}
BENCHMARK(BM_LsmForwardSingleSet);

void BM_ClsmForwardSingleSet(benchmark::State& state) {
  ForwardSingleSet(state, /*compressed=*/true);
}
BENCHMARK(BM_ClsmForwardSingleSet);

// One PredictOne call per set: the pre-batching serving path.
void BM_LsmPredictOneLoop(benchmark::State& state) {
  auto model = BenchModel(/*compressed=*/false);
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::vector<los::sets::ElementId>> sets(batch);
  for (auto& s : sets) {
    s.resize(4);
    for (auto& e : s) e = static_cast<los::sets::ElementId>(rng.Uniform(10000));
    los::sets::Canonicalize(&s);
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (const auto& s : sets) {
      sum += model->PredictOne({s.data(), s.size()});
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_LsmPredictOneLoop)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->UseRealTime();

// Same sets through one PredictBatch call (batched forwards + scratch
// reuse). Real time: a batch whose kernels reach the pool would read
// inflated from the calling thread's CPU time.
void BM_LsmPredictBatch(benchmark::State& state) {
  auto model = BenchModel(/*compressed=*/false);
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<std::vector<los::sets::ElementId>> sets(batch);
  std::vector<los::sets::SetView> views;
  for (auto& s : sets) {
    s.resize(4);
    for (auto& e : s) e = static_cast<los::sets::ElementId>(rng.Uniform(10000));
    los::sets::Canonicalize(&s);
    views.emplace_back(s.data(), s.size());
  }
  std::vector<double> out;
  for (auto _ : state) {
    out.clear();
    model->PredictBatch(views.data(), views.size(), &out);
    auto* ptr = out.data();
    benchmark::DoNotOptimize(ptr);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
}
BENCHMARK(BM_LsmPredictBatch)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->UseRealTime();

void BM_BPlusTreeFind(benchmark::State& state) {
  los::baselines::BPlusTree tree(100);
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) tree.Insert(rng.Next(), i);
  uint64_t probe = 0;
  for (auto _ : state) {
    auto v = tree.FindFirst(probe++);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BPlusTreeFind);

// The learned structures' aux probes at perfbench's size: 4,599 stored
// subsets of 1-3 distinct elements over 430 elements, probed by 4,096
// queries of the same shape, every other one stored. Each probe hashes the
// query and looks it up, as PreModel does on every query before the model.
struct AuxProbeData {
  std::vector<std::vector<los::sets::ElementId>> stored;
  std::vector<std::vector<los::sets::ElementId>> probes;
};

const AuxProbeData& AuxProbes() {
  static const AuxProbeData data = [] {
    constexpr size_t kStored = 4599;
    constexpr size_t kProbes = 4096;
    AuxProbeData d;
    Rng rng(11);
    los::sets::SetKeyMap<bool> seen;
    auto draw = [&] {
      std::vector<los::sets::ElementId> s;
      do {
        s.resize(1 + rng.Uniform(3));
        for (auto& e : s) e = static_cast<los::sets::ElementId>(rng.Uniform(430));
        los::sets::Canonicalize(&s);
      } while (!seen.emplace(los::sets::SetKey(s), true).second);
      return s;
    };
    while (d.stored.size() < kStored) d.stored.push_back(draw());
    for (size_t i = 0; i < kProbes; ++i) {
      d.probes.push_back(i % 2 == 0 ? d.stored[(i * 7) % kStored] : draw());
    }
    return d;
  }();
  return data;
}

void BM_IndexAuxFind(benchmark::State& state) {
  const AuxProbeData& d = AuxProbes();
  std::vector<std::pair<uint64_t, uint32_t>> entries;
  for (size_t i = 0; i < d.stored.size(); ++i) {
    entries.emplace_back(los::sets::HashSetSorted(d.stored[i]),
                         static_cast<uint32_t>(i));
  }
  const auto aux = los::core::IndexAux::Build(std::move(entries));
  size_t k = 0;
  for (auto _ : state) {
    auto v = aux.FindFirst(los::sets::HashSetSorted(d.probes[k]));
    benchmark::DoNotOptimize(v);
    k = (k + 1) & (d.probes.size() - 1);
  }
  state.counters["bytes_per_entry"] =
      static_cast<double>(aux.MemoryBytes()) /
      static_cast<double>(d.stored.size());
}
BENCHMARK(BM_IndexAuxFind);

void BM_CardAuxGet(benchmark::State& state) {
  const AuxProbeData& d = AuxProbes();
  std::vector<los::core::CardinalityAux::Entry> entries;
  for (size_t i = 0; i < d.stored.size(); ++i) {
    entries.push_back({d.stored[i], static_cast<uint32_t>(i + 1)});
  }
  const auto aux = los::core::CardinalityAux::Build(entries);
  if (!aux.ok()) {
    state.SkipWithError("build failed");
    return;
  }
  size_t k = 0;
  for (auto _ : state) {
    auto v = aux->Get(d.probes[k]);
    benchmark::DoNotOptimize(v);
    k = (k + 1) & (d.probes.size() - 1);
  }
  state.counters["bytes_per_entry"] =
      static_cast<double>(aux->MemoryBytes()) /
      static_cast<double>(d.stored.size());
}
BENCHMARK(BM_CardAuxGet);

void BM_BloomProbe(benchmark::State& state) {
  los::baselines::BloomFilter bf(100000, 0.01);
  for (uint64_t i = 0; i < 100000; ++i) {
    bf.InsertHash(los::sets::MixElement(i));
  }
  uint64_t probe = 0;
  for (auto _ : state) {
    bool v = bf.MayContainHash(los::sets::MixElement(probe++));
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_BloomProbe);

void BM_InvertedIndexCardinality(benchmark::State& state) {
  los::sets::RwConfig cfg;
  cfg.num_sets = 20000;
  cfg.num_unique = 2000;
  auto collection = GenerateRw(cfg);
  los::baselines::InvertedIndex index(collection);
  Rng rng(3);
  std::vector<los::sets::ElementId> q(2);
  for (auto _ : state) {
    q[0] = static_cast<los::sets::ElementId>(rng.Uniform(2000));
    q[1] = static_cast<los::sets::ElementId>(rng.Uniform(2000));
    los::sets::Canonicalize(&q);
    auto v = index.Cardinality({q.data(), q.size()});
    benchmark::DoNotOptimize(v);
    if (q.size() == 1) q.resize(2);
  }
}
BENCHMARK(BM_InvertedIndexCardinality);

// The learned index's local scans over perfbench's collection (2,050 RW
// sets, 430 elements, seed 17) and 4,096 sampled first-position queries of
// <= 3 elements, each scanned over the full-width window [0, N). Items are
// queries; scanned sets are counted as "sets".
struct ScanBenchData {
  los::sets::SetCollection collection;
  std::vector<los::sets::Query> queries;
};

const ScanBenchData& ScanData() {
  static const ScanBenchData data = [] {
    los::sets::RwConfig cfg;
    cfg.num_sets = 2050;
    cfg.num_unique = 430;
    cfg.seed = 17;
    ScanBenchData d{GenerateRw(cfg), {}};
    los::sets::SubsetGenOptions gen;
    gen.max_subset_size = 3;
    const auto subsets = EnumerateLabeledSubsets(d.collection, gen);
    Rng rng(1);
    d.queries = SampleQueries(
        subsets, los::sets::QueryLabel::kFirstPosition, 4096, &rng);
    return d;
  }();
  return data;
}

void BM_FindFirstSuperset(benchmark::State& state) {
  const auto& [collection, queries] = ScanData();
  size_t k = 0;
  int64_t sets = 0;
  for (auto _ : state) {
    auto pos =
        collection.FindFirstSuperset(queries[k].view(), 0, collection.size());
    benchmark::DoNotOptimize(pos);
    sets += pos + 1;
    k = k + 1 == queries.size() ? 0 : k + 1;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sets"] = benchmark::Counter(
      static_cast<double>(sets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FindFirstSuperset);

// LookupEqual's scan: each query is the whole set at a sampled query's
// first position, so it is answered at or before that position.
void BM_FindFirstEqual(benchmark::State& state) {
  const auto& [collection, queries] = ScanData();
  size_t k = 0;
  int64_t sets = 0;
  for (auto _ : state) {
    const auto truth = static_cast<size_t>(queries[k].truth);
    auto pos =
        collection.FindFirstEqual(collection.set(truth), 0, collection.size());
    benchmark::DoNotOptimize(pos);
    sets += pos + 1;
    k = k + 1 == queries.size() ? 0 : k + 1;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sets"] = benchmark::Counter(
      static_cast<double>(sets), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FindFirstEqual);

// Raw cost of one counter increment / histogram observation on the lock-free
// metrics hot path, plus the same ops against a disabled registry (the
// serving structures pay the disabled cost when metrics are off at runtime).
// Every thread of a row observes the same instrument, so the threads:3 rows
// measure what concurrent clients pay on one shared counter or histogram.
los::MetricsRegistry* BenchMetricsRegistry() {
  static los::MetricsRegistry* registry = new los::MetricsRegistry();
  return registry;
}

void BM_MetricsCounterIncrement(benchmark::State& state) {
  los::MetricsRegistry* registry = BenchMetricsRegistry();
  registry->set_enabled(state.range(0) != 0);
  los::Counter* c = registry->GetCounter("bench.counter");
  for (auto _ : state) {
    c->Increment();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterIncrement)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"enabled"})
    ->Threads(1)
    ->Threads(3);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  los::MetricsRegistry* registry = BenchMetricsRegistry();
  registry->set_enabled(state.range(0) != 0);
  los::Histogram* h = registry->GetHistogram("bench.hist",
                                             los::LatencyHistogramOptions());
  double v = 1e-6;
  for (auto _ : state) {
    h->Observe(v);
    v *= 1.0000001;
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramObserve)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"enabled"})
    ->Threads(1)
    ->Threads(3);

// One empty timed scope: two clock reads and an Observe on every call, or
// on 1 call in 16 for a sampled histogram (the single-query paths' grid).
void BM_MetricsScopedLatency(benchmark::State& state) {
  los::MetricsRegistry* registry = BenchMetricsRegistry();
  registry->set_enabled(state.range(0) != 0);
  los::Histogram* h =
      state.range(1) != 0
          ? registry->GetHistogram("bench.sampled_seconds",
                                   los::SampledLatencyHistogramOptions())
          : registry->GetHistogram("bench.seconds",
                                   los::LatencyHistogramOptions());
  for (auto _ : state) {
    los::ScopedLatency timer(h);
    benchmark::DoNotOptimize(h);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsScopedLatency)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({0, 1})
    ->ArgNames({"enabled", "sampled"});

// Shared small estimator for the end-to-end serving-overhead benches
// (built once, reused across all rows).
los::core::LearnedCardinalityEstimator* BenchEstimator() {
  static los::core::LearnedCardinalityEstimator* est = [] {
    los::sets::RwConfig cfg;
    cfg.num_sets = 2000;
    cfg.num_unique = 500;
    auto collection = GenerateRw(cfg);
    los::core::CardinalityOptions opts;
    opts.model.embed_dim = 8;
    opts.model.phi_hidden = {32};
    opts.model.rho_hidden = {32};
    opts.train.epochs = 1;
    opts.max_subset_size = 2;
    auto built =
        los::core::LearnedCardinalityEstimator::Build(collection, opts);
    return built.ok()
               ? new los::core::LearnedCardinalityEstimator(std::move(*built))
               : nullptr;
  }();
  return est;
}

// End-to-end instrumented serving path: cardinality Estimate() with the
// injected registry enabled vs disabled. The gap between the two rows is
// the total instrumentation overhead on a real query (budget: <2%).
void BM_CardinalityEstimateMetrics(benchmark::State& state) {
  los::core::LearnedCardinalityEstimator* est = BenchEstimator();
  if (est == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  los::MetricsRegistry registry;
  registry.set_enabled(state.range(0) != 0);
  est->SetMetricsRegistry(&registry);
  Rng rng(11);
  std::vector<los::sets::ElementId> q(2);
  for (auto _ : state) {
    q[0] = static_cast<los::sets::ElementId>(rng.Uniform(500));
    q[1] = static_cast<los::sets::ElementId>(rng.Uniform(500));
    los::sets::Canonicalize(&q);
    double v = est->Estimate({q.data(), q.size()});
    benchmark::DoNotOptimize(v);
    if (q.size() == 1) q.resize(2);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CardinalityEstimateMetrics)
    ->Arg(1)
    ->Arg(0)
    ->ArgNames({"enabled"});

// Raw cost of one span on the tracing hot path. mode 0 = runtime-disabled
// (one relaxed atomic load — the always-on production cost), mode 1 = every
// span recorded (two clock reads + a thread-local ring push), mode 2 =
// 1-in-128 sampling (127 of 128 spans pay only a counter bump).
void BM_TraceSpan(benchmark::State& state) {
  auto* tracer = los::Tracer::Global();
  const int mode = static_cast<int>(state.range(0));
  tracer->Reset();
  tracer->set_sample_every(mode == 2 ? 128 : 1);
  tracer->set_enabled(mode != 0);
  for (auto _ : state) {
    TRACE_SPAN_SAMPLED("bench", "bench.span");
    benchmark::DoNotOptimize(tracer);
  }
  tracer->set_enabled(false);
  tracer->set_sample_every(1);
  tracer->Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"mode"});

// End-to-end serving query with spans compiled in. mode 0 (disabled) vs
// the BM_CardinalityEstimateMetrics rows is the acceptance budget: spans
// compiled-in-but-disabled must cost <=2% on a real query. mode 1 records
// every span along the query (estimate + aux probe + forward stages +
// kernels); mode 2 samples 1 in 128 queries.
void BM_CardinalityEstimateTrace(benchmark::State& state) {
  los::core::LearnedCardinalityEstimator* est = BenchEstimator();
  if (est == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  los::MetricsRegistry registry;
  registry.set_enabled(false);  // isolate tracing cost from metrics cost
  est->SetMetricsRegistry(&registry);
  auto* tracer = los::Tracer::Global();
  const int mode = static_cast<int>(state.range(0));
  tracer->Reset();
  tracer->set_sample_every(mode == 2 ? 128 : 1);
  tracer->set_enabled(mode != 0);
  Rng rng(11);
  std::vector<los::sets::ElementId> q(2);
  for (auto _ : state) {
    q[0] = static_cast<los::sets::ElementId>(rng.Uniform(500));
    q[1] = static_cast<los::sets::ElementId>(rng.Uniform(500));
    los::sets::Canonicalize(&q);
    double v = est->Estimate({q.data(), q.size()});
    benchmark::DoNotOptimize(v);
    if (q.size() == 1) q.resize(2);
  }
  tracer->set_enabled(false);
  tracer->set_sample_every(1);
  tracer->Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CardinalityEstimateTrace)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"mode"});

void BM_HashSetSorted(benchmark::State& state) {
  std::vector<los::sets::ElementId> s{1, 5, 99, 1024, 70000, 123456};
  for (auto _ : state) {
    auto h = los::sets::HashSetSorted({s.data(), s.size()});
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HashSetSorted);

// One UpdatableSetIndex::Update with perfbench's index options (its preset,
// 3 epochs, subsets of <= 3 elements) over an RW collection of 2,050 sets
// and 430 elements, or ten times both. publish:1 publishes a read
// generation after every update (the default, read-your-writes); publish:0
// never does, which isolates the absorb path. Updates cycle through 256
// fixed (position, content) pairs whose contents come from a universe
// twice as wide, like perfbench's live stream; one warm-up cycle when a
// row is first set up fills the aux overlay, so timed updates overwrite
// its entries instead of growing it. Each row builds its index on first use
// (about 4 s at 20,500 sets); CI's filter leaves these rows out.
struct IndexUpdateRow {
  std::unique_ptr<los::core::UpdatableSetIndex> index;
  std::vector<std::pair<size_t, std::vector<los::sets::ElementId>>> updates;
};

IndexUpdateRow* IndexUpdateSetup(size_t num_sets, bool publish) {
  static std::map<std::pair<size_t, bool>, std::unique_ptr<IndexUpdateRow>>
      rows;
  auto& row = rows[{num_sets, publish}];
  if (row != nullptr) return row.get();
  const size_t num_unique = 430 * (num_sets / 2050);
  los::sets::RwConfig cfg;
  cfg.num_sets = num_sets;
  cfg.num_unique = num_unique;
  cfg.seed = 17;
  los::core::UpdatableSetIndex::Options opts;
  opts.index = los::bench::IndexPreset(/*compressed=*/false, /*hybrid=*/true);
  opts.index.train.epochs = 3;
  opts.index.max_subset_size = 3;
  opts.update.rebuild_after_absorbed = 0;
  opts.update.background_rebuild = false;
  opts.publish_after_updates =
      publish ? 1 : std::numeric_limits<size_t>::max();
  auto built = los::core::UpdatableSetIndex::Build(GenerateRw(cfg), opts);
  if (!built.ok()) return nullptr;
  row = std::make_unique<IndexUpdateRow>();
  row->index = std::move(*built);
  los::sets::RwConfig drift;
  drift.num_sets = 256;
  drift.num_unique = 2 * num_unique;
  drift.seed = 29;
  const auto deltas = GenerateRw(drift);
  Rng rng(3);
  for (size_t i = 0; i < deltas.size(); ++i) {
    const auto d = deltas.set(i);
    row->updates.emplace_back(rng.Uniform(num_sets),
                              std::vector<los::sets::ElementId>(d.begin(),
                                                                d.end()));
  }
  for (const auto& [pos, content] : row->updates) {
    (void)row->index->Update(pos, content);
  }
  return row.get();
}

void BM_IndexUpdate(benchmark::State& state) {
  IndexUpdateRow* row = IndexUpdateSetup(static_cast<size_t>(state.range(0)),
                                         state.range(1) != 0);
  if (row == nullptr) {
    state.SkipWithError("build failed");
    return;
  }
  size_t k = 0;
  for (auto _ : state) {
    const auto& [pos, content] = row->updates[k];
    los::Status st = row->index->Update(pos, content);
    benchmark::DoNotOptimize(st);
    k = k + 1 == row->updates.size() ? 0 : k + 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexUpdate)
    ->ArgsProduct({{2050, 20500}, {1, 0}})
    ->ArgNames({"sets", "publish"})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
