// §8.1 setup numbers: per-epoch training time for each task (with and
// without compression), creation times of the traditional competitors
// (B+ tree, HashMap, Bloom filter), and a threaded-training sweep over
// worker counts and batch sizes. The sweep writes machine-readable JSON
// lines to BENCH_build_times.json in the working directory.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/bloom_filter.h"
#include "baselines/bplus_tree.h"
#include "baselines/hash_map_estimator.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/learned_bloom.h"
#include "core/scaling.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "deepsets/deepsets_model.h"
#include "nn/ops.h"
#include "sets/set_hash.h"

using los::bench::BenchDatasets;

namespace {

/// Per-epoch seconds for an index-task model (one φ and one ρ hidden layer
/// of `hidden` units, `vocab` embedding ids) trained with `threads` kernel
/// workers (0 = fully serial kernels). The model, data order and results
/// are bit-identical across rows — only the wall clock changes.
std::vector<double> EpochSeconds(const los::sets::LabeledSubsets& subsets,
                                 bool compressed, int64_t vocab,
                                 int64_t embed_dim, int64_t hidden,
                                 int threads, int batch_size, int epochs) {
  std::unique_ptr<los::ThreadPool> pool;
  if (threads <= 0) {
    los::nn::SetKernelThreading(false);
  } else {
    pool = std::make_unique<los::ThreadPool>(static_cast<size_t>(threads));
    los::nn::SetKernelThreadPool(pool.get());
  }

  auto scaler = los::core::TargetScaler::FitRange(
      0.0, static_cast<double>(subsets.size()));
  auto data = los::core::TrainingSet::FromSubsets(
      subsets, los::sets::QueryLabel::kFirstPosition, scaler);

  los::deepsets::DeepSetsConfig cfg;
  cfg.vocab = vocab;
  cfg.embed_dim = embed_dim;
  cfg.phi_hidden = {hidden};
  cfg.rho_hidden = {hidden};
  cfg.compressed = compressed;
  auto created = los::deepsets::DeepSetsModel::Create(cfg);
  if (!created.ok()) return {};
  std::unique_ptr<los::deepsets::SetModel> model = std::move(*created);

  los::core::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = batch_size;
  tc.loss = los::core::LossKind::kMse;
  los::core::Trainer trainer(tc);
  auto stats = trainer.Train(model.get(), data);

  los::nn::SetKernelThreading(true);
  los::nn::SetKernelThreadPool(nullptr);

  std::vector<double> seconds;
  seconds.reserve(stats.size());
  for (const auto& es : stats) seconds.push_back(es.seconds);
  return seconds;
}

}  // namespace

int main() {
  los::bench::Banner("Setup: training s/epoch and competitor build times",
                     "Sec. 8.1");

  std::printf("\nTraining seconds/epoch (LSM, CLSM) per task:\n");
  std::printf("%-10s %20s %20s %20s\n", "dataset", "cardinality", "index",
              "bloom");
  for (auto& ds : BenchDatasets()) {
    auto subsets =
        EnumerateLabeledSubsets(ds.collection, los::bench::BenchSubsetOptions());
    double per_epoch[3][2];
    for (int compressed = 0; compressed < 2; ++compressed) {
      {
        auto opts = los::bench::CardinalityPreset(compressed != 0, false);
        opts.train.epochs = 2;
        auto est = los::core::LearnedCardinalityEstimator::BuildFromSubsets(
            subsets, ds.collection.universe_size(), opts);
        per_epoch[0][compressed] =
            est.ok() ? est->train_seconds() / 2.0 : -1.0;
      }
      {
        auto opts = los::bench::IndexPreset(compressed != 0, false);
        opts.train.epochs = 2;
        auto idx = los::core::LearnedSetIndex::Build(ds.collection, opts);
        per_epoch[1][compressed] =
            idx.ok() ? idx->train_seconds() / 2.0 : -1.0;
      }
      {
        los::core::BloomOptions opts;
        opts.model.compressed = compressed != 0;
        opts.train.epochs = 2;
        opts.train.batch_size = 512;
        opts.max_subset_size = los::bench::BenchSubsetOptions().max_subset_size;
        auto lbf = los::core::LearnedBloomFilter::Build(ds.collection, opts);
        per_epoch[2][compressed] =
            lbf.ok() ? lbf->train_seconds() / 2.0 : -1.0;
      }
    }
    char c0[32], c1[32], c2[32];
    std::snprintf(c0, sizeof(c0), "(%.2f, %.2f)", per_epoch[0][0],
                  per_epoch[0][1]);
    std::snprintf(c1, sizeof(c1), "(%.2f, %.2f)", per_epoch[1][0],
                  per_epoch[1][1]);
    std::snprintf(c2, sizeof(c2), "(%.2f, %.2f)", per_epoch[2][0],
                  per_epoch[2][1]);
    std::printf("%-10s %20s %20s %20s\n", ds.name.c_str(), c0, c1, c2);
  }

  std::printf("\nCompetitor build seconds (B+ tree br=100, HashMap, "
              "BF fp=0.1):\n");
  std::printf("%-10s %12s %12s %12s\n", "dataset", "B+ tree", "HashMap",
              "Bloom");
  for (auto& ds : BenchDatasets()) {
    auto subsets =
        EnumerateLabeledSubsets(ds.collection, los::bench::BenchSubsetOptions());
    los::Stopwatch sw;
    los::baselines::BPlusTree btree(100);
    for (size_t i = 0; i < subsets.size(); ++i) {
      btree.Insert(los::sets::HashSetSorted(subsets.subset(i)),
                   static_cast<uint64_t>(subsets.first_position(i)));
    }
    double t_btree = sw.ElapsedSeconds();
    sw.Restart();
    los::baselines::HashMapEstimator hashmap(subsets);
    double t_hashmap = sw.ElapsedSeconds();
    sw.Restart();
    los::baselines::BloomFilter bf(subsets.size(), 0.1);
    for (size_t i = 0; i < subsets.size(); ++i) bf.Insert(subsets.subset(i));
    double t_bf = sw.ElapsedSeconds();
    std::printf("%-10s %12.3f %12.3f %12.3f\n", ds.name.c_str(), t_btree,
                t_hashmap, t_bf);
  }
  std::printf("\nExpected shape (paper Sec. 8.1): compression reduces "
              "seconds/epoch on the larger datasets; competitors build in "
              "seconds while models take epochs x s/epoch.\n");

  // ---- Threaded-training sweep -------------------------------------------
  // Epochs/s across kernel worker counts and batch sizes. Training is
  // bit-deterministic, so every row of one model computes the same weights
  // — the sweep isolates wall-clock. JSON lines, each with the host's
  // provenance, also land in BENCH_build_times.json for downstream tooling.
  std::printf("\nThreaded training sweep (host cores: %u):\n",
              std::thread::hardware_concurrency());
  std::FILE* json = std::fopen("BENCH_build_times.json", "w");
  auto sweep_data = BenchDatasets(false);
  auto sweep_subsets = EnumerateLabeledSubsets(
      sweep_data.front().collection, los::bench::BenchSubsetOptions());
  const auto universe =
      static_cast<int64_t>(sweep_data.front().collection.universe_size());
  const int kSweepEpochs = los::bench::EnvEpochs(3);
  struct SweepRow {
    bool compressed;
    int64_t vocab, embed_dim, hidden;
    int batch;
    std::vector<int> threads;  // 0 = serial kernels
  };
  // The d=32 LSM over 65,536 ids (the acceptance configuration, whose
  // 2M-float embedding table puts the Adam step above the elementwise
  // crossover) at three batch sizes; its CLSM counterpart and the
  // paper-sized CLSM perfbench trains (embed 8, φ/ρ 64, batch 512) over the
  // same ids; then the paper-size LSM (embed 8, φ/ρ 32) and CLSM at
  // vocab = universe, as every MakeSetModel build has it, where no kernel
  // reaches the threading crossovers.
  const std::vector<int> kAllThreads = {0, 1, 2, 4, 8};
  const std::vector<SweepRow> rows = {
      {false, 1 << 16, 32, 32, 64, kAllThreads},
      {false, 1 << 16, 32, 32, 256, kAllThreads},
      {false, 1 << 16, 32, 32, 1024, kAllThreads},
      {true, 1 << 16, 32, 32, 256, {0, 8}},
      {true, 1 << 16, 8, 64, 512, {0, 8}},
      {false, universe, 8, 32, 512, {0, 4}},
      {true, universe, 8, 64, 512, {0, 4}},
  };
  double serial_b256 = -1.0, eight_b256 = -1.0;
  for (const SweepRow& row : rows) {
    for (int threads : row.threads) {
      los::bench::JsonRecord r("index_train_epoch");
      for (double s : EpochSeconds(sweep_subsets, row.compressed, row.vocab,
                                   row.embed_dim, row.hidden, threads,
                                   row.batch, kSweepEpochs)) {
        r.Add(s);
      }
      const double eps = r.Median() > 0.0 ? 1.0 / r.Median() : -1.0;
      if (!row.compressed && row.vocab == 1 << 16 && row.batch == 256) {
        if (threads == 0) serial_b256 = eps;
        if (threads == 8) eight_b256 = eps;
      }
      r.Set("model", row.compressed ? "CLSM" : "LSM")
          .Set("vocab", row.vocab)
          .Set("embed_dim", row.embed_dim)
          .Set("hidden", row.hidden)
          .Set("threads", threads)
          .Set("batch", row.batch)
          .Set("epochs_per_s", eps)
          .SetProvenance()
          .Print(json);
    }
  }
  if (serial_b256 > 0.0 && eight_b256 > 0.0) {
    los::bench::JsonRecord("index_train_speedup_8t")
        .Set("model", "LSM")
        .Set("embed_dim", 32)
        .Set("batch", 256)
        .Set("host_cores",
             static_cast<int64_t>(std::thread::hardware_concurrency()))
        .Set("speedup", eight_b256 / serial_b256)
        .SetProvenance()
        .Print(json);
  }
  if (json != nullptr) {
    std::fclose(json);
    std::printf("wrote BENCH_build_times.json\n");
  }
  return 0;
}
