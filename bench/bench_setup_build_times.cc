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
/// of `hidden` units) trained with `threads` kernel workers (0 = fully
/// serial kernels). The model, data order and results are bit-identical
/// across rows — only the wall clock changes.
std::vector<double> EpochSeconds(const los::sets::LabeledSubsets& subsets,
                                 bool compressed, int64_t embed_dim,
                                 int64_t hidden, int threads, int batch_size,
                                 int epochs) {
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
  cfg.vocab = 1 << 16;
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
  // Epochs/s for the d=32 index model (the acceptance configuration) across
  // kernel worker counts and batch sizes. Training is bit-deterministic, so
  // every row computes the same weights — the sweep isolates wall-clock.
  // JSON lines, each with the host's provenance, also land in
  // BENCH_build_times.json for downstream tooling.
  std::printf("\nThreaded training sweep (LSM index model, embed_dim=32; "
              "host cores: %u):\n", std::thread::hardware_concurrency());
  std::FILE* json = std::fopen("BENCH_build_times.json", "w");
  auto sweep_data = BenchDatasets(false);
  auto sweep_subsets = EnumerateLabeledSubsets(
      sweep_data.front().collection, los::bench::BenchSubsetOptions());
  const int kSweepEpochs = los::bench::EnvEpochs(3);
  const int kThreadCounts[] = {0, 1, 2, 4, 8};  // 0 = serial kernels
  const int kBatchSizes[] = {64, 256, 1024};
  double serial_b256 = -1.0, eight_b256 = -1.0;
  for (int threads : kThreadCounts) {
    for (int batch : kBatchSizes) {
      los::bench::JsonRecord r("index_train_epoch");
      for (double s : EpochSeconds(sweep_subsets, /*compressed=*/false, 32, 32,
                                   threads, batch, kSweepEpochs)) {
        r.Add(s);
      }
      double eps = r.Median() > 0.0 ? 1.0 / r.Median() : -1.0;
      if (batch == 256 && threads == 0) serial_b256 = eps;
      if (batch == 256 && threads == 8) eight_b256 = eps;
      r.Set("model", "LSM")
          .Set("embed_dim", 32)
          .Set("hidden", 32)
          .Set("threads", threads)
          .Set("batch", batch)
          .Set("epochs_per_s", eps)
          .SetProvenance()
          .Print(json);
    }
  }
  // CLSM counterpart at the acceptance batch size, and the paper-sized
  // CLSM perfbench trains (embed 8, φ/ρ 64, batch 512), whose set-up time
  // is dominated by the narrow GEMMs (n = 16 input gradient, 1-wide head).
  struct ClsmRow {
    int64_t embed_dim, hidden;
    int batch;
  };
  for (const ClsmRow& row : {ClsmRow{32, 32, 256}, ClsmRow{8, 64, 512}}) {
    for (int threads : {0, 8}) {
      los::bench::JsonRecord r("index_train_epoch");
      for (double s : EpochSeconds(sweep_subsets, /*compressed=*/true,
                                   row.embed_dim, row.hidden, threads,
                                   row.batch, kSweepEpochs)) {
        r.Add(s);
      }
      r.Set("model", "CLSM")
          .Set("embed_dim", row.embed_dim)
          .Set("hidden", row.hidden)
          .Set("threads", threads)
          .Set("batch", row.batch)
          .Set("epochs_per_s", r.Median() > 0.0 ? 1.0 / r.Median() : -1.0)
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
