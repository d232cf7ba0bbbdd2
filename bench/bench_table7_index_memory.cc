// Table 7: index-task memory (MB) — hybrid model / auxiliary structure /
// error array breakdown vs. the B+ tree competitor. Per-dataset eviction
// percentiles follow §8.3.2 (90 for RW, 60 for Tweets, 70 for SD).

#include <cstdio>

#include "baselines/bplus_tree.h"
#include "bench/bench_util.h"
#include "sets/set_hash.h"

using los::bench::BenchDatasets;
using los::bench::IndexPreset;
using los::core::LearnedSetIndex;

namespace {

double KeepFractionFor(const std::string& name) {
  if (name == "tweets") return 0.6;
  if (name == "sd") return 0.7;
  return 0.9;  // RW variants
}

}  // namespace

int main() {
  los::bench::Banner("Table 7: index-task memory (MB)", "Table 7");

  std::printf("\n%-10s %-28s %-28s %10s %14s\n", "dataset",
              "LSM-Hybrid (model/aux/err)", "CLSM-Hybrid (model/aux/err)",
              "B+ Tree", "aux B/entry");
  for (auto& ds : BenchDatasets()) {
    double breakdown[2][3] = {{0}};
    // Aux bytes per stored outlier (LSM / CLSM).
    double aux_per_entry[2] = {0, 0};
    for (int compressed = 0; compressed < 2; ++compressed) {
      auto opts = IndexPreset(compressed != 0, /*hybrid=*/true,
                              KeepFractionFor(ds.name));
      opts.train.epochs = std::min(opts.train.epochs, 6);
      auto index = LearnedSetIndex::Build(ds.collection, opts);
      if (!index.ok()) continue;
      breakdown[compressed][0] = index->ModelBytes() / (1024.0 * 1024.0);
      breakdown[compressed][1] = index->AuxBytes() / (1024.0 * 1024.0);
      breakdown[compressed][2] = index->ErrBytes() / (1024.0 * 1024.0);
      if (index->num_outliers() > 0) {
        aux_per_entry[compressed] = static_cast<double>(index->AuxBytes()) /
                                    static_cast<double>(index->num_outliers());
      }
    }
    // Competitor: B+ tree over all subset hashes -> first positions.
    auto subsets =
        EnumerateLabeledSubsets(ds.collection, los::bench::BenchSubsetOptions());
    los::baselines::BPlusTree btree(100);
    for (size_t i = 0; i < subsets.size(); ++i) {
      btree.Insert(los::sets::HashSetSorted(subsets.subset(i)),
                   static_cast<uint64_t>(subsets.first_position(i)));
    }
    char lsm[40], clsm[40];
    std::snprintf(lsm, sizeof(lsm), "%.3f / %.3f / %.3f", breakdown[0][0],
                  breakdown[0][1], breakdown[0][2]);
    std::snprintf(clsm, sizeof(clsm), "%.3f / %.3f / %.3f", breakdown[1][0],
                  breakdown[1][1], breakdown[1][2]);
    char per_entry[32];
    std::snprintf(per_entry, sizeof(per_entry), "%.1f / %.1f",
                  aux_per_entry[0], aux_per_entry[1]);
    std::printf("%-10s %-28s %-28s %10.2f %14s\n", ds.name.c_str(), lsm,
                clsm, btree.MemoryBytes() / (1024.0 * 1024.0), per_entry);
  }
  std::printf("\nExpected shape (paper Table 7): most hybrid memory is the "
              "auxiliary structure; CLSM model <1%% of the B+ tree; error "
              "array is tiny.\naux B/entry: auxiliary bytes per stored "
              "outlier (LSM-Hybrid / CLSM-Hybrid).\n");
  return 0;
}
