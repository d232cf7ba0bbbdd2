// Table 3: memory consumption (MB) for the cardinality-estimation task —
// LSM, LSM-Hybrid, CLSM, CLSM-Hybrid vs. the exact HashMap competitor.

#include <cstdio>

#include "baselines/hash_map_estimator.h"
#include "bench/bench_util.h"

using los::bench::BenchDatasets;
using los::bench::CardinalityPreset;
using los::core::LearnedCardinalityEstimator;

int main() {
  los::bench::Banner("Table 3: cardinality-task memory (MB)", "Table 3");

  std::printf("\n%-10s %10s %12s %10s %12s %10s %14s\n", "dataset", "LSM",
              "LSM-Hybrid", "CLSM", "CLSM-Hybrid", "HashMap",
              "aux B/entry");
  for (auto& ds : BenchDatasets()) {
    auto subsets =
        EnumerateLabeledSubsets(ds.collection, los::bench::BenchSubsetOptions());
    double mb[4] = {0, 0, 0, 0};
    // Aux bytes per stored outlier of the two hybrids (LSM / CLSM).
    double aux_per_entry[2] = {0, 0};
    int i = 0;
    for (bool compressed : {false, true}) {
      for (bool hybrid : {false, true}) {
        auto opts = CardinalityPreset(compressed, hybrid);
        // Memory does not depend on convergence; train briefly.
        opts.train.epochs = std::min(opts.train.epochs, 4);
        auto est = LearnedCardinalityEstimator::BuildFromSubsets(
            subsets, ds.collection.universe_size(), opts);
        mb[i++] = est.ok() ? est->TotalBytes() / (1024.0 * 1024.0) : -1.0;
        if (hybrid && est.ok() && est->num_outliers() > 0) {
          aux_per_entry[compressed ? 1 : 0] =
              static_cast<double>(est->AuxBytes()) /
              static_cast<double>(est->num_outliers());
        }
      }
    }
    los::baselines::HashMapEstimator hashmap(subsets);
    char per_entry[32];
    std::snprintf(per_entry, sizeof(per_entry), "%.1f / %.1f",
                  aux_per_entry[0], aux_per_entry[1]);
    std::printf("%-10s %10.3f %12.3f %10.3f %12.3f %10.3f %14s\n",
                ds.name.c_str(), mb[0], mb[1], mb[2], mb[3],
                hashmap.MemoryBytes() / (1024.0 * 1024.0), per_entry);
  }
  std::printf("\nExpected shape (paper Table 3): CLSM << LSM << HashMap; "
              "hybrids add a small auxiliary-structure overhead.\n"
              "aux B/entry: the hybrids' auxiliary bytes per stored outlier "
              "(LSM-Hybrid / CLSM-Hybrid).\n");
  return 0;
}
