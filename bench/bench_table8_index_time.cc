// Table 8: index-task per-query execution time (ms) — LSM-Hybrid,
// CLSM-Hybrid vs. B+ tree, over 1000 queries.

#include <cstdio>

#include "baselines/bplus_tree.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "sets/set_hash.h"
#include "sets/workload.h"

using los::bench::BenchDatasets;
using los::bench::IndexPreset;
using los::core::LearnedSetIndex;

int main(int argc, char** argv) {
  los::bench::Banner("Table 8: index-task query time (ms)", "Table 8");
  los::bench::BenchTraceSession trace(argc, argv);
  const size_t kQueries = 1000;

  // "window" is the mean scan window and "visited" the mean number of sets
  // the LSM-Hybrid's scan examined up to its answer (0 on an aux hit);
  // "from 0" is what a scan from position 0 would examine (truth + 1).
  std::printf("\n%-10s %12s %12s %12s %10s %10s %10s\n", "dataset",
              "LSM-Hybrid", "CLSM-Hybrid", "B+ Tree", "window", "visited",
              "from 0");
  for (auto& ds : BenchDatasets()) {
    auto subsets =
        EnumerateLabeledSubsets(ds.collection, los::bench::BenchSubsetOptions());
    los::Rng rng(23);
    auto queries = SampleQueries(subsets,
                                 los::sets::QueryLabel::kFirstPosition,
                                 kQueries, &rng);

    double ms[2] = {0, 0};
    double scan_width = 0, visited = 0, visited_from0 = 0;
    for (const auto& q : queries) visited_from0 += q.truth + 1;
    visited_from0 /= kQueries;
    // Reset so the attached snapshot covers exactly this dataset's queries.
    los::MetricsRegistry::Global()->Reset();
    for (int compressed = 0; compressed < 2; ++compressed) {
      auto opts = IndexPreset(compressed != 0, /*hybrid=*/true, 0.9);
      opts.train.epochs = std::min(opts.train.epochs, 6);
      auto index = LearnedSetIndex::Build(ds.collection, opts);
      if (!index.ok()) continue;
      los::Stopwatch sw;
      int64_t total_scan = 0, total_visited = 0;
      for (const auto& q : queries) {
        LearnedSetIndex::LookupStats stats;
        index->Lookup(q.view(), &stats);
        total_scan += stats.scan_width;
        total_visited += stats.visited;
      }
      ms[compressed] = sw.ElapsedMillis() / static_cast<double>(kQueries);
      if (compressed == 0) {
        scan_width = static_cast<double>(total_scan) / kQueries;
        visited = static_cast<double>(total_visited) / kQueries;
      }
    }

    los::baselines::BPlusTree btree(100);
    for (size_t i = 0; i < subsets.size(); ++i) {
      btree.Insert(los::sets::HashSetSorted(subsets.subset(i)),
                   static_cast<uint64_t>(subsets.first_position(i)));
    }
    los::Stopwatch sw;
    uint64_t sink = 0;
    for (const auto& q : queries) {
      auto v = btree.FindFirst(los::sets::HashSetSorted(q.view()));
      sink += v.value_or(0);
    }
    double btree_ms = sw.ElapsedMillis() / static_cast<double>(kQueries);
    (void)sink;
    std::printf("%-10s %12.4f %12.4f %12.5f %10.1f %10.1f %10.1f\n",
                ds.name.c_str(), ms[0], ms[1], btree_ms, scan_width, visited,
                visited_from0);
    trace.Checkpoint(los::MetricsRegistry::Global());
    los::bench::JsonRecord("table8_index_time")
        .Set("dataset", ds.name)
        .Set("lsm_hybrid_ms", ms[0])
        .Set("clsm_hybrid_ms", ms[1])
        .Set("btree_ms", btree_ms)
        // Mean sets per query; the _count suffix keeps them measurements
        // (not record identity) for tools/bench_compare.py.
        .Set("lsm_mean_window_count", scan_width)
        .Set("lsm_mean_visited_count", visited)
        .Set("mean_visited_from0_count", visited_from0)
        .SetProvenance()
        .SetMetrics(los::MetricsRegistry::Global()->Snapshot())
        .Print();
  }
  trace.Finish();
  std::printf("\nExpected shape (paper Table 8): B+ tree ~100x faster; the "
              "hybrid's latency is dominated by the bounded local scan "
              "around the estimate.\n");
  return 0;
}
