// Serving-layer throughput: concurrent clients driving the three learned
// structures through serve::BatchServer versus the no-batching baseline
// (batcher bypassed, one lock-free forward per query on the client's own
// thread). Closed loop measures capacity: each client fires its
// next query the moment the previous one completes. Open loop offers a
// fixed arrival rate and reports the latency from the scheduled send time,
// so schedule slip shows up as tail latency.
//
// JsonRecord rows carry queries_per_s plus median/p95/p99 per-request
// latency; --metrics additionally dumps the serving registry (batch-size
// histogram, flush reason counters, queue depth) per structure.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/learned_bloom.h"
#include "serve/serving.h"
#include "sets/workload.h"

namespace {

using los::MetricsRegistry;
using los::Rng;
using los::Stopwatch;
using los::bench::JsonRecord;
using los::sets::Query;

/// Per-request latencies plus the wall time of the whole run.
struct LoadResult {
  double wall_seconds = 0.0;
  std::vector<double> latencies;

  double Qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(latencies.size()) / wall_seconds
               : 0.0;
  }
};

/// Closed loop: `clients` threads each replay the shared query list
/// back-to-back; `issue` runs one query to completion and is the only part
/// that differs between the direct and batched paths.
LoadResult RunClosedLoop(int clients, const std::vector<Query>& queries,
                         const std::function<void(const Query&)>& issue) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      lat[t].reserve(queries.size());
      for (const auto& q : queries) {
        Stopwatch sw;
        issue(q);
        lat[t].push_back(sw.ElapsedSeconds());
      }
    });
  }
  for (auto& th : threads) th.join();
  LoadResult out;
  out.wall_seconds = wall.ElapsedSeconds();
  for (auto& v : lat) {
    out.latencies.insert(out.latencies.end(), v.begin(), v.end());
  }
  return out;
}

/// Open loop: each client schedules query i at T0 + i / per_client_rate and
/// measures completion against that schedule, so queueing delay (and any
/// schedule slip when the service cannot keep up) lands in the tail.
LoadResult RunOpenLoop(int clients, double offered_qps,
                       const std::vector<Query>& queries,
                       const std::function<void(const Query&)>& issue) {
  const double per_client = offered_qps / clients;
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      lat[t].reserve(queries.size());
      const auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < queries.size(); ++i) {
        const auto scheduled =
            t0 + std::chrono::nanoseconds(static_cast<int64_t>(
                     1e9 * static_cast<double>(i) / per_client));
        std::this_thread::sleep_until(scheduled);
        issue(queries[i]);
        lat[t].push_back(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          scheduled)
                .count());
      }
    });
  }
  for (auto& th : threads) th.join();
  LoadResult out;
  out.wall_seconds = wall.ElapsedSeconds();
  for (auto& v : lat) {
    out.latencies.insert(out.latencies.end(), v.begin(), v.end());
  }
  return out;
}

void Report(const std::string& structure, const std::string& mode,
            int clients, int shards, double offered_qps,
            const LoadResult& r, const los::MetricsSnapshot* metrics) {
  JsonRecord rec("serving_qps");
  rec.Set("structure", structure)
      .Set("mode", mode)
      .Set("clients", clients)
      .Set("shards", shards);
  if (offered_qps > 0.0) {
    rec.Set("offered_qps", static_cast<int64_t>(offered_qps));
  }
  for (double s : r.latencies) rec.Add(s);
  rec.Set("queries_per_s", r.Qps());
  rec.SetProvenance();
  if (metrics != nullptr) rec.SetMetrics(*metrics);
  std::printf("%-12s %-8s c=%d s=%d  %10.0f qps  p50=%.0fus p95=%.0fus "
              "p99=%.0fus\n",
              structure.c_str(), mode.c_str(), clients, shards, r.Qps(),
              rec.Median() * 1e6, rec.P95() * 1e6, rec.P99() * 1e6);
  rec.Print();
}

}  // namespace

int main(int argc, char** argv) {
  los::bench::Banner("Serving QPS: micro-batched vs no-batching",
                     "serving layer (not a paper table)");
  los::bench::BenchTraceSession trace(argc, argv);
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) dump_metrics = true;
  }

  const double scale = los::bench::EnvScale();
  los::sets::RwConfig rw;
  rw.num_sets = static_cast<size_t>(2000 * scale) + 50;
  rw.num_unique = static_cast<size_t>(400 * scale) + 30;
  rw.seed = 17;
  auto collection = GenerateRw(rw);
  auto subset_opts = los::bench::BenchSubsetOptions();
  subset_opts.max_subset_size = 2;  // serving bench: query cost, not recall
  auto subsets = EnumerateLabeledSubsets(collection, subset_opts);
  Rng rng(23);
  auto queries = los::sets::SampleQueries(
      subsets, los::sets::QueryLabel::kCardinality, 400, &rng);

  const std::vector<int> kClients = {1, 4, 8};
  const double kOpenQps = 4000.0;
  los::serve::ServeOptions serve_opts;  // defaults: batch 64 / 200us
  serve_opts.min_delay_us = 10;  // short idle linger: closed-loop friendly

  // ---------------- cardinality ----------------
  {
    auto opts = los::bench::CardinalityPreset(false, true);
    opts.train.epochs = std::min(opts.train.epochs, 3);
    opts.max_subset_size = subset_opts.max_subset_size;
    // Serving-sized model (512-wide layers, L2-resident weights): per-forward
    // cost is dominated by streaming the weight matrices, which one
    // batched GEMM pays once per flush while the direct path pays per
    // query — this is the gap the micro-batcher exists to exploit. 512 is
    // the measured sweet spot: weights still fit L2, and the batch-8
    // register-tile kernel amortizes the stream ~2.9x over single-row.
    opts.model.embed_dim = 32;
    opts.model.phi_hidden = {512, 512};
    opts.model.rho_hidden = {512, 512};
    auto est = los::core::LearnedCardinalityEstimator::BuildFromSubsets(
        subsets, collection.universe_size(), opts);
    if (!est.ok()) {
      std::fprintf(stderr, "cardinality build failed: %s\n",
                   est.status().ToString().c_str());
      return 1;
    }
    for (int clients : kClients) {
      auto direct = RunClosedLoop(clients, queries, [&](const Query& q) {
        (void)est->Estimate(q.view());
      });
      Report("cardinality", "direct", clients, 1, 0.0, direct, nullptr);
    }
    for (int clients : kClients) {
      MetricsRegistry registry;
      est->SetMetricsRegistry(&registry);
      auto service = los::serve::CardinalityService::Create(
          &est.value(), serve_opts, &registry);
      if (!service.ok()) return 1;
      auto batched = RunClosedLoop(clients, queries, [&](const Query& q) {
        (void)(*service)->Submit(q).get();
      });
      (*service)->Shutdown();
      auto snap = registry.Snapshot();
      Report("cardinality", "batched", clients, 1, 0.0, batched, &snap);
      if (dump_metrics) std::printf("%s\n", snap.ToJsonLines().c_str());
      est->SetMetricsRegistry(MetricsRegistry::Global());
    }
    {
      // Shared-structure shards: two workers flush in parallel over the one
      // estimator at full load.
      MetricsRegistry registry;
      est->SetMetricsRegistry(&registry);
      auto sharded_opts = serve_opts;
      sharded_opts.num_shards = 2;
      auto service = los::serve::CardinalityService::Create(
          &est.value(), sharded_opts, &registry);
      if (!service.ok()) return 1;
      auto batched = RunClosedLoop(8, queries, [&](const Query& q) {
        (void)(*service)->Submit(q).get();
      });
      (*service)->Shutdown();
      auto snap = registry.Snapshot();
      Report("cardinality", "batched", 8, 2, 0.0, batched, &snap);
      est->SetMetricsRegistry(MetricsRegistry::Global());
    }
    {
      MetricsRegistry registry;
      est->SetMetricsRegistry(&registry);
      auto service = los::serve::CardinalityService::Create(
          &est.value(), serve_opts, &registry);
      if (!service.ok()) return 1;
      auto open = RunOpenLoop(8, kOpenQps, queries, [&](const Query& q) {
        (void)(*service)->Submit(q).get();
      });
      (*service)->Shutdown();
      auto snap = registry.Snapshot();
      Report("cardinality", "open", 8, 1, kOpenQps, open, &snap);
      est->SetMetricsRegistry(MetricsRegistry::Global());
    }
  }

  // ---------------- index ----------------
  {
    los::core::IndexOptions opts = los::bench::IndexPreset(false, true);
    opts.train.epochs = std::min(opts.train.epochs, 3);
    opts.max_subset_size = subset_opts.max_subset_size;
    auto index = los::core::LearnedSetIndex::Build(collection, opts);
    if (!index.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    for (int clients : {1, 8}) {
      auto direct = RunClosedLoop(clients, queries, [&](const Query& q) {
        (void)index->Lookup(q.view());
      });
      Report("index", "direct", clients, 1, 0.0, direct, nullptr);
    }
    for (int clients : {1, 8}) {
      MetricsRegistry registry;
      index->SetMetricsRegistry(&registry);
      auto service = los::serve::IndexService::Create(&index.value(),
                                                      serve_opts, &registry);
      if (!service.ok()) return 1;
      auto batched = RunClosedLoop(clients, queries, [&](const Query& q) {
        (void)(*service)->Submit(q).get();
      });
      (*service)->Shutdown();
      auto snap = registry.Snapshot();
      Report("index", "batched", clients, 1, 0.0, batched, &snap);
      if (dump_metrics) std::printf("%s\n", snap.ToJsonLines().c_str());
      index->SetMetricsRegistry(MetricsRegistry::Global());
    }
  }

  // ---------------- bloom ----------------
  {
    los::core::BloomOptions opts;
    opts.train.epochs = std::min(los::bench::EnvEpochs(10), 3);
    opts.max_subset_size = subset_opts.max_subset_size;
    auto bloom = los::core::LearnedBloomFilter::Build(collection, opts);
    if (!bloom.ok()) {
      std::fprintf(stderr, "bloom build failed: %s\n",
                   bloom.status().ToString().c_str());
      return 1;
    }
    for (int clients : {1, 8}) {
      auto direct = RunClosedLoop(clients, queries, [&](const Query& q) {
        (void)bloom->MayContain(q.view());
      });
      Report("bloom", "direct", clients, 1, 0.0, direct, nullptr);
    }
    for (int clients : {1, 8}) {
      MetricsRegistry registry;
      bloom->SetMetricsRegistry(&registry);
      auto service =
          los::serve::BloomService::Create(&bloom.value(), serve_opts,
                                           &registry);
      if (!service.ok()) return 1;
      auto batched = RunClosedLoop(clients, queries, [&](const Query& q) {
        (void)(*service)->Submit(q).get();
      });
      (*service)->Shutdown();
      auto snap = registry.Snapshot();
      Report("bloom", "batched", clients, 1, 0.0, batched, &snap);
      if (dump_metrics) std::printf("%s\n", snap.ToJsonLines().c_str());
      bloom->SetMetricsRegistry(MetricsRegistry::Global());
    }
  }

  trace.Finish();
  std::printf("\nExpected shape: direct forwards are lock-free and run on "
              "the clients' own threads, so direct QPS grows with clients up "
              "to the core count. The batcher amortizes one forward across "
              "up to max_batch queries but adds a queue hop and a flush wait "
              "per query, so it pays only where one batched forward costs "
              "less than the clients' parallel single forwards; s=2 runs two "
              "flush workers over the one shared structure. Open loop p99 "
              "stays near the flush deadline while under capacity.\n");
  return 0;
}
