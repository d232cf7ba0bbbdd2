// Serving-layer throughput: concurrent closed-loop clients driving the three
// learned structures "direct" (the structure's own single-query call on the
// client's thread) and "served" (the same call through serve::Service<>,
// which adds its counters, its sampled latency histogram and the monitor
// hook). Each client fires its next query the moment the previous one
// completes and replays the shared query list until the row has run
// kMinSeconds, so the fast structures' rows are not a few hundred
// microseconds of thread start-up.
//
// JsonRecord rows carry queries_per_s plus median/p95/p99 per-request
// latency; served rows attach the serving registry (`serve.<name>.*` and the
// structure's own instruments).

#include <algorithm>
#include <cstdio>
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

constexpr double kMinSeconds = 0.2;
const std::vector<int> kClients = {1, 2, 4, 8};

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
/// back-to-back, whole passes, until kMinSeconds have passed; `issue` runs
/// one query to completion and is the only part that differs between the
/// direct and served paths.
LoadResult RunClosedLoop(int clients, const std::vector<Query>& queries,
                         const std::function<void(const Query&)>& issue) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      lat[t].reserve(queries.size());
      do {
        for (const auto& q : queries) {
          Stopwatch sw;
          issue(q);
          lat[t].push_back(sw.ElapsedSeconds());
        }
      } while (wall.ElapsedSeconds() < kMinSeconds);
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
            int clients, const LoadResult& r,
            const los::MetricsSnapshot* metrics) {
  JsonRecord rec("serving_qps");
  rec.Set("structure", structure).Set("mode", mode).Set("clients", clients);
  for (double s : r.latencies) rec.Add(s);
  rec.Set("queries_per_s", r.Qps());
  rec.SetProvenance();
  if (metrics != nullptr) rec.SetMetrics(*metrics);
  std::printf("%-12s %-7s c=%d  %10.0f qps  p50=%.2fus p95=%.2fus "
              "p99=%.2fus\n",
              structure.c_str(), mode.c_str(), clients, r.Qps(),
              rec.Median() * 1e6, rec.P95() * 1e6, rec.P99() * 1e6);
  rec.Print();
}

/// Every client count, direct then served, over one built structure.
/// `direct` is the structure's own call; the service is created per row
/// over `structure` with a fresh registry that the structure also reports
/// to for that row.
template <typename Service, typename S>
bool Sweep(const std::string& name, S* structure,
           const std::vector<Query>& queries,
           const std::function<void(const Query&)>& direct) {
  for (int clients : kClients) {
    Report(name, "direct", clients, RunClosedLoop(clients, queries, direct),
           nullptr);
  }
  for (int clients : kClients) {
    MetricsRegistry registry;
    structure->SetMetricsRegistry(&registry);
    auto service = Service::Create(structure, {}, &registry);
    if (!service.ok()) return false;
    auto served = RunClosedLoop(clients, queries, [&](const Query& q) {
      (void)(*service)->Submit(q).get();
    });
    (*service)->Shutdown();
    auto snap = registry.Snapshot();
    Report(name, "served", clients, served, &snap);
    structure->SetMetricsRegistry(MetricsRegistry::Global());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  los::bench::Banner("Serving QPS: served vs direct",
                     "serving layer (not a paper table)");
  los::bench::BenchTraceSession trace(argc, argv);

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

  // ---------------- cardinality ----------------
  {
    auto opts = los::bench::CardinalityPreset(false, true);
    opts.train.epochs = std::min(opts.train.epochs, 3);
    opts.max_subset_size = subset_opts.max_subset_size;
    // A serving-sized model (512-wide layers, L2-resident weights), far
    // above the paper's 64-256 neurons: the size at which one batched
    // forward once paid for a queue hop (DESIGN.md "Serving layer").
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
    if (!Sweep<los::serve::CardinalityService>(
            "cardinality", &est.value(), queries,
            [&](const Query& q) { (void)est->Estimate(q.view()); })) {
      return 1;
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
    if (!Sweep<los::serve::IndexService>(
            "index", &index.value(), queries,
            [&](const Query& q) { (void)index->Lookup(q.view()); })) {
      return 1;
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
    if (!Sweep<los::serve::BloomService>(
            "bloom", &bloom.value(), queries,
            [&](const Query& q) { (void)bloom->MayContain(q.view()); })) {
      return 1;
    }
  }

  trace.Finish();
  std::printf("\nExpected shape: served answers on the client's thread "
              "through the same single-query call as direct, so served QPS "
              "tracks direct at every client count, less the service's two "
              "counter increments and sampled latency histogram per query. "
              "Both grow with clients up to the core count.\n");
  return 0;
}
