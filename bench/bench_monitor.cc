// Monitoring overhead on the cardinality serving path: closed-loop QPS with
// the quality monitor detached, shadow-sampling 1-in-128 (the production
// default), and a deliberately hot 1-in-8 rate. Each shadow sample
// re-executes the query against an exact InvertedIndex oracle on the
// caller's thread, so the interesting number is how much capacity that slow
// path steals: at 1-in-128 the overhead budget is 2%.
//
// JsonRecord rows carry queries_per_s per mode plus the monitor's own
// quality readout (monitor_qerror_p95, monitor_drift_score,
// monitor_samples) so bench_compare can gate model quality alongside
// throughput.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "monitor/monitor.h"
#include "serve/serving.h"
#include "sets/workload.h"

namespace {

using los::MetricsRegistry;
using los::Rng;
using los::Stopwatch;
using los::bench::JsonRecord;
using los::sets::Query;

/// Closed-loop capacity: `clients` threads replay the query list
/// back-to-back through the service; returns sustained QPS.
double MeasureQps(int clients, int repeats, const std::vector<Query>& queries,
                  los::serve::CardinalityService* service) {
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < repeats; ++r) {
        for (const auto& q : queries) (void)service->Submit(q).get();
      }
    });
  }
  for (auto& th : threads) th.join();
  const double seconds = wall.ElapsedSeconds();
  const double total =
      static_cast<double>(clients) * repeats * queries.size();
  return seconds > 0.0 ? total / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  los::bench::Banner("Monitoring overhead: shadow-sampled quality tracking",
                     "model-quality monitor (not a paper table)");
  los::bench::BenchTraceSession trace(argc, argv);

  const double scale = los::bench::EnvScale();
  los::sets::RwConfig rw;
  rw.num_sets = static_cast<size_t>(2000 * scale) + 50;
  rw.num_unique = static_cast<size_t>(400 * scale) + 30;
  rw.seed = 17;
  auto collection = GenerateRw(rw);
  auto subset_opts = los::bench::BenchSubsetOptions();
  subset_opts.max_subset_size = 2;
  auto subsets = EnumerateLabeledSubsets(collection, subset_opts);
  Rng rng(23);
  auto queries = los::sets::SampleQueries(
      subsets, los::sets::QueryLabel::kCardinality, 400, &rng);

  // Same serving-sized model as bench_serving_qps: the overhead ratio only
  // means something against a realistic per-forward cost.
  auto opts = los::bench::CardinalityPreset(false, true);
  opts.train.epochs = std::min(opts.train.epochs, 3);
  opts.max_subset_size = subset_opts.max_subset_size;
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

  const int kClients = 8;
  const int kRepeats = 3;
  const int kTrials = 3;

  struct Mode {
    const char* name;
    size_t sample_every;  // 0 = monitor detached
  };
  const Mode kModes[] = {{"off", 0}, {"1in128", 128}, {"1in8", 8}};

  struct ModeResult {
    double best_qps = 0.0;
    los::monitor::RollingWindow::Stats window{};
    double drift = 0.0;
    uint64_t samples = 0;
  };
  ModeResult results[3];

  // One measurement of a single mode; monitor lifetime scoped to the run.
  auto measure = [&](const Mode& mode, ModeResult* out) -> bool {
    MetricsRegistry registry;
    est->SetMetricsRegistry(&registry);
    auto service = los::serve::CardinalityService::Create(
        &est.value(), {}, &registry);
    if (!service.ok()) return false;

    std::unique_ptr<los::monitor::CardinalityMonitor> monitor;
    if (mode.sample_every > 0) {
      los::monitor::MonitorOptions mopts;
      mopts.sample_every = mode.sample_every;
      monitor = std::make_unique<los::monitor::CardinalityMonitor>(
          mopts, &registry);
      monitor->Refresh(collection, subset_opts.max_subset_size);
      (*service)->AttachMonitor(monitor.get());
    }

    const double qps =
        MeasureQps(kClients, kRepeats, queries, service->get());
    (*service)->Shutdown();
    if (out != nullptr) {
      out->best_qps = std::max(out->best_qps, qps);
      if (monitor != nullptr) {
        out->window = monitor->WindowStats();
        out->drift = monitor->drift_score();
        out->samples = monitor->samples();
      }
    }
    est->SetMetricsRegistry(MetricsRegistry::Global());
    return true;
  };

  // Warmup pass (discarded): page in the weights and settle CPU frequency
  // so the first measured mode isn't paying one-time costs. Trials then
  // interleave the modes, so slow thermal / scheduler shifts spread evenly
  // instead of biasing whichever mode runs first.
  if (!measure(kModes[0], nullptr)) return 1;
  for (int trial = 0; trial < kTrials; ++trial) {
    for (size_t m = 0; m < 3; ++m) {
      if (!measure(kModes[m], &results[m])) return 1;
    }
  }

  const double qps_off = results[0].best_qps;
  for (size_t m = 0; m < 3; ++m) {
    const Mode& mode = kModes[m];
    const double best_qps = results[m].best_qps;
    const los::monitor::RollingWindow::Stats& window = results[m].window;
    const double drift = results[m].drift;
    const uint64_t samples = results[m].samples;
    const double overhead_pct =
        qps_off > 0.0 ? 100.0 * (qps_off - best_qps) / qps_off : 0.0;

    JsonRecord rec("monitor_overhead");
    rec.Set("structure", "cardinality")
        .Set("mode", std::string(mode.name))
        .Set("clients", kClients)
        .Set("queries_per_s", best_qps)
        .Set("overhead_pct", overhead_pct);
    // Informational (unprefixed): thread interleaving decides which queries
    // hit the sampling gate, so these bounce run to run. The deterministic
    // monitor_ readouts bench_compare gates on ride the flushpath record.
    if (mode.sample_every > 0) {
      rec.Set("shadow_samples", samples)
          .Set("shadow_qerror_p50", window.p50)
          .Set("shadow_qerror_p95", window.p95)
          .Set("shadow_drift_score", drift);
    }
    rec.SetProvenance();
    std::printf("%-8s %10.0f qps  overhead=%+.2f%%  shadow_samples=%llu "
                "qerror_p95=%.3g drift=%.3g\n",
                mode.name, best_qps, overhead_pct,
                static_cast<unsigned long long>(samples), window.p95, drift);
    rec.Print();
  }

  // Deterministic overhead: one thread driving the exact worker-side flush
  // path (EstimateBatch then the monitor forward) back-to-back. Closed-loop
  // QPS above bounces several percent run to run on scheduler noise; this
  // isolates the monitor's marginal per-query cost, which is what the 2%
  // budget is about.
  {
    const size_t kBatch = 8;
    std::vector<std::vector<Query>> batches;
    for (size_t i = 0; i + kBatch <= queries.size(); i += kBatch) {
      batches.emplace_back(queries.begin() + i, queries.begin() + i + kBatch);
    }
    const int kPasses = 60;
    auto one_pass = [&](los::monitor::CardinalityMonitor* monitor) {
      Stopwatch sw;
      for (const auto& batch : batches) {
        std::vector<double> r = est->EstimateBatch(batch);
        if (monitor != nullptr) monitor->ObserveBatch(batch, r);
      }
      return sw.ElapsedSeconds();
    };
    los::monitor::MonitorOptions mopts;
    mopts.sample_every = 128;
    los::monitor::CardinalityMonitor monitor(mopts);
    monitor.Refresh(collection, subset_opts.max_subset_size);
    (void)one_pass(nullptr);  // warmup
    (void)one_pass(&monitor);
    // Alternate bare and monitored passes so slow machine drift (frequency
    // scaling, neighbours) hits both sides equally instead of whichever
    // variant happened to run in the quiet window; the median of the
    // adjacent-pair ratios then discards the passes a load spike landed on.
    double base_s = 0.0;
    double monitored_s = 0.0;
    std::vector<double> ratios;
    ratios.reserve(kPasses);
    for (int p = 0; p < kPasses; ++p) {
      const double b = one_pass(nullptr);
      const double m = one_pass(&monitor);
      base_s += b;
      monitored_s += m;
      if (b > 0.0) ratios.push_back(m / b);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median_ratio =
        ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
    const double overhead_pct = 100.0 * (median_ratio - 1.0);
    const double per_query = static_cast<double>(kPasses) *
                             static_cast<double>(batches.size()) * kBatch;
    // Single thread + fixed batch order = deterministic sampling: these
    // monitor_ fields are stable across runs, so bench_compare gates them.
    const los::monitor::RollingWindow::Stats window = monitor.WindowStats();
    JsonRecord rec("monitor_overhead");
    rec.Set("structure", "cardinality")
        .Set("mode", "flushpath_1in128")
        .Set("clients", 1)
        .Set("queries_per_s", per_query / monitored_s)
        .Set("overhead_pct", overhead_pct)
        .Set("monitor_samples", monitor.samples())
        .Set("monitor_qerror_p50", window.p50)
        .Set("monitor_qerror_p95", window.p95)
        .Set("monitor_drift_score", monitor.drift_score());
    rec.SetProvenance();
    std::printf("%-8s base=%.1fus/q monitored=%.1fus/q  overhead=%+.2f%%\n",
                "flush", 1e6 * base_s / per_query,
                1e6 * monitored_s / per_query, overhead_pct);
    rec.Print();
  }

  trace.Finish();
  std::printf("\nExpected shape: 1-in-128 shadow sampling costs <2%% "
              "(one oracle re-execution per 128 queries rides the caller's "
              "thread); 1-in-8 makes the slow path visible in the QPS rows. "
              "The monitor's q-error window tracks the model's true serving "
              "accuracy. The flushpath row is the deterministic overhead "
              "measurement; the closed-loop QPS rows carry scheduler noise "
              "of several percent either way.\n");
  return 0;
}
