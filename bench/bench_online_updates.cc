// Online updates under query load (ROADMAP item 2): streaming generator
// deltas mutate each structure through its Updatable* wrapper while
// closed-loop clients keep querying through the serving layer. Three phases
// per structure:
//
//   steady  queries only — the baseline tail
//   during  an updater thread streams updates, background retrains swap
//           generations mid-traffic; the tail must hold (the RCU pin means
//           readers never block on a swap, so p99-during staying within ~2x
//           of steady is the no-serving-stall acceptance bar)
//   after   stream stopped, rebuilds drained — fresh-generation tail
//
// JsonRecord rows carry per-phase p50/p95/p99 plus generation/rebuild
// counts; run with --trace=FILE to see the `updatable.retrain` /
// `updatable.swap` spans interleaved with the queries in the Chrome
// trace.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/updatable.h"
#include "serve/serving.h"
#include "sets/workload.h"

namespace {

using los::MetricsRegistry;
using los::Rng;
using los::Stopwatch;
using los::bench::JsonRecord;
using los::sets::Query;

constexpr int kClients = 4;
/// Streaming cadence of the updater thread (one delta per tick).
constexpr auto kUpdateInterval = std::chrono::milliseconds(4);
/// Retraining competes for the same cores as serving; running the trainer
/// at a lower scheduling priority is what keeps swaps off the query tail
/// (the p99-during acceptance bar) on a saturated host.
constexpr int kTrainerNice = 10;
/// Phase wall-time budgets; set from LOS_SCALE in main so the smoke run
/// (scale 0.1) stays fast while the full run overlaps several retrains.
double kSteadySeconds = 1.0;
double kDuringSeconds = 3.0;

struct LoadResult {
  double wall_seconds = 0.0;
  std::vector<double> latencies;
  double Qps() const {
    return wall_seconds > 0.0
               ? static_cast<double>(latencies.size()) / wall_seconds
               : 0.0;
  }
};

/// Closed loop with a time budget: each client replays the query list until
/// `seconds` of wall time has elapsed, so a phase is long enough to overlap
/// however many background retrains the update stream triggers.
LoadResult RunClosedLoop(int clients, double seconds,
                         const std::vector<Query>& queries,
                         const std::function<void(const Query&)>& issue) {
  std::vector<std::vector<double>> lat(clients);
  std::vector<std::thread> threads;
  Stopwatch wall;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(seconds));
      while (std::chrono::steady_clock::now() < deadline) {
        for (const auto& q : queries) {
          Stopwatch sw;
          issue(q);
          lat[t].push_back(sw.ElapsedSeconds());
        }
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

/// Streams generator deltas on a paced loop until told to stop. `apply`
/// consumes the i-th delta set; the pacing models continuous ingest rather
/// than a bulk load.
class UpdateStream {
 public:
  UpdateStream(const los::sets::SetCollection* deltas,
               std::function<void(size_t, std::vector<los::sets::ElementId>)>
                   apply)
      : deltas_(deltas), apply_(std::move(apply)) {}

  void Start() {
    thread_ = std::thread([this] {
      // Ingest is throughput-oriented; serving is latency-oriented. Nice
      // the stream (less than the trainer) so updates trail queries on a
      // saturated host instead of punching holes in the serving tail.
      los::core::LowerThreadPriority(kTrainerNice / 2);
      size_t i = 0;
      while (!stop_.load(std::memory_order_acquire)) {
        auto view = deltas_->set(i % deltas_->size());
        apply_(i, std::vector<los::sets::ElementId>(view.begin(),
                                                    view.end()));
        ++i;
        std::this_thread::sleep_for(kUpdateInterval);
      }
      applied_.store(i, std::memory_order_release);
    });
  }
  size_t Stop() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
    return applied_.load(std::memory_order_acquire);
  }

 private:
  const los::sets::SetCollection* deltas_;
  std::function<void(size_t, std::vector<los::sets::ElementId>)> apply_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> applied_{0};
  std::thread thread_;
};

struct PhaseStats {
  double p99 = 0.0;
};

PhaseStats Report(const std::string& task, const std::string& phase,
                  const LoadResult& r, uint64_t generation,
                  uint64_t rebuilds, uint64_t failures, size_t updates,
                  const los::MetricsSnapshot* metrics) {
  JsonRecord rec("online_updates");
  // The _count suffix marks these as measurements for bench_compare.py:
  // they vary run to run and must not split the record's identity.
  rec.Set("task", task)
      .Set("phase", phase)
      .Set("clients", kClients)
      .Set("update_count", updates)
      .Set("generation_count", static_cast<int64_t>(generation))
      .Set("rebuild_count", static_cast<int64_t>(rebuilds))
      .Set("rebuild_failure_count", static_cast<int64_t>(failures));
  for (double s : r.latencies) rec.Add(s);
  rec.Set("queries_per_s", r.Qps());
  rec.SetProvenance();
  if (metrics != nullptr) rec.SetMetrics(*metrics);
  std::printf("%-12s %-7s gen=%-3llu rebuilds=%-2llu fail=%llu upd=%-4zu "
              "%9.0f qps  p50=%.0fus p95=%.0fus p99=%.0fus\n",
              task.c_str(), phase.c_str(),
              static_cast<unsigned long long>(generation),
              static_cast<unsigned long long>(rebuilds),
              static_cast<unsigned long long>(failures), updates, r.Qps(),
              rec.Median() * 1e6, rec.P95() * 1e6, rec.P99() * 1e6);
  rec.Print();
  return {rec.P99()};
}

/// Runs the three phases for one structure. `issue` drives one query
/// through the live service; `apply` consumes one streamed delta;
/// `generation`/`rebuilds` read the wrapper's counters.
void RunPhases(const std::string& task, const std::vector<Query>& queries,
               const los::sets::SetCollection& deltas,
               MetricsRegistry* registry,
               const std::function<void(const Query&)>& issue,
               std::function<void(size_t, std::vector<los::sets::ElementId>)>
                   apply,
               const std::function<uint64_t()>& generation,
               const std::function<uint64_t()>& rebuilds,
               const std::function<uint64_t()>& failures,
               const std::function<void()>& wait_for_rebuilds) {
  auto steady = RunClosedLoop(kClients, kSteadySeconds, queries, issue);
  auto s = Report(task, "steady", steady, generation(), rebuilds(),
                  failures(), 0, nullptr);

  const uint64_t rebuilds_before = rebuilds();
  UpdateStream stream(&deltas, std::move(apply));
  stream.Start();
  auto during = RunClosedLoop(kClients, kDuringSeconds, queries, issue);
  const size_t applied = stream.Stop();
  auto d = Report(task, "during", during, generation(),
                  rebuilds() - rebuilds_before, failures(), applied,
                  nullptr);

  wait_for_rebuilds();
  auto after = RunClosedLoop(kClients, kSteadySeconds, queries, issue);
  auto snap = registry->Snapshot();
  auto a = Report(task, "after", after, generation(),
                  rebuilds() - rebuilds_before, failures(), applied, &snap);

  // Two tails for the 'during' phase: against the pre-stream baseline
  // (includes the cost of the *content* — a fuller absorb structure — on
  // top of rebuild interference) and against the quiesced post-stream
  // structure (same content at rest, so the delta is rebuild interference
  // alone — the number the RCU swap design is accountable for).
  std::printf("%-12s p99 during/steady = %.2fx   during/quiesced = %.2fx%s\n\n",
              task.c_str(), s.p99 > 0 ? d.p99 / s.p99 : 0.0,
              a.p99 > 0 ? d.p99 / a.p99 : 0.0,
              rebuilds() > rebuilds_before
                  ? ""
                  : "  (warning: no background rebuild happened during the "
                    "phase — stream too short?)");
}

}  // namespace

int main(int argc, char** argv) {
  los::bench::Banner("Online updates: query tail across generation swaps",
                     "ROADMAP item 2 (not a paper table)");
  los::bench::BenchTraceSession trace(argc, argv);

  const double scale = los::bench::EnvScale();
  kSteadySeconds = std::max(0.3, 1.5 * scale);
  kDuringSeconds = std::max(1.0, 4.0 * scale);
  los::sets::RwConfig rw;
  rw.num_sets = static_cast<size_t>(2000 * scale) + 50;
  rw.num_unique = static_cast<size_t>(400 * scale) + 30;
  rw.seed = 17;
  auto collection = GenerateRw(rw);
  // The delta stream: fresh sets over a 2x-wider universe, so roughly half
  // the streamed elements are novel. That is the interesting ingest case —
  // content the trained generation has never seen, which only the absorb
  // path can serve until the next retrain folds it into the model.
  auto delta_cfg = rw;
  delta_cfg.seed = 29;
  delta_cfg.num_sets = 2000;
  delta_cfg.num_unique = rw.num_unique * 2;
  auto deltas = GenerateRw(delta_cfg);

  auto subset_opts = los::bench::BenchSubsetOptions();
  subset_opts.max_subset_size = 2;
  auto subsets = EnumerateLabeledSubsets(collection, subset_opts);
  Rng rng(23);
  auto queries = los::sets::SampleQueries(
      subsets, los::sets::QueryLabel::kCardinality, 400, &rng);

  // Small models and short retrains: the subject under test is the swap
  // machinery and the serving tail, not model quality.
  const int epochs = los::bench::EnvEpochs(2);

  // ---------------- index ----------------
  {
    MetricsRegistry registry;
    los::core::UpdatableSetIndex::Options opts;
    opts.index.train.epochs = epochs;
    opts.index.train.loss = los::core::LossKind::kMse;
    opts.index.max_subset_size = subset_opts.max_subset_size;
    opts.index.hybrid = false;
    opts.index.model.embed_dim = 8;
    opts.index.model.phi_hidden = {16};
    opts.index.model.rho_hidden = {16};
    // Amortize the snapshot clone over a burst of updates. Only subsets
    // the bounded search cannot already answer are routed (and counted)
    // by the absorb path, so the threshold is sized for the novel-element
    // fraction of the stream, not the raw update count.
    opts.publish_after_updates = 32;
    opts.update.rebuild_after_absorbed = 400;
    opts.update.trainer_nice = kTrainerNice;
    auto index = los::core::UpdatableSetIndex::Build(collection, opts,
                                                     &registry);
    if (!index.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    auto service =
        los::serve::IndexService::Create(index->get(), {},
                                         &registry);
    if (!service.ok()) return 1;
    los::core::UpdatableSetIndex* live = index->get();
    RunPhases(
        "index", queries, deltas, &registry,
        [&](const Query& q) { (void)(*service)->Submit(q).get(); },
        [live, &collection](size_t i,
                            std::vector<los::sets::ElementId> elems) {
          (void)live->Update(i % collection.size(), std::move(elems));
        },
        [live] { return live->generation(); },
        [live] { return live->engine()->rebuilds(); },
        [live] { return live->engine()->rebuild_failures(); },
        [live] { live->WaitForRebuilds(); });
    (*service)->Shutdown();
  }

  // ---------------- cardinality ----------------
  {
    MetricsRegistry registry;
    los::core::UpdatableCardinality::Options opts;
    opts.cardinality.train.epochs = epochs;
    opts.cardinality.max_subset_size = subset_opts.max_subset_size;
    opts.cardinality.model.embed_dim = 8;
    opts.cardinality.model.phi_hidden = {16};
    opts.cardinality.model.rho_hidden = {16};
    opts.update.rebuild_after_absorbed = 150;  // 1 tick = 1 absorbed
    opts.update.trainer_nice = kTrainerNice;
    auto card = los::core::UpdatableCardinality::Build(collection, opts,
                                                       &registry);
    if (!card.ok()) {
      std::fprintf(stderr, "cardinality build failed: %s\n",
                   card.status().ToString().c_str());
      return 1;
    }
    auto service = los::serve::CardinalityService::Create(
        card->get(), {}, &registry);
    if (!service.ok()) return 1;
    los::core::UpdatableCardinality* live = card->get();
    RunPhases(
        "cardinality", queries, deltas, &registry,
        [&](const Query& q) { (void)(*service)->Submit(q).get(); },
        [live](size_t, std::vector<los::sets::ElementId> elems) {
          (void)live->Insert(std::move(elems));
        },
        [live] { return live->generation(); },
        [live] { return live->engine()->rebuilds(); },
        [live] { return live->engine()->rebuild_failures(); },
        [live] { live->WaitForRebuilds(); });
    (*service)->Shutdown();
  }

  // ---------------- bloom ----------------
  {
    MetricsRegistry registry;
    los::core::UpdatableBloom::Options opts;
    opts.bloom.train.epochs = epochs;
    opts.bloom.max_subset_size = subset_opts.max_subset_size;
    // Every delta subset is novel to the filter, so inserts absorb ~50
    // subsets each; this threshold spaces retrains out instead of running
    // them back-to-back for the whole phase.
    opts.update.rebuild_after_absorbed = 3000;
    opts.update.trainer_nice = kTrainerNice;
    auto bloom = los::core::UpdatableBloom::Build(collection, opts,
                                                  &registry);
    if (!bloom.ok()) {
      std::fprintf(stderr, "bloom build failed: %s\n",
                   bloom.status().ToString().c_str());
      return 1;
    }
    auto service =
        los::serve::BloomService::Create(bloom->get(), {},
                                         &registry);
    if (!service.ok()) return 1;
    los::core::UpdatableBloom* live = bloom->get();
    RunPhases(
        "bloom", queries, deltas, &registry,
        [&](const Query& q) { (void)(*service)->Submit(q).get(); },
        [live](size_t, std::vector<los::sets::ElementId> elems) {
          (void)live->Insert(std::move(elems));
        },
        [live] { return live->generation(); },
        [live] { return live->engine()->rebuilds(); },
        [live] { return live->engine()->rebuild_failures(); },
        [live] { live->WaitForRebuilds(); });
    (*service)->Shutdown();
  }

  trace.Finish();
  std::printf("Expected shape: 'during' p99 stays within ~2x of 'steady' — "
              "readers pin generations lock-free, so retrain+swap cost CPU "
              "but never a serving stall. The generation counter climbing "
              "in the 'during' rows is the swaps happening mid-traffic.\n");
  return 0;
}
