// The traced per-layer ledger. Every probe times calls into one module's
// public functions from outside (no spans or counters are added to the
// library); the one traced window folds the `model.*` spans the library
// already emits into self times. Every workload reports every layer, each
// in the workload's own client configuration. README.md maps each metric
// to the end-to-end metric and workload it should move.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "baselines/bloom_filter.h"
#include "baselines/hash_map_estimator.h"
#include "baselines/inverted_index.h"
#include "common/trace.h"
#include "nn/ops.h"
#include "nn/tensor.h"
#include "perfbench/workloads.h"
#include "sets/subset_gen.h"

namespace los::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

double P50Us(const PhaseResult& r) { return Percentile(r.Merged(), 0.5) / 1e3; }

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// The structures the direct-path probes call: the frozen ones, or the
/// live wrappers' current generations (pinned for the probes' duration).
struct Probe {
  core::LearnedSetIndex* index = nullptr;
  core::LearnedCardinalityEstimator* card = nullptr;
  core::LearnedBloomFilter* bloom = nullptr;
  MetricsRegistry* registry = nullptr;
  std::optional<core::GenerationStore<core::IndexGeneration>::ReadPin> index_pin;
  std::optional<core::GenerationStore<core::LearnedCardinalityEstimator>::ReadPin>
      card_pin;
  std::optional<core::GenerationStore<core::BloomGeneration>::ReadPin> bloom_pin;
};

void PinLive(Live* live, Probe* p) {
  p->index_pin.emplace(live->index->Acquire());
  p->card_pin.emplace(live->card->Acquire());
  p->bloom_pin.emplace(live->bloom->Acquire());
  p->index = (*p->index_pin)->index.get();
  p->card = p->card_pin->get();
  p->bloom = (*p->bloom_pin)->filter.get();
  p->registry = &live->registry;
}

/// Self time per span name: duration minus the time covered by direct
/// children on the same thread. Tracer::SummaryTo folds inclusive
/// durations, which would count every nn.gemm inside model.phi twice.
void FoldSelfTimes(const std::vector<TraceEvent>& events,
                   std::map<std::string, std::vector<float>>* self_ns) {
  std::map<uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(&e);
  for (auto& [tid, evs] : by_tid) {
    std::sort(evs.begin(), evs.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                return a->start_ns != b->start_ns
                           ? a->start_ns < b->start_ns
                           : a->duration_ns > b->duration_ns;
              });
    std::vector<uint64_t> child(evs.size(), 0);
    std::vector<size_t> stack;
    for (size_t i = 0; i < evs.size(); ++i) {
      while (!stack.empty() && evs[stack.back()]->start_ns +
                                       evs[stack.back()]->duration_ns <=
                                   evs[i]->start_ns) {
        stack.pop_back();
      }
      if (!stack.empty()) child[stack.back()] += evs[i]->duration_ns;
      stack.push_back(i);
    }
    for (size_t i = 0; i < evs.size(); ++i) {
      const std::string name = evs[i]->name;
      if (name.rfind("model.", 0) != 0) continue;
      const uint64_t d = evs[i]->duration_ns;
      (*self_ns)[name].push_back(
          static_cast<float>(d > child[i] ? d - child[i] : 0));
    }
  }
}

/// Gemm shapes (in, out) of one model's one-row φ and ρ layers.
std::vector<std::pair<int64_t, int64_t>> GemmShapes(
    const core::ModelOptions& m) {
  std::vector<std::pair<int64_t, int64_t>> shapes;
  int64_t in = m.compressed ? m.ns * m.embed_dim : m.embed_dim;
  for (int64_t h : m.phi_hidden) {
    shapes.emplace_back(in, h);
    in = h;
  }
  for (int64_t h : m.rho_hidden) {
    shapes.emplace_back(in, h);
    in = h;
  }
  shapes.emplace_back(in, 1);  // sigmoid head
  return shapes;
}

/// Median per-call time (µs) of `fn` over `rounds` rounds of `calls`.
template <typename Fn>
double MedianCallUs(int rounds, int calls, Fn fn) {
  std::vector<float> per_call;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn(i);
    per_call.push_back(static_cast<float>(Us(t0, Clock::now()) / calls));
  }
  return Percentile(per_call, 0.5);
}

}  // namespace

bool RunLedger(const Config& cfg, const Inputs& in, Frozen* frozen,
               Live* live, MetricSink* out, Tally* tally) {
  const Sizes& sizes = cfg.sizes;
  const int R = cfg.readers();
  const bool is_live = cfg.workload == "live";
  // Each probe phase; capped so a traced run stays within twice an
  // untraced one.
  const double t = std::clamp(cfg.seconds / 30.0, 0.05, 0.4);
  const Stream* streams[3] = {&in.index, &in.card, &in.bloom};
  const char* names[3] = {"index", "card", "bloom"};

  // Every layer is reported on every workload: build the updatable
  // wrappers if this workload did not (untimed).
  std::unique_ptr<Live> own_live;
  if (frozen == nullptr && !is_live) return false;
  if (live == nullptr) {
    own_live = BuildLive(*in.collection, sizes);
    if (own_live == nullptr) return false;
    live = own_live.get();
  }

  {
    Probe probe;
    if (is_live) {
      PinLive(live, &probe);
    } else {
      probe.index = frozen->index.get();
      probe.card = frozen->card.get();
      probe.bloom = frozen->bloom.get();
      probe.registry = &frozen->registry;
    }

    // ---- The workload's read path, untraced then traced --------------
    Services svc;
    ReadPath path;
    if (cfg.workload == "served") {
      if (!svc.Create(frozen, nullptr, *in.collection)) return false;
      path.served = &svc;
    } else if (is_live) {
      path.live = live;
    } else {
      path.index = probe.index;
      path.card = probe.card;
      path.bloom = probe.bloom;
    }
    std::map<std::string, std::vector<float>> self_ns;
    Tracer* tracer = Tracer::Global();
    for (int k = 0; k < 3; ++k) {
      const size_t n = streams[k]->queries.size();
      auto op = [&](int, size_t i) { (void)path.Read(k, streams[k]->queries[i]); };
      PhaseResult plain = RunClosedLoop(R, t, n, op);
      tracer->Reset();
      tracer->set_sample_every(1);
      tracer->set_enabled(true);
      PhaseResult traced = RunClosedLoop(R, t, n, op);
      tracer->set_enabled(false);
      tally->attempted += plain.ops + traced.ops;
      FoldSelfTimes(tracer->Collect(), &self_ns);
      if (!cfg.trace_out.empty()) {
        const std::string file = cfg.trace_out + "." + names[k] + ".json";
        Status st = tracer->WriteChromeTrace(file);
        if (!st.ok()) std::fprintf(stderr, "trace export: %s\n", st.ToString().c_str());
      }
      out->Set(std::string("trace.") + names[k] + "_overhead_share",
               P50Us(traced) / P50Us(plain) - 1.0, "ratio");
    }
    svc.Shutdown();
    const char* stages[5] = {"compress", "embed_gather", "phi", "pool", "rho"};
    for (const char* s : stages) {
      auto it = self_ns.find(std::string("model.") + s);
      const double v = it == self_ns.end() ? 0.0 : Percentile(it->second, 0.5) / 1e3;
      out->Set(std::string("deepsets.") + s + "_us", v, "us");
    }
    {
      // Cost of one recorded span, for reading the self times above.
      tracer->Reset();
      tracer->set_enabled(true);
      const double with = MedianCallUs(9, 2000, [](int) {
        TRACE_SPAN("perfbench", "perfbench.span_cost");
      });
      tracer->set_enabled(false);
      out->Set("trace.span_us", with, "us");
    }

    // ---- deepsets: SetModel::PredictOne through each structure -------
    deepsets::SetModel* models[3] = {probe.index->model(), probe.card->model(),
                                     probe.bloom->model()};
    for (int k = 0; k < 3; ++k) {
      const auto& qs = streams[k]->queries;
      PhaseResult r = RunClosedLoop(R, t, qs.size(), [&](int, size_t i) {
        (void)models[k]->PredictOne(qs[i].view());
      });
      tally->attempted += r.ops;
      out->Set(std::string("deepsets.") + names[k] + "_predict_us", P50Us(r), "us");
    }

    // ---- nn: one-row GEMMs at the three models' φ/ρ shapes -----------
    {
      std::vector<double> per_shape;
      const core::ModelOptions opts[3] = {IndexOpts(sizes).model,
                                          CardOpts(sizes).model,
                                          BloomOpts(sizes).model};
      for (const auto& m : opts) {
        for (auto [k_in, n_out] : GemmShapes(m)) {
          nn::Tensor a = nn::Tensor::Full(1, k_in, 0.5f);
          nn::Tensor b = nn::Tensor::Full(k_in, n_out, 0.25f);
          nn::Tensor c(1, n_out);
          per_shape.push_back(MedianCallUs(9, 2000, [&](int) {
            nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
          }));
        }
      }
      out->Set("nn.gemm_m1_us", Mean(per_shape), "us");
    }

    // ---- core: scan, aux and backup shares (single pass, exact) ------
    {
      const auto& qs = in.index.queries;
      std::vector<float> lookup_ns, estimate_ns;
      double width = 0.0;
      size_t aux = 0;
      for (const auto& q : qs) {
        core::LearnedSetIndex::LookupStats st;
        const auto t0 = Clock::now();
        (void)probe.index->Lookup(q.view(), &st);
        lookup_ns.push_back(static_cast<float>(Us(t0, Clock::now()) * 1e3));
        width += static_cast<double>(st.scan_width);
        aux += st.aux_hit;
      }
      for (const auto& q : qs) {
        const auto t0 = Clock::now();
        (void)probe.index->EstimatePosition(q.view());
        estimate_ns.push_back(static_cast<float>(Us(t0, Clock::now()) * 1e3));
      }
      tally->attempted += 2 * qs.size();
      out->Set("core.index_scan_us",
               (Percentile(lookup_ns, 0.5) - Percentile(estimate_ns, 0.5)) / 1e3, "us");
      out->Set("core.index_scan_width", width / static_cast<double>(qs.size()), "count");
      out->Set("core.index_aux_share",
               static_cast<double>(aux) / static_cast<double>(qs.size()), "ratio");
      size_t outliers = 0;
      for (const auto& q : in.card.queries) outliers += probe.card->IsOutlier(q.view());
      out->Set("core.card_aux_share",
               static_cast<double>(outliers) / static_cast<double>(in.card.queries.size()),
               "ratio");
      Counter* queries = probe.registry->GetCounter("bloom.queries");
      Counter* backup = probe.registry->GetCounter("bloom.backup_hits");
      const uint64_t q0 = queries->value(), b0 = backup->value();
      for (const auto& q : in.bloom.queries) (void)probe.bloom->MayContain(q.view());
      tally->attempted += in.card.queries.size() + in.bloom.queries.size();
      out->Set("core.bloom_backup_share",
               static_cast<double>(backup->value() - b0) /
                   static_cast<double>(std::max<uint64_t>(1, queries->value() - q0)),
               "ratio");
    }

    // ---- baselines: the exact structures on the same streams ---------
    {
      const sets::SetCollection& c = *in.collection;
      const baselines::InvertedIndex inverted(c);
      const baselines::HashMapEstimator hashmap(c, sizes.max_subset_size);
      baselines::BloomFilter bloom(hashmap.size(), 0.01);
      for (size_t i = 0; i < c.size(); ++i) {
        sets::ForEachSubset(c.set(i), sizes.max_subset_size,
                            [&](sets::SetView s) { bloom.Insert(s); });
      }
      PhaseResult r1 = RunClosedLoop(R, t, in.card.queries.size(), [&](int, size_t i) {
        (void)hashmap.Estimate(in.card.queries[i].view());
      });
      PhaseResult r2 = RunClosedLoop(R, t, in.bloom.queries.size(), [&](int, size_t i) {
        (void)bloom.MayContain(in.bloom.queries[i].view());
      });
      PhaseResult r3 = RunClosedLoop(R, t, in.index.queries.size(), [&](int, size_t i) {
        (void)inverted.FirstMatch(in.index.queries[i].view());
      });
      tally->attempted += r1.ops + r2.ops + r3.ops;
      out->Set("baselines.hashmap_us", P50Us(r1), "us");
      out->Set("baselines.bloom_us", P50Us(r2), "us");
      out->Set("baselines.inverted_us", P50Us(r3), "us");
    }
  }  // Probe pins released: the live-mode services and the update
     // cycles below publish generations, which must not wait on them.

  // ---- serve: queueing and micro-batching at this workload's clients --
  {
    Services svc;
    if (!svc.Create(frozen, is_live ? live : nullptr, *in.collection)) return false;
    ReadPath path;
    path.served = &svc;
    std::vector<double> execute, queue_wait;
    uint64_t queries = 0, batches = 0, by_size = 0, by_deadline = 0, by_idle = 0;
    const char* server[3] = {"index", "cardinality", "bloom"};
    for (int k = 0; k < 3; ++k) {
      const auto& qs = streams[k]->queries;
      PhaseResult r = RunClosedLoop(R, t, qs.size(), [&](int, size_t i) {
        (void)path.Read(k, qs[i]);
      });
      tally->attempted += r.ops;
      const std::string p = std::string("serve.") + server[k] + ".";
      const uint64_t sq = svc.registry.GetCounter(p + "queries")->value();
      const uint64_t sb = svc.registry.GetCounter(p + "batches")->value();
      queries += sq;
      batches += sb;
      by_size += svc.registry.GetCounter(p + "flush_size")->value();
      by_deadline += svc.registry.GetCounter(p + "flush_deadline")->value();
      by_idle += svc.registry.GetCounter(p + "flush_idle")->value();
      // The structure's batch call at the observed mean batch size.
      const size_t b = std::max<size_t>(
          1, static_cast<size_t>(std::lround(static_cast<double>(sq) /
                                             static_cast<double>(std::max<uint64_t>(1, sb)))));
      std::vector<std::vector<sets::Query>> chunks;
      for (size_t i = 0; i + b <= qs.size() && chunks.size() < 64; i += b) {
        chunks.emplace_back(qs.begin() + static_cast<std::ptrdiff_t>(i),
                            qs.begin() + static_cast<std::ptrdiff_t>(i + b));
      }
      const int calls = static_cast<int>(chunks.size());
      auto batch_call = [&](auto* index, auto* card, auto* bloom) {
        return MedianCallUs(9, calls, [&](int i) {
          switch (k) {
            case 0: (void)index->LookupBatch(chunks[i]); break;
            case 1: (void)card->EstimateBatch(chunks[i]); break;
            default: (void)bloom->MayContainMulti(chunks[i]); break;
          }
        });
      };
      const double ex =
          is_live ? batch_call(live->index.get(), live->card.get(), live->bloom.get())
                  : batch_call(frozen->index.get(), frozen->card.get(),
                               frozen->bloom.get());
      execute.push_back(ex);
      queue_wait.push_back(P50Us(r) - ex);
    }
    svc.Shutdown();
    tally->serve_errors += svc.Rejected();
    const double flushes =
        static_cast<double>(std::max<uint64_t>(1, by_size + by_deadline + by_idle));
    out->Set("serve.batch_size_mean",
             static_cast<double>(queries) / static_cast<double>(std::max<uint64_t>(1, batches)),
             "count");
    out->Set("serve.flush_size_share", static_cast<double>(by_size) / flushes, "ratio");
    out->Set("serve.flush_deadline_share", static_cast<double>(by_deadline) / flushes, "ratio");
    out->Set("serve.flush_idle_share", static_cast<double>(by_idle) / flushes, "ratio");
    out->Set("serve.execute_us", Mean(execute), "us");
    out->Set("serve.queue_wait_us", Mean(queue_wait), "us");
  }

  // ---- updatable: one rebuild cycle per structure ---------------------
  {
    const char* update_names[3] = {"index_update", "card_insert", "bloom_insert"};
    std::vector<double> rebuild, during, steady;
    uint64_t index_wrong = 0, index_reads = 0;
    for (int k = 0; k < 3; ++k) {
      LiveResult r = RunLiveStructure(static_cast<LiveKind>(k), live, in,
                                      sizes, t, tally);
      if (k == 0) {
        index_wrong = r.index_wrong;
        index_reads = r.reads;
      }
      out->Set(std::string("updatable.") + update_names[k] + "_us",
               Percentile(r.update_ns, 0.5) / 1e3, "us");
      rebuild.push_back(r.rebuild_s);
      during.push_back(Percentile(r.read_during_rebuild_ns, 0.99) / 1e3);
      steady.push_back(Percentile(r.read_steady_ns, 0.99) / 1e3);
    }
    // Wrong index answers across replacing updates (ROADMAP item 4) are
    // failures of the live workload; the read-only workloads never read
    // through the wrappers, so their traced runs report the share.
    if (is_live) tally->index_wrong += index_wrong;
    out->Set("updatable.index_wrong_share",
             static_cast<double>(index_wrong) /
                 static_cast<double>(std::max<uint64_t>(1, index_reads)),
             "ratio");
    double retrain_sum = 0.0;
    uint64_t retrains = 0;
    for (const char* name : {"index", "cardinality", "bloom"}) {
      Histogram* h = live->registry.GetHistogram(
          std::string("updatable.") + name + ".retrain_seconds",
          LatencyHistogramOptions());
      retrain_sum += h->sum();
      retrains += h->count();
    }
    out->Set("updatable.retrain_s",
             retrain_sum / static_cast<double>(std::max<uint64_t>(1, retrains)), "s");
    out->Set("updatable.rebuild_s", Mean(rebuild), "s");
    out->Set("updatable.read_during_rebuild_p99_us", Mean(during), "us");
    out->Set("updatable.read_steady_p99_us", Mean(steady), "us");
    out->Set("updatable.generations",
             static_cast<double>(live->index->generation() + live->card->generation() +
                                 live->bloom->generation()),
             "count");
  }
  return true;
}

}  // namespace los::perfbench
