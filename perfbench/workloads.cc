#include "perfbench/workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>
#include <utility>

#include "bench/bench_util.h"
#include "common/random.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"

namespace los::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

float Ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<float>(
      std::chrono::duration<double, std::nano>(t1 - t0).count());
}

bool Contains(sets::SetView big, sets::SetView q) {
  return std::includes(big.begin(), big.end(), q.begin(), q.end());
}

/// Exact first position of sorted `q` in `c`, by brute force.
int64_t FirstPosition(const sets::SetCollection& c, sets::SetView q) {
  for (size_t i = 0; i < c.size(); ++i) {
    if (Contains(c.set(i), q)) return static_cast<int64_t>(i);
  }
  return -1;
}

/// Mean q-error (max(e/t, t/e), both floored at 1) of estimates vs truths.
double MeanQError(const std::vector<double>& estimates,
                  const std::vector<double>& truths) {
  double sum = 0.0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    const double e = std::max(1.0, estimates[i]);
    const double t = std::max(1.0, truths[i]);
    sum += std::max(e / t, t / e);
  }
  return estimates.empty() ? 0.0 : sum / static_cast<double>(estimates.size());
}

}  // namespace

Sizes Sizes::Full() {
  Sizes s;
  // The collection, the update stream and the rebuild triggers are those
  // of bench_serving_qps and bench_online_updates at LOS_SCALE=1.
  s.num_sets = 2050;
  s.num_unique = 430;
  s.num_deltas = 2000;
  s.rebuild_after[0] = 400;
  s.rebuild_after[1] = 150;
  s.rebuild_after[2] = 3000;
  // The write shares of bench_online_updates' committed 'during' rows
  // (BENCH_online_updates.json): updates / (updates + reads) over its
  // 4 s phase, 951 / 178578 for the index, 981 / 643800 for the
  // cardinality estimator and 981 / 677692 for the Bloom filter.
  s.write_every[0] = 189;
  s.write_every[1] = 657;
  s.write_every[2] = 692;
  s.epochs = 3;
  s.stream = 8192;
  s.eval_negatives = 20000;
  s.setup_repeats = 7;
  return s;
}

Sizes Sizes::Tiny() {
  Sizes s;
  s.num_sets = 200;
  s.num_unique = 60;
  s.num_deltas = 500;
  s.rebuild_after[0] = 60;
  s.rebuild_after[1] = 8;
  s.rebuild_after[2] = 150;
  s.write_every[0] = 8;
  s.write_every[1] = 8;
  s.write_every[2] = 8;
  s.epochs = 1;
  s.stream = 512;
  s.eval_negatives = 1000;
  s.setup_repeats = 1;
  return s;
}

std::unique_ptr<sets::SetCollection> MakeCollection(const Sizes& sizes) {
  sets::RwConfig rw;
  rw.num_sets = sizes.num_sets;
  rw.num_unique = sizes.num_unique;
  rw.seed = 17;
  return std::make_unique<sets::SetCollection>(sets::GenerateRw(rw));
}

Inputs MakeInputs(const Sizes& sizes, uint64_t seed,
                  std::unique_ptr<sets::SetCollection> collection) {
  Inputs in;
  in.collection = std::move(collection);
  const sets::SetCollection& c = *in.collection;
  sets::SubsetGenOptions gen;
  gen.max_subset_size = sizes.max_subset_size;
  const sets::LabeledSubsets subsets = sets::EnumerateLabeledSubsets(c, gen);
  const baselines::InvertedIndex exact(c);
  auto contains = [&exact](sets::SetView q) { return exact.Contains(q); };

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  in.index.queries = sets::SampleQueries(
      subsets, sets::QueryLabel::kFirstPosition, sizes.stream, &rng);
  for (auto& q : in.index.queries) {
    q.truth = static_cast<double>(exact.FirstMatch(q.view()));
  }
  in.card.queries = sets::SampleQueries(
      subsets, sets::QueryLabel::kCardinality, sizes.stream, &rng);
  for (auto& q : in.card.queries) {
    q.truth = static_cast<double>(exact.Cardinality(q.view()));
  }
  // Bloom: members and an equal number of non-members, alternating.
  auto pos = sets::SamplePositiveQueries(subsets, sizes.stream / 2, &rng);
  auto neg = sets::SampleNegativeQueries(c.universe_size(),
                                         sizes.max_subset_size,
                                         sizes.stream / 2, contains, &rng);
  for (size_t i = 0; i < pos.size() && i < neg.size(); ++i) {
    pos[i].truth = exact.Contains(pos[i].view()) ? 1.0 : 0.0;
    neg[i].truth = 0.0;
    in.bloom.queries.push_back(std::move(pos[i]));
    in.bloom.queries.push_back(std::move(neg[i]));
  }
  // The fixed negative set does not follow the seed, so bloom_fpr
  // compares one filter against one probe set on every run.
  Rng fixed(7);
  in.eval_neg.queries = sets::SampleNegativeQueries(
      c.universe_size(), sizes.max_subset_size, sizes.eval_negatives,
      contains, &fixed);

  // Live updates: fresh sets over a 2x-wider universe, so about half of
  // the streamed elements are unseen by the trained models. Like the
  // collection they are part of the dataset and do not follow the seed:
  // the retrained models, and so the live quality metrics, would
  // otherwise move with it.
  sets::RwConfig drift;
  drift.num_sets = sizes.num_deltas;
  drift.num_unique = sizes.num_unique * 2;
  drift.seed = 29;
  const sets::SetCollection deltas = sets::GenerateRw(drift);
  for (size_t i = 0; i < deltas.size(); ++i) {
    auto v = deltas.set(i);
    in.deltas.emplace_back(v.begin(), v.end());
  }
  return in;
}

core::IndexOptions IndexOpts(const Sizes& sizes) {
  core::IndexOptions o = bench::IndexPreset(/*compressed=*/false,
                                            /*hybrid=*/true);
  o.train.epochs = sizes.epochs;
  o.max_subset_size = sizes.max_subset_size;
  return o;
}

core::CardinalityOptions CardOpts(const Sizes& sizes) {
  core::CardinalityOptions o = bench::CardinalityPreset(/*compressed=*/true,
                                                        /*hybrid=*/true);
  o.train.epochs = sizes.epochs;
  o.max_subset_size = sizes.max_subset_size;
  return o;
}

core::BloomOptions BloomOpts(const Sizes& sizes) {
  // Same model and optimizer as the cardinality estimator; the loss stays
  // BCE (BloomOptions forces it).
  const core::CardinalityOptions card = CardOpts(sizes);
  core::BloomOptions o;
  o.model = card.model;
  o.train = card.train;
  o.train.loss = core::LossKind::kBce;
  o.max_subset_size = sizes.max_subset_size;
  return o;
}

std::unique_ptr<Frozen> BuildFrozen(const sets::SetCollection& collection,
                                    const Sizes& sizes) {
  auto f = std::make_unique<Frozen>();
  auto index = core::LearnedSetIndex::Build(collection, IndexOpts(sizes));
  auto card = core::LearnedCardinalityEstimator::Build(collection,
                                                       CardOpts(sizes));
  auto bloom = core::LearnedBloomFilter::Build(collection, BloomOpts(sizes));
  if (!index.ok() || !card.ok() || !bloom.ok()) {
    std::fprintf(stderr, "build failed: %s %s %s\n",
                 index.status().ToString().c_str(),
                 card.status().ToString().c_str(),
                 bloom.status().ToString().c_str());
    return nullptr;
  }
  f->index = std::make_unique<core::LearnedSetIndex>(std::move(*index));
  f->card =
      std::make_unique<core::LearnedCardinalityEstimator>(std::move(*card));
  f->bloom = std::make_unique<core::LearnedBloomFilter>(std::move(*bloom));
  f->index->SetMetricsRegistry(&f->registry);
  f->card->SetMetricsRegistry(&f->registry);
  f->bloom->SetMetricsRegistry(&f->registry);
  return f;
}

size_t Live::TotalBytes() const {
  size_t bytes = 0;
  {
    auto pin = index->Acquire();
    bytes += pin->index->TotalBytes();
  }
  {
    auto pin = card->Acquire();
    bytes += pin->TotalBytes();
  }
  {
    auto pin = bloom->Acquire();
    bytes += pin->filter->TotalBytes() + pin->delta->num_bits() / 8;
  }
  return bytes;
}

std::unique_ptr<Live> BuildLive(const sets::SetCollection& collection,
                                const Sizes& sizes) {
  auto live = std::make_unique<Live>();
  core::UpdatableSetIndex::Options io;
  io.index = IndexOpts(sizes);
  io.update.rebuild_after_absorbed = sizes.rebuild_after[0];
  core::UpdatableCardinality::Options co;
  co.cardinality = CardOpts(sizes);
  co.update.rebuild_after_absorbed = sizes.rebuild_after[1];
  core::UpdatableBloom::Options bo;
  bo.bloom = BloomOpts(sizes);
  bo.update.rebuild_after_absorbed = sizes.rebuild_after[2];
  auto index = core::UpdatableSetIndex::Build(collection, io, &live->registry);
  auto card =
      core::UpdatableCardinality::Build(collection, co, &live->registry);
  auto bloom = core::UpdatableBloom::Build(collection, bo, &live->registry);
  if (!index.ok() || !card.ok() || !bloom.ok()) {
    std::fprintf(stderr, "live build failed: %s %s %s\n",
                 index.status().ToString().c_str(),
                 card.status().ToString().c_str(),
                 bloom.status().ToString().c_str());
    return nullptr;
  }
  live->index = std::move(*index);
  live->card = std::move(*card);
  live->bloom = std::move(*bloom);
  return live;
}

bool Services::Create(Frozen* frozen, Live* live,
                      const sets::SetCollection& collection) {
  const serve::ServeOptions opts;  // the shipped serving configuration
  auto a = live ? serve::IndexService::Create(live->index.get(), opts, &registry)
                : serve::IndexService::Create(frozen->index.get(), collection,
                                              opts, &registry);
  auto b = live ? serve::CardinalityService::Create(live->card.get(), opts,
                                                    &registry)
                : serve::CardinalityService::Create(frozen->card.get(), opts,
                                                    &registry);
  auto c = live ? serve::BloomService::Create(live->bloom.get(), opts, &registry)
                : serve::BloomService::Create(frozen->bloom.get(), opts,
                                              &registry);
  if (!a.ok() || !b.ok() || !c.ok()) return false;
  index = std::move(*a);
  card = std::move(*b);
  bloom = std::move(*c);
  return true;
}

void Services::Shutdown() {
  if (index) index->Shutdown();
  if (card) card->Shutdown();
  if (bloom) bloom->Shutdown();
}

uint64_t Services::Rejected() {
  uint64_t n = 0;
  for (const char* s : {"index", "cardinality", "bloom"}) {
    n += registry.GetCounter(std::string("serve.") + s + ".rejected")->value();
  }
  return n;
}

double ReadPath::Read(int k, const sets::Query& q) const {
  switch (k) {
    case 0:
      return static_cast<double>(served ? served->index->Submit(q).get()
                                 : live ? live->index->Lookup(q.view())
                                        : index->Lookup(q.view()));
    case 1:
      return served ? served->card->Submit(q).get()
             : live ? live->card->Estimate(q.view())
                    : card->Estimate(q.view());
    default:
      return (served ? served->bloom->Submit(q).get()
              : live ? live->bloom->MayContain(q.view())
                     : bloom->MayContain(q.view()))
                 ? 1.0
                 : 0.0;
  }
}

std::vector<float> PhaseResult::Merged() const {
  std::vector<float> all;
  for (const auto& v : latency_ns) all.insert(all.end(), v.begin(), v.end());
  return all;
}

std::vector<PhaseResult> RunInterleaved(
    int clients, double seconds, const std::vector<size_t>& n,
    const std::function<void(int, int, size_t)>& op) {
  const size_t K = n.size();
  const auto slice = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(K > 1 ? kSliceSeconds : seconds));
  std::vector<PhaseResult> r(K);
  for (auto& p : r) p.latency_ns.resize(static_cast<size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  Clock::time_point start;
  std::vector<Clock::time_point> ends(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const size_t cc = static_cast<size_t>(c);
      std::vector<size_t> pos(K);
      for (size_t k = 0; k < K; ++k) {
        r[k].latency_ns[cc].reserve(1 << 18);
        pos[k] = cc * n[k] / static_cast<size_t>(clients);
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto deadline =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
      for (;;) {
        const auto t0 = Clock::now();
        const size_t k = static_cast<size_t>((t0 - start) / slice) % K;
        op(static_cast<int>(k), c, pos[k]);
        const auto t1 = Clock::now();
        r[k].latency_ns[cc].push_back(Ns(t0, t1));
        if (++pos[k] == n[k]) pos[k] = 0;
        if (t1 >= deadline) {
          ends[cc] = t1;
          break;
        }
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  start = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double wall = std::chrono::duration<double>(
                          *std::max_element(ends.begin(), ends.end()) - start)
                          .count();
  for (auto& p : r) {
    p.wall_s = wall / static_cast<double>(K);  // each stream's share
    for (const auto& v : p.latency_ns) p.ops += v.size();
  }
  return r;
}

PhaseResult RunClosedLoop(int clients, double seconds, size_t n,
                          const std::function<void(int, size_t)>& op) {
  return std::move(RunInterleaved(clients, seconds, {n},
                                  [&](int, int c, size_t i) { op(c, i); })[0]);
}

double Percentile(std::vector<float> v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(v.size() - 1,
                            static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

namespace {

// ---------------------------------------------------------------------------
// Direct and served read paths over the frozen structures.
// ---------------------------------------------------------------------------

/// Answers recorded per client in request order, checked after the phase.
struct AnswerLog {
  explicit AnswerLog(int clients) : answers(static_cast<size_t>(clients)) {
    for (auto& a : answers) a.reserve(1 << 20);
  }
  std::vector<std::vector<double>> answers;
};

/// Replays each client's request order against the stream truths.
template <typename Check>
void CheckAnswers(const AnswerLog& log, const Stream& s, int clients,
                  Check check) {
  const size_t n = s.queries.size();
  for (int c = 0; c < clients; ++c) {
    size_t pos = static_cast<size_t>(c) * n / static_cast<size_t>(clients);
    for (double a : log.answers[static_cast<size_t>(c)]) {
      check(s.queries[pos], a);
      if (++pos == n) pos = 0;
    }
  }
}

void Record(MetricSink* out, const std::string& prefix, const PhaseResult& r) {
  const std::vector<float> all = r.Merged();
  out->Set(prefix + "_p50_us", Percentile(all, 0.50) / 1e3, "us");
  out->Set(prefix + "_p99_us", Percentile(all, 0.99) / 1e3, "us");
  out->Set(prefix + "_qps", r.Qps(), "1/s");
}

void RunFrozen(const Config& cfg, const Inputs& in, Frozen* f,
               MetricSink* out, Tally* tally) {
  const int clients = cfg.readers();
  const bool served = cfg.workload == "served";
  constexpr double kError = std::numeric_limits<double>::quiet_NaN();

  Services svc;
  ReadPath path{f->index.get(), f->card.get(), f->bloom.get()};
  if (served) {
    if (!svc.Create(f, nullptr, *in.collection)) {
      std::fprintf(stderr, "service creation failed\n");
      tally->serve_errors++;
      return;
    }
    path.served = &svc;
  }

  // One interleaved phase over the three structures; answers are logged
  // per structure and client in request order and checked afterwards.
  const Stream* streams[3] = {&in.index, &in.card, &in.bloom};
  std::vector<AnswerLog> logs(3, AnswerLog(clients));
  std::vector<PhaseResult> r = RunInterleaved(
      clients, cfg.seconds,
      {in.index.queries.size(), in.card.queries.size(), in.bloom.queries.size()},
      [&](int k, int c, size_t i) {
        double a = kError;
        try {
          a = path.Read(k, streams[k]->queries[i]);
        } catch (const std::exception&) {
          // A served request that errored; counted below.
        }
        logs[static_cast<size_t>(k)].answers[static_cast<size_t>(c)].push_back(a);
      });
  const char* names[3] = {"index", "card", "bloom"};
  for (int k = 0; k < 3; ++k) {
    tally->attempted += r[k].ops;
    CheckAnswers(logs[k], *streams[k], clients, [&](const sets::Query& q, double a) {
      if (std::isnan(a)) {
        tally->serve_errors++;
      } else if (k == 0 && a != q.truth) {
        tally->index_wrong++;
      } else if (k == 2 && q.truth == 1.0 && a == 0.0) {
        tally->bloom_false_neg++;
      }
    });
    Record(out, names[k], r[k]);
  }
  if (served) {
    svc.Shutdown();
    tally->serve_errors += svc.Rejected();
  }

  // Quality, untimed: exhaustive over the card stream and the fixed
  // negative set.
  std::vector<double> est, truth;
  for (const auto& q : in.card.queries) {
    est.push_back(f->card->Estimate(q.view()));
    truth.push_back(q.truth);
  }
  out->Set("card_qerror_mean", MeanQError(est, truth), "ratio");
  size_t fp = 0;
  for (const auto& q : in.eval_neg.queries) fp += f->bloom->MayContain(q.view());
  out->Set("bloom_fpr",
           static_cast<double>(fp) /
               static_cast<double>(std::max<size_t>(1, in.eval_neg.queries.size())),
           "ratio");
  out->Set("struct_bytes", static_cast<double>(f->TotalBytes()), "bytes");
}

}  // namespace

// ---------------------------------------------------------------------------
// Live: one client interleaving reads and updates, counted in whole
// rebuild cycles.
// ---------------------------------------------------------------------------

LiveResult RunLiveStructure(LiveKind kind, Live* live, const Inputs& in,
                            const Sizes& sizes, double seconds, Tally* tally) {
  LiveResult r;
  const int k = static_cast<int>(kind);
  const Stream& s = kind == LiveKind::kIndex  ? in.index
                    : kind == LiveKind::kCard ? in.card
                                              : in.bloom;
  const size_t n = s.queries.size();
  ReadPath path;
  path.live = live;
  // Index reads are checked after the phase by replaying the updates in
  // order: (stream position, answer, updates applied before the read).
  struct IndexRead {
    size_t pos;
    int64_t answer;
    size_t updates;
  };
  std::vector<IndexRead> index_reads;
  index_reads.reserve(1 << 20);
  // The index state this call starts from, for the replay below.
  const sets::SetCollection index_start =
      kind == LiveKind::kIndex ? live->index->SnapshotCollection()
                               : sets::SetCollection();

  // Rebuilds count successful swaps; one more means the retrained
  // generation is what every new read pins.
  auto rebuilds = [&]() -> uint64_t {
    switch (kind) {
      case LiveKind::kIndex: return live->index->engine()->rebuilds();
      case LiveKind::kCard: return live->card->engine()->rebuilds();
      default: return live->bloom->engine()->rebuilds();
    }
  };
  auto needs_rebuild = [&] {
    switch (kind) {
      case LiveKind::kIndex: return live->index->NeedsRebuild();
      case LiveKind::kCard: return live->card->NeedsRebuild();
      default: return live->bloom->NeedsRebuild();
    }
  };
  size_t pos = 0;
  size_t updates = 0;
  const size_t first_delta = live->deltas_used[k];
  auto read = [&](std::vector<float>* lat) {
    const sets::Query& q = s.queries[pos];
    const auto t0 = Clock::now();
    const double a = path.Read(k, q);
    lat->push_back(Ns(t0, Clock::now()));
    if (kind == LiveKind::kIndex) {
      index_reads.push_back({pos, static_cast<int64_t>(a), updates});
    } else if (kind == LiveKind::kBloom && q.truth == 1.0 && a == 0.0) {
      // Inserts only add sets, so every stream member stays a member.
      tally->bloom_false_neg++;
    }
    r.reads++;
    if (++pos == n) pos = 0;
  };
  // Update u of the stream replaces set u mod |collection| with delta u
  // (index), or inserts delta u (cardinality, Bloom).
  auto delta = [&](size_t u) -> const std::vector<sets::ElementId>& {
    return in.deltas[u % in.deltas.size()];
  };
  auto update = [&] {
    const size_t u = first_delta + updates;
    std::vector<sets::ElementId> content = delta(u);
    const auto t0 = Clock::now();
    Status st;
    switch (kind) {
      case LiveKind::kIndex:
        st = live->index->Update(u % index_start.size(), std::move(content));
        break;
      case LiveKind::kCard:
        live->card->Insert(std::move(content));
        break;
      case LiveKind::kBloom:
        live->bloom->Insert(std::move(content));
        break;
    }
    r.update_ns.push_back(Ns(t0, Clock::now()));
    if (!st.ok()) tally->update_errors++;
    ++updates;
    return t0;
  };

  const auto start = Clock::now();
  // One rebuild cycle: writes at the structure's write share until the
  // count trigger fires ...
  const uint64_t before = rebuilds();
  Clock::time_point crossed;
  for (size_t op = 1;; ++op) {
    if (op % sizes.write_every[k] == 0) {
      crossed = update();
      if (needs_rebuild()) break;
    } else {
      read(&r.read_steady_ns);
    }
  }
  // ... then reads only, until this client sees the retrained generation.
  while (rebuilds() == before) {
    read(&r.read_during_rebuild_ns);
    if (Since(crossed) > 120.0) {
      std::fprintf(stderr, "live: rebuild did not publish within 120 s\n");
      tally->update_errors++;
      break;
    }
  }
  r.rebuild_s = Since(crossed);
  while (Since(start) < seconds) read(&r.read_steady_ns);
  r.wall_s = Since(start);
  live->deltas_used[k] = first_delta + updates;
  tally->attempted += r.reads + updates;

  if (kind == LiveKind::kIndex) {
    // Replay: track every stream query's exact first position as the
    // updates land, and compare each read with the truth of its moment.
    sets::SetCollection c = index_start;
    std::vector<int64_t> truth(n);
    for (size_t i = 0; i < n; ++i) truth[i] = FirstPosition(c, s.queries[i].view());
    size_t applied = 0;
    for (const IndexRead& rd : index_reads) {
      while (applied < rd.updates) {
        const size_t u = first_delta + applied;
        const size_t p = u % c.size();
        (void)c.UpdateSet(p, delta(u));
        for (size_t i = 0; i < n; ++i) {
          const sets::SetView q = s.queries[i].view();
          const bool now_in = c.SetContainsSorted(p, q);
          if (now_in && (truth[i] < 0 || static_cast<size_t>(truth[i]) > p)) {
            truth[i] = static_cast<int64_t>(p);
          } else if (!now_in && truth[i] == static_cast<int64_t>(p)) {
            truth[i] = FirstPosition(c, q);
          }
        }
        ++applied;
      }
      if (rd.answer != truth[rd.pos]) r.index_wrong++;
    }
  }
  return r;
}

namespace {

void RunLive(const Config& cfg, const Inputs& in, Live* live, MetricSink* out,
             Tally* tally) {
  // Whole rebuild cycles first (their length is set by the retrains),
  // then reads interleaved over the three wrappers for the rest of the
  // measured time.
  const auto start = std::chrono::steady_clock::now();
  LiveResult cycles[3];
  std::vector<float> updates;
  double rebuild_sum = 0.0;
  for (int k = 0; k < 3; ++k) {
    cycles[k] = RunLiveStructure(static_cast<LiveKind>(k), live, in, cfg.sizes,
                                 0.0, tally);
    tally->index_wrong += cycles[k].index_wrong;
    updates.insert(updates.end(), cycles[k].update_ns.begin(),
                   cycles[k].update_ns.end());
    rebuild_sum += cycles[k].rebuild_s;
  }
  const Stream* streams[3] = {&in.index, &in.card, &in.bloom};
  ReadPath path;
  path.live = live;
  std::vector<AnswerLog> logs(3, AnswerLog(1));
  std::vector<PhaseResult> steady = RunInterleaved(
      1, std::max(0.1 * cfg.seconds, cfg.seconds - Since(start)),
      {in.index.queries.size(), in.card.queries.size(), in.bloom.queries.size()},
      [&](int k, int, size_t i) {
        logs[static_cast<size_t>(k)].answers[0].push_back(
            path.Read(k, streams[k]->queries[i]));
      });
  // The updates are done: exact answers come from the final index state.
  const baselines::InvertedIndex index_exact(live->index->SnapshotCollection());
  const char* names[3] = {"index", "card", "bloom"};
  for (int k = 0; k < 3; ++k) {
    tally->attempted += steady[k].ops;
    CheckAnswers(logs[k], *streams[k], 1, [&, k](const sets::Query& q, double a) {
      if (k == 0 && a != static_cast<double>(index_exact.FirstMatch(q.view()))) {
        tally->index_wrong++;
      } else if (k == 2 && q.truth == 1.0 && a == 0.0) {
        tally->bloom_false_neg++;
      }
    });
    std::vector<float> reads = steady[k].Merged();
    reads.insert(reads.end(), cycles[k].read_steady_ns.begin(),
                 cycles[k].read_steady_ns.end());
    reads.insert(reads.end(), cycles[k].read_during_rebuild_ns.begin(),
                 cycles[k].read_during_rebuild_ns.end());
    const std::string p = names[k];
    out->Set(p + "_p50_us", Percentile(reads, 0.50) / 1e3, "us");
    out->Set(p + "_p99_us", Percentile(reads, 0.99) / 1e3, "us");
    out->Set(p + "_qps",
             static_cast<double>(reads.size()) /
                 (steady[k].wall_s + cycles[k].wall_s),
             "1/s");
  }
  out->Set("update_p50_us", Percentile(updates, 0.5) / 1e3, "us");
  out->Set("rebuild_s", rebuild_sum / 3.0, "s");

  // Quality after a synchronous rebuild, against the final master state.
  Status st = live->index->RebuildNow();
  Status sc = live->card->RebuildNow();
  Status sb = live->bloom->RebuildNow();
  if (!st.ok() || !sc.ok() || !sb.ok()) tally->update_errors++;
  const sets::SetCollection final_card = live->card->SnapshotCollection();
  const baselines::InvertedIndex card_exact(final_card);
  std::vector<double> est, truth;
  for (const auto& q : in.card.queries) {
    est.push_back(live->card->Estimate(q.view()));
    truth.push_back(static_cast<double>(card_exact.Cardinality(q.view())));
  }
  out->Set("card_qerror_mean", MeanQError(est, truth), "ratio");
  const sets::SetCollection final_bloom = live->bloom->SnapshotCollection();
  const baselines::InvertedIndex bloom_exact(final_bloom);
  size_t fp = 0, negatives = 0;
  for (const auto& q : in.eval_neg.queries) {
    if (bloom_exact.Contains(q.view())) continue;  // inserted since
    ++negatives;
    fp += live->bloom->MayContain(q.view());
  }
  out->Set("bloom_fpr",
           static_cast<double>(fp) / static_cast<double>(std::max<size_t>(1, negatives)),
           "ratio");
  out->Set("struct_bytes", static_cast<double>(live->TotalBytes()), "bytes");
}

}  // namespace

void RunWorkload(const Config& cfg, const Inputs& inputs, Frozen* frozen,
                 Live* live, MetricSink* out, Tally* tally) {
  if (cfg.workload == "live") {
    RunLive(cfg, inputs, live, out, tally);
  } else {
    RunFrozen(cfg, inputs, frozen, out, tally);
  }
}

}  // namespace los::perfbench
