#include "cli/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

#include "common/metrics.h"
#include "common/random.h"
#include "common/serialize.h"
#include "common/trace.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "monitor/healthz.h"
#include "monitor/monitor.h"
#include "sets/generators.h"
#include "sets/set_io.h"
#include "sets/subset_gen.h"
#include "sets/workload.h"

namespace los::cli {

namespace {

constexpr char kMagic[] = "LOSMODEL1";

/// What a model file contains: magic, task tag, dictionary, the structure,
/// and (for the index task) the collection it was built over.
struct TaskNames {
  static constexpr const char* kCardinality = "cardinality";
  static constexpr const char* kIndex = "index";
  static constexpr const char* kBloom = "bloom";
};

int Fail(std::ostream& out, const std::string& message) {
  out << "error: " << message << "\n";
  return 1;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// `los monitor`'s `--monitor-*` and threshold knobs. The defaults sample
/// densely and close the loop on drift alone; the accuracy thresholds
/// default to 0 (off).
monitor::MonitorOptions MonitorOptsFromArgs(const ArgParser& args) {
  monitor::MonitorOptions m;
  m.sample_every = static_cast<size_t>(args.GetInt("monitor-sample-every", 8));
  m.window = static_cast<size_t>(args.GetInt("monitor-window", 512));
  m.publish_every =
      static_cast<size_t>(args.GetInt("monitor-publish-every", 16));
  m.min_samples =
      static_cast<size_t>(args.GetInt("monitor-min-samples", 48));
  m.drift_threshold = args.GetDouble("drift-threshold", 0.25);
  m.qerror_p95_threshold = args.GetDouble("qerror-threshold", 0.0);
  m.position_error_p95_threshold =
      args.GetDouble("position-error-threshold", 0.0);
  m.miss_rate_threshold = args.GetDouble("miss-rate-threshold", 0.0);
  m.fpr_threshold = args.GetDouble("fpr-threshold", 0.0);
  m.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  return m;
}

void PrintMonitorLine(std::ostream& out, const std::string& label,
                      const monitor::MonitorBase& mon,
                      const std::string& quality) {
  out << label << ": " << mon.samples() << " shadow samples, drift "
      << Fmt(mon.drift_score()) << ", " << quality
      << (mon.triggered() ? " [retrain triggered]" : "") << "\n";
}

std::string CardinalityQuality(const monitor::CardinalityMonitor& mon) {
  auto s = mon.WindowStats();
  return "qerror p50 " + Fmt(s.p50) + " p95 " + Fmt(s.p95) + " p99 " +
         Fmt(s.p99);
}

std::string IndexQuality(const monitor::IndexMonitor& mon) {
  auto s = mon.PositionErrorStats();
  return "position error p95 " + Fmt(s.p95) + ", misses " +
         std::to_string(mon.misses());
}

std::string BloomQuality(const monitor::BloomMonitor& mon) {
  return "fpr estimate " + Fmt(mon.FprEstimate()) + " (" +
         std::to_string(mon.probes()) + " probes)";
}

int CmdGenerate(const ArgParser& args, std::ostream& out) {
  std::string dataset = args.GetString("dataset");
  std::string output = args.GetString("output");
  if (dataset.empty() || output.empty()) {
    return Fail(out, "generate requires --dataset and --output");
  }
  double scale = args.GetDouble("scale", 0.1);
  uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  auto collection = sets::GenerateNamedDataset(dataset, scale, seed);
  if (!collection.ok()) return Fail(out, collection.status().ToString());
  // Ids are written as numeric tokens via an identity dictionary.
  sets::Dictionary dict;
  std::string token;
  for (sets::ElementId e = 0; e < collection->universe_size(); ++e) {
    token = "e";
    token += std::to_string(e);
    dict.GetOrAdd(token);
  }
  Status st = sets::WriteSetsFile(output, *collection, dict);
  if (!st.ok()) return Fail(out, st.ToString());
  out << "wrote " << collection->size() << " sets ("
      << collection->CountDistinctElements() << " distinct elements) to "
      << output << "\n";
  return 0;
}

int CmdStats(const ArgParser& args, std::ostream& out) {
  std::string input = args.GetString("input");
  if (input.empty()) return Fail(out, "stats requires --input");
  auto data = sets::ReadSetsFile(input);
  if (!data.ok()) return Fail(out, data.status().ToString());
  const auto& c = data->collection;
  auto [lo, hi] = c.SetSizeRange();
  out << "sets:              " << c.size() << "\n"
      << "distinct elements: " << c.CountDistinctElements() << "\n"
      << "total elements:    " << c.total_elements() << "\n"
      << "set sizes:         " << lo << ".." << hi << "\n"
      << "memory:            " << c.MemoryBytes() / 1024.0 << " KiB\n";
  return 0;
}

core::TrainConfig TrainFromArgs(const ArgParser& args) {
  core::TrainConfig train;
  train.epochs = static_cast<int>(args.GetInt("epochs", 20));
  train.batch_size = static_cast<int>(args.GetInt("batch-size", 256));
  train.learning_rate =
      static_cast<float>(args.GetDouble("learning-rate", 3e-3));
  train.loss = core::LossKind::kMse;
  return train;
}

int CmdBuild(const ArgParser& args, std::ostream& out) {
  std::string task = args.GetString("task");
  std::string input = args.GetString("input");
  std::string output = args.GetString("output");
  if (task.empty() || input.empty() || output.empty()) {
    return Fail(out, "build requires --task, --input and --output");
  }
  auto data = sets::ReadSetsFile(input);
  if (!data.ok()) return Fail(out, data.status().ToString());
  if (data->collection.empty()) return Fail(out, "input has no sets");

  const bool compressed = args.HasFlag("compressed");
  const bool hybrid = args.HasFlag("hybrid");
  const size_t max_subset =
      static_cast<size_t>(args.GetInt("max-subset-size", 3));
  const double keep = args.GetDouble("keep-fraction", 0.9);

  BinaryWriter w;
  w.WriteString(kMagic);
  w.WriteString(task);
  data->dictionary.Save(&w);

  if (task == TaskNames::kCardinality) {
    core::CardinalityOptions opts;
    opts.model.compressed = compressed;
    opts.train = TrainFromArgs(args);
    opts.max_subset_size = max_subset;
    opts.hybrid = hybrid;
    opts.keep_fraction = keep;
    auto est = core::LearnedCardinalityEstimator::Build(data->collection,
                                                        opts);
    if (!est.ok()) return Fail(out, est.status().ToString());
    est->Save(&w);
    out << "built cardinality estimator: model "
        << est->ModelBytes() / 1024.0 << " KiB, aux "
        << est->AuxBytes() / 1024.0 << " KiB, train "
        << est->train_seconds() << "s, avg train q-error "
        << est->final_train_qerror() << "\n";
  } else if (task == TaskNames::kIndex) {
    core::IndexOptions opts;
    opts.model.compressed = compressed;
    opts.train = TrainFromArgs(args);
    opts.max_subset_size = max_subset;
    opts.hybrid = hybrid;
    opts.keep_fraction = keep;
    auto index = core::LearnedSetIndex::Build(data->collection, opts);
    if (!index.ok()) return Fail(out, index.status().ToString());
    // The index needs its collection at query time; bundle it.
    data->collection.Save(&w);
    index->Save(&w);
    out << "built set index: model " << index->ModelBytes() / 1024.0
        << " KiB, aux " << index->AuxBytes() / 1024.0 << " KiB, err "
        << index->ErrBytes() / 1024.0 << " KiB, outliers "
        << index->num_outliers() << "\n";
  } else if (task == TaskNames::kBloom) {
    core::BloomOptions opts;
    opts.model.compressed = compressed;
    core::TrainConfig train = TrainFromArgs(args);
    opts.train = train;
    opts.train.loss = core::LossKind::kBce;
    opts.max_subset_size = max_subset;
    auto lbf = core::LearnedBloomFilter::Build(data->collection, opts);
    if (!lbf.ok()) return Fail(out, lbf.status().ToString());
    lbf->Save(&w);
    out << "built learned bloom filter: model "
        << lbf->ModelBytes() / 1024.0 << " KiB, backup "
        << lbf->BackupBytes() / 1024.0 << " KiB ("
        << lbf->num_false_negatives() << " false negatives)\n";
  } else {
    return Fail(out, "unknown task: " + task);
  }
  Status st = w.WriteToFile(output);
  if (!st.ok()) return Fail(out, st.ToString());
  out << "saved to " << output << "\n";
  return 0;
}

int CmdQuery(const ArgParser& args, std::ostream& out) {
  std::string task = args.GetString("task");
  std::string model_path = args.GetString("model");
  std::vector<std::string> queries = args.GetAll("query");
  if (task.empty() || model_path.empty() || queries.empty()) {
    return Fail(out, "query requires --task, --model and --query");
  }
  auto reader = BinaryReader::FromFile(model_path);
  if (!reader.ok()) return Fail(out, reader.status().ToString());
  auto magic = reader->ReadString();
  if (!magic.ok() || *magic != kMagic) {
    return Fail(out, "not a model file: " + model_path);
  }
  auto stored_task = reader->ReadString();
  if (!stored_task.ok()) return Fail(out, stored_task.status().ToString());
  if (*stored_task != task) {
    return Fail(out, "model was built for task '" + *stored_task +
                         "', not '" + task + "'");
  }
  auto dict = sets::Dictionary::Load(&*reader);
  if (!dict.ok()) return Fail(out, dict.status().ToString());

  auto parse = [&](const std::string& line)
      -> Result<std::vector<sets::ElementId>> {
    return sets::ParseQueryLine(line, *dict);
  };

  if (task == TaskNames::kCardinality) {
    auto est = core::LearnedCardinalityEstimator::Load(&*reader);
    if (!est.ok()) return Fail(out, est.status().ToString());
    for (const auto& line : queries) {
      auto q = parse(line);
      if (!q.ok()) {
        out << line << " -> 0 (contains unseen element)\n";
        continue;
      }
      out << line << " -> "
          << est->Estimate({q->data(), q->size()}) << "\n";
    }
    return 0;
  }
  if (task == TaskNames::kIndex) {
    // Index bundles its collection; keep it alive next to the index.
    auto collection = sets::SetCollection::Load(&*reader);
    if (!collection.ok()) return Fail(out, collection.status().ToString());
    auto index = core::LearnedSetIndex::Load(&*reader, *collection);
    if (!index.ok()) return Fail(out, index.status().ToString());
    for (const auto& line : queries) {
      auto q = parse(line);
      if (!q.ok()) {
        out << line << " -> not found (contains unseen element)\n";
        continue;
      }
      int64_t pos = index->Lookup({q->data(), q->size()});
      if (pos < 0) {
        out << line << " -> not found\n";
      } else {
        out << line << " -> position " << pos << "\n";
      }
    }
    return 0;
  }
  if (task == TaskNames::kBloom) {
    auto lbf = core::LearnedBloomFilter::Load(&*reader);
    if (!lbf.ok()) return Fail(out, lbf.status().ToString());
    for (const auto& line : queries) {
      auto q = parse(line);
      if (!q.ok()) {
        out << line << " -> absent (contains unseen element)\n";
        continue;
      }
      out << line << " -> "
          << (lbf->MayContain({q->data(), q->size()}) ? "maybe present"
                                                      : "absent")
          << "\n";
    }
    return 0;
  }
  return Fail(out, "unknown task: " + task);
}

/// Uniform random queries over a `vocab`-element id space, sizes 1..3,
/// deterministic given the seed: the monitor demo's drifted traffic.
std::vector<sets::Query> SyntheticQueries(size_t vocab, size_t n,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<sets::Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    sets::Query q;
    size_t size = 1 + rng.Uniform(3);
    for (size_t j = 0; j < size; ++j) {
      q.elements.push_back(
          static_cast<sets::ElementId>(rng.Uniform(std::max<size_t>(vocab, 1))));
    }
    std::sort(q.elements.begin(), q.elements.end());
    q.elements.erase(std::unique(q.elements.begin(), q.elements.end()),
                     q.elements.end());
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Random replacement/insert payloads for the monitor demo's drifted ingest
/// wave: sets of 3..8 elements over twice the input vocabulary, so roughly
/// half the streamed elements are novel and the absorb path has real work
/// to do.
std::vector<sets::ElementId> UpdatePayload(size_t vocab, Rng* rng) {
  std::vector<sets::ElementId> elems;
  size_t size = 3 + rng->Uniform(6);
  for (size_t j = 0; j < size; ++j) {
    elems.push_back(static_cast<sets::ElementId>(
        rng->Uniform(std::max<size_t>(2 * vocab, 2))));
  }
  sets::Canonicalize(&elems);
  return elems;
}

/// Three-phase closed-loop quality demo: (A) in-distribution traffic with
/// drift near zero, (B) a drifted ingest wave plus drifted queries that
/// push the PSI drift score (and accuracy stats) over threshold so the
/// monitor's latched trigger requests a quality rebuild, and (C) the same
/// drifted workload after the retrain, with the monitor rebound to the new
/// training distribution by the engine's rebuild listener.
int CmdMonitor(const ArgParser& args, std::ostream& out) {
  const std::string task = args.GetString("task", TaskNames::kCardinality);
  const std::string input = args.GetString("input");
  if (input.empty()) return Fail(out, "monitor requires --input");
  const size_t phase_queries =
      static_cast<size_t>(args.GetInt("phase-queries", 3000));
  const size_t updates = static_cast<size_t>(args.GetInt("updates", 300));
  const size_t max_subset =
      static_cast<size_t>(args.GetInt("max-subset-size", 2));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  auto data = sets::ReadSetsFile(input);
  if (!data.ok()) return Fail(out, data.status().ToString());
  if (data->collection.empty()) return Fail(out, "input has no sets");
  const size_t num_sets = data->collection.size();
  const size_t vocab = data->dictionary.size();

  const monitor::MonitorOptions mopts = MonitorOptsFromArgs(args);

  // Retrains happen only when the monitor asks for one: the engine's
  // count-based trigger is off.
  core::UpdatableOptions update_opts;
  update_opts.rebuild_after_absorbed = 0;
  update_opts.trainer_nice = 10;

  core::TrainConfig train = TrainFromArgs(args);
  train.epochs = static_cast<int>(args.GetInt("epochs", 4));

  // In-distribution traffic = uniform draws from the enumerated training
  // subsets, exactly the distribution the drift reference is bound to.
  sets::SubsetGenOptions gen;
  gen.max_subset_size = max_subset;
  Rng qrng(seed);
  auto sample_in_dist = [&](const sets::SetCollection& c) {
    auto subsets = sets::EnumerateLabeledSubsets(c, gen);
    return sets::SampleQueries(subsets, sets::QueryLabel::kCardinality,
                               phase_queries, &qrng);
  };
  auto in_dist = sample_in_dist(data->collection);
  // Drifted traffic: uniform subsets over twice the vocabulary, so half
  // the queried elements were never seen at train time.
  auto drifted = SyntheticQueries(2 * vocab, phase_queries, seed + 7);

  out << "monitor " << task << ": " << num_sets << " sets, "
      << phase_queries << " queries per phase, " << updates
      << " drifted updates, 1-in-" << mopts.sample_every
      << " shadow sampling, drift threshold " << mopts.drift_threshold
      << "\n";

  // Shared phase runner; `observe` pushes one query through the live
  // structure and its monitor.
  auto run = [&](monitor::MonitorBase& mon,
                 const std::function<void(const sets::Query&)>& observe,
                 const std::function<std::string()>& quality,
                 const std::function<void(size_t)>& apply,
                 const std::function<sets::SetCollection()>& snapshot,
                 const std::function<uint64_t()>& rebuilds,
                 const std::function<void()>& wait) {
    for (const auto& q : in_dist) observe(q);
    PrintMonitorLine(out, "phase A in-distribution", mon, quality());

    for (size_t i = 0; i < updates; ++i) apply(i);
    // Re-ground truth once after the wave so drifted answers are judged
    // against the post-ingest collection (the drift reference stays put,
    // so the PSI keeps measuring distance from the *trained* workload).
    mon.RefreshOracle(snapshot());
    for (const auto& q : drifted) observe(q);
    PrintMonitorLine(out, "phase B drifted", mon, quality());
    wait();
    out << "quality rebuilds completed: " << rebuilds() << "\n";

    // Post-retrain the rebuild listener has rebound the monitor to the new
    // training distribution; traffic sampled from the current collection
    // should score near-zero drift again.
    auto recovered = sample_in_dist(snapshot());
    for (const auto& q : recovered) observe(q);
    PrintMonitorLine(out, "phase C post-retrain", mon, quality());

    auto report = monitor::Healthz(MetricsRegistry::Global()->Snapshot());
    out << "healthz: " << report.ToJson() << "\n";
    return 0;
  };

  Rng urng(seed + 1);
  if (task == TaskNames::kCardinality) {
    core::UpdatableCardinality::Options opts;
    opts.cardinality.train = train;
    opts.cardinality.max_subset_size = max_subset;
    opts.update = update_opts;
    auto live = core::UpdatableCardinality::Build(data->collection, opts);
    if (!live.ok()) return Fail(out, live.status().ToString());

    // `mon` is destroyed before `live`, but a late quality trigger can leave
    // a rebuild running when run() returns, and its listener refreshes
    // `mon` on the trainer thread: each branch joins the trainer (Stop)
    // before leaving scope.
    monitor::CardinalityMonitor mon(mopts);
    mon.SetRetrainCallback(
        [&] { (*live)->engine()->RequestQualityRebuild(); });
    (*live)->engine()->SetRebuildListener(
        [&] { mon.Refresh((*live)->SnapshotCollection(), max_subset); });
    mon.Refresh((*live)->SnapshotCollection(), max_subset);

    const int rc = run(
        mon,
        [&](const sets::Query& q) {
          mon.Observe(q.view(), (*live)->Estimate(q.view()));
        },
        [&] { return CardinalityQuality(mon); },
        [&](size_t) { (*live)->Insert(UpdatePayload(vocab, &urng)); },
        [&] { return (*live)->SnapshotCollection(); },
        [&] { return (*live)->engine()->rebuilds(); },
        [&] { (*live)->WaitForRebuilds(); });
    (*live)->engine()->Stop();
    return rc;
  }
  if (task == TaskNames::kIndex) {
    core::UpdatableSetIndex::Options opts;
    opts.index.train = train;
    opts.index.max_subset_size = max_subset;
    opts.publish_after_updates = 16;
    opts.update = update_opts;
    auto live = core::UpdatableSetIndex::Build(data->collection, opts);
    if (!live.ok()) return Fail(out, live.status().ToString());

    monitor::IndexMonitor mon(mopts);
    mon.SetLookupFn([&](sets::SetView q,
                        core::LearnedSetIndex::LookupStats* stats) {
      auto pin = (*live)->engine()->Acquire();
      return pin->index->ProbeLookup(q, stats);
    });
    mon.SetRetrainCallback(
        [&] { (*live)->engine()->RequestQualityRebuild(); });
    (*live)->engine()->SetRebuildListener(
        [&] { mon.Refresh((*live)->SnapshotCollection(), max_subset); });
    mon.Refresh((*live)->SnapshotCollection(), max_subset);

    const int rc = run(
        mon,
        [&](const sets::Query& q) {
          (*live)->Lookup(q.view());
          mon.Observe(q.view());
        },
        [&] { return IndexQuality(mon); },
        [&](size_t i) {
          (void)(*live)->Update(i % num_sets, UpdatePayload(vocab, &urng));
        },
        // Lookups scan the last published generation, which trails the
        // master collection by up to publish_after_updates updates; the
        // oracle is grounded on that generation so lag is not a miss.
        [&] { return *(*live)->engine()->Acquire()->collection; },
        [&] { return (*live)->engine()->rebuilds(); },
        [&] { (*live)->WaitForRebuilds(); });
    (*live)->engine()->Stop();
    return rc;
  }
  if (task == TaskNames::kBloom) {
    core::UpdatableBloom::Options opts;
    opts.bloom.train = train;
    opts.bloom.train.loss = core::LossKind::kBce;
    opts.bloom.max_subset_size = max_subset;
    opts.update = update_opts;
    auto live = core::UpdatableBloom::Build(data->collection, opts);
    if (!live.ok()) return Fail(out, live.status().ToString());

    monitor::BloomMonitor mon(mopts);
    mon.SetProbeFn([&](sets::SetView q) {
      return (*live)->Acquire()->ProbeMayContain(q);
    });
    mon.SetRetrainCallback(
        [&] { (*live)->engine()->RequestQualityRebuild(); });
    (*live)->engine()->SetRebuildListener(
        [&] { mon.Refresh((*live)->SnapshotCollection(), max_subset); });
    mon.Refresh((*live)->SnapshotCollection(), max_subset);

    const int rc = run(
        mon,
        [&](const sets::Query& q) {
          (*live)->MayContain(q.view());
          mon.Observe(q.view());
        },
        [&] { return BloomQuality(mon); },
        [&](size_t) { (*live)->Insert(UpdatePayload(vocab, &urng)); },
        [&] { return (*live)->SnapshotCollection(); },
        [&] { return (*live)->engine()->rebuilds(); },
        [&] { (*live)->WaitForRebuilds(); });
    (*live)->engine()->Stop();
    return rc;
  }
  return Fail(out, "unknown task: " + task);
}

constexpr char kUsage[] =
    "usage: los <command> [--key=value ...]\n"
    "commands:\n"
    "  generate --dataset=<name> --output=F [--scale=S] [--seed=N]\n"
    "  stats    --input=F\n"
    "  build    --task=<cardinality|index|bloom> --input=F --output=M\n"
    "           [--compressed] [--hybrid] [--epochs=N]\n"
    "           [--max-subset-size=K] [--keep-fraction=P]\n"
    "  query    --task=<...> --model=M --query=\"a b c\" [--query=...]\n"
    "  monitor  --task=<...> --input=F [--phase-queries=N] [--updates=N]\n"
    "           [--monitor-sample-every=N] [--drift-threshold=X]\n"
    "           [--qerror-threshold=X] [--fpr-threshold=X]\n"
    "           [--miss-rate-threshold=X] [--epochs=N]\n"
    "           [--max-subset-size=K] [--seed=N]\n"
    "           three-phase drift demo: in-distribution traffic, a drifted\n"
    "           ingest wave that trips the monitor's retrain trigger, and\n"
    "           post-retrain recovery; prints a healthz report\n"
    "options:\n"
    "  --metrics  after any command, dump serving-path metrics (one JSON\n"
    "             object per line) collected during the run\n"
    "  --metrics-out=F      write the same JSON-lines metrics dump to F\n"
    "                       (atomic tmp+rename)\n"
    "  --openmetrics-out=F  write an OpenMetrics / Prometheus text\n"
    "                       exposition of the metrics to F\n"
    "  --trace-out=F    record spans during the command and write a Chrome\n"
    "                   trace_event JSON to F (open in chrome://tracing or\n"
    "                   https://ui.perfetto.dev); also merges a per-stage\n"
    "                   trace.* summary into the --metrics output\n"
    "  --trace-sample=N sample 1 in N serving-path queries (default 1;\n"
    "                   training spans are always recorded)\n";

}  // namespace

ArgParser::ArgParser(const std::vector<std::string>& args) {
  for (const auto& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        kv_.emplace_back(arg.substr(2), "");
      } else {
        kv_.emplace_back(arg.substr(2, eq - 2), arg.substr(eq + 1));
      }
    } else if (command_.empty()) {
      command_ = arg;
    }
  }
}

std::string ArgParser::GetString(const std::string& key,
                                 const std::string& fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return fallback;
}

int64_t ArgParser::GetInt(const std::string& key, int64_t fallback) const {
  std::string v = GetString(key);
  if (v.empty()) return fallback;
  return std::strtoll(v.c_str(), nullptr, 10);
}

double ArgParser::GetDouble(const std::string& key, double fallback) const {
  std::string v = GetString(key);
  if (v.empty()) return fallback;
  return std::strtod(v.c_str(), nullptr);
}

bool ArgParser::HasFlag(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

std::vector<std::string> ArgParser::GetAll(const std::string& key) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (k == key) out.push_back(v);
  }
  return out;
}

std::vector<std::string> ArgParser::UnknownKeys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      out.push_back(k);
    }
  }
  return out;
}

int RunCli(const std::vector<std::string>& args, std::ostream& out) {
  ArgParser parser(args);
  const std::string& cmd = parser.command();
  if (cmd.empty() || cmd == "help") {
    out << kUsage;
    return cmd.empty() ? 1 : 0;
  }
  const std::string trace_out = parser.GetString("trace-out");
  if (!trace_out.empty()) {
    Tracer::Global()->Reset();
    Tracer::Global()->set_sample_every(
        static_cast<uint32_t>(parser.GetInt("trace-sample", 1)));
    Tracer::Global()->set_enabled(true);
  }
  int rc = -1;
  if (cmd == "generate") {
    rc = CmdGenerate(parser, out);
  } else if (cmd == "stats") {
    rc = CmdStats(parser, out);
  } else if (cmd == "build") {
    rc = CmdBuild(parser, out);
  } else if (cmd == "query") {
    rc = CmdQuery(parser, out);
  } else if (cmd == "monitor") {
    rc = CmdMonitor(parser, out);
  } else {
    out << "unknown command: " << cmd << "\n" << kUsage;
    return 1;
  }
  if (!trace_out.empty()) {
    Tracer::Global()->set_enabled(false);
    // Fold the per-stage summary in before the --metrics dump below so the
    // trace.* histograms ride along with the serving metrics.
    Tracer::Global()->SummaryTo(MetricsRegistry::Global());
    Status st = Tracer::Global()->WriteChromeTrace(trace_out);
    if (!st.ok()) {
      out << "error: " << st.ToString() << "\n";
      if (rc == 0) rc = 1;
    } else {
      out << "wrote trace to " << trace_out << "\n";
    }
  }
  const std::string metrics_out = parser.GetString("metrics-out");
  const std::string openmetrics_out = parser.GetString("openmetrics-out");
  if (parser.HasFlag("metrics") || !metrics_out.empty() ||
      !openmetrics_out.empty()) {
    MetricsSnapshot snap = MetricsRegistry::Global()->Snapshot();
    if (parser.HasFlag("metrics")) out << snap.ToJsonLines();
    auto write = [&](const std::string& path, const std::string& content,
                     const char* what) {
      Status st = WriteTextFileAtomic(path, content);
      if (!st.ok()) {
        out << "error: " << st.ToString() << "\n";
        if (rc == 0) rc = 1;
      } else {
        out << "wrote " << what << " to " << path << "\n";
      }
    };
    if (!metrics_out.empty()) {
      write(metrics_out, snap.ToJsonLines(), "metrics");
    }
    if (!openmetrics_out.empty()) {
      write(openmetrics_out, snap.ToOpenMetrics(), "OpenMetrics exposition");
    }
  }
  return rc;
}

}  // namespace los::cli
