#ifndef LOS_BENCH_BENCH_UTIL_H_
#define LOS_BENCH_BENCH_UTIL_H_

// Shared helpers for the paper-reproduction bench binaries. Every bench
// prints the corresponding paper table/figure as text rows; dataset sizes
// default to a laptop-scale fraction of the paper's and are multiplied by
// the LOS_SCALE environment variable (e.g. LOS_SCALE=10 approaches the
// paper's sizes). LOS_EPOCHS overrides the per-model training epochs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/trainer.h"
#include "sets/generators.h"
#include "sets/subset_gen.h"

// The bench targets' build defines LOS_GIT_SHA here (bench/git_sha.cmake);
// other includers, such as perfbench, report "unknown".
#if __has_include("los_git_sha.h")
#include "los_git_sha.h"
#endif

namespace los::bench {

/// LOS_SCALE env var (default 1.0).
inline double EnvScale() {
  const char* s = std::getenv("LOS_SCALE");
  return s != nullptr ? std::atof(s) : 1.0;
}

/// LOS_EPOCHS env var (default `fallback`).
inline int EnvEpochs(int fallback) {
  const char* s = std::getenv("LOS_EPOCHS");
  return s != nullptr ? std::atoi(s) : fallback;
}

/// The host's CPU model (the first "model name" of /proc/cpuinfo, trimmed
/// and stripped of JSON string metacharacters, as perfbench reports it);
/// "unknown" where there is none.
inline std::string CpuModel() {
  std::string model;
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (model.empty() && std::fgets(line, sizeof(line), f) != nullptr) {
      const char* colon = std::strchr(line, ':');
      if (std::strncmp(line, "model name", 10) != 0 || colon == nullptr) {
        continue;
      }
      for (const char* c = colon + 1; *c != '\0'; ++c) {
        if (*c != '"' && *c != '\\') model += *c;
      }
      const size_t b = model.find_first_not_of(" \t\n");
      model = b == std::string::npos
                  ? ""
                  : model.substr(b, model.find_last_not_of(" \t\n") - b + 1);
    }
    std::fclose(f);
  }
  return model.empty() ? "unknown" : model;
}

/// Build + runtime provenance as a raw JSON object. Embedded in every
/// JsonRecord under "provenance" so a committed BENCH_*.json baseline
/// identifies the binary and machine shape that produced it — without
/// this, a regression diff cannot tell "code got slower" apart from
/// "different compiler / ISA / core count". `nproc` and `cpu_model` name
/// the host the way perfbench does; tools/bench_compare.py marks any
/// comparison whose records disagree on them (or lack them) as cross-host.
inline std::string ProvenanceJson() {
#ifdef LOS_GIT_SHA
  const char* sha = LOS_GIT_SHA;
#else
  const char* sha = "unknown";
#endif
#ifdef LOS_NATIVE_BUILD
  const char* native = "true";
#else
  const char* native = "false";
#endif
  std::string out = "{\"git_sha\":\"";
  out += sha;
  out += "\",\"compiler\":\"";
  out += __VERSION__;  // no quotes/backslashes in practice (gcc/clang)
  out += "\",\"native\":";
  out += native;
  char buf[64];
  const unsigned nproc = std::thread::hardware_concurrency();
  std::snprintf(buf, sizeof(buf),
                ",\"threads\":%u,\"scale\":%.6g,\"nproc\":%u,", nproc,
                EnvScale(), nproc);
  out += buf;
  out += "\"cpu_model\":\"" + CpuModel() + "\"}";
  return out;
}

/// Parses the shared bench flags `--trace[=FILE]` / `--trace-sample=N`
/// from a bench main's argv and, when requested, records spans for the
/// whole run. Call Checkpoint(registry) just before taking a dataset's
/// metrics snapshot: it folds the per-stage summary of the spans recorded
/// since the previous Checkpoint into the registry (so SetMetrics embeds
/// trace.* histograms covering just that dataset). Finish() writes the
/// whole run's Chrome trace — ring-bounded to the freshest
/// Tracer::kThreadBufferCapacity spans per thread — if FILE was given.
class BenchTraceSession {
 public:
  BenchTraceSession(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace") {
        enabled_ = true;
      } else if (arg.rfind("--trace=", 0) == 0) {
        enabled_ = true;
        path_ = arg.substr(8);
      } else if (arg.rfind("--trace-sample=", 0) == 0) {
        sample_ = std::strtoul(arg.c_str() + 15, nullptr, 10);
      }
    }
    if (enabled_) {
      Tracer::Global()->Reset();
      Tracer::Global()->set_sample_every(static_cast<uint32_t>(sample_));
      Tracer::Global()->set_enabled(true);
    }
  }

  bool enabled() const { return enabled_; }

  /// Folds the per-stage summary of spans recorded since the previous
  /// Checkpoint (or start) into `registry` and advances the window mark.
  void Checkpoint(MetricsRegistry* registry) {
    if (!enabled_) return;
    Tracer::Global()->SummaryTo(registry, mark_ns_);
    mark_ns_ = Tracer::NowNs();
  }

  /// Stops recording and writes the Chrome trace if a path was given.
  void Finish() {
    if (!enabled_) return;
    Tracer::Global()->set_enabled(false);
    if (!path_.empty()) {
      Status st = Tracer::Global()->WriteChromeTrace(path_);
      if (st.ok()) {
        std::printf("wrote trace to %s\n", path_.c_str());
      } else {
        std::fprintf(stderr, "trace write failed: %s\n",
                     st.ToString().c_str());
      }
    }
    enabled_ = false;
  }

 private:
  bool enabled_ = false;
  unsigned long sample_ = 1;
  uint64_t mark_ns_ = 0;
  std::string path_;
};

/// One benchmark dataset: generated stand-in plus the paper's name for the
/// dataset it models.
struct DatasetSpec {
  std::string name;        ///< our name ("rw-small")
  std::string paper_name;  ///< the paper's name ("RW-200k")
  sets::SetCollection collection;
};

/// The five evaluation datasets of Table 2, at bench scale (paper sizes
/// divided by ~33 at LOS_SCALE=1).
inline std::vector<DatasetSpec> BenchDatasets(bool include_large = true) {
  double scale = EnvScale();
  auto n = [scale](size_t base) {
    return static_cast<size_t>(base * scale) + 1;
  };
  std::vector<DatasetSpec> out;
  {
    sets::RwConfig c;
    c.num_sets = n(6000);
    c.num_unique = n(900);
    out.push_back({"rw-small", "RW-200k", GenerateRw(c)});
  }
  if (include_large) {
    sets::RwConfig c;
    c.num_sets = n(12000);
    c.num_unique = n(1850);
    c.seed = 43;
    out.push_back({"rw-mid", "RW-1.5M", GenerateRw(c)});
    sets::RwConfig c2;
    c2.num_sets = n(18000);
    c2.num_unique = n(2100);
    c2.seed = 44;
    out.push_back({"rw-large", "RW-3M", GenerateRw(c2)});
  }
  {
    sets::TweetsConfig c;
    c.num_sets = n(5700);
    c.num_unique = n(230);
    out.push_back({"tweets", "Tweets", GenerateTweets(c)});
  }
  {
    sets::SdConfig c;
    c.num_sets = n(3000);
    c.num_unique = n(170);
    out.push_back({"sd", "SD", GenerateSd(c)});
  }
  return out;
}

/// Subset-enumeration bound used by all benches (§7.1.1 limits generation
/// to small subset sizes; we default to 3 for bench runtime, the paper
/// uses up to 6).
inline sets::SubsetGenOptions BenchSubsetOptions() {
  sets::SubsetGenOptions opts;
  opts.max_subset_size = 3;
  opts.max_distinct_subsets = 100000;
  const char* s = std::getenv("LOS_MAX_SUBSET_SIZE");
  if (s != nullptr) opts.max_subset_size = std::strtoul(s, nullptr, 10);
  return opts;
}

/// Cardinality-task model preset (paper: 64-256 neurons).
inline core::CardinalityOptions CardinalityPreset(bool compressed,
                                                  bool hybrid) {
  core::CardinalityOptions opts;
  opts.model.compressed = compressed;
  opts.model.embed_dim = 8;
  opts.model.phi_hidden = {64};
  opts.model.rho_hidden = {64};
  opts.train.epochs = EnvEpochs(10);
  opts.train.batch_size = 512;
  opts.train.learning_rate = 3e-3f;
  opts.train.loss = core::LossKind::kMse;  // MSE on log targets (stable)
  opts.max_subset_size = BenchSubsetOptions().max_subset_size;
  opts.hybrid = hybrid;
  opts.keep_fraction = 0.9;  // Fig 6: evict above the 90th percentile
  return opts;
}

/// Index-task model preset (paper: 8-32 neurons).
inline core::IndexOptions IndexPreset(bool compressed, bool hybrid,
                                      double keep_fraction = 0.9) {
  core::IndexOptions opts;
  opts.model.compressed = compressed;
  opts.model.embed_dim = 8;
  opts.model.phi_hidden = {32};
  opts.model.rho_hidden = {32};
  opts.train.epochs = EnvEpochs(10);
  opts.train.batch_size = 512;
  opts.train.learning_rate = 3e-3f;
  opts.train.loss = core::LossKind::kMse;
  opts.max_subset_size = BenchSubsetOptions().max_subset_size;
  opts.hybrid = hybrid;
  opts.keep_fraction = keep_fraction;
  opts.error_range_length = 100.0;
  return opts;
}

/// One benchmark measurement as a machine-readable single-line JSON
/// record: a bench name, free-form config key/values, and the median,
/// 95th and 99th percentile of the accumulated timing samples:
///
///   {"bench":"index_train_epoch","threads":8,"batch":256,
///    "median_s":0.41,"p95_s":0.44,"p99_s":0.45,"samples":3}
///
/// Lines print to stdout (greppable by `"bench"`) and append verbatim to
/// any FILE* handed to Print, so sweeps can tee into a .json file.
class JsonRecord {
 public:
  explicit JsonRecord(std::string bench) : bench_(std::move(bench)) {}

  JsonRecord& Set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
    return *this;
  }
  JsonRecord& Set(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonRecord& Set(const std::string& key, int64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonRecord& Set(const std::string& key, int value) {
    return Set(key, static_cast<int64_t>(value));
  }
  JsonRecord& Set(const std::string& key, size_t value) {
    return Set(key, static_cast<int64_t>(value));
  }
  /// Inserts `json` verbatim as the value (must already be valid JSON).
  JsonRecord& SetRaw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  /// Embeds a metrics snapshot (as a nested JSON object) under "metrics".
  JsonRecord& SetMetrics(const MetricsSnapshot& snapshot) {
    return SetRaw("metrics", snapshot.ToJsonObject());
  }
  /// Embeds the build/runtime provenance object under "provenance".
  JsonRecord& SetProvenance() {
    return SetRaw("provenance", ProvenanceJson());
  }

  /// Adds one timing sample (seconds).
  JsonRecord& Add(double seconds) {
    samples_.push_back(seconds);
    return *this;
  }

  double Median() const { return Percentile(0.5); }
  double P95() const { return Percentile(0.95); }
  double P99() const { return Percentile(0.99); }

  /// The single-line JSON encoding (no trailing newline).
  std::string ToJson() const {
    std::string out = "{\"bench\":\"" + bench_ + "\"";
    for (const auto& [key, value] : fields_) {
      out += ",\"" + key + "\":" + value;
    }
    if (!samples_.empty()) {
      char buf[128];
      std::snprintf(
          buf, sizeof(buf),
          ",\"median_s\":%.6g,\"p95_s\":%.6g,\"p99_s\":%.6g,\"samples\":%zu",
          Median(), P95(), P99(), samples_.size());
      out += buf;
    }
    out += "}";
    return out;
  }

  /// Prints the record to stdout and, if given, appends it to `sink`.
  void Print(std::FILE* sink = nullptr) const {
    std::string line = ToJson();
    std::printf("%s\n", line.c_str());
    if (sink != nullptr) std::fprintf(sink, "%s\n", line.c_str());
  }

 private:
  double Percentile(double p) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    size_t i = static_cast<size_t>(p * static_cast<double>(sorted.size()));
    return sorted[std::min(i, sorted.size() - 1)];
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<double> samples_;
};

/// Prints the standard bench banner.
inline void Banner(const char* experiment, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s  (reproduces %s)\n", experiment, paper_ref);
  std::printf("LOS_SCALE=%.2f  (dataset sizes ~1/33 of the paper at 1.0)\n",
              EnvScale());
  std::printf("================================================================\n");
}

}  // namespace los::bench

#endif  // LOS_BENCH_BENCH_UTIL_H_
