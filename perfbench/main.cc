// Repository benchmark: one closed-loop workload over the learned set
// index, cardinality estimator and Bloom filter at the paper's model size.
//
//   perfbench --workload point|fanin|served|live --seed N --seconds S
//             --trace 0|1 [--size full|tiny] [--trace-out PREFIX]
//
// Prints a human-readable table, then as its last line one JSON object
// with the run's counts and every metric it measured (run.py keeps the
// ones BENCHMARK.json names). Exit code 0 unless a build failed or an
// argument was bad.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "nn/ops.h"
#include "perfbench/workloads.h"

namespace {

using los::perfbench::Config;
using los::perfbench::MetricSink;

bool ParseArgs(int argc, char** argv, Config* cfg) {
  std::string size = "full";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg->workload = value;
    } else if (key == "--seed") {
      cfg->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      cfg->trace = value == "1";
    } else if (key == "--size") {
      size = value;
    } else if (key == "--trace-out") {
      cfg->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) return false;
  if (size != "full" && size != "tiny") return false;
  cfg->sizes = size == "tiny" ? los::perfbench::Sizes::Tiny()
                              : los::perfbench::Sizes::Full();
  const std::string& w = cfg->workload;
  return (w == "point" || w == "fanin" || w == "served" || w == "live") &&
         cfg->seconds > 0;
}

void PrintJson(const Config& cfg, const los::perfbench::Tally& tally,
               const MetricSink& metrics, bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ", \"attempted\": %llu, \"failed\": %llu, \"checks\": "
                "{\"index_wrong\": %llu, \"bloom_false_negatives\": %llu, "
                "\"serve_errors\": %llu, \"update_errors\": %llu}, "
                "\"workload\": \"%s\", \"seed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.index_wrong),
                static_cast<unsigned long long>(tally.bloom_false_neg),
                static_cast<unsigned long long>(tally.serve_errors),
                static_cast<unsigned long long>(tally.update_errors),
                cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed));
  out += buf;
  bool first = true;
  for (const auto& [name, vu] : metrics.values()) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace los::perfbench;
  Config cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload point|fanin|served|live --seed N "
                 "--seconds S --trace 0|1 [--size full|tiny] "
                 "[--trace-out PREFIX]\n");
    return 2;
  }
  const bool is_live = cfg.workload == "live";
  // The clients are the benchmark's parallelism; the nn kernel pool only
  // engages in training at these model sizes. On a 4-vCPU host it made
  // identical set-ups take 2.4-5.2 s (serially 1.5-2.0 s), so every
  // kernel runs on its caller's thread. Results are bit-identical either
  // way.
  los::nn::SetKernelThreading(false);

  // Set-up: generate the collection and build the structures, several
  // times; the median is setup_s and the last build is measured.
  Inputs inputs;
  std::unique_ptr<los::sets::SetCollection> collection;
  std::unique_ptr<Frozen> frozen;
  std::unique_ptr<Live> live;
  std::vector<double> setup_s;
  for (int r = 0; r < cfg.sizes.setup_repeats; ++r) {
    live.reset();
    frozen.reset();
    collection.reset();
    const auto t0 = std::chrono::steady_clock::now();
    collection = MakeCollection(cfg.sizes);
    if (is_live) {
      live = BuildLive(*collection, cfg.sizes);
    } else {
      frozen = BuildFrozen(*collection, cfg.sizes);
    }
    setup_s.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    if (frozen == nullptr && live == nullptr) return 1;
  }
  std::printf("set-ups (s):");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  std::sort(setup_s.begin(), setup_s.end());

  // Streams and exact answers, before anything is timed.
  inputs = MakeInputs(cfg.sizes, cfg.seed, std::move(collection));

  MetricSink metrics;
  Tally tally;
  metrics.Set("setup_s", setup_s[setup_s.size() / 2], "s");
  RunWorkload(cfg, inputs, frozen.get(), live.get(), &metrics, &tally);
  if (cfg.trace &&
      !RunLedger(cfg, inputs, frozen.get(), live.get(), &metrics, &tally)) {
    std::fprintf(stderr, "per-layer ledger failed\n");
    return 1;
  }

  bool finite = true;
  std::printf("%-40s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : metrics.values()) {
    std::printf("%-40s %16.6g  %s\n", name.c_str(), vu.first, vu.second.c_str());
    finite = finite && std::isfinite(vu.first);
  }
  std::printf("checks: attempted=%llu failed=%llu (index wrong %llu, bloom "
              "false negatives %llu, serve errors %llu, update errors %llu)\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.index_wrong),
              static_cast<unsigned long long>(tally.bloom_false_neg),
              static_cast<unsigned long long>(tally.serve_errors),
              static_cast<unsigned long long>(tally.update_errors));
  PrintJson(cfg, tally, metrics, finite && tally.failed() == 0);
  return 0;
}
