#ifndef LOS_PERFBENCH_WORKLOADS_H_
#define LOS_PERFBENCH_WORKLOADS_H_

// Shared pieces of the repository benchmark: sizes, the generated inputs
// with their exact answers, the three learned structures (frozen and
// updatable), the closed-loop client runner and the metric sink. See
// README.md in this directory for what each workload measures and why.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/inverted_index.h"
#include "common/metrics.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "core/updatable.h"
#include "serve/serving.h"
#include "sets/set_collection.h"
#include "sets/workload.h"

namespace los::perfbench {

/// Data, model-training and phase sizes. `Full()` is what the benchmark
/// command runs; `Tiny()` is the self-test size. README.md ("Inputs")
/// gives the source of every full-size figure.
struct Sizes {
  size_t num_sets = 0;        ///< RW-like collection size
  size_t num_unique = 0;      ///< collection universe
  size_t max_subset_size = 3; ///< query subsets have 1..3 elements
  int epochs = 0;             ///< training epochs of every model
  size_t stream = 0;          ///< queries per stream (and Bloom negatives)
  size_t eval_negatives = 0;  ///< fixed Bloom negative set for bloom_fpr
  size_t num_deltas = 0;      ///< live update stream length
  int setup_repeats = 0;      ///< set-ups timed per run (median reported)
  /// Live rebuild triggers (absorbed subsets for the index and the Bloom
  /// filter, inserted sets for the cardinality estimator) and write
  /// shares (one update per this many operations), per structure in the
  /// order index, cardinality, Bloom.
  size_t rebuild_after[3] = {0, 0, 0};
  size_t write_every[3] = {0, 0, 0};

  static Sizes Full();
  static Sizes Tiny();
};

/// Everything one run needs, parsed from the command line.
struct Config {
  std::string workload;  ///< point | fanin | served | live
  uint64_t seed = 1;
  double seconds = 0.0;  ///< measured time, split over the three structures
  bool trace = false;    ///< run the per-layer ledger after the workload
  std::string trace_out; ///< Chrome trace file written by the ledger
  Sizes sizes;

  /// Closed-loop clients on the read path.
  int readers() const {
    return workload == "fanin" || workload == "served" ? 3 : 1;
  }
};

/// Name -> (value, unit). The binary prints all of them; run.py keeps the
/// ones BENCHMARK.json names for the requested mode.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  const std::map<std::string, std::pair<double, std::string>>& values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operation accounting for the result line.
struct Tally {
  uint64_t attempted = 0;
  uint64_t index_wrong = 0;       ///< answer != exact first position
  uint64_t bloom_false_neg = 0;   ///< a member reported absent
  uint64_t serve_errors = 0;      ///< rejected or errored requests
  uint64_t update_errors = 0;     ///< failed Update/Insert calls

  uint64_t failed() const {
    return index_wrong + bloom_false_neg + serve_errors + update_errors;
  }
};

/// One query stream with exact answers computed before any timing.
struct Stream {
  std::vector<sets::Query> queries;  ///< truth = exact answer
};

/// The generated inputs: a fixed RW-like collection (the "dataset"), the
/// seeded query streams and the drifted update stream.
struct Inputs {
  std::unique_ptr<sets::SetCollection> collection;
  Stream index;     ///< truth = first containing position
  Stream card;      ///< truth = exact cardinality
  Stream bloom;     ///< positives (truth 1) interleaved with negatives (0)
  Stream eval_neg;  ///< fixed negative set (truth 0), not seeded
  /// Live updates: contents from a 2x-wider universe. Index update u
  /// replaces set u mod |collection| with delta u.
  std::vector<std::vector<sets::ElementId>> deltas;
};

/// The collection every structure is built over. Fixed, so model quality
/// and structure sizes do not move with the workload seed.
std::unique_ptr<sets::SetCollection> MakeCollection(const Sizes& sizes);

/// Seeded streams, ground truth and update stream for `collection`.
Inputs MakeInputs(const Sizes& sizes, uint64_t seed,
                  std::unique_ptr<sets::SetCollection> collection);

/// Build options: the paper-sized presets of bench/bench_util.h with the
/// benchmark's epoch count and subset bound.
core::IndexOptions IndexOpts(const Sizes& sizes);
core::CardinalityOptions CardOpts(const Sizes& sizes);
core::BloomOptions BloomOpts(const Sizes& sizes);

/// The three learned structures as the direct and served paths use them.
struct Frozen {
  MetricsRegistry registry;  ///< the structures' index.*/cardinality.*/bloom.*
  std::unique_ptr<core::LearnedSetIndex> index;
  std::unique_ptr<core::LearnedCardinalityEstimator> card;
  std::unique_ptr<core::LearnedBloomFilter> bloom;

  size_t TotalBytes() const {
    return index->TotalBytes() + card->TotalBytes() + bloom->TotalBytes();
  }
};
std::unique_ptr<Frozen> BuildFrozen(const sets::SetCollection& collection,
                                    const Sizes& sizes);

/// The three updatable wrappers the live workload writes to.
struct Live {
  MetricsRegistry registry;  ///< updatable.* plus the generations' metrics
  std::unique_ptr<core::UpdatableSetIndex> index;
  std::unique_ptr<core::UpdatableCardinality> card;
  std::unique_ptr<core::UpdatableBloom> bloom;
  /// Updates streamed so far per structure (index, card, bloom); a later
  /// run on the same wrappers resumes the update stream there.
  size_t deltas_used[3] = {0, 0, 0};

  size_t TotalBytes() const;
};
std::unique_ptr<Live> BuildLive(const sets::SetCollection& collection,
                                const Sizes& sizes);

/// The default serving configuration (`serve::ServeOptions{}`, one shard)
/// over the frozen structures or the live wrappers.
struct Services {
  MetricsRegistry registry;  ///< serve.<index|cardinality|bloom>.*
  std::unique_ptr<serve::IndexService> index;
  std::unique_ptr<serve::CardinalityService> card;
  std::unique_ptr<serve::BloomService> bloom;

  /// Serves `live` if it is not null, else `frozen` (whose index serves
  /// `collection`). False if a service could not be created.
  bool Create(Frozen* frozen, Live* live, const sets::SetCollection& collection);
  void Shutdown();
  /// Requests the services rejected.
  uint64_t Rejected();
};

/// The read path a workload's clients use: the served path if `served` is
/// set, else the live wrappers if `live` is set, else direct calls.
struct ReadPath {
  core::LearnedSetIndex* index = nullptr;
  core::LearnedCardinalityEstimator* card = nullptr;
  core::LearnedBloomFilter* bloom = nullptr;
  Services* served = nullptr;
  Live* live = nullptr;

  /// One read of structure k (0 index, 1 cardinality, 2 Bloom). The answer
  /// as a double: first position, estimate, or membership as 1/0. A served
  /// request that errors throws.
  double Read(int k, const sets::Query& q) const;
};

/// Per-client latency samples of one stream in a closed-loop phase.
struct PhaseResult {
  std::vector<std::vector<float>> latency_ns;  ///< per client
  double wall_s = 0.0;
  uint64_t ops = 0;

  std::vector<float> Merged() const;
  double Qps() const { return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0; }
};

/// Time slice of RunInterleaved. The host's speed drifts over seconds;
/// rotating the streams every few milliseconds gives each one the same
/// share of every host state, so their figures move together.
inline constexpr double kSliceSeconds = 0.02;

/// Runs `clients` closed-loop threads for `seconds`, rotating all of them
/// together through the streams (`n[k]` queries each) in kSliceSeconds
/// slices. Client c starts stream k at position c * n[k] / clients and
/// walks it cyclically; `op(k, client, position)` issues one request and
/// is timed. Each result's wall_s is its stream's share of the phase.
std::vector<PhaseResult> RunInterleaved(
    int clients, double seconds, const std::vector<size_t>& n,
    const std::function<void(int, int, size_t)>& op);

/// RunInterleaved over one stream.
PhaseResult RunClosedLoop(int clients, double seconds, size_t n,
                          const std::function<void(int, size_t)>& op);

/// Percentile (0..1) of `v` in the units stored; sorts a copy.
double Percentile(std::vector<float> v, double p);

/// Runs one workload (untraced) over the built structures (`frozen` for
/// point/fanin/served, `live` for live) and records its end-to-end metrics.
void RunWorkload(const Config& cfg, const Inputs& inputs, Frozen* frozen,
                 Live* live, MetricSink* out, Tally* tally);

/// The traced per-layer ledger (ledger.cc), run after RunWorkload in the
/// same process when --trace 1. Every workload reports every layer, so it
/// builds the updatable wrappers (untimed) when `live` is null.
bool RunLedger(const Config& cfg, const Inputs& inputs, Frozen* frozen,
               Live* live, MetricSink* out, Tally* tally);

/// Live-workload runner for one structure, shared with the ledger: one
/// whole rebuild cycle, then reads until `seconds` have passed.
struct LiveResult {
  std::vector<float> read_steady_ns;
  std::vector<float> read_during_rebuild_ns;
  std::vector<float> update_ns;
  double rebuild_s = 0.0;  ///< threshold crossed -> new generation seen
  double wall_s = 0.0;
  uint64_t reads = 0;
  /// Index reads whose answer was not the exact first position at the
  /// moment of the read (found by replaying the updates). Left to the
  /// caller: the live workload counts them as failures.
  uint64_t index_wrong = 0;
};
enum class LiveKind { kIndex, kCard, kBloom };
LiveResult RunLiveStructure(LiveKind kind, Live* live, const Inputs& in,
                            const Sizes& sizes, double seconds, Tally* tally);

}  // namespace los::perfbench

#endif  // LOS_PERFBENCH_WORKLOADS_H_
