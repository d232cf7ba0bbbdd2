#ifndef LOS_COMMON_METRICS_H_
#define LOS_COMMON_METRICS_H_

// Serving-path observability: named monotonic counters, gauges and
// fixed-bucket histograms behind a thread-safe registry.
//
// Design constraints (these are serving-path instruments, not a tracing
// framework):
//   - The *observation* hot path (Counter::Increment, Gauge::Set,
//     Histogram::Observe) is lock-free: relaxed std::atomic operations plus
//     one relaxed load of the registry's enabled flag. No allocation, no
//     hashing, no locking.
//   - Instrument *resolution* (MetricsRegistry::GetCounter etc.) takes a
//     mutex and may allocate; structures resolve their instruments once at
//     build/load time and cache the pointers. Returned pointers are stable
//     for the registry's lifetime.
//   - A registry can be disabled at runtime (`set_enabled(false)`): every
//     observation short-circuits on a relaxed bool load.
//   - A histogram created with `Options::sampled` records 1 call in
//     kSamplePeriod (16) per shard: Sample() advances a per-shard tick word
//     with a relaxed load and store, and the first call on a fresh shard is
//     always sampled. The per-query latency histograms of the learned
//     structures are sampled, so a sub-µs lookup does not pay two clock
//     reads and an Observe on every call; their counters stay exact. Ticks
//     lost to threads racing on one shard only shift which calls are
//     sampled. Snapshots and exports carry the period.
//   - Counters and histograms are sharded per thread: kShards (16)
//     cache-line-aligned shards per instrument, and a thread picks its
//     shard once, round-robin, at its first observation. An observation
//     writes only its own shard, so concurrent clients do not serialize on
//     a shared line; threads that share a shard still use atomic RMWs and
//     stay exact. A counter takes 16 x 64 B = 1 KiB; a histogram takes 16
//     shards of (4 + buckets + overflow) words rounded up to whole lines:
//     3 KiB for the 16-bucket serve-batch grid, 5 KiB for the 32-bucket
//     latency grid, 6 KiB for the 40-bucket q-error grid. Gauges keep
//     last-value semantics and stay one cell.
//   - Snapshots are deterministic: instruments are stored in name-sorted
//     order, and Snapshot() reads every atomic exactly once, merging the
//     shards: counts, buckets and sums add up in shard order, min/max are
//     taken over the shards. A single-threaded observation sequence lands
//     in one shard and snapshots exactly as an unsharded instrument would.
//
// Naming scheme (see DESIGN.md "Serving-path observability"): dotted
// lowercase `<structure>.<event>`, e.g. `index.lookups`,
// `bloom.backup_hits`, `cardinality.qerror`, `trainer.epoch_seconds`.
// Counters count events; histograms named `*_seconds` hold latencies in
// seconds, other histograms hold values (scan widths, q-errors).

#include <atomic>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace los {

namespace metrics_internal {

/// Instruments are striped over this many per-thread shards; a thread
/// writes only its own shard and readers merge all of them.
inline constexpr size_t kShards = 16;
inline constexpr size_t kCacheLineBytes = 64;

/// A sampled histogram records one call in this many per shard.
inline constexpr uint64_t kSamplePeriod = 16;

/// Monotonic clock in seconds (ScopedLatency's time base).
double NowSeconds();

/// Round-robin shard for a new thread (the process-wide sequence of first
/// observations, modulo kShards).
size_t NextShard();

/// The calling thread's shard, fixed at its first observation.
inline size_t ThreadShard() {
  thread_local const size_t shard = NextShard();
  return shard;
}

/// Relaxed CAS loops: add, min and max on a double held as the bits of an
/// atomic<uint64_t>, so a histogram shard is one flat run of 64-bit words.
inline void AtomicAdd(std::atomic<uint64_t>* w, double v) {
  uint64_t cur = w->load(std::memory_order_relaxed);
  while (!w->compare_exchange_weak(
      cur, std::bit_cast<uint64_t>(std::bit_cast<double>(cur) + v),
      std::memory_order_relaxed)) {
  }
}

inline void AtomicMin(std::atomic<uint64_t>* w, double v) {
  uint64_t cur = w->load(std::memory_order_relaxed);
  while (v < std::bit_cast<double>(cur) &&
         !w->compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                   std::memory_order_relaxed)) {
  }
}

inline void AtomicMax(std::atomic<uint64_t>* w, double v) {
  uint64_t cur = w->load(std::memory_order_relaxed);
  while (v > std::bit_cast<double>(cur) &&
         !w->compare_exchange_weak(cur, std::bit_cast<uint64_t>(v),
                                   std::memory_order_relaxed)) {
  }
}

}  // namespace metrics_internal

class MetricsRegistry;

/// \brief Monotonic event counter. Increment is lock-free and wait-free.
///
/// One cache-line-padded cell per shard (kShards x 64 bytes); value() sums
/// the cells, so it is exact however many threads share a cell.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[metrics_internal::ThreadShard()].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t value() const;
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset();

  struct alignas(metrics_internal::kCacheLineBytes) Cell {
    std::atomic<uint64_t> value{0};
  };

  std::string name_;
  const std::atomic<bool>* enabled_;
  Cell cells_[metrics_internal::kShards];
};

/// \brief Last-value gauge (e.g. the most recent epoch loss). A single
/// cell: a last value has no per-thread merge.
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }

  double value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

struct HistogramSnapshot;

/// \brief Fixed-bucket histogram with exponentially growing bucket bounds.
///
/// Bucket i counts observations v with v <= first_bound * growth^i; one
/// extra overflow bucket catches everything larger. The layout is fixed at
/// creation (first GetHistogram call for the name wins), so Observe never
/// allocates.
///
/// Each shard is a run of 64-bit words starting on its own cache line —
/// count, sum, min, max (doubles as bits), the sampling tick, then the
/// bounds.size() + 1 buckets — padded to whole lines, so no two shards
/// share a line.
class Histogram {
 public:
  struct Options {
    double first_bound = 1e-7;  ///< upper bound of bucket 0 (seconds-friendly)
    double growth = 2.0;        ///< geometric bound growth, > 1
    size_t num_buckets = 32;    ///< bounded buckets (excl. overflow)
    /// Holds 1 call in metrics_internal::kSamplePeriod: callers ask
    /// Sample() before they measure (ScopedLatency does).
    bool sampled = false;
  };

  void Observe(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    const size_t s = metrics_internal::ThreadShard();
    Word(s, kBuckets + BucketFor(v)).fetch_add(1, std::memory_order_relaxed);
    Word(s, kCount).fetch_add(1, std::memory_order_relaxed);
    metrics_internal::AtomicAdd(&Word(s, kSum), v);
    metrics_internal::AtomicMin(&Word(s, kMin), v);
    metrics_internal::AtomicMax(&Word(s, kMax), v);
  }

  /// Whether the calling event should be measured and observed: false
  /// while the registry is disabled; for a sampled histogram, true on 1
  /// call in kSamplePeriod of the calling thread's shard, starting with
  /// its first. The tick is a relaxed load and store, not an RMW: threads
  /// sharing a shard may lose ticks, which moves samples, never counters.
  bool Sample() {
    if (!enabled_->load(std::memory_order_relaxed)) return false;
    if (sample_period_ == 1) return true;
    std::atomic<uint64_t>& tick =
        Word(metrics_internal::ThreadShard(), kTick);
    const uint64_t t = tick.load(std::memory_order_relaxed);
    tick.store(t + 1, std::memory_order_relaxed);
    return t % metrics_internal::kSamplePeriod == 0;
  }

  uint64_t count() const;
  double sum() const;
  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

  /// True when observations are currently recorded — lets callers skip
  /// work that only feeds this histogram.
  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, const Options& opts,
            const std::atomic<bool>* enabled);
  void Reset();
  /// Merges the shards: counts and sums add up (shard order), min and max
  /// are taken over the shards.
  void MergeInto(HistogramSnapshot* out) const;

  // Word offsets inside a shard.
  static constexpr size_t kCount = 0;
  static constexpr size_t kSum = 1;
  static constexpr size_t kMin = 2;
  static constexpr size_t kMax = 3;
  static constexpr size_t kTick = 4;
  static constexpr size_t kBuckets = 5;

  /// One cache line of 64-bit words; aligned `new` puts every line, and
  /// so every shard, on its own line.
  struct alignas(metrics_internal::kCacheLineBytes) Line {
    static constexpr size_t kWords =
        metrics_internal::kCacheLineBytes / sizeof(uint64_t);
    std::atomic<uint64_t> w[kWords];
  };

  /// Word i of shard s.
  std::atomic<uint64_t>& Word(size_t s, size_t i) const {
    return lines_[s * shard_lines_ + i / Line::kWords].w[i % Line::kWords];
  }

  size_t BucketFor(double v) const {
    // Linear scan: instrument layouts are ~32 buckets and real observations
    // land in the first few comparisons; this beats a branchy binary search
    // at this size and keeps Observe trivially wait-free.
    for (size_t i = 0; i < bounds_.size(); ++i) {
      if (v <= bounds_[i]) return i;
    }
    return bounds_.size();  // overflow bucket
  }

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::vector<double> bounds_;  ///< inclusive upper bounds, sorted
  uint64_t sample_period_ = 1;
  size_t shard_lines_ = 0;       ///< lines per shard
  std::unique_ptr<Line[]> lines_;  ///< kShards * shard_lines_
};

/// \brief Observes the enclosing scope's duration (seconds) on destruction.
/// Asks the histogram first, so a call it does not sample (or a disabled
/// registry) reads no clock.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram* h)
      : h_(h != nullptr && h->Sample() ? h : nullptr),
        start_(h_ != nullptr ? metrics_internal::NowSeconds() : 0.0) {}
  ~ScopedLatency() {
    if (h_ != nullptr) h_->Observe(metrics_internal::NowSeconds() - start_);
  }

  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* h_;
  double start_;
};

/// Point-in-time copies of every instrument, name-sorted.
struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0
  double max = 0.0;
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;  ///< bounds.size() + 1 (overflow last)
  /// The histogram holds 1 event in this many (1: every event).
  uint64_t sample_period = 1;

  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Estimate of the p-quantile observation: linear interpolation inside
  /// the bucket holding the p-quantile rank (overflow bucket interpolates
  /// toward the observed max), clamped to the observed [min, max].
  double Percentile(double p) const;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(const std::string& name) const;
  const GaugeSnapshot* FindGauge(const std::string& name) const;
  const HistogramSnapshot* FindHistogram(const std::string& name) const;

  /// One single-line JSON record per instrument, bench_util.h-style:
  ///   {"metric":"index.lookups","type":"counter","value":42}
  ///   {"metric":"index.scan_width","type":"histogram","count":10,...}
  /// Histogram records carry the full bucket layout ("bounds":[...],
  /// "buckets":[...], overflow last) alongside the interpolated percentiles,
  /// so consumers can reconstruct honest tails instead of trusting p99.
  /// A sampled histogram's record also carries "sample_period":16.
  std::string ToJsonLines() const;

  /// All instruments as one compact JSON object keyed by metric name —
  /// histograms collapse to {count,sum,mean,p50,p95,p99,min,max,bounds,
  /// buckets}, plus sample_period when sampled. Suitable for embedding into
  /// a bench JsonRecord field.
  std::string ToJsonObject() const;

  /// OpenMetrics / Prometheus text exposition of every instrument,
  /// terminated by `# EOF`. Dotted names are sanitized to underscores and
  /// prefixed `los_` (`index.lookups` -> `los_index_lookups_total`);
  /// histograms expose cumulative `le` buckets (including `+Inf`) plus
  /// `_sum` and `_count` series; a sampled histogram's `# HELP` line states
  /// its period.
  std::string ToOpenMetrics() const;
};

/// Atomically replaces `path` with `content` (write to a sibling tmp file,
/// flush, rename) — a scraper never observes a half-written exposition.
Status WriteTextFileAtomic(const std::string& path,
                           const std::string& content);

/// \brief Thread-safe instrument registry.
///
/// `Global()` is the process-wide default every learned structure reports to;
/// tests and multi-tenant callers can construct their own registry and
/// inject it via the structures' `SetMetricsRegistry`.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the instrument registered under `name`, creating it on first
  /// use. Pointers remain valid for the registry's lifetime. A name denotes
  /// one instrument kind: asking for a counter named like an existing gauge
  /// creates an unrelated instrument in the counter namespace.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const Histogram::Options& opts = {});

  /// Deterministic point-in-time copy of all instruments (name-sorted).
  MetricsSnapshot Snapshot() const;

  /// Zeroes every instrument (counters/histograms to 0, gauges to 0.0).
  /// Instrument pointers stay valid. Concurrent observations may be lost —
  /// intended for bench/test section boundaries, not serving.
  void Reset();

  /// Runtime kill switch: while disabled, every observation is a relaxed
  /// bool load and a branch.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  static MetricsRegistry* Global();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  // std::map: stable node addresses + name-sorted iteration for free.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// \brief Periodic metrics export: appends one JSONL snapshot record per
/// period and/or atomically rewrites an OpenMetrics exposition file, from a
/// low-priority background thread. This is the pull-less export path — a
/// node_exporter-style textfile collector or a log shipper picks the files
/// up; nothing in the serving path ever blocks on the writer.
///
/// JSONL records are one line each: {"ts_s":<unix seconds>,"metrics":{...}}
/// with the ToJsonObject() payload. The OpenMetrics file is replaced via
/// tmp+rename so scrapers never see a torn exposition.
class MetricsExportWriter {
 public:
  struct Options {
    std::string jsonl_path;        ///< append target; empty disables
    std::string openmetrics_path;  ///< rewrite target; empty disables
    double period_s = 1.0;         ///< export interval (floored at 10ms)
  };

  /// Starts the export thread immediately (no-op thread when both paths are
  /// empty). `registry` nullptr means MetricsRegistry::Global().
  MetricsExportWriter(MetricsRegistry* registry, Options opts);
  ~MetricsExportWriter();

  MetricsExportWriter(const MetricsExportWriter&) = delete;
  MetricsExportWriter& operator=(const MetricsExportWriter&) = delete;

  /// One synchronous export of the current snapshot to both targets.
  /// Callable before/after Stop; also used by the thread each period.
  Status WriteOnce();

  /// Stops the thread after one final export, so the files always end on a
  /// complete picture of the process. Idempotent; called by the destructor.
  void Stop();

  uint64_t exports() const { return exports_.load(std::memory_order_relaxed); }

 private:
  void Loop();

  MetricsRegistry* registry_;
  Options opts_;
  std::atomic<uint64_t> exports_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;
};

/// Preset histogram layouts used across the serving paths (documented in
/// DESIGN.md so dashboards can rely on the bucket grid).
inline Histogram::Options LatencyHistogramOptions() {
  return {1e-7, 2.0, 32};  // 100ns .. ~430s
}
/// The latency grid, sampled: for per-query paths cheaper than the clock.
inline Histogram::Options SampledLatencyHistogramOptions() {
  return {1e-7, 2.0, 32, true};
}
inline Histogram::Options WidthHistogramOptions() {
  return {1.0, 2.0, 28};  // 1 .. ~268M sets
}
inline Histogram::Options QErrorHistogramOptions() {
  return {1.0, 1.25, 40};  // q-error 1 .. ~7500
}
inline Histogram::Options ServeBatchHistogramOptions() {
  return {1.0, 2.0, 16};  // batch size 1 .. 32768
}

}  // namespace los

#endif  // LOS_COMMON_METRICS_H_
