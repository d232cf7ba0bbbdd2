#ifndef LOS_COMMON_TRACE_H_
#define LOS_COMMON_TRACE_H_

// Span-based tracing of the serving and training paths.
//
// Where common/metrics.h answers "how many / how long in aggregate", this
// subsystem answers "where did the time go *inside* one operation": a traced
// cardinality query decomposes into aux-probe, embedding gather, φ-MLP,
// pooling and ρ-MLP spans; a traced training epoch decomposes into kernel
// and optimizer spans. Spans export as Chrome `trace_event` JSON (loadable
// in chrome://tracing or https://ui.perfetto.dev) and as an aggregated
// per-stage summary merged into a MetricsRegistry snapshot.
//
// Design constraints (mirrors the metrics layer):
//   - Tracing is OFF at runtime by default. A disabled TRACE_SPAN costs one
//     relaxed atomic load and a predictable branch — cheap enough to leave
//     in the per-query serving path.
//   - Recording is lock-free and allocation-free after a thread's first
//     span: each thread owns a fixed-capacity ring buffer of POD records
//     (registered once under the tracer mutex) and publishes a write index
//     with a release store. Old records are overwritten when the ring
//     wraps — tracing keeps the freshest window, it is not a log.
//   - Span names and categories must be string literals (or otherwise
//     outlive the tracer): records store the pointers, never copies.
//   - The hot serving path uses *sampled* spans (TRACE_SPAN_SAMPLED): one
//     query in every `sample_every` records; the other queries suppress all
//     nested spans too, so per-stage counts stay mutually consistent
//     (sampled 1-in-N means the gather/φ/pool/ρ spans are also 1-in-N).
//     Spans outside any sampled region (training, pool tasks) always record
//     while tracing is enabled.
//   - Export (Collect / ChromeTraceJson / SummaryTo) is intended for
//     quiescent or low-rate capture: it snapshots the rings without
//     stopping writers, so a thread that wraps its ring *during* an export
//     can hand back a bounded number of mixed records. Benches and the CLI
//     export after the traced section completes.
//
// Span taxonomy (see DESIGN.md "Tracing & profiling"): dotted lowercase
// `<layer>.<stage>` — `index.lookup`, `cardinality.estimate`,
// `bloom.may_contain` (sampled, per-query), `model.embed_gather`,
// `model.phi`, `model.pool`, `model.rho`, `nn.gemm`, `pool.task`,
// `pool.queue_wait`, `trainer.epoch`, `trainer.guided_evict`.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace los {

/// One completed span (or instant measurement) as stored in the rings and
/// returned by Tracer::Collect. Name/category are unowned static strings.
struct TraceEvent {
  const char* name = nullptr;
  const char* category = nullptr;
  uint64_t start_ns = 0;     ///< relative to the tracer's epoch
  uint64_t duration_ns = 0;
  uint32_t tid = 0;          ///< tracer-assigned stable thread id
  const char* arg_name = nullptr;  ///< optional counter arg (nullptr: none)
  double arg_value = 0.0;
};

/// A thread that recorded at least one span (or named itself).
struct TraceThreadInfo {
  uint32_t tid = 0;
  std::string name;  ///< empty unless SetCurrentThreadName was called
};

namespace trace_internal {

/// Mirror of Tracer::Global()->enabled(), kept at namespace scope so the
/// inline span fast path is a single relaxed load with no function call.
extern std::atomic<bool> g_enabled;

struct ThreadState;
ThreadState& State();

}  // namespace trace_internal

/// \brief Process-wide span sink. Tracing state is process-global (one
/// timeline), unlike MetricsRegistry which supports injection: a span's
/// cost must stay one load when disabled, which rules out per-structure
/// indirection.
class Tracer {
 public:
  /// Ring capacity per thread (records). At 56 bytes/record a fully active
  /// thread owns ~448 KiB, allocated lazily on its first recorded span.
  static constexpr size_t kThreadBufferCapacity = 8192;

  static Tracer* Global();

  /// Runtime master switch (default off). Enabling never allocates on the
  /// serving threads; buffers appear lazily as threads record.
  void set_enabled(bool enabled);
  bool enabled() const;

  /// Sampled spans record 1 in every `n` (>= 1). Changing `n` resets every
  /// thread's sampling phase, so the next sampled span on each thread
  /// records. Plain spans are unaffected.
  void set_sample_every(uint32_t n);
  uint32_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }

  /// Names the calling thread in trace exports (Chrome thread_name
  /// metadata). Allocation-free until the thread records its first span.
  static void SetCurrentThreadName(const std::string& name);

  /// Records a span that was timed externally (e.g. queue wait measured
  /// from enqueue to dequeue across threads). `start_ns` is absolute
  /// steady-clock nanoseconds as returned by NowNs(). Subject to the same
  /// enabled gate as TRACE_SPAN; never sampled-suppressed.
  void Emit(const char* category, const char* name, uint64_t start_ns,
            uint64_t duration_ns, const char* arg_name = nullptr,
            double arg_value = 0.0);

  /// Absolute steady-clock nanoseconds (the spans' time base).
  static uint64_t NowNs();

  /// Copies every buffered record, oldest-first per thread. Does not stop
  /// or clear recording.
  std::vector<TraceEvent> Collect() const;
  std::vector<TraceThreadInfo> Threads() const;

  /// Chrome trace_event JSON: {"traceEvents":[...]} with "X" complete
  /// events (ts/dur in microseconds) plus thread_name metadata.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  /// Aggregates buffered spans into `registry`: per span name a
  /// `trace.<name>` latency histogram (count/total/p50/p95 via the shared
  /// interpolated percentiles). A subsequent registry Snapshot() then
  /// carries the per-stage summary next to the serving metrics.
  /// `since_ns` (absolute NowNs time) restricts the aggregation to spans
  /// that started at or after it — benches summarize per dataset section
  /// without clearing the rings (the Chrome export keeps the whole run).
  void SummaryTo(MetricsRegistry* registry, uint64_t since_ns = 0) const;

  /// Clears every thread's ring (buffers stay registered and reusable) and
  /// restarts the export time base. Like MetricsRegistry::Reset, meant for
  /// bench/test section boundaries, not for concurrent serving.
  void Reset();

 private:
  friend struct trace_internal::ThreadState;
  friend class TraceSpan;

  struct ThreadBuffer {
    explicit ThreadBuffer(uint32_t tid) : tid(tid) {
      slots.resize(kThreadBufferCapacity);
    }
    uint32_t tid;
    std::string name;
    std::atomic<uint64_t> head{0};  ///< monotonic; slot = head % capacity
    std::vector<TraceEvent> slots;
  };

  Tracer();
  ThreadBuffer* RegisterCurrentThread();

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> sample_every_{1};
  std::atomic<uint64_t> sample_generation_{0};
  uint64_t epoch_ns_ = 0;  ///< subtracted from absolute times at export
  uint32_t next_tid_ = 1;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// \brief RAII span. Use via the TRACE_SPAN* macros; constructing one
/// directly is fine too (category/name must be string literals).
class TraceSpan {
 public:
  struct SampledTag {};
  struct SuppressTag {};

  /// Records nothing and suppresses nothing: for code that annotates the
  /// span of its caller's operation when there is none.
  TraceSpan() = default;
  TraceSpan(const char* category, const char* name) {
    if (!trace_internal::g_enabled.load(std::memory_order_relaxed)) {
      mode_ = kInactive;
      return;
    }
    Begin(category, name, /*sampled=*/false);
  }
  TraceSpan(const char* category, const char* name, SampledTag) {
    if (!trace_internal::g_enabled.load(std::memory_order_relaxed)) {
      mode_ = kInactive;
      return;
    }
    Begin(category, name, /*sampled=*/true);
  }
  /// Records nothing and suppresses every span nested in its scope — the
  /// sampled-out mode, taken unconditionally. Shadow re-executions of a
  /// serving flow run under one so they leave no trace.
  explicit TraceSpan(SuppressTag) {
    if (trace_internal::g_enabled.load(std::memory_order_relaxed)) Suppress();
  }
  ~TraceSpan() {
    if (mode_ != kInactive) End();
  }

  /// Attaches one optional counter arg (shown in the Chrome trace and
  /// ignored by the summary). Last call wins; no-op unless recording.
  void set_arg(const char* arg_name, double value) {
    if (mode_ == kRecording) {
      arg_name_ = arg_name;
      arg_value_ = value;
    }
  }

  /// True when this span will be written to the ring (fails for disabled
  /// tracing, sampled-out queries, and nested spans under a sampled-out
  /// query). Lets callers skip work that only feeds span args.
  bool recording() const { return mode_ == kRecording; }

  /// Ends the span now instead of at scope exit (for spans that cover a
  /// prefix of a function). Idempotent; the destructor becomes a no-op.
  void Stop() {
    if (mode_ != kInactive) {
      End();
      mode_ = kInactive;
    }
  }

  /// Ends this span and starts the next stage of the same operation, named
  /// `name` (a string literal), at the same instant: one clock read instead
  /// of an End plus a Begin, so consecutive stages tile their parent with
  /// no span bookkeeping falling between them. Clears the arg.
  void Next(const char* name) {
    if (mode_ == kRecording) NextStage(name);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  enum Mode : uint8_t {
    kInactive,     ///< not recording, nothing to undo
    kRecording,    ///< will push a record on destruction
    kSuppressing,  ///< sampled-out: suppresses nested spans for its scope
  };

  void Begin(const char* category, const char* name, bool sampled);
  void Suppress();
  void End();
  void NextStage(const char* name);

  const char* name_ = nullptr;
  const char* category_ = nullptr;
  const char* arg_name_ = nullptr;
  double arg_value_ = 0.0;
  uint64_t start_ns_ = 0;
  Mode mode_ = kInactive;
};

// Macro plumbing: unique object names per line so multiple spans can share
// a scope.
#define LOS_TRACE_CONCAT_IMPL(a, b) a##b
#define LOS_TRACE_CONCAT(a, b) LOS_TRACE_CONCAT_IMPL(a, b)

/// Traces the enclosing scope. Category and name must be string literals.
#define TRACE_SPAN(category, name) \
  ::los::TraceSpan LOS_TRACE_CONCAT(los_trace_span_, __LINE__)(category, name)

/// Hot-path variant: records 1 in Tracer::sample_every() executions and
/// suppresses nested TRACE_SPANs for the sampled-out ones.
#define TRACE_SPAN_SAMPLED(category, name)                              \
  ::los::TraceSpan LOS_TRACE_CONCAT(los_trace_span_, __LINE__)(         \
      category, name, ::los::TraceSpan::SampledTag{})

/// Named-variable variants for spans that set args or query recording().
#define TRACE_SPAN_VAR(var, category, name) \
  ::los::TraceSpan var(category, name)
#define TRACE_SPAN_SAMPLED_VAR(var, category, name) \
  ::los::TraceSpan var(category, name, ::los::TraceSpan::SampledTag{})

}  // namespace los

#endif  // LOS_COMMON_TRACE_H_
