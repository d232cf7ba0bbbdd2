#include "common/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>

namespace los {

namespace trace_internal {

std::atomic<bool> g_enabled{false};

/// Per-thread recording state. The buffer pointer is owned by the Tracer
/// (threads can exit before the process does); sampling state lives here so
/// the sampled-span decision touches no shared cache lines.
struct ThreadState {
  Tracer::ThreadBuffer* buffer = nullptr;
  uint64_t sample_counter = 0;
  uint64_t sample_generation = 0;
  /// Depth of enclosing sampled-out spans; >0 suppresses all recording.
  uint32_t suppress_depth = 0;
  /// Name requested before the first span, applied at registration.
  std::string pending_name;
};

ThreadState& State() {
  thread_local ThreadState state;
  return state;
}

}  // namespace trace_internal

using trace_internal::State;
using trace_internal::ThreadState;

Tracer::Tracer() { epoch_ns_ = NowNs(); }

Tracer* Tracer::Global() {
  // Leaked: threads may record during static destruction.
  static Tracer* const tracer = new Tracer();
  return tracer;
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
  trace_internal::g_enabled.store(enabled, std::memory_order_release);
}

bool Tracer::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

void Tracer::set_sample_every(uint32_t n) {
  sample_every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  // Bumping the generation makes every thread restart its phase, so the
  // next sampled span on each thread records (tests rely on this).
  sample_generation_.fetch_add(1, std::memory_order_relaxed);
}

Tracer::ThreadBuffer* Tracer::RegisterCurrentThread() {
  ThreadState& state = State();
  if (state.buffer != nullptr) return state.buffer;
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>(next_tid_++);
  buffer->name = std::move(state.pending_name);
  state.pending_name.clear();
  state.buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return state.buffer;
}

void Tracer::SetCurrentThreadName(const std::string& name) {
  ThreadState& state = State();
  if (state.buffer == nullptr) {
    // Don't register (and allocate a ring) just to hold a name: threads
    // name themselves at startup whether or not tracing ever turns on. The
    // name is applied when the thread records its first span.
    state.pending_name = name;
    return;
  }
  std::lock_guard<std::mutex> lock(Global()->mu_);
  state.buffer->name = name;
}

void Tracer::Emit(const char* category, const char* name, uint64_t start_ns,
                  uint64_t duration_ns, const char* arg_name,
                  double arg_value) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  ThreadBuffer* buffer = RegisterCurrentThread();
  const uint64_t head = buffer->head.load(std::memory_order_relaxed);
  TraceEvent& slot = buffer->slots[head % kThreadBufferCapacity];
  slot.name = name;
  slot.category = category;
  slot.start_ns = start_ns;
  slot.duration_ns = duration_ns;
  slot.tid = buffer->tid;
  slot.arg_name = arg_name;
  slot.arg_value = arg_value;
  // Publish after the slot write so a concurrent Collect never reads a
  // half-written record below the head it observed.
  buffer->head.store(head + 1, std::memory_order_release);
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<TraceEvent> events;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = epoch_ns_;
  for (const auto& buffer : buffers_) {
    const uint64_t head = buffer->head.load(std::memory_order_acquire);
    const uint64_t count = std::min<uint64_t>(head, kThreadBufferCapacity);
    for (uint64_t i = head - count; i < head; ++i) {
      TraceEvent ev = buffer->slots[i % kThreadBufferCapacity];
      // Spans recorded before the last Reset() carry absolute times below
      // the new epoch; drop them instead of exporting garbage offsets.
      if (ev.start_ns < epoch) continue;
      ev.start_ns -= epoch;
      events.push_back(ev);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.duration_ns > b.duration_ns;
            });
  return events;
}

std::vector<TraceThreadInfo> Tracer::Threads() const {
  std::vector<TraceThreadInfo> threads;
  std::lock_guard<std::mutex> lock(mu_);
  threads.reserve(buffers_.size());
  for (const auto& buffer : buffers_) {
    threads.push_back(TraceThreadInfo{buffer->tid, buffer->name});
  }
  return threads;
}

namespace {

void AppendJsonEscaped(const char* s, std::string* out) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

void AppendMicros(uint64_t ns, std::string* out) {
  // Chrome expects microseconds; keep nanosecond precision as a fraction.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out->append(buf);
}

}  // namespace

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Collect();
  const std::vector<TraceThreadInfo> threads = Threads();
  std::string out;
  out.reserve(events.size() * 96 + 256);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const auto& t : threads) {
    if (t.name.empty()) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(t.tid);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    AppendJsonEscaped(t.name.c_str(), &out);
    out += "\"}}";
  }
  for (const auto& ev : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(ev.tid);
    out += ",\"name\":\"";
    AppendJsonEscaped(ev.name, &out);
    out += "\",\"cat\":\"";
    AppendJsonEscaped(ev.category, &out);
    out += "\",\"ts\":";
    AppendMicros(ev.start_ns, &out);
    out += ",\"dur\":";
    AppendMicros(ev.duration_ns, &out);
    if (ev.arg_name != nullptr) {
      out += ",\"args\":{\"";
      AppendJsonEscaped(ev.arg_name, &out);
      out += "\":";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", ev.arg_value);
      out += buf;
      out += "}";
    }
    out += "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::string json = ChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    return Status::IoError("short write to trace output file: " + path);
  }
  return Status::OK();
}

void Tracer::SummaryTo(MetricsRegistry* registry, uint64_t since_ns) const {
  uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = epoch_ns_;
  }
  // Collect returns epoch-relative starts; rebase the caller's absolute
  // window boundary onto the same scale.
  const uint64_t since_rel = since_ns > epoch ? since_ns - epoch : 0;
  // Group by span name first: GetHistogram takes the registry mutex, and
  // one lookup per name (not per event) keeps this O(names) on that lock.
  std::map<std::string, std::vector<uint64_t>> by_name;
  for (const auto& ev : Collect()) {
    if (ev.start_ns < since_rel) continue;
    by_name[std::string("trace.") + ev.name].push_back(ev.duration_ns);
  }
  for (const auto& [name, durations] : by_name) {
    Histogram* h = registry->GetHistogram(name, LatencyHistogramOptions());
    for (uint64_t ns : durations) h->Observe(static_cast<double>(ns) * 1e-9);
  }
}

void Tracer::Reset() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Heads stay monotonic (rewinding could race a writer's release-store
    // and resurrect stale slots); Collect drops pre-epoch records instead,
    // so advancing the epoch is the whole clear.
    epoch_ns_ = NowNs();
  }
  // Restart the sampling phase too, so a fresh traced section always
  // records its first sampled span.
  sample_generation_.fetch_add(1, std::memory_order_relaxed);
}

void TraceSpan::Begin(const char* category, const char* name, bool sampled) {
  ThreadState& state = State();
  if (state.suppress_depth > 0) {
    // Inside a sampled-out query: keep the whole subtree unrecorded.
    Suppress();
    return;
  }
  if (sampled) {
    Tracer* tracer = Tracer::Global();
    const uint64_t generation =
        tracer->sample_generation_.load(std::memory_order_relaxed);
    if (generation != state.sample_generation) {
      state.sample_generation = generation;
      state.sample_counter = 0;
    }
    const uint32_t every =
        tracer->sample_every_.load(std::memory_order_relaxed);
    const bool take = (state.sample_counter % every) == 0;
    state.sample_counter++;
    if (!take) {
      Suppress();
      return;
    }
  }
  name_ = name;
  category_ = category;
  start_ns_ = Tracer::NowNs();
  mode_ = kRecording;
}

void TraceSpan::Suppress() {
  State().suppress_depth++;
  mode_ = kSuppressing;
}

void TraceSpan::End() {
  if (mode_ == kSuppressing) {
    State().suppress_depth--;
    return;
  }
  const uint64_t end_ns = Tracer::NowNs();
  // Emit re-checks enabled: if tracing was switched off mid-span the
  // record is dropped, which is fine — Collect filters by epoch anyway.
  Tracer::Global()->Emit(category_, name_, start_ns_, end_ns - start_ns_,
                         arg_name_, arg_value_);
}

void TraceSpan::NextStage(const char* name) {
  const uint64_t now = Tracer::NowNs();
  Tracer::Global()->Emit(category_, name_, start_ns_, now - start_ns_,
                         arg_name_, arg_value_);
  name_ = name;
  arg_name_ = nullptr;
  arg_value_ = 0.0;
  start_ns_ = now;
}

}  // namespace los
