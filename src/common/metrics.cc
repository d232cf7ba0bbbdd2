#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

namespace los {

namespace {

double UnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonDoubleArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatDouble(v[i]);
  }
  out += "]";
  return out;
}

std::string JsonUintArray(const std::vector<uint64_t>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

/// OpenMetrics metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
/// map dots (and anything else outside that set) to underscores under a
/// `los_` prefix, e.g. `serve.index.queue_depth` -> `los_serve_index_queue_depth`.
std::string OpenMetricsName(const std::string& name) {
  std::string out = "los_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// `,"sample_period":N` for a sampled histogram, empty otherwise.
std::string SamplePeriodField(const HistogramSnapshot& h) {
  if (h.sample_period == 1) return "";
  return ",\"sample_period\":" + std::to_string(h.sample_period);
}

double LoadDouble(const std::atomic<uint64_t>& w) {
  return std::bit_cast<double>(w.load(std::memory_order_relaxed));
}

void StoreDouble(std::atomic<uint64_t>* w, double v) {
  w->store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
}

}  // namespace

double metrics_internal::NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t metrics_internal::NextShard() {
  static std::atomic<size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) % kShards;
}

uint64_t Counter::value() const {
  uint64_t total = 0;
  for (const Cell& c : cells_) total += c.value.load(std::memory_order_relaxed);
  return total;
}

void Counter::Reset() {
  for (Cell& c : cells_) c.value.store(0, std::memory_order_relaxed);
}

Histogram::Histogram(std::string name, const Options& opts,
                     const std::atomic<bool>* enabled)
    : name_(std::move(name)),
      enabled_(enabled),
      sample_period_(opts.sampled ? metrics_internal::kSamplePeriod : 1) {
  const size_t n = std::max<size_t>(opts.num_buckets, 1);
  const double growth = std::max(opts.growth, 1.0 + 1e-9);
  bounds_.reserve(n);
  double bound = opts.first_bound;
  for (size_t i = 0; i < n; ++i) {
    bounds_.push_back(bound);
    bound *= growth;
  }
  shard_lines_ = (kBuckets + n + 1 + Line::kWords - 1) / Line::kWords;
  lines_ = std::make_unique<Line[]>(metrics_internal::kShards * shard_lines_);
  Reset();
}

void Histogram::Reset() {
  // All-zero bits are a count of 0, a sum of 0.0 and a fresh tick.
  for (size_t l = 0; l < metrics_internal::kShards * shard_lines_; ++l) {
    for (std::atomic<uint64_t>& w : lines_[l].w) {
      w.store(0, std::memory_order_relaxed);
    }
  }
  for (size_t s = 0; s < metrics_internal::kShards; ++s) {
    StoreDouble(&Word(s, kMin), std::numeric_limits<double>::infinity());
    StoreDouble(&Word(s, kMax), -std::numeric_limits<double>::infinity());
  }
}

uint64_t Histogram::count() const {
  uint64_t total = 0;
  for (size_t s = 0; s < metrics_internal::kShards; ++s) {
    total += Word(s, kCount).load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const {
  double total = 0.0;
  for (size_t s = 0; s < metrics_internal::kShards; ++s) {
    total += LoadDouble(Word(s, kSum));
  }
  return total;
}

void Histogram::MergeInto(HistogramSnapshot* out) const {
  out->bounds = bounds_;
  out->sample_period = sample_period_;
  out->buckets.assign(bounds_.size() + 1, 0);
  out->count = 0;
  out->sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < metrics_internal::kShards; ++s) {
    for (size_t i = 0; i < out->buckets.size(); ++i) {
      out->buckets[i] += Word(s, kBuckets + i).load(std::memory_order_relaxed);
    }
    out->count += Word(s, kCount).load(std::memory_order_relaxed);
    out->sum += LoadDouble(Word(s, kSum));
    lo = std::min(lo, LoadDouble(Word(s, kMin)));
    hi = std::max(hi, LoadDouble(Word(s, kMax)));
  }
  out->min = out->count > 0 ? lo : 0.0;
  out->max = out->count > 0 ? hi : 0.0;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  // Rank of the p-quantile observation, 1-based.
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    seen += in_bucket;
    if (seen < rank) continue;
    // Interpolate linearly inside the bucket: assume its observations are
    // spread uniformly over (lo, hi]. The overflow bucket has no upper
    // bound, so use the observed max; clamping to [min, max] keeps sparse
    // histograms honest (a single observation reports itself, not its
    // bucket's bound).
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = i < bounds.size() ? bounds[i] : max;
    const uint64_t rank_in_bucket = rank - (seen - in_bucket);
    const double fraction =
        static_cast<double>(rank_in_bucket) / static_cast<double>(in_bucket);
    return std::clamp(lo + (hi - lo) * fraction, min, max);
  }
  return max;
}

const CounterSnapshot* MetricsSnapshot::FindCounter(
    const std::string& name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(
    const std::string& name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    const std::string& name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJsonLines() const {
  std::string out;
  for (const auto& c : counters) {
    out += "{\"metric\":\"" + c.name + "\",\"type\":\"counter\",\"value\":" +
           std::to_string(c.value) + "}\n";
  }
  for (const auto& g : gauges) {
    out += "{\"metric\":\"" + g.name + "\",\"type\":\"gauge\",\"value\":" +
           FormatDouble(g.value) + "}\n";
  }
  for (const auto& h : histograms) {
    out += "{\"metric\":\"" + h.name + "\",\"type\":\"histogram\"" +
           ",\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + FormatDouble(h.sum) +
           ",\"mean\":" + FormatDouble(h.Mean()) +
           ",\"min\":" + FormatDouble(h.min) +
           ",\"max\":" + FormatDouble(h.max) +
           ",\"p50\":" + FormatDouble(h.Percentile(0.50)) +
           ",\"p95\":" + FormatDouble(h.Percentile(0.95)) +
           ",\"p99\":" + FormatDouble(h.Percentile(0.99)) +
           SamplePeriodField(h) +
           ",\"bounds\":" + JsonDoubleArray(h.bounds) +
           ",\"buckets\":" + JsonUintArray(h.buckets) + "}\n";
  }
  return out;
}

std::string MetricsSnapshot::ToJsonObject() const {
  std::string out = "{";
  bool first = true;
  auto sep = [&]() {
    if (!first) out += ",";
    first = false;
  };
  for (const auto& c : counters) {
    sep();
    out += "\"" + c.name + "\":" + std::to_string(c.value);
  }
  for (const auto& g : gauges) {
    sep();
    out += "\"" + g.name + "\":" + FormatDouble(g.value);
  }
  for (const auto& h : histograms) {
    sep();
    out += "\"" + h.name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + FormatDouble(h.sum) +
           ",\"mean\":" + FormatDouble(h.Mean()) +
           ",\"p50\":" + FormatDouble(h.Percentile(0.50)) +
           ",\"p95\":" + FormatDouble(h.Percentile(0.95)) +
           ",\"p99\":" + FormatDouble(h.Percentile(0.99)) +
           ",\"min\":" + FormatDouble(h.min) +
           ",\"max\":" + FormatDouble(h.max) + SamplePeriodField(h) +
           ",\"bounds\":" + JsonDoubleArray(h.bounds) +
           ",\"buckets\":" + JsonUintArray(h.buckets) + "}";
  }
  out += "}";
  return out;
}

std::string MetricsSnapshot::ToOpenMetrics() const {
  std::string out;
  for (const auto& c : counters) {
    const std::string n = OpenMetricsName(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + "_total " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    const std::string n = OpenMetricsName(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + FormatDouble(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    const std::string n = OpenMetricsName(h.name);
    out += "# TYPE " + n + " histogram\n";
    if (h.sample_period > 1) {
      out += "# HELP " + n + " sampled: holds 1 in " +
             std::to_string(h.sample_period) + " calls\n";
    }
    uint64_t cumulative = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? FormatDouble(h.bounds[i]) : "+Inf";
      out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    out += n + "_sum " + FormatDouble(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  out += "# EOF\n";
  return out;
}

Status WriteTextFileAtomic(const std::string& path,
                           const std::string& content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != content.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IoError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + path);
  }
  return Status::OK();
}

MetricsExportWriter::MetricsExportWriter(MetricsRegistry* registry,
                                         Options opts)
    : registry_(registry != nullptr ? registry : MetricsRegistry::Global()),
      opts_(std::move(opts)) {
  if (opts_.period_s < 0.01) opts_.period_s = 0.01;
  if (opts_.jsonl_path.empty() && opts_.openmetrics_path.empty()) {
    stopped_ = true;
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

MetricsExportWriter::~MetricsExportWriter() { Stop(); }

Status MetricsExportWriter::WriteOnce() {
  const MetricsSnapshot snap = registry_->Snapshot();
  Status result = Status::OK();
  if (!opts_.jsonl_path.empty()) {
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.3f", UnixSeconds());
    const std::string line = std::string("{\"ts_s\":") + ts +
                             ",\"metrics\":" + snap.ToJsonObject() + "}\n";
    std::FILE* f = std::fopen(opts_.jsonl_path.c_str(), "ab");
    if (f == nullptr) {
      result = Status::IoError("cannot append: " + opts_.jsonl_path);
    } else {
      if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
        result = Status::IoError("short append: " + opts_.jsonl_path);
      }
      std::fclose(f);
    }
  }
  if (!opts_.openmetrics_path.empty()) {
    Status st = WriteTextFileAtomic(opts_.openmetrics_path,
                                    snap.ToOpenMetrics());
    if (!st.ok()) result = st;
  }
  exports_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void MetricsExportWriter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_ && !thread_.joinable()) return;
    stopped_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void MetricsExportWriter::Loop() {
  const auto period = std::chrono::duration<double>(opts_.period_s);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, period, [&] { return stopped_; });
    const bool last = stopped_;
    lock.unlock();
    WriteOnce();  // export errors are not fatal; the next period retries
    lock.lock();
    if (last) return;
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(name, std::unique_ptr<Counter>(
                                new Counter(name, &enabled_)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(name,
                      std::unique_ptr<Gauge>(new Gauge(name, &enabled_)))
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const Histogram::Options& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(
                                new Histogram(name, opts, &enabled_)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    h->MergeInto(&hs);
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) {
    g->value_.store(0.0, std::memory_order_relaxed);
  }
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return registry;
}

}  // namespace los
