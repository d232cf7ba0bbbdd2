#include "monitor/healthz.h"

#include <cstdio>
#include <map>

namespace los::monitor {

namespace {

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Splits "serve.cardinality.request_seconds" into {"serve", "cardinality",
/// "request_seconds"}; returns false unless there are >= 3 dotted parts (the
/// remainder joins into `tail`).
bool SplitMetric(const std::string& name, std::string* family,
                 std::string* component, std::string* tail) {
  const size_t a = name.find('.');
  if (a == std::string::npos) return false;
  const size_t b = name.find('.', a + 1);
  if (b == std::string::npos) return false;
  *family = name.substr(0, a);
  *component = name.substr(a + 1, b - a - 1);
  *tail = name.substr(b + 1);
  return true;
}

}  // namespace

const ComponentHealth* HealthReport::Find(const std::string& name) const {
  for (const auto& c : components) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string HealthReport::ToJson() const {
  std::string out = "{\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"components\":[";
  for (size_t i = 0; i < components.size(); ++i) {
    const ComponentHealth& c = components[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"" + c.name + "\",\"ok\":";
    out += c.ok ? "true" : "false";
    out += ",\"issues\":[";
    for (size_t j = 0; j < c.issues.size(); ++j) {
      if (j > 0) out += ",";
      out += "\"" + c.issues[j] + "\"";
    }
    out += "],\"p99_seconds\":" + FormatDouble(c.p99_seconds) +
           ",\"generation\":" + FormatDouble(c.generation) +
           ",\"lag_absorbed\":" + FormatDouble(c.lag_absorbed) +
           ",\"rebuild_failures\":" + FormatDouble(c.rebuild_failures) +
           ",\"drift_score\":" + FormatDouble(c.drift_score) +
           ",\"quality_stat\":" + FormatDouble(c.quality_stat) + "}";
  }
  out += "]}";
  return out;
}

HealthReport Healthz(const MetricsSnapshot& snap, const HealthzOptions& opts) {
  std::map<std::string, ComponentHealth> components;
  auto comp = [&](const std::string& name) -> ComponentHealth& {
    ComponentHealth& c = components[name];
    c.name = name;
    return c;
  };

  std::string family, component, tail;
  for (const auto& g : snap.gauges) {
    if (!SplitMetric(g.name, &family, &component, &tail)) continue;
    if (family == "updatable") {
      if (tail == "generation") comp(component).generation = g.value;
      if (tail == "lag_absorbed") comp(component).lag_absorbed = g.value;
    } else if (family == "monitor") {
      if (tail == "drift_score") comp(component).drift_score = g.value;
      if (tail == "qerror_p95" || tail == "fpr_estimate" ||
          tail == "miss_rate") {
        comp(component).quality_stat = g.value;
      }
    }
  }
  for (const auto& c : snap.counters) {
    if (!SplitMetric(c.name, &family, &component, &tail)) continue;
    if (family == "updatable" && tail == "rebuild_failures") {
      comp(component).rebuild_failures = static_cast<double>(c.value);
    }
  }
  for (const auto& h : snap.histograms) {
    if (!SplitMetric(h.name, &family, &component, &tail)) continue;
    if (family == "serve" && tail == "request_seconds") {
      comp(component).p99_seconds = h.Percentile(0.99);
    }
  }

  HealthReport report;
  for (auto& [name, c] : components) {
    auto breach = [&](bool cond, const std::string& what) {
      if (!cond) return;
      c.ok = false;
      c.issues.push_back(what);
    };
    breach(opts.max_p99_seconds > 0 && c.p99_seconds > opts.max_p99_seconds,
           "p99_seconds " + FormatDouble(c.p99_seconds) + " > " +
               FormatDouble(opts.max_p99_seconds));
    breach(
        opts.max_lag_absorbed > 0 && c.lag_absorbed > opts.max_lag_absorbed,
        "lag_absorbed " + FormatDouble(c.lag_absorbed) + " > " +
            FormatDouble(opts.max_lag_absorbed));
    breach(opts.max_rebuild_failures >= 0 &&
               c.rebuild_failures > opts.max_rebuild_failures,
           "rebuild_failures " + FormatDouble(c.rebuild_failures) + " > " +
               FormatDouble(opts.max_rebuild_failures));
    breach(opts.max_drift_score > 0 && c.drift_score > opts.max_drift_score,
           "drift_score " + FormatDouble(c.drift_score) + " > " +
               FormatDouble(opts.max_drift_score));
    if (name == "cardinality") {
      breach(opts.max_qerror_p95 > 0 && c.quality_stat > opts.max_qerror_p95,
             "qerror_p95 " + FormatDouble(c.quality_stat) + " > " +
                 FormatDouble(opts.max_qerror_p95));
    } else if (name == "bloom") {
      breach(opts.max_fpr > 0 && c.quality_stat > opts.max_fpr,
             "fpr_estimate " + FormatDouble(c.quality_stat) + " > " +
                 FormatDouble(opts.max_fpr));
    } else if (name == "index") {
      breach(opts.max_miss_rate > 0 && c.quality_stat > opts.max_miss_rate,
             "miss_rate " + FormatDouble(c.quality_stat) + " > " +
                 FormatDouble(opts.max_miss_rate));
    }
    report.ok = report.ok && c.ok;
    report.components.push_back(std::move(c));
  }
  return report;
}

}  // namespace los::monitor
