#ifndef LOS_MONITOR_HEALTHZ_H_
#define LOS_MONITOR_HEALTHZ_H_

// One-call health aggregation: folds the serve layer's mechanical signal
// (request p99), the updatable engine's freshness signals (generation,
// absorbed lag, rebuild failures) and the monitor layer's quality signals
// (drift score, q-error, FPR, miss rate) into a single pass/fail report per
// component — the thing a load balancer's `/healthz` endpoint or an
// operator's first glance actually wants.
//
// Healthz() is a pure function of a MetricsSnapshot, so it works on a live
// registry, a JSONL export line, or a test fixture alike, and never takes a
// lock that serving cares about.

#include <string>
#include <vector>

#include "common/metrics.h"

namespace los::monitor {

struct HealthzOptions {
  /// serve.<c>.request_seconds p99 above this is slow; 0 ignores.
  double max_p99_seconds = 1.0;
  /// updatable.<c>.lag_absorbed above this is stale; 0 ignores.
  double max_lag_absorbed = 0;
  /// updatable.<c>.rebuild_failures above this is broken; negative ignores.
  double max_rebuild_failures = 0;
  /// monitor.<c>.drift_score above this is drifted; 0 ignores.
  double max_drift_score = 0.5;
  /// monitor.cardinality.qerror_p95 above this is inaccurate; 0 ignores.
  double max_qerror_p95 = 0;
  /// monitor.bloom.fpr_estimate above this is leaky; 0 ignores.
  double max_fpr = 0;
  /// monitor.index.miss_rate above this is lossy; 0 ignores.
  double max_miss_rate = 0;
};

/// Health verdict for one component (`cardinality`, `index`, `bloom`, ...)
/// assembled from every instrument family that mentions it.
struct ComponentHealth {
  std::string name;
  bool ok = true;
  std::vector<std::string> issues;  ///< human-readable threshold breaches

  // Raw signals (0 when the corresponding instrument is absent).
  double p99_seconds = 0.0;
  double generation = 0.0;
  double lag_absorbed = 0.0;
  double rebuild_failures = 0.0;
  double drift_score = 0.0;
  double quality_stat = 0.0;  ///< qerror_p95 / fpr_estimate / miss_rate
};

struct HealthReport {
  bool ok = true;
  std::vector<ComponentHealth> components;  ///< name-sorted

  const ComponentHealth* Find(const std::string& name) const;

  /// Single-line JSON: {"ok":true,"components":[{"name":...,"ok":...,
  /// "issues":[...],...signals...},...]}
  std::string ToJson() const;
};

/// Scans `snap` for `serve.*` / `updatable.*` / `monitor.*` instruments,
/// groups them by component name and applies `opts` thresholds.
HealthReport Healthz(const MetricsSnapshot& snap,
                     const HealthzOptions& opts = {});

}  // namespace los::monitor

#endif  // LOS_MONITOR_HEALTHZ_H_
