#ifndef LOS_CORE_QUERY_FLOW_H_
#define LOS_CORE_QUERY_FLOW_H_

#include <optional>
#include <vector>

#include "common/metrics.h"
#include "deepsets/set_model.h"
#include "sets/workload.h"

namespace los::core {

// Every learned structure answers a query with one two-step flow around its
// model:
//   - a pre-model step answers from the auxiliary structure or rejects an
//     out-of-vocabulary query, or returns std::nullopt to defer the query
//     to the model;
//   - a post-model step turns the model's score into the answer (index:
//     bounded scan and fallback; estimator: unscale; Bloom filter:
//     threshold, then backup filter).
// A single query runs pre, SetModel::PredictOne, post. A batch runs
// AnswerBatch below. A shadow probe runs the single-query flow with the
// instruments of SilentMetricsRegistry() under a span-suppressing
// TraceSpan, so it takes the serving code path and records nothing.

/// Runs the flow over a batch: `pre(q)` on every query in order, one
/// PredictBatch over the deferred ones (bit-identical to PredictOne per
/// query), then `post(q, score)` on each deferred query in order.
template <typename T, typename Pre, typename Post>
std::vector<T> AnswerBatch(const deepsets::SetModel& model,
                           const std::vector<sets::Query>& queries, Pre&& pre,
                           Post&& post) {
  std::vector<T> answers(queries.size());
  std::vector<size_t> deferred;
  std::vector<sets::SetView> views;
  for (size_t i = 0; i < queries.size(); ++i) {
    const sets::SetView q = queries[i].view();
    if (std::optional<T> answer = pre(q)) {
      answers[i] = *answer;
    } else {
      deferred.push_back(i);
      views.push_back(q);
    }
  }
  if (deferred.empty()) return answers;
  std::vector<double> scores;
  model.PredictBatch(views.data(), views.size(), &scores);
  for (size_t k = 0; k < deferred.size(); ++k) {
    answers[deferred[k]] = post(views[k], scores[k]);
  }
  return answers;
}

/// A registry that stays disabled: shadow probes resolve their instruments
/// here, so every observation they make is dropped.
inline MetricsRegistry* SilentMetricsRegistry() {
  static MetricsRegistry* const registry = [] {
    auto* r = new MetricsRegistry();  // leaked, like MetricsRegistry::Global
    r->set_enabled(false);
    return r;
  }();
  return registry;
}

}  // namespace los::core

#endif  // LOS_CORE_QUERY_FLOW_H_
