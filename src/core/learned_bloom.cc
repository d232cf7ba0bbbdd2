#include "core/learned_bloom.h"

#include <algorithm>

#include "baselines/inverted_index.h"
#include "common/stopwatch.h"
#include "core/query_flow.h"

namespace los::core {

namespace {

// Safety margin for backup-filter membership. The no-false-negative
// guarantee requires that any positive accepted here on its model score is
// also accepted at serve time, but serve-time scores come from a different
// forward: MayContain's PredictOne runs the single-query path (each layer
// one fused nn::DenseRows call) while the scores below come from the batched
// Tensor pass. Both follow nn::Gemm's one accumulation contract (the same
// partial sums, combining tree and FMA contraction), so within one binary
// they are bit-identical (single_row_forward_test) and the margin is not
// needed in-process. It absorbs drift between binaries: a filter built by a
// native FMA build and served by a portable one, or one saved under an
// older accumulation order. Filters saved under the strictly in-order
// contract that preceded the partial sums score at most 1.8e-7 away from
// their saved scores (perfbench's frozen filter, all 45,997 positives),
// well inside the margin. BCE training concentrates hard positives right at
// the threshold, so this is exactly where the insurance matters; the cost
// is a slightly larger backup filter.
constexpr double kThresholdMargin = 1e-4;

}  // namespace

Result<LearnedBloomFilter> LearnedBloomFilter::Build(
    const sets::SetCollection& collection, const BloomOptions& opts,
    const std::function<bool(sets::SetView)>* contains) {
  if (collection.empty()) return Status::InvalidArgument("empty collection");

  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.max_subset_size;
  Stopwatch phase;
  sets::LabeledSubsets positives = EnumerateLabeledSubsets(collection, gen);
  ObserveBuildPhase(BuildPhase::kEnumerate, phase.ElapsedSeconds());
  if (positives.empty()) return Status::InvalidArgument("no positives");

  // Negative training data: combinations whose co-occurrence is absent
  // (§7.1.2). Reject candidates via an exact containment oracle.
  phase.Restart();
  std::unique_ptr<baselines::InvertedIndex> own_index;
  std::function<bool(sets::SetView)> contains_fn;
  if (contains != nullptr) {
    contains_fn = *contains;
  } else {
    own_index = std::make_unique<baselines::InvertedIndex>(collection);
    baselines::InvertedIndex* idx = own_index.get();
    contains_fn = [idx](sets::SetView q) { return idx->Contains(q); };
  }
  Rng rng(opts.train.seed);
  size_t num_neg = static_cast<size_t>(
      static_cast<double>(positives.size()) * opts.negatives_per_positive);
  std::vector<sets::Query> negatives = sets::SampleNegativeQueries(
      collection.universe_size(), opts.max_subset_size, num_neg, contains_fn,
      &rng);
  ObserveBuildPhase(BuildPhase::kNegatives, phase.ElapsedSeconds());

  LearnedBloomFilter lbf;
  lbf.threshold_ = opts.threshold;
  auto model = MakeSetModel(opts.model,
                            static_cast<int64_t>(collection.universe_size()));
  if (!model.ok()) return model.status();
  lbf.model_ = std::move(*model);

  TrainingSet data = TrainingSet::FromMembership(positives, negatives);
  TrainConfig train = opts.train;
  train.loss = LossKind::kBce;

  Stopwatch sw;
  Trainer trainer(train);
  phase.Restart();
  trainer.Train(lbf.model_.get(), data);
  ObserveBuildPhase(BuildPhase::kTrain, phase.ElapsedSeconds());

  // Backup filter over the model's false negatives — restores the classic
  // guarantee of no false negatives for the indexed subsets. Any positive
  // within kThresholdMargin of the threshold also goes in, so the guarantee
  // survives serve-time scores that differ marginally from these batched
  // build-time scores.
  std::vector<size_t> pos_idx(positives.size());
  for (size_t i = 0; i < positives.size(); ++i) pos_idx[i] = i;
  phase.Restart();
  std::vector<double> probs = trainer.PredictScaled(lbf.model_.get(), data,
                                                    pos_idx);
  ObserveBuildPhase(BuildPhase::kScore, phase.ElapsedSeconds());
  phase.Restart();
  std::vector<size_t> false_negatives;
  for (size_t i = 0; i < pos_idx.size(); ++i) {
    if (probs[i] < lbf.threshold_ + kThresholdMargin) {
      false_negatives.push_back(pos_idx[i]);
    }
  }
  lbf.backup_ = baselines::BloomFilter(
      std::max<size_t>(false_negatives.size(), 1), opts.backup_fp_rate);
  for (size_t idx : false_negatives) {
    lbf.backup_.Insert(data.subset(idx));
  }
  ObserveBuildPhase(BuildPhase::kAux, phase.ElapsedSeconds());
  lbf.train_seconds_ = sw.ElapsedSeconds();
  return lbf;
}

void LearnedBloomFilter::Save(BinaryWriter* w) const {
  SaveSetModel(*model_, w);
  w->WriteF64(threshold_);
  backup_.Save(w);
}

Result<LearnedBloomFilter> LearnedBloomFilter::Load(BinaryReader* r) {
  LearnedBloomFilter lbf;
  auto model = LoadSetModel(r);
  if (!model.ok()) return model.status();
  lbf.model_ = std::move(*model);
  auto th = r->ReadF64();
  if (!th.ok()) return th.status();
  lbf.threshold_ = *th;
  auto backup = baselines::BloomFilter::Load(r);
  if (!backup.ok()) return backup.status();
  lbf.backup_ = std::move(*backup);
  return lbf;
}

LearnedBloomFilter::Instruments LearnedBloomFilter::InstrumentsIn(
    MetricsRegistry* registry) {
  return {
      .queries = registry->GetCounter("bloom.queries"),
      .learned_accepts = registry->GetCounter("bloom.learned_accepts"),
      .backup_hits = registry->GetCounter("bloom.backup_hits"),
      .rejects = registry->GetCounter("bloom.rejects"),
      .oov_rejects = registry->GetCounter("bloom.oov_rejects"),
      .batches = registry->GetCounter("bloom.query_batches"),
      .latency = registry->GetHistogram("bloom.query_seconds",
                                        SampledLatencyHistogramOptions()),
      .batch_latency = registry->GetHistogram("bloom.query_batch_seconds",
                                              LatencyHistogramOptions()),
  };
}

const LearnedBloomFilter::Instruments& LearnedBloomFilter::Silent() {
  static const Instruments silent = InstrumentsIn(SilentMetricsRegistry());
  return silent;
}

void LearnedBloomFilter::SetMetricsRegistry(MetricsRegistry* registry) {
  metrics_ = InstrumentsIn(registry);
}

bool LearnedBloomFilter::MayContain(sets::SetView q) {
  // The span's outcome arg separates learned-accept / backup-hit / reject
  // populations: the learned-Bloom model (Mitzenmacher) reasons about each
  // path's cost and rate independently, so one blended latency is opaque.
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "bloom.may_contain");
  return MayContainOne(q, metrics_, span);
}

bool LearnedBloomFilter::ProbeMayContain(sets::SetView q) {
  TraceSpan quiet(TraceSpan::SuppressTag{});
  return MayContainOne(q, Silent(), quiet);
}

bool LearnedBloomFilter::MayContainOne(sets::SetView q, const Instruments& m,
                                       TraceSpan& span) {
  m.queries->Increment();
  ScopedLatency timer(m.latency);
  if (std::optional<bool> verdict = PreModel(q, m, span)) return *verdict;
  return PostModel(q, model_->PredictOne(q), m, span);
}

LearnedBloomFilter::MultiResult LearnedBloomFilter::MayContainMulti(
    const std::vector<sets::Query>& queries) {
  metrics_.batches->Increment();
  metrics_.queries->Increment(queries.size());
  ScopedLatency timer(metrics_.batch_latency);
  TRACE_SPAN_VAR(span, "serving", "bloom.may_contain_multi");
  span.set_arg("queries", static_cast<double>(queries.size()));
  TraceSpan no_query_span;
  MultiResult result;
  result.verdicts = AnswerBatch<bool>(
      *model_, queries,
      [&](sets::SetView q) { return PreModel(q, metrics_, no_query_span); },
      [&](sets::SetView q, double score) {
        return PostModel(q, score, metrics_, no_query_span);
      });
  for (bool v : result.verdicts) {
    result.all = result.all && v;
    result.any = result.any || v;
  }
  return result;
}

std::optional<bool> LearnedBloomFilter::PreModel(sets::SetView q,
                                                 const Instruments& m,
                                                 TraceSpan& span) const {
  // Elements outside the training universe cannot be in any indexed set —
  // and the model has no embedding for them.
  if (model_->Covers(q)) return std::nullopt;
  m.oov_rejects->Increment();
  span.set_arg("outcome_oov_reject", 1.0);
  return false;
}

bool LearnedBloomFilter::PostModel(sets::SetView q, double score,
                                   const Instruments& m,
                                   TraceSpan& span) const {
  if (score >= threshold_) {
    m.learned_accepts->Increment();
    span.set_arg("outcome_learned_accept", 1.0);
    return true;
  }
  {
    TRACE_SPAN("serving", "bloom.backup_probe");
    if (backup_.MayContain(q)) {
      m.backup_hits->Increment();
      span.set_arg("outcome_backup_hit", 1.0);
      return true;
    }
  }
  m.rejects->Increment();
  span.set_arg("outcome_reject", 1.0);
  return false;
}

}  // namespace los::core
