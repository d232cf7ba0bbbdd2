#include "core/learned_bloom.h"

#include <algorithm>

#include "baselines/inverted_index.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace los::core {

namespace {

// Safety margin for backup-filter membership. The no-false-negative
// guarantee requires that any positive accepted here on its model score is
// also accepted at serve time, but serve-time scores come from a different
// forward: MayContain's PredictOne runs the single-row path (each layer on
// the nn::GemmRow kernel) while the scores below come from the batched
// Tensor pass. Both accumulate every output in increasing k order with the
// same FMA contraction, so within one binary they are bit-identical
// (single_row_forward_test) and the margin is not needed in-process; it
// absorbs cross-binary drift (e.g. a filter built with FMA/native ISA,
// saved, and served by a portable build). BCE training concentrates hard
// positives right at the threshold, so this is exactly where the insurance
// matters; the cost is a slightly larger backup filter.
constexpr double kThresholdMargin = 1e-4;

}  // namespace

Result<LearnedBloomFilter> LearnedBloomFilter::Build(
    const sets::SetCollection& collection, const BloomOptions& opts,
    const std::function<bool(sets::SetView)>* contains) {
  if (collection.empty()) return Status::InvalidArgument("empty collection");

  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.max_subset_size;
  sets::LabeledSubsets positives = EnumerateLabeledSubsets(collection, gen);
  if (positives.empty()) return Status::InvalidArgument("no positives");

  // Negative training data: combinations whose co-occurrence is absent
  // (§7.1.2). Reject candidates via an exact containment oracle.
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
  trainer.Train(lbf.model_.get(), data);

  // Backup filter over the model's false negatives — restores the classic
  // guarantee of no false negatives for the indexed subsets. Any positive
  // within kThresholdMargin of the threshold also goes in, so the guarantee
  // survives serve-time scores that differ marginally from these batched
  // build-time scores.
  std::vector<size_t> pos_idx(positives.size());
  for (size_t i = 0; i < positives.size(); ++i) pos_idx[i] = i;
  std::vector<double> probs = trainer.PredictScaled(lbf.model_.get(), data,
                                                    pos_idx);
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

void LearnedBloomFilter::SetMetricsRegistry(MetricsRegistry* registry) {
  metrics_.queries = registry->GetCounter("bloom.queries");
  metrics_.learned_accepts = registry->GetCounter("bloom.learned_accepts");
  metrics_.backup_hits = registry->GetCounter("bloom.backup_hits");
  metrics_.rejects = registry->GetCounter("bloom.rejects");
  metrics_.oov_rejects = registry->GetCounter("bloom.oov_rejects");
  metrics_.batches = registry->GetCounter("bloom.query_batches");
  metrics_.latency = registry->GetHistogram("bloom.query_seconds",
                                            SampledLatencyHistogramOptions());
  metrics_.batch_latency = registry->GetHistogram("bloom.query_batch_seconds",
                                                  LatencyHistogramOptions());
}

LearnedBloomFilter::MultiResult LearnedBloomFilter::MayContainMulti(
    const std::vector<sets::Query>& queries) {
  metrics_.batches->Increment();
  metrics_.queries->Increment(queries.size());
  ScopedLatency timer(metrics_.batch_latency);
  TRACE_SPAN_VAR(span, "serving", "bloom.may_contain_multi");
  span.set_arg("queries", static_cast<double>(queries.size()));
  MultiResult result;
  result.verdicts.assign(queries.size(), false);
  // Partition: OOV queries are definitively absent; the rest go through
  // batched forward passes (SetModel::PredictBatch), with backup-filter
  // fallback per negative.
  std::vector<size_t> model_queries;
  std::vector<sets::SetView> views;
  const int64_t vocab = model_->vocab();
  for (size_t i = 0; i < queries.size(); ++i) {
    sets::SetView q = queries[i].view();
    bool oov = false;
    for (sets::ElementId e : q) {
      if (static_cast<int64_t>(e) >= vocab) {
        oov = true;
        break;
      }
    }
    if (oov) {
      metrics_.oov_rejects->Increment();
      continue;
    }
    model_queries.push_back(i);
    views.push_back(q);
  }
  if (!model_queries.empty()) {
    std::vector<double> preds;
    model_->PredictBatch(views.data(), views.size(), &preds);
    for (size_t k = 0; k < model_queries.size(); ++k) {
      size_t i = model_queries[k];
      bool verdict = preds[k] >= threshold_;
      if (verdict) {
        metrics_.learned_accepts->Increment();
      } else if (backup_.MayContain(queries[i].view())) {
        verdict = true;
        metrics_.backup_hits->Increment();
      } else {
        metrics_.rejects->Increment();
      }
      result.verdicts[i] = verdict;
    }
  }
  for (bool v : result.verdicts) {
    result.all = result.all && v;
    result.any = result.any || v;
  }
  if (queries.empty()) result.all = true;
  return result;
}

bool LearnedBloomFilter::MayContain(sets::SetView q) {
  metrics_.queries->Increment();
  ScopedLatency timer(metrics_.latency);
  // The span's outcome arg separates learned-accept / backup-hit / reject
  // populations: the learned-Bloom model (Mitzenmacher) reasons about each
  // path's cost and rate independently, so one blended latency is opaque.
  TRACE_SPAN_SAMPLED_VAR(span, "serving", "bloom.may_contain");
  // Elements outside the training universe cannot be in any indexed set —
  // and the model has no embedding for them.
  for (sets::ElementId e : q) {
    if (static_cast<int64_t>(e) >= model_->vocab()) {
      metrics_.oov_rejects->Increment();
      span.set_arg("outcome_oov_reject", 1.0);
      return false;
    }
  }
  if (model_->PredictOne(q) >= threshold_) {
    metrics_.learned_accepts->Increment();
    span.set_arg("outcome_learned_accept", 1.0);
    return true;
  }
  {
    TRACE_SPAN("serving", "bloom.backup_probe");
    if (backup_.MayContain(q)) {
      metrics_.backup_hits->Increment();
      span.set_arg("outcome_backup_hit", 1.0);
      return true;
    }
  }
  metrics_.rejects->Increment();
  span.set_arg("outcome_reject", 1.0);
  return false;
}

bool LearnedBloomFilter::ProbeMayContain(sets::SetView q) {
  // Mirror of MayContain's verdict logic without instruments — keep the two
  // in sync.
  for (sets::ElementId e : q) {
    if (static_cast<int64_t>(e) >= model_->vocab()) return false;
  }
  if (model_->PredictOne(q) >= threshold_) return true;
  return backup_.MayContain(q);
}

}  // namespace los::core
