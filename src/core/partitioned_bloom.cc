#include "core/partitioned_bloom.h"

#include <algorithm>

#include "baselines/inverted_index.h"
#include "core/model_factory.h"
#include "core/trainer.h"
#include "core/training_data.h"

namespace los::core {

namespace {

// Region-assignment safety margin, mirroring learned_bloom.cc: serve-time
// scores come from PredictOne while build-time scores are batched, and a
// positive landing marginally across a region boundary at serve time would
// probe a backup filter it was never inserted into — a false negative. The
// single-row and batched forwards are bit-identical within one binary; the
// margin additionally covers cross-binary drift after Save/Load.
constexpr double kScoreMargin = 1e-4;

}  // namespace

Result<PartitionedBloomFilter> PartitionedBloomFilter::Build(
    const sets::SetCollection& collection,
    const PartitionedBloomOptions& opts) {
  if (collection.empty()) return Status::InvalidArgument("empty collection");
  if (opts.num_regions < 2) {
    return Status::InvalidArgument("need at least 2 regions");
  }

  sets::SubsetGenOptions gen;
  gen.max_subset_size = opts.learned.max_subset_size;
  sets::LabeledSubsets positives = EnumerateLabeledSubsets(collection, gen);
  if (positives.empty()) return Status::InvalidArgument("no positives");

  baselines::InvertedIndex oracle(collection);
  Rng rng(opts.learned.train.seed);
  auto contains = [&oracle](sets::SetView q) { return oracle.Contains(q); };
  size_t num_neg = static_cast<size_t>(
      static_cast<double>(positives.size()) *
      opts.learned.negatives_per_positive);
  auto negatives = sets::SampleNegativeQueries(
      collection.universe_size(), opts.learned.max_subset_size, num_neg,
      contains, &rng);

  PartitionedBloomFilter pbf;
  auto model = MakeSetModel(opts.learned.model,
                            static_cast<int64_t>(collection.universe_size()));
  if (!model.ok()) return model.status();
  pbf.model_ = std::move(*model);

  TrainingSet data = TrainingSet::FromMembership(positives, negatives);
  TrainConfig train = opts.learned.train;
  train.loss = LossKind::kBce;
  Trainer trainer(train);
  trainer.Train(pbf.model_.get(), data);

  // Score every positive; region boundaries are score quantiles so the
  // regions split the positives evenly.
  std::vector<size_t> pos_idx(positives.size());
  for (size_t i = 0; i < pos_idx.size(); ++i) pos_idx[i] = i;
  std::vector<double> scores =
      trainer.PredictScaled(pbf.model_.get(), data, pos_idx);
  std::vector<double> sorted = scores;
  std::sort(sorted.begin(), sorted.end());
  const int regions = opts.num_regions;
  pbf.boundaries_.resize(static_cast<size_t>(regions) - 1);
  for (int i = 1; i < regions; ++i) {
    size_t q = sorted.size() * static_cast<size_t>(i) /
               static_cast<size_t>(regions);
    pbf.boundaries_[static_cast<size_t>(i) - 1] = sorted[q];
  }

  // One backup per non-top region, holding the positives that scored there
  // (the top region accepts on score alone). Each positive is inserted into
  // every region its score could reach within ±kScoreMargin, so a serve-time
  // score that drifts marginally across a boundary still finds its subset.
  std::vector<std::vector<size_t>> members(
      static_cast<size_t>(regions) - 1);
  for (size_t i = 0; i < scores.size(); ++i) {
    size_t lo = pbf.RegionOf(scores[i] - kScoreMargin);
    size_t hi = pbf.RegionOf(scores[i] + kScoreMargin);
    for (size_t region = lo; region <= hi; ++region) {
      if (region + 1 < static_cast<size_t>(regions)) {
        members[region].push_back(i);
      }
    }
  }
  pbf.backups_.reserve(members.size());
  for (const auto& m : members) {
    baselines::BloomFilter bf(std::max<size_t>(m.size(), 1),
                              opts.region_fp);
    for (size_t idx : m) bf.Insert(positives.subset(idx));
    pbf.backups_.push_back(std::move(bf));
  }
  return pbf;
}

size_t PartitionedBloomFilter::RegionOf(double score) const {
  size_t r = 0;
  while (r < boundaries_.size() && score >= boundaries_[r]) ++r;
  return r;
}

bool PartitionedBloomFilter::MayContain(sets::SetView q) {
  if (!model_->Covers(q)) return false;
  double score = model_->PredictOne(q);
  size_t region = RegionOf(score);
  if (region >= backups_.size()) return true;  // top region: accept
  return backups_[region].MayContain(q);
}

size_t PartitionedBloomFilter::BackupBytes() const {
  size_t total = boundaries_.size() * sizeof(double);
  for (const auto& bf : backups_) total += bf.MemoryBytes();
  return total;
}

}  // namespace los::core
