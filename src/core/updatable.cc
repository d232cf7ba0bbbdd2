#include "core/updatable.h"

#include <algorithm>

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "common/serialize.h"
#include "sets/subset_gen.h"

namespace los::core {

void LowerThreadPriority(int nice) {
#ifdef __linux__
  // PRIO_PROCESS with a thread id adjusts just this thread on Linux.
  (void)setpriority(PRIO_PROCESS,
                    static_cast<id_t>(syscall(SYS_gettid)), nice);
#else
  (void)nice;
#endif
}

namespace {

// Copies an index onto a generation's own collection snapshot: an
// in-memory Save/Load round trip, with Load rebinding to `collection`,
// which must be position-compatible with the collection the source index
// was built over.
Result<std::unique_ptr<LearnedSetIndex>> CloneIndexTo(
    const LearnedSetIndex& src, const sets::SetCollection& collection,
    MetricsRegistry* registry) {
  BinaryWriter w;
  src.Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = LearnedSetIndex::Load(&r, collection);
  if (!loaded.ok()) return loaded.status();
  auto out = std::make_unique<LearnedSetIndex>(std::move(*loaded));
  out->SetMetricsRegistry(registry);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// UpdatableSetIndex
// ---------------------------------------------------------------------------

UpdatableSetIndex::~UpdatableSetIndex() = default;

Result<std::unique_ptr<UpdatableSetIndex>> UpdatableSetIndex::Build(
    sets::SetCollection collection, const Options& opts,
    MetricsRegistry* registry) {
  if (opts.publish_after_updates == 0) {
    return Status::InvalidArgument("publish_after_updates must be >= 1");
  }
  auto self = std::unique_ptr<UpdatableSetIndex>(new UpdatableSetIndex());
  self->opts_ = opts;
  self->registry_ =
      registry != nullptr ? registry : MetricsRegistry::Global();
  self->master_collection_ =
      std::make_unique<sets::SetCollection>(std::move(collection));
  auto built = LearnedSetIndex::Build(*self->master_collection_, opts.index);
  if (!built.ok()) return built.status();
  self->master_index_ =
      std::make_unique<LearnedSetIndex>(std::move(*built));
  self->master_index_->SetMetricsRegistry(self->registry_);

  auto initial = self->SnapshotMasterLocked();
  if (initial == nullptr) {
    return Status::Internal("failed to snapshot freshly built index");
  }
  UpdatableStructure<IndexGeneration>::Hooks hooks;
  UpdatableSetIndex* raw = self.get();
  hooks.build = [raw] { return raw->BuildGeneration(); };
  hooks.finalize = [raw](std::unique_ptr<IndexGeneration> g) {
    return raw->FinalizeGeneration(std::move(g));
  };
  if (!opts.update.checkpoint_path.empty()) {
    hooks.checkpoint = [raw](const IndexGeneration& g) {
      return raw->CheckpointGeneration(g);
    };
  }
  self->engine_ = std::make_unique<UpdatableStructure<IndexGeneration>>(
      "index", std::move(initial), opts.update, std::move(hooks),
      self->registry_);
  return self;
}

std::unique_ptr<IndexGeneration> UpdatableSetIndex::SnapshotMasterLocked()
    const {
  auto gen = std::make_unique<IndexGeneration>();
  gen->collection =
      std::make_unique<sets::SetCollection>(*master_collection_);
  auto clone = CloneIndexTo(*master_index_, *gen->collection, registry_);
  if (!clone.ok()) return nullptr;
  gen->index = std::move(*clone);
  return gen;
}

sets::SetCollection UpdatableSetIndex::SnapshotCollection() {
  std::lock_guard<std::mutex> lock(engine_->write_mu());
  return *master_collection_;
}

int64_t UpdatableSetIndex::Lookup(sets::SetView q,
                                  LearnedSetIndex::LookupStats* stats) {
  auto pin = engine_->Acquire();
  return pin->index->Lookup(q, stats);
}

std::vector<int64_t> UpdatableSetIndex::LookupBatch(
    const std::vector<sets::Query>& queries) {
  auto pin = engine_->Acquire();
  return pin->index->LookupBatch(queries);
}

Status UpdatableSetIndex::Update(size_t position,
                                 std::vector<sets::ElementId> new_elements) {
  size_t routed = 0;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    LOS_RETURN_NOT_OK(
        master_collection_->UpdateSet(position, std::move(new_elements)));
    routed = master_index_->AbsorbUpdatedSet(position,
                                             opts_.index.max_subset_size);
    updated_positions_.push_back(position);
    updates_applied_.fetch_add(1, std::memory_order_relaxed);
    if (++updates_since_publish_ >= opts_.publish_after_updates) {
      auto snapshot = SnapshotMasterLocked();
      if (snapshot == nullptr) {
        return Status::Internal("failed to snapshot index after update");
      }
      engine_->PublishLocked(std::move(snapshot));
      updates_since_publish_ = 0;
    }
  }
  engine_->NoteAbsorbed(routed);
  return Status::OK();
}

Result<std::unique_ptr<IndexGeneration>> UpdatableSetIndex::BuildGeneration() {
  // Snapshot cut: copy the collection and restart the replay log. Updates
  // that land after this point are replayed in FinalizeGeneration.
  std::unique_ptr<sets::SetCollection> snapshot;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    snapshot = std::make_unique<sets::SetCollection>(*master_collection_);
    updated_positions_.clear();
  }
  auto built = LearnedSetIndex::Build(*snapshot, opts_.index);
  if (!built.ok()) return built.status();
  auto gen = std::make_unique<IndexGeneration>();
  gen->collection = std::move(snapshot);
  gen->index = std::make_unique<LearnedSetIndex>(std::move(*built));
  gen->index->SetMetricsRegistry(registry_);
  return gen;
}

std::unique_ptr<IndexGeneration> UpdatableSetIndex::FinalizeGeneration(
    std::unique_ptr<IndexGeneration> built) {
  // Runs under write_mu. The built index trained on the snapshot; the master
  // collection may have moved on. Rebind the trained index to the current
  // collection, re-absorb the post-snapshot updates into its fresh auxiliary
  // structure, and make it the new master — then publish a snapshot of that.
  auto new_collection =
      std::make_unique<sets::SetCollection>(*master_collection_);
  auto rebound = CloneIndexTo(*built->index, *new_collection, registry_);
  if (!rebound.ok()) {
    // Keep the old master; publish the built generation unmodified only if
    // nothing raced it, else fall back to a plain master snapshot so the
    // published state never regresses behind applied updates.
    if (updated_positions_.empty()) return built;
    auto snapshot = SnapshotMasterLocked();
    return snapshot != nullptr ? std::move(snapshot) : std::move(built);
  }
  std::vector<size_t> replay = updated_positions_;
  std::sort(replay.begin(), replay.end());
  replay.erase(std::unique(replay.begin(), replay.end()), replay.end());
  for (size_t pos : replay) {
    (*rebound)->AbsorbUpdatedSet(pos, opts_.index.max_subset_size);
  }
  master_collection_ = std::move(new_collection);
  master_index_ = std::move(*rebound);
  auto snapshot = SnapshotMasterLocked();
  return snapshot != nullptr ? std::move(snapshot) : std::move(built);
}

Status UpdatableSetIndex::CheckpointGeneration(
    const IndexGeneration& gen) const {
  BinaryWriter w;
  gen.collection->Save(&w);
  gen.index->Save(&w);
  return w.WriteToFile(opts_.update.checkpoint_path);
}

// ---------------------------------------------------------------------------
// UpdatableCardinality
// ---------------------------------------------------------------------------

UpdatableCardinality::~UpdatableCardinality() = default;

Result<std::unique_ptr<UpdatableCardinality>> UpdatableCardinality::Build(
    sets::SetCollection collection, const Options& opts,
    MetricsRegistry* registry) {
  auto self =
      std::unique_ptr<UpdatableCardinality>(new UpdatableCardinality());
  self->opts_ = opts;
  self->registry_ =
      registry != nullptr ? registry : MetricsRegistry::Global();
  self->master_collection_ =
      std::make_unique<sets::SetCollection>(std::move(collection));
  auto built = LearnedCardinalityEstimator::Build(*self->master_collection_,
                                                  opts.cardinality);
  if (!built.ok()) return built.status();
  auto initial = std::make_unique<LearnedCardinalityEstimator>(
      std::move(*built));
  initial->SetMetricsRegistry(self->registry_);

  UpdatableStructure<LearnedCardinalityEstimator>::Hooks hooks;
  UpdatableCardinality* raw = self.get();
  hooks.build = [raw] { return raw->BuildGeneration(); };
  if (!opts.update.checkpoint_path.empty()) {
    hooks.checkpoint = [raw](const LearnedCardinalityEstimator& g) {
      return raw->CheckpointGeneration(g);
    };
  }
  self->engine_ =
      std::make_unique<UpdatableStructure<LearnedCardinalityEstimator>>(
          "cardinality", std::move(initial), opts.update, std::move(hooks),
          self->registry_);
  return self;
}

sets::SetCollection UpdatableCardinality::SnapshotCollection() {
  std::lock_guard<std::mutex> lock(engine_->write_mu());
  return *master_collection_;
}

double UpdatableCardinality::Estimate(sets::SetView q) {
  auto pin = engine_->Acquire();
  return pin->Estimate(q);
}

std::vector<double> UpdatableCardinality::EstimateBatch(
    const std::vector<sets::Query>& queries) {
  auto pin = engine_->Acquire();
  return pin->EstimateBatch(queries);
}

Status UpdatableCardinality::Update(
    size_t position, std::vector<sets::ElementId> new_elements) {
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    LOS_RETURN_NOT_OK(
        master_collection_->UpdateSet(position, std::move(new_elements)));
  }
  engine_->NoteAbsorbed(1);
  return Status::OK();
}

size_t UpdatableCardinality::Insert(std::vector<sets::ElementId> elements) {
  size_t pos;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    pos = master_collection_->Add(std::move(elements));
  }
  engine_->NoteAbsorbed(1);
  return pos;
}

Result<std::unique_ptr<LearnedCardinalityEstimator>>
UpdatableCardinality::BuildGeneration() {
  sets::SetCollection snapshot;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    snapshot = *master_collection_;
  }
  auto built =
      LearnedCardinalityEstimator::Build(snapshot, opts_.cardinality);
  if (!built.ok()) return built.status();
  auto gen =
      std::make_unique<LearnedCardinalityEstimator>(std::move(*built));
  gen->SetMetricsRegistry(registry_);
  return gen;
}

Status UpdatableCardinality::CheckpointGeneration(
    const LearnedCardinalityEstimator& gen) const {
  BinaryWriter w;
  gen.Save(&w);
  return w.WriteToFile(opts_.update.checkpoint_path);
}

// ---------------------------------------------------------------------------
// UpdatableBloom
// ---------------------------------------------------------------------------

UpdatableBloom::~UpdatableBloom() = default;

Result<std::unique_ptr<UpdatableBloom>> UpdatableBloom::Build(
    sets::SetCollection collection, const Options& opts,
    MetricsRegistry* registry) {
  auto self = std::unique_ptr<UpdatableBloom>(new UpdatableBloom());
  self->opts_ = opts;
  self->registry_ =
      registry != nullptr ? registry : MetricsRegistry::Global();
  self->master_collection_ =
      std::make_unique<sets::SetCollection>(std::move(collection));
  auto built =
      LearnedBloomFilter::Build(*self->master_collection_, opts.bloom);
  if (!built.ok()) return built.status();
  auto initial = std::make_unique<BloomGeneration>();
  initial->filter =
      std::make_unique<LearnedBloomFilter>(std::move(*built));
  initial->filter->SetMetricsRegistry(self->registry_);
  initial->delta = std::make_shared<ConcurrentBloomDelta>(
      opts.delta_bits, opts.delta_hashes);

  UpdatableStructure<BloomGeneration>::Hooks hooks;
  UpdatableBloom* raw = self.get();
  hooks.build = [raw] { return raw->BuildGeneration(); };
  hooks.finalize = [raw](std::unique_ptr<BloomGeneration> g) {
    return raw->FinalizeGeneration(std::move(g));
  };
  if (!opts.update.checkpoint_path.empty()) {
    hooks.checkpoint = [raw](const BloomGeneration& g) {
      return raw->CheckpointGeneration(g);
    };
  }
  self->engine_ = std::make_unique<UpdatableStructure<BloomGeneration>>(
      "bloom", std::move(initial), opts.update, std::move(hooks),
      self->registry_);
  return self;
}

sets::SetCollection UpdatableBloom::SnapshotCollection() {
  std::lock_guard<std::mutex> lock(engine_->write_mu());
  return *master_collection_;
}

bool UpdatableBloom::MayContain(sets::SetView q) {
  auto pin = engine_->Acquire();
  if (pin->filter->MayContain(q)) return true;
  return pin->delta->MayContain(q);
}

std::vector<bool> UpdatableBloom::MayContainMulti(
    const std::vector<sets::Query>& queries) {
  auto pin = engine_->Acquire();
  LearnedBloomFilter::MultiResult mr = pin->filter->MayContainMulti(queries);
  // The delta only ever flips verdicts false -> true (it absorbs inserts
  // the trained generation has not seen yet).
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!mr.verdicts[i] && pin->delta->MayContain(queries[i].view())) {
      mr.verdicts[i] = true;
    }
  }
  return std::move(mr.verdicts);
}

void UpdatableBloom::AbsorbSubsetsLocked(sets::SetView s,
                                         ConcurrentBloomDelta* delta,
                                         size_t* absorbed) const {
  sets::ForEachSubset(s, opts_.bloom.max_subset_size,
                      [&](sets::SetView sub) {
                        delta->Insert(sub);
                        ++*absorbed;
                      });
}

size_t UpdatableBloom::Insert(std::vector<sets::ElementId> elements) {
  sets::Canonicalize(&elements);
  size_t pos;
  size_t absorbed = 0;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    pos = master_collection_->AddSorted(elements);
    pending_sets_.push_back(elements);
    // Absorb into the live generation's delta while holding write_mu: a
    // concurrent rebuild cannot publish in between (FinalizeGeneration runs
    // under the same mutex and replays pending_sets_ into the new delta),
    // so the key is visible to readers at every instant from here on.
    auto pin = engine_->Acquire();
    AbsorbSubsetsLocked(sets::SetView(elements), pin->delta.get(),
                        &absorbed);
  }
  engine_->NoteAbsorbed(absorbed);
  return pos;
}

Status UpdatableBloom::Update(size_t position,
                              std::vector<sets::ElementId> new_elements) {
  sets::Canonicalize(&new_elements);
  size_t absorbed = 0;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    LOS_RETURN_NOT_OK(
        master_collection_->UpdateSet(position, new_elements));
    pending_sets_.push_back(new_elements);
    auto pin = engine_->Acquire();
    AbsorbSubsetsLocked(sets::SetView(new_elements), pin->delta.get(),
                        &absorbed);
  }
  engine_->NoteAbsorbed(absorbed);
  return Status::OK();
}

Result<std::unique_ptr<BloomGeneration>> UpdatableBloom::BuildGeneration() {
  sets::SetCollection snapshot;
  {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    snapshot = *master_collection_;
    // Snapshot cut: sets inserted from here on go back into pending_sets_
    // and are replayed into the new generation's delta at finalize time.
    pending_sets_.clear();
  }
  auto built = LearnedBloomFilter::Build(snapshot, opts_.bloom);
  if (!built.ok()) return built.status();
  auto gen = std::make_unique<BloomGeneration>();
  gen->filter = std::make_unique<LearnedBloomFilter>(std::move(*built));
  gen->filter->SetMetricsRegistry(registry_);
  gen->delta = std::make_shared<ConcurrentBloomDelta>(opts_.delta_bits,
                                                      opts_.delta_hashes);
  return gen;
}

std::unique_ptr<BloomGeneration> UpdatableBloom::FinalizeGeneration(
    std::unique_ptr<BloomGeneration> built) {
  // Runs under write_mu: inserts that raced the retrain sit in
  // pending_sets_; replay them into the fresh delta before the swap so the
  // no-false-negative guarantee has no gap across generations.
  size_t absorbed = 0;
  for (const auto& s : pending_sets_) {
    AbsorbSubsetsLocked(sets::SetView(s), built->delta.get(), &absorbed);
  }
  return built;
}

Status UpdatableBloom::CheckpointGeneration(const BloomGeneration& gen) const {
  BinaryWriter w;
  gen.filter->Save(&w);
  return w.WriteToFile(opts_.update.checkpoint_path);
}

}  // namespace los::core
