#ifndef LOS_CORE_UPDATABLE_H_
#define LOS_CORE_UPDATABLE_H_

// Online-update subsystem (ROADMAP item 2): serve queries from immutable
// model generations while updates absorb on the writer side and a
// background trainer thread rebuilds and atomically swaps in fresh
// generations — continuous ingest under query load with no serving stalls.
//
// Layers, bottom to top:
//
//   GenerationStore<G>   RCU-style epoch-slot pointer. Readers pin the
//                        current generation with one fetch_add + recheck
//                        (no locks, no allocation); writers publish a new
//                        generation with one atomic index store and free a
//                        retired generation only after its last reader
//                        drains. The slot array is fixed storage, so the
//                        pin-then-recheck never touches freed memory.
//
//   UpdatableStructure<G>  The engine shared by all three learned
//                        structures: owns the store, the absorbed-update
//                        accounting that decides when a rebuild is
//                        worthwhile (§7.2: "after a considerable number of
//                        updates, the whole structure can be rebuilt"), a
//                        background trainer thread that runs the rebuild
//                        hook and swaps, per-generation checkpointing via
//                        the atomic tmp+rename writer, and the
//                        `updatable.<name>.*` metrics + "updatable" trace
//                        spans.
//
//   UpdatableSetIndex / UpdatableCardinality / UpdatableBloom
//                        Typed wrappers (updatable.cc) that own the
//                        writer-side master state and supply the engine's
//                        build/finalize/checkpoint hooks. See each class
//                        comment for its visibility contract.
//
// Thread safety: any number of reader threads may call the query entry
// points concurrently with one updater thread and the background trainer.
// Mutating entry points (Update/Insert/Rebuild*) may also be called from
// multiple threads — they serialize on the writer mutex — but are designed
// for a single ingest stream. Destruction must not race with any call.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "sets/set_hash.h"

namespace los::core {

/// \brief RCU-style holder of the live generation of type `G`.
///
/// Readers call Acquire() and hold the returned ReadPin for the duration of
/// one query (or one batched flush); the pinned generation is guaranteed to
/// stay alive until the pin is released. Writers call Publish() — the swap
/// is one seq_cst index store. A retired generation is reclaimed by
/// whichever side sees it unpinned last: Publish if no reader holds it at
/// the swap, otherwise the reader whose release drops its pins to zero. So
/// nothing outlives its last reader, and a Publish blocks only when it
/// would reuse a slot whose generation is still pinned (writers a full
/// kSlots generations ahead of the slowest reader).
///
/// The pin protocol is the classic epoch-slot idiom: load the current slot
/// index, increment that slot's pin count, then re-check the index. Both
/// the increment and the writer's swap are seq_cst, so either the writer
/// observes the pin (and defers reclamation) or the reader observes the
/// swap (and retries on the new slot). Slots are fixed storage for the
/// store's lifetime, so the speculative increment on a stale slot is
/// always on live memory.
///
/// Each slot's `state` packs its pin count with a kRetired bit that
/// Publish sets when the slot stops being current. The unpin that leaves
/// exactly kRetired (or Publish, if it finds no pins) claims the slot with
/// one CAS to 0 and takes the pointer with exchange(nullptr), so exactly
/// one side deletes. Deciding on "retired" rather than "not current" is
/// what makes a late unpin safe against slot reuse: a slot is reused only
/// after its pointer was taken, which clears kRetired, so a straggler's
/// unpin on the reused slot never sees kRetired and never touches the new
/// generation.
template <typename G>
class GenerationStore {
 public:
  static constexpr size_t kSlots = 8;

  /// Movable read lease on one generation. Never outlive the store with it.
  class ReadPin {
   public:
    ReadPin() = default;
    ReadPin(ReadPin&& o) noexcept { *this = std::move(o); }
    ReadPin& operator=(ReadPin&& o) noexcept {
      Release();
      store_ = o.store_;
      slot_ = o.slot_;
      ptr_ = o.ptr_;
      gen_ = o.gen_;
      o.store_ = nullptr;
      o.ptr_ = nullptr;
      return *this;
    }
    ReadPin(const ReadPin&) = delete;
    ReadPin& operator=(const ReadPin&) = delete;
    ~ReadPin() { Release(); }

    G* get() const { return ptr_; }
    G* operator->() const { return ptr_; }
    G& operator*() const { return *ptr_; }
    /// Monotonic generation number (1 = the initial build).
    uint64_t generation() const { return gen_; }

   private:
    friend class GenerationStore;
    ReadPin(const GenerationStore* store, size_t slot, G* ptr, uint64_t gen)
        : store_(store), slot_(slot), ptr_(ptr), gen_(gen) {}

    void Release() {
      if (store_ != nullptr) {
        store_->Unpin(slot_);
        store_ = nullptr;
      }
    }

    const GenerationStore* store_ = nullptr;
    size_t slot_ = 0;
    G* ptr_ = nullptr;
    uint64_t gen_ = 0;
  };

  explicit GenerationStore(std::unique_ptr<G> initial) {
    slots_[0].ptr.store(initial.release(), std::memory_order_relaxed);
    slots_[0].gen.store(1, std::memory_order_relaxed);
    generation_.store(1, std::memory_order_relaxed);
    current_.store(0, std::memory_order_release);
  }

  GenerationStore(const GenerationStore&) = delete;
  GenerationStore& operator=(const GenerationStore&) = delete;

  /// No readers may be active; the engine stops its trainer first and the
  /// owner must have quiesced query threads.
  ~GenerationStore() {
    for (Slot& s : slots_) delete s.ptr.load(std::memory_order_relaxed);
  }

  /// Pins the current generation. Lock-free; never blocks a Publish that is
  /// already visible (it simply lands on the new generation).
  ReadPin Acquire() const {
    for (;;) {
      const uint32_t s = current_.load(std::memory_order_acquire);
      slots_[s].state.fetch_add(1, std::memory_order_seq_cst);
      if (current_.load(std::memory_order_seq_cst) == s) {
        return ReadPin(this, s, slots_[s].ptr.load(std::memory_order_acquire),
                       slots_[s].gen.load(std::memory_order_acquire));
      }
      // Swap raced in between load and pin: undo and retry on the new slot.
      // The undo may be the last unpin of a retired slot, so it reclaims
      // like any other release.
      Unpin(s);
    }
  }

  /// Atomically makes `next` the generation new readers see. Only blocks —
  /// waiting for reader drain — if writers are a full kSlots generations
  /// ahead of the slowest reader. Returns the new generation number.
  /// Publishes are internally serialized; callers may add their own
  /// ordering on top.
  uint64_t Publish(std::unique_ptr<G> next) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    const uint32_t cur = current_.load(std::memory_order_relaxed);
    const uint32_t tgt = (cur + 1) % kSlots;
    // The target slot held the generation retired kSlots-1 publishes ago;
    // its last reader reclaims it on release, so wait out any straggler.
    while (slots_[tgt].ptr.load(std::memory_order_seq_cst) != nullptr) {
      std::this_thread::yield();
    }
    const uint64_t gen =
        generation_.fetch_add(1, std::memory_order_relaxed) + 1;
    slots_[tgt].ptr.store(next.release(), std::memory_order_relaxed);
    slots_[tgt].gen.store(gen, std::memory_order_relaxed);
    current_.store(tgt, std::memory_order_seq_cst);
    // Retire the old slot. Readers that pinned it and passed their recheck
    // are counted in `state` (both sides are seq_cst); if there are none,
    // reclaim now, otherwise the last of them does.
    if (slots_[cur].state.fetch_or(kRetired, std::memory_order_seq_cst) ==
        0) {
      slots_[cur].TryReclaim();
    }
    return gen;
  }

  /// Number of the generation current readers pin (1 = initial).
  uint64_t generation() const {
    return generation_.load(std::memory_order_relaxed);
  }

  /// Live (published or retired-but-not-yet-reclaimed) generations.
  size_t resident_generations() const {
    size_t n = 0;
    for (const Slot& s : slots_) {
      if (s.ptr.load(std::memory_order_acquire) != nullptr) ++n;
    }
    return n;
  }

 private:
  static constexpr uint64_t kRetired = uint64_t{1} << 63;

  struct Slot {
    std::atomic<G*> ptr{nullptr};
    std::atomic<uint64_t> gen{0};
    std::atomic<uint64_t> state{0};  // pin count | kRetired

    /// Claims a retired, unpinned slot and deletes its generation. Fails
    /// harmlessly if a speculative pin slipped in; that pin's own unpin
    /// retries.
    void TryReclaim() {
      uint64_t expected = kRetired;
      if (state.compare_exchange_strong(expected, 0,
                                        std::memory_order_seq_cst)) {
        delete ptr.exchange(nullptr, std::memory_order_seq_cst);
      }
    }
  };

  void Unpin(size_t slot) const {
    Slot& s = slots_[slot];
    if (s.state.fetch_sub(1, std::memory_order_seq_cst) == (kRetired | 1)) {
      s.TryReclaim();
    }
  }

  mutable Slot slots_[kSlots];
  std::atomic<uint32_t> current_{0};
  std::atomic<uint64_t> generation_{0};
  std::mutex writer_mu_;
};

/// Policy knobs shared by the three updatable wrappers.
/// Applies `nice` to the calling thread (Linux; no-op elsewhere). Failures
/// are ignored: priority is an optimization, never a correctness knob.
void LowerThreadPriority(int nice);

struct UpdatableOptions {
  /// Background retrain is recommended (and auto-triggered) once this many
  /// updates have been absorbed since the last rebuild snapshot. 0 disables
  /// automatic triggering (RequestRebuild / RebuildNow still work).
  size_t rebuild_after_absorbed = 10000;
  /// true: rebuilds run on the engine's trainer thread and swap in when
  /// done; false: no trainer thread is started and RequestRebuild runs the
  /// rebuild inline on the caller.
  bool background_rebuild = true;
  /// When non-empty, every generation produced by a rebuild is persisted
  /// here via the atomic tmp+rename checkpoint writer (PR 3), so a crash
  /// always leaves the newest complete generation on disk.
  std::string checkpoint_path;
  /// Nice value applied to the trainer thread (Linux only; ignored
  /// elsewhere and when 0). Retraining is CPU-bound and latency-tolerant
  /// while serving is neither, so on core-starved hosts a positive nice
  /// keeps generation rebuilds from stealing whole timeslices out of the
  /// query path's tail.
  int trainer_nice = 0;
};

/// \brief The engine behind the three updatable wrappers: generation store
/// + rebuild trigger accounting + background trainer thread + metrics,
/// tracing and checkpointing.
///
/// Metrics (prefix `updatable.<name>.`):
///   generation          gauge      published generation number
///   lag_absorbed        gauge      updates absorbed but not yet covered by
///                                  a published rebuild
///   rebuild_recommended gauge      0/1: lag crossed the threshold
///   publishes           counter    generations published (snapshots + rebuilds)
///   rebuilds            counter    successful rebuild swaps
///   rebuild_failures    counter    rebuild hook errors (old generation kept)
///   checkpoint_failures counter    checkpoint write errors
///   retrain_seconds     histogram  wall time of the rebuild hook
/// Trace spans (category "updatable"): `updatable.retrain` around the
/// rebuild hook and `updatable.swap` around the atomic publish.
template <typename G>
class UpdatableStructure {
 public:
  using ReadPin = typename GenerationStore<G>::ReadPin;

  struct Hooks {
    /// Full retrain. Runs on the trainer thread (or the caller for inline
    /// rebuilds) WITHOUT write_mu held — implementations briefly take
    /// write_mu() themselves to snapshot master state, then train unlocked.
    std::function<Result<std::unique_ptr<G>>()> build;
    /// Optional. Runs under write_mu() between build and swap; reconciles
    /// the built generation with writer-side changes that raced the train
    /// (delta replay) and refreshes master state. May return a different
    /// generation than it was handed.
    std::function<std::unique_ptr<G>(std::unique_ptr<G>)> finalize;
    /// Optional. Persists a just-published generation (engine calls it with
    /// a pinned reference after the swap, outside write_mu).
    std::function<Status(const G&)> checkpoint;
  };

  UpdatableStructure(std::string name, std::unique_ptr<G> initial,
                     const UpdatableOptions& opts, Hooks hooks,
                     MetricsRegistry* registry)
      : name_(std::move(name)),
        opts_(opts),
        hooks_(std::move(hooks)),
        store_(std::move(initial)) {
    SetMetricsRegistry(registry != nullptr ? registry
                                           : MetricsRegistry::Global());
    UpdateGauges();
    if (opts_.background_rebuild) {
      trainer_ = std::thread([this] { TrainerLoop(); });
    }
  }

  ~UpdatableStructure() { Stop(); }

  UpdatableStructure(const UpdatableStructure&) = delete;
  UpdatableStructure& operator=(const UpdatableStructure&) = delete;

  /// Pin the generation served to readers right now.
  ReadPin Acquire() const { return store_.Acquire(); }

  uint64_t generation() const { return store_.generation(); }
  const std::string& name() const { return name_; }

  /// Serializes all writer-side master-state mutation (wrappers lock it in
  /// their Update/Insert paths; the rebuild hooks lock it to snapshot and
  /// to finalize). Readers never touch it.
  std::mutex& write_mu() { return write_mu_; }

  /// Publishes a writer-built snapshot generation (no retrain). Caller must
  /// hold write_mu() so the snapshot is consistent with master state.
  void PublishLocked(std::unique_ptr<G> gen) {
    TRACE_SPAN_VAR(span, "updatable", "updatable.swap");
    const uint64_t g = store_.Publish(std::move(gen));
    span.set_arg("generation", static_cast<double>(g));
    metrics_.publishes->Increment();
    metrics_.generation->Set(static_cast<double>(g));
  }

  /// Records `n` absorbed updates and nudges the trainer if the rebuild
  /// threshold is crossed. Safe with or without write_mu() held.
  void NoteAbsorbed(size_t n) {
    absorbed_total_.fetch_add(n, std::memory_order_relaxed);
    UpdateGauges();
    if (NeedsRebuild() && opts_.background_rebuild) {
      std::lock_guard<std::mutex> lock(trainer_mu_);
      trainer_cv_.notify_one();
    }
  }

  /// True once enough updates accumulated that retraining is recommended.
  bool NeedsRebuild() const {
    return opts_.rebuild_after_absorbed != 0 &&
           pending_absorbed() >= opts_.rebuild_after_absorbed;
  }

  /// Updates absorbed since the snapshot of the last successful rebuild.
  uint64_t pending_absorbed() const {
    return absorbed_total_.load(std::memory_order_relaxed) -
           absorbed_at_build_.load(std::memory_order_relaxed);
  }
  uint64_t absorbed_total() const {
    return absorbed_total_.load(std::memory_order_relaxed);
  }
  /// Successful and failed rebuilds so far. Engine-owned, so they count
  /// with the registry disabled too (callers wait on them); the exported
  /// counters of the same names mirror them.
  uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  uint64_t rebuild_failures() const {
    return rebuild_failures_.load(std::memory_order_relaxed);
  }

  /// Asks for a rebuild regardless of the threshold. Asynchronous when a
  /// trainer thread runs; otherwise rebuilds inline (errors land in the
  /// rebuild_failures counter either way).
  void RequestRebuild() {
    if (opts_.background_rebuild) {
      std::lock_guard<std::mutex> lock(trainer_mu_);
      rebuild_requested_ = true;
      trainer_cv_.notify_one();
    } else {
      DoRebuild();
    }
  }

  /// Rebuild requested because monitored quality degraded (drift score,
  /// q-error, FPR — see src/monitor/) rather than because update counts
  /// accumulated. Identical to RequestRebuild plus the
  /// `updatable.<name>.quality_rebuilds` counter, so dashboards can tell
  /// closed-loop retrains from count-threshold ones.
  void RequestQualityRebuild() {
    metrics_.quality_rebuilds->Increment();
    RequestRebuild();
  }

  /// `listener` runs after every successful rebuild publish, on the
  /// rebuilding thread, outside write_mu(). The monitor layer uses it to
  /// rebind ground-truth oracles and drift references to the fresh
  /// generation. Pass nullptr to clear. Must not call back into this
  /// engine's rebuild entry points.
  void SetRebuildListener(std::function<void()> listener) {
    std::lock_guard<std::mutex> lock(listener_mu_);
    rebuild_listener_ = std::move(listener);
  }

  /// Synchronous rebuild on the caller's thread (serialized against the
  /// trainer). Readers keep serving the old generation throughout.
  Status RebuildNow() { return DoRebuild(); }

  /// Blocks until no rebuild is running and no trigger is pending (a failed
  /// rebuild counts as settled until new updates arrive). Test/bench sync.
  void WaitForRebuilds() {
    if (!opts_.background_rebuild) return;
    std::unique_lock<std::mutex> lock(trainer_mu_);
    idle_cv_.wait(lock, [&] {
      return !rebuild_in_flight_ && !rebuild_requested_ &&
             (!NeedsRebuild() ||
              last_attempt_covered_ ==
                  absorbed_total_.load(std::memory_order_relaxed));
    });
  }

  /// Stops and joins the trainer thread. Idempotent; called by the dtor.
  /// After Stop, rebuilds only happen via RebuildNow.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(trainer_mu_);
      if (trainer_stopped_) return;
      trainer_stopped_ = true;
      trainer_cv_.notify_all();
    }
    if (trainer_.joinable()) trainer_.join();
  }

 private:
  struct Instruments {
    Gauge* generation = nullptr;
    Gauge* lag = nullptr;
    Gauge* recommended = nullptr;
    Counter* publishes = nullptr;
    Counter* rebuilds = nullptr;
    Counter* quality_rebuilds = nullptr;
    Counter* rebuild_failures = nullptr;
    Counter* checkpoint_failures = nullptr;
    Histogram* retrain_seconds = nullptr;
  };

  void SetMetricsRegistry(MetricsRegistry* registry) {
    const std::string p = "updatable." + name_ + ".";
    metrics_.generation = registry->GetGauge(p + "generation");
    metrics_.lag = registry->GetGauge(p + "lag_absorbed");
    metrics_.recommended = registry->GetGauge(p + "rebuild_recommended");
    metrics_.publishes = registry->GetCounter(p + "publishes");
    metrics_.rebuilds = registry->GetCounter(p + "rebuilds");
    metrics_.quality_rebuilds = registry->GetCounter(p + "quality_rebuilds");
    metrics_.rebuild_failures = registry->GetCounter(p + "rebuild_failures");
    metrics_.checkpoint_failures =
        registry->GetCounter(p + "checkpoint_failures");
    metrics_.retrain_seconds = registry->GetHistogram(
        p + "retrain_seconds", LatencyHistogramOptions());
  }

  void UpdateGauges() {
    metrics_.generation->Set(static_cast<double>(store_.generation()));
    metrics_.lag->Set(static_cast<double>(pending_absorbed()));
    metrics_.recommended->Set(NeedsRebuild() ? 1.0 : 0.0);
  }

  Status DoRebuild() {
    // One rebuild at a time; RebuildNow callers queue behind the trainer.
    std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
    const uint64_t covered = absorbed_total_.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(trainer_mu_);
      last_attempt_covered_ = covered;
    }
    Stopwatch sw;
    Result<std::unique_ptr<G>> built = Status::OK();
    {
      TRACE_SPAN_VAR(span, "updatable", "updatable.retrain");
      span.set_arg("pending_absorbed",
                   static_cast<double>(pending_absorbed()));
      built = hooks_.build();
      metrics_.retrain_seconds->Observe(sw.ElapsedSeconds());
    }
    if (!built.ok()) {
      rebuild_failures_.fetch_add(1, std::memory_order_relaxed);
      metrics_.rebuild_failures->Increment();
      return built.status();
    }
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      std::unique_ptr<G> gen = std::move(*built);
      if (hooks_.finalize) gen = hooks_.finalize(std::move(gen));
      PublishLocked(std::move(gen));
      absorbed_at_build_.store(covered, std::memory_order_relaxed);
      rebuilds_.fetch_add(1, std::memory_order_relaxed);
      metrics_.rebuilds->Increment();
    }
    UpdateGauges();
    if (hooks_.checkpoint) {
      ReadPin pin = store_.Acquire();
      Status st = hooks_.checkpoint(*pin);
      if (!st.ok()) metrics_.checkpoint_failures->Increment();
    }
    {
      // Post-publish hook for the monitor layer: runs with no engine locks
      // held except listener_mu_, so the listener may snapshot master state
      // (which takes write_mu) but must not request rebuilds.
      std::lock_guard<std::mutex> lock(listener_mu_);
      if (rebuild_listener_) rebuild_listener_();
    }
    {
      // Wake WaitForRebuilds callers blocked on a RebuildNow from another
      // thread (the trainer loop notifies separately).
      std::lock_guard<std::mutex> lock(trainer_mu_);
      idle_cv_.notify_all();
    }
    return Status::OK();
  }

  void TrainerLoop() {
    Tracer::SetCurrentThreadName("updatable." + name_ + ".trainer");
    if (opts_.trainer_nice != 0) LowerThreadPriority(opts_.trainer_nice);
    std::unique_lock<std::mutex> lock(trainer_mu_);
    for (;;) {
      trainer_cv_.wait(lock, [&] {
        // A failed attempt does not retry until new updates arrive or a
        // rebuild is requested explicitly — prevents a hot failure loop.
        return trainer_stopped_ || rebuild_requested_ ||
               (NeedsRebuild() &&
                last_attempt_covered_ !=
                    absorbed_total_.load(std::memory_order_relaxed));
      });
      if (trainer_stopped_) break;
      rebuild_requested_ = false;
      rebuild_in_flight_ = true;
      lock.unlock();
      DoRebuild();  // failures counted in rebuild_failures
      lock.lock();
      rebuild_in_flight_ = false;
      idle_cv_.notify_all();
    }
  }

  std::string name_;
  UpdatableOptions opts_;
  Hooks hooks_;
  GenerationStore<G> store_;
  std::mutex write_mu_;
  std::mutex rebuild_mu_;
  std::mutex listener_mu_;
  std::function<void()> rebuild_listener_;

  std::atomic<uint64_t> absorbed_total_{0};
  std::atomic<uint64_t> absorbed_at_build_{0};
  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> rebuild_failures_{0};

  std::mutex trainer_mu_;
  std::condition_variable trainer_cv_;
  std::condition_variable idle_cv_;
  bool rebuild_requested_ = false;
  bool rebuild_in_flight_ = false;
  bool trainer_stopped_ = false;
  uint64_t last_attempt_covered_ = ~uint64_t{0};

  Instruments metrics_;
  std::thread trainer_;
};

/// \brief Fixed-size Bloom filter safe for concurrent Insert + MayContain
/// (atomic fetch_or bit sets). Absorbs learned-Bloom inserts between
/// generations so a new key answers "maybe present" immediately, without
/// waiting for a retrain — bits only ever turn on, so there are never false
/// negatives, and an over-full delta degrades to extra false positives.
class ConcurrentBloomDelta {
 public:
  ConcurrentBloomDelta(size_t num_bits, size_t num_hashes)
      : num_bits_(num_bits < 64 ? 64 : num_bits),
        num_hashes_(num_hashes < 1 ? 1 : num_hashes),
        bits_((num_bits_ + 63) / 64) {
    for (auto& w : bits_) w.store(0, std::memory_order_relaxed);
  }

  void InsertHash(uint64_t h) {
    const uint64_t h2 = sets::MixElement(h) | 1;
    for (size_t i = 0; i < num_hashes_; ++i) {
      const uint64_t bit = (h + i * h2) % num_bits_;
      bits_[bit >> 6].fetch_or(uint64_t{1} << (bit & 63),
                               std::memory_order_release);
    }
    inserted_.fetch_add(1, std::memory_order_release);
  }
  void Insert(sets::SetView s) { InsertHash(sets::HashSetSorted(s)); }

  bool MayContainHash(uint64_t h) const {
    const uint64_t h2 = sets::MixElement(h) | 1;
    for (size_t i = 0; i < num_hashes_; ++i) {
      const uint64_t bit = (h + i * h2) % num_bits_;
      if ((bits_[bit >> 6].load(std::memory_order_acquire) &
           (uint64_t{1} << (bit & 63))) == 0) {
        return false;
      }
    }
    return true;
  }
  bool MayContain(sets::SetView s) const {
    return MayContainHash(sets::HashSetSorted(s));
  }

  size_t inserted() const {
    return inserted_.load(std::memory_order_relaxed);
  }
  size_t num_bits() const { return num_bits_; }

 private:
  size_t num_bits_;
  size_t num_hashes_;
  std::vector<std::atomic<uint64_t>> bits_;
  std::atomic<size_t> inserted_{0};
};

// ---------------------------------------------------------------------------
// Typed wrappers (implementations in updatable.cc).
// ---------------------------------------------------------------------------

/// One immutable read generation of the index: a collection snapshot plus
/// the index bound to it. Readers scan the snapshot, so in-place collection
/// rewrites never race a bounded scan.
struct IndexGeneration {
  std::unique_ptr<sets::SetCollection> collection;
  std::unique_ptr<LearnedSetIndex> index;
};

/// \brief Concurrent-update first-superset index: §7.2 absorb-then-rebuild
/// behind RCU generation swaps.
///
/// Visibility contract: an Update is applied to the writer-side master
/// immediately and becomes visible to readers at the next snapshot publish
/// — every `publish_after_updates` updates (default 1: each Update's
/// publish makes it visible before Update returns). A snapshot is a copy
/// of the master collection with LearnedSetIndex::BoundTo of the master
/// index on it; generations share the model until a rebuild. Rebuilds retrain
/// in the background and swap without blocking readers; updates that raced
/// the retrain are re-absorbed into the new generation before it publishes,
/// so no absorbed update is ever lost by a swap.
class UpdatableSetIndex {
 public:
  struct Options {
    IndexOptions index;
    UpdatableOptions update;
    /// Publish a new read generation after this many updates (>= 1).
    /// 1 = read-your-writes for a single updater; larger values spread
    /// one snapshot's collection and aux-tree copy over an update batch.
    size_t publish_after_updates = 1;
  };

  static Result<std::unique_ptr<UpdatableSetIndex>> Build(
      sets::SetCollection collection, const Options& opts,
      MetricsRegistry* registry = nullptr);
  ~UpdatableSetIndex();

  int64_t Lookup(sets::SetView q,
                 LearnedSetIndex::LookupStats* stats = nullptr);
  std::vector<int64_t> LookupBatch(const std::vector<sets::Query>& queries);

  /// Replaces set `position` with new contents; absorbs now-unfindable
  /// subsets into the master's auxiliary structure (§7.2).
  Status Update(size_t position, std::vector<sets::ElementId> new_elements);

  bool NeedsRebuild() const { return engine_->NeedsRebuild(); }
  void RequestRebuild() { engine_->RequestRebuild(); }
  Status RebuildNow() { return engine_->RebuildNow(); }
  void WaitForRebuilds() { engine_->WaitForRebuilds(); }

  /// Consistent copy of the writer-side master collection (takes write_mu
  /// briefly). The monitor layer rebuilds ground-truth oracles from it.
  sets::SetCollection SnapshotCollection();

  uint64_t generation() const { return engine_->generation(); }
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }
  GenerationStore<IndexGeneration>::ReadPin Acquire() const {
    return engine_->Acquire();
  }
  UpdatableStructure<IndexGeneration>* engine() { return engine_.get(); }

 private:
  UpdatableSetIndex() = default;

  Result<std::unique_ptr<IndexGeneration>> BuildGeneration();
  std::unique_ptr<IndexGeneration> FinalizeGeneration(
      std::unique_ptr<IndexGeneration> built);
  std::unique_ptr<IndexGeneration> SnapshotMasterLocked() const;
  Status CheckpointGeneration(const IndexGeneration& gen) const;

  Options opts_;
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<sets::SetCollection> master_collection_;
  std::unique_ptr<LearnedSetIndex> master_index_;
  std::vector<size_t> updated_positions_;  ///< since last rebuild snapshot
  size_t updates_since_publish_ = 0;
  std::atomic<uint64_t> updates_applied_{0};
  // Declared last: its destructor joins the trainer thread before the
  // master state above (captured by the hooks) is torn down.
  std::unique_ptr<UpdatableStructure<IndexGeneration>> engine_;
};

/// \brief Concurrent-update cardinality estimator: the delta-buffer +
/// periodic-retrain pattern. Updates mutate the writer-side collection only
/// — estimates serve from the last published generation (bounded staleness,
/// the paper's §7.2 trade) until the background retrain swaps in a fresh
/// model.
class UpdatableCardinality {
 public:
  struct Options {
    CardinalityOptions cardinality;
    UpdatableOptions update;
  };

  static Result<std::unique_ptr<UpdatableCardinality>> Build(
      sets::SetCollection collection, const Options& opts,
      MetricsRegistry* registry = nullptr);
  ~UpdatableCardinality();

  double Estimate(sets::SetView q);
  std::vector<double> EstimateBatch(const std::vector<sets::Query>& queries);

  /// Replaces set `position` with new contents in the master collection.
  Status Update(size_t position, std::vector<sets::ElementId> new_elements);
  /// Appends a new set; returns its position.
  size_t Insert(std::vector<sets::ElementId> elements);

  bool NeedsRebuild() const { return engine_->NeedsRebuild(); }
  void RequestRebuild() { engine_->RequestRebuild(); }
  Status RebuildNow() { return engine_->RebuildNow(); }
  void WaitForRebuilds() { engine_->WaitForRebuilds(); }

  /// Consistent copy of the writer-side master collection (takes write_mu
  /// briefly). The monitor layer rebuilds ground-truth oracles from it.
  sets::SetCollection SnapshotCollection();

  uint64_t generation() const { return engine_->generation(); }
  GenerationStore<LearnedCardinalityEstimator>::ReadPin Acquire() const {
    return engine_->Acquire();
  }
  UpdatableStructure<LearnedCardinalityEstimator>* engine() {
    return engine_.get();
  }

 private:
  UpdatableCardinality() = default;

  Result<std::unique_ptr<LearnedCardinalityEstimator>> BuildGeneration();
  Status CheckpointGeneration(const LearnedCardinalityEstimator& gen) const;

  Options opts_;
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<sets::SetCollection> master_collection_;
  std::unique_ptr<UpdatableStructure<LearnedCardinalityEstimator>> engine_;
};

/// One immutable read generation of the membership filter plus the
/// concurrent delta filter absorbing inserts that postdate its retrain.
struct BloomGeneration {
  std::unique_ptr<LearnedBloomFilter> filter;
  std::shared_ptr<ConcurrentBloomDelta> delta;
};

/// \brief Concurrent-update learned Bloom filter. Inserts absorb into the
/// generation's delta filter immediately (in the spirit of one-shot
/// memory-augmented updates — no retrain needed for correctness), so:
///
///   any MayContain call that begins after Insert(S) returns answers
///   "maybe present" for S and for every subset of S up to
///   max_subset_size, at all times and across generation swaps.
///
/// A background rebuild folds absorbed inserts into a fresh learned filter
/// (its backup filter restores the trained no-false-negative guarantee) and
/// replays any insert that raced the retrain into the new generation's
/// delta before the swap, so the guarantee has no gaps.
class UpdatableBloom {
 public:
  struct Options {
    BloomOptions bloom;
    UpdatableOptions update;
    /// Delta filter sizing. Bits are fixed per generation; an over-full
    /// delta only raises the false-positive rate. ~16 KiB default.
    size_t delta_bits = 1 << 17;
    size_t delta_hashes = 4;
  };

  static Result<std::unique_ptr<UpdatableBloom>> Build(
      sets::SetCollection collection, const Options& opts,
      MetricsRegistry* registry = nullptr);
  ~UpdatableBloom();

  bool MayContain(sets::SetView q);
  /// verdicts[i] matches MayContain(queries[i]).
  std::vector<bool> MayContainMulti(const std::vector<sets::Query>& queries);

  /// Adds a new set; all its subsets up to max_subset_size answer
  /// MayContain == true from now on. Returns the new set's position.
  size_t Insert(std::vector<sets::ElementId> elements);
  /// Replaces set `position`; the new content's subsets are absorbed (the
  /// old content may keep answering "maybe present" until the next rebuild
  /// — false positives, never false negatives).
  Status Update(size_t position, std::vector<sets::ElementId> new_elements);

  bool NeedsRebuild() const { return engine_->NeedsRebuild(); }
  void RequestRebuild() { engine_->RequestRebuild(); }
  Status RebuildNow() { return engine_->RebuildNow(); }
  void WaitForRebuilds() { engine_->WaitForRebuilds(); }

  /// Consistent copy of the writer-side master collection (takes write_mu
  /// briefly). The monitor layer rebuilds ground-truth oracles from it.
  sets::SetCollection SnapshotCollection();

  uint64_t generation() const { return engine_->generation(); }
  GenerationStore<BloomGeneration>::ReadPin Acquire() const {
    return engine_->Acquire();
  }
  UpdatableStructure<BloomGeneration>* engine() { return engine_.get(); }

 private:
  UpdatableBloom() = default;

  Result<std::unique_ptr<BloomGeneration>> BuildGeneration();
  std::unique_ptr<BloomGeneration> FinalizeGeneration(
      std::unique_ptr<BloomGeneration> built);
  void AbsorbSubsetsLocked(sets::SetView s, ConcurrentBloomDelta* delta,
                           size_t* absorbed) const;
  Status CheckpointGeneration(const BloomGeneration& gen) const;

  Options opts_;
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<sets::SetCollection> master_collection_;
  /// Sets inserted/updated since the last rebuild snapshot; replayed into
  /// the next generation's delta so inserts racing a retrain are not lost.
  std::vector<std::vector<sets::ElementId>> pending_sets_;
  std::unique_ptr<UpdatableStructure<BloomGeneration>> engine_;
};

}  // namespace los::core

#endif  // LOS_CORE_UPDATABLE_H_
