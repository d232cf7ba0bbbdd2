#ifndef LOS_CORE_UPDATABLE_H_
#define LOS_CORE_UPDATABLE_H_

// Online-update subsystem (ROADMAP item 5): serve queries from immutable
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
//   Updatable<Traits>    The one wrapper (defined below): owns the
//                        writer-side master collection and supplies the
//                        engine's build/finalize/checkpoint hooks. A traits
//                        class (IndexTraits, CardinalityTraits,
//                        BloomTraits) supplies only what differs: the
//                        generation type, the build from a collection, the
//                        absorb step of a write, the finalize replay and
//                        the Save. UpdatableSetIndex, UpdatableCardinality
//                        and UpdatableBloom name its three instances; see
//                        each traits class for its visibility contract.
//
// Thread safety: any number of reader threads may call the query entry
// points concurrently with one updater thread and the background trainer.
// Mutating entry points (Update/Insert/Rebuild*) may also be called from
// multiple threads — they serialize on the writer mutex — but are designed
// for a single ingest stream. Destruction must not race with any call.

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/learned_bloom.h"
#include "core/learned_cardinality.h"
#include "core/learned_index.h"
#include "sets/set_hash.h"
#include "sets/subset_gen.h"

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

/// Applies `nice` to the calling thread (Linux; no-op elsewhere). Failures
/// are ignored: priority is an optimization, never a correctness knob.
void LowerThreadPriority(int nice);

/// Policy knobs shared by the three updatable structures.
struct UpdatableOptions {
  /// Background retrain is recommended (and auto-triggered) once this many
  /// units have been absorbed since the last rebuild snapshot. The unit is
  /// the structure's: for the index, subsets an Update routed to the aux
  /// structure; for cardinality, sets written (one per Update or Insert); for
  /// the Bloom filter, subsets absorbed into the delta filter. 0 disables
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

/// \brief The engine behind Updatable<Traits>: generation store
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

  /// Serializes all writer-side master-state mutation (Updatable locks it
  /// in its Update/Insert paths; the rebuild hooks lock it to snapshot and
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
// Updatable<Traits> and its three traits, header-defined like serve::Service<>.
// ---------------------------------------------------------------------------

/// One immutable read generation of the index: a collection snapshot plus
/// the index bound to it. Readers scan the snapshot, so in-place collection
/// rewrites never race a bounded scan.
struct IndexGeneration {
  std::unique_ptr<sets::SetCollection> collection;
  std::unique_ptr<LearnedSetIndex> index;

  void SetMetricsRegistry(MetricsRegistry* r) { index->SetMetricsRegistry(r); }
};

/// One immutable read generation of the membership filter plus the
/// concurrent delta filter absorbing inserts that postdate its retrain.
struct BloomGeneration {
  std::unique_ptr<LearnedBloomFilter> filter;
  std::shared_ptr<ConcurrentBloomDelta> delta;

  /// The live answer: the trained filter, else the delta of the writes it
  /// was not trained on. The delta only ever flips a verdict to true.
  bool MayContain(sets::SetView q) const {
    return filter->MayContain(q) || delta->MayContain(q);
  }
  /// verdicts[i] matches MayContain(queries[i]).
  std::vector<bool> MayContainMulti(
      const std::vector<sets::Query>& queries) const {
    std::vector<bool> verdicts =
        std::move(filter->MayContainMulti(queries).verdicts);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!verdicts[i]) verdicts[i] = delta->MayContain(queries[i].view());
    }
    return verdicts;
  }
  /// MayContain's answer through the filter's metric-silent probe.
  bool ProbeMayContain(sets::SetView q) const {
    return filter->ProbeMayContain(q) || delta->MayContain(q);
  }
  void SetMetricsRegistry(MetricsRegistry* r) { filter->SetMetricsRegistry(r); }
};

/// \brief A learned structure under concurrent updates: §7.2
/// absorb-then-rebuild behind RCU generation swaps.
///
/// Owns the writer-side master collection and the engine. Each write runs
/// the trait's absorb step under the engine's write mutex and counts what
/// it absorbed toward `rebuild_after_absorbed`. A rebuild snapshots the
/// master under that mutex, lets the trait build a generation from the
/// snapshot unlocked, then runs the trait's finalize replay (if it has one)
/// back under the mutex before the swap. The query calls are named per
/// structure, and each exists only on its own instance.
template <typename Traits>
class Updatable {
 public:
  using Generation = typename Traits::Generation;
  using Options = typename Traits::Options;
  using Engine = UpdatableStructure<Generation>;

  static Result<std::unique_ptr<Updatable>> Build(
      sets::SetCollection collection, const Options& opts,
      MetricsRegistry* registry = nullptr) {
    auto self = std::unique_ptr<Updatable>(new Updatable());
    self->opts_ = opts;
    self->registry_ =
        registry != nullptr ? registry : MetricsRegistry::Global();
    self->master_ =
        std::make_unique<sets::SetCollection>(std::move(collection));
    auto initial = Traits::Build(*self->master_, opts);
    if (!initial.ok()) return initial.status();
    (*initial)->SetMetricsRegistry(self->registry_);

    typename Engine::Hooks hooks;
    Updatable* raw = self.get();
    hooks.build = [raw] { return raw->BuildGeneration(); };
    hooks.finalize = [raw](std::unique_ptr<Generation> g) {
      return raw->Finalize(std::move(g));
    };
    if (!opts.update.checkpoint_path.empty()) {
      hooks.checkpoint = [raw](const Generation& g) {
        return raw->CheckpointGeneration(g);
      };
    }
    self->engine_ = std::make_unique<Engine>(
        Traits::kName, self->Finalize(std::move(*initial)), opts.update,
        std::move(hooks), self->registry_);
    return self;
  }

  int64_t Lookup(sets::SetView q,
                 LearnedSetIndex::LookupStats* stats = nullptr)
    requires std::same_as<Generation, IndexGeneration>
  {
    return Acquire()->index->Lookup(q, stats);
  }
  std::vector<int64_t> LookupBatch(const std::vector<sets::Query>& queries)
    requires std::same_as<Generation, IndexGeneration>
  {
    return Acquire()->index->LookupBatch(queries);
  }
  double Estimate(sets::SetView q)
    requires std::same_as<Generation, LearnedCardinalityEstimator>
  {
    return Acquire()->Estimate(q);
  }
  std::vector<double> EstimateBatch(const std::vector<sets::Query>& queries)
    requires std::same_as<Generation, LearnedCardinalityEstimator>
  {
    return Acquire()->EstimateBatch(queries);
  }
  bool MayContain(sets::SetView q)
    requires std::same_as<Generation, BloomGeneration>
  {
    return Acquire()->MayContain(q);
  }
  std::vector<bool> MayContainMulti(const std::vector<sets::Query>& queries)
    requires std::same_as<Generation, BloomGeneration>
  {
    return Acquire()->MayContainMulti(queries);
  }

  /// Replaces set `position` with new contents and absorbs the write.
  Status Update(size_t position, std::vector<sets::ElementId> elements) {
    Result<size_t> absorbed = Status::OK();
    {
      std::lock_guard<std::mutex> lock(engine_->write_mu());
      absorbed = traits_.Update(*this, position, std::move(elements));
      if (!absorbed.ok()) return absorbed.status();
      updates_applied_.fetch_add(1, std::memory_order_relaxed);
    }
    engine_->NoteAbsorbed(*absorbed);
    return Status::OK();
  }

  /// Appends a new set and absorbs it; returns its position. The index has
  /// no Insert: its positions are what it learned.
  size_t Insert(std::vector<sets::ElementId> elements)
    requires(!std::same_as<Generation, IndexGeneration>)
  {
    size_t position;
    size_t absorbed;
    {
      std::lock_guard<std::mutex> lock(engine_->write_mu());
      position = master_->size();
      absorbed = traits_.Insert(*this, std::move(elements));
      updates_applied_.fetch_add(1, std::memory_order_relaxed);
    }
    engine_->NoteAbsorbed(absorbed);
    return position;
  }

  bool NeedsRebuild() const { return engine_->NeedsRebuild(); }
  void RequestRebuild() { engine_->RequestRebuild(); }
  Status RebuildNow() { return engine_->RebuildNow(); }
  void WaitForRebuilds() { engine_->WaitForRebuilds(); }

  /// Consistent copy of the writer-side master collection (takes write_mu
  /// briefly). The monitor layer rebuilds ground-truth oracles from it.
  sets::SetCollection SnapshotCollection() {
    std::lock_guard<std::mutex> lock(engine_->write_mu());
    return *master_;
  }

  uint64_t generation() const { return engine_->generation(); }
  /// Successful Update and Insert calls so far.
  uint64_t updates_applied() const {
    return updates_applied_.load(std::memory_order_relaxed);
  }
  typename Engine::ReadPin Acquire() const { return engine_->Acquire(); }
  Engine* engine() { return engine_.get(); }

 private:
  friend Traits;
  Updatable() = default;

  /// Engine build hook: snapshot under write_mu, then the trait builds.
  Result<std::unique_ptr<Generation>> BuildGeneration() {
    sets::SetCollection snapshot;
    {
      // Snapshot cut: writes from here on are replayed by Finalize.
      std::lock_guard<std::mutex> lock(engine_->write_mu());
      snapshot = *master_;
      if constexpr (requires { &Traits::OnSnapshot; }) traits_.OnSnapshot();
    }
    auto gen = Traits::Build(std::move(snapshot), opts_);
    if (gen.ok()) (*gen)->SetMetricsRegistry(registry_);
    return gen;
  }

  /// Engine finalize hook, under write_mu (and once at Build).
  std::unique_ptr<Generation> Finalize(std::unique_ptr<Generation> built) {
    if constexpr (requires { &Traits::Finalize; }) {
      return traits_.Finalize(*this, std::move(built));
    } else {
      return built;
    }
  }

  Status CheckpointGeneration(const Generation& gen) const {
    BinaryWriter w;
    Traits::Save(gen, &w);
    return w.WriteToFile(opts_.update.checkpoint_path);
  }

  Options opts_;
  MetricsRegistry* registry_ = nullptr;
  std::unique_ptr<sets::SetCollection> master_;
  Traits traits_;
  std::atomic<uint64_t> updates_applied_{0};
  // Declared last: its destructor joins the trainer thread before the
  // master state above (captured by the hooks) is torn down.
  std::unique_ptr<Engine> engine_;
};

/// \brief The first-superset index under updates.
///
/// Visibility contract: an Update is applied to the writer-side master
/// immediately and becomes visible to readers at the next snapshot publish
/// — every `publish_after_updates` updates (default 1: each Update's
/// publish makes it visible before Update returns). A snapshot is a copy
/// of the master collection with LearnedSetIndex::BoundTo of the master
/// index on it; generations share the model until a rebuild. Rebuilds
/// retrain in the background and swap without blocking readers; updates
/// that raced the retrain are re-absorbed into the new generation before it
/// publishes, so no absorbed update is ever lost by a swap.
struct IndexTraits {
  using Generation = IndexGeneration;
  struct Options {
    IndexOptions index;
    UpdatableOptions update;
    /// Publish a new read generation after this many updates (>= 1).
    /// 1 = read-your-writes for a single updater; larger values spread
    /// one snapshot's collection and aux-overlay copy over an update batch.
    size_t publish_after_updates = 1;
  };
  static constexpr const char* kName = "index";

  static Result<std::unique_ptr<Generation>> Build(
      sets::SetCollection snapshot, const Options& opts) {
    if (opts.publish_after_updates == 0) {
      return Status::InvalidArgument("publish_after_updates must be >= 1");
    }
    auto gen = std::make_unique<IndexGeneration>();
    gen->collection =
        std::make_unique<sets::SetCollection>(std::move(snapshot));
    auto built = LearnedSetIndex::Build(*gen->collection, opts.index);
    if (!built.ok()) return built.status();
    gen->index = std::make_unique<LearnedSetIndex>(std::move(*built));
    return gen;
  }

  static void Save(const Generation& gen, BinaryWriter* w) {
    gen.collection->Save(w);
    gen.index->Save(w);
  }

  /// Replaces set `position` in the master and absorbs now-unfindable
  /// subsets into the master index's aux structure (§7.2); returns how
  /// many it routed there.
  Result<size_t> Update(Updatable<IndexTraits>& u, size_t position,
                        std::vector<sets::ElementId> elements) {
    sets::SetCollection& master = *u.master_;
    const sets::SetView old =
        position < master.size() ? master.set(position) : sets::SetView();
    std::vector<sets::ElementId> old_content(old.begin(), old.end());
    LOS_RETURN_NOT_OK(master.UpdateSet(position, std::move(elements)));
    const size_t routed = master_index_->AbsorbUpdatedSet(
        position, u.opts_.index.max_subset_size, old_content);
    updated_positions_.insert(position);
    if (++updates_since_publish_ >= u.opts_.publish_after_updates) {
      u.engine_->PublishLocked(Snapshot(master));
      updates_since_publish_ = 0;
    }
    return routed;
  }

  void OnSnapshot() { updated_positions_.clear(); }

  std::unique_ptr<Generation> Finalize(Updatable<IndexTraits>& u,
                                       std::unique_ptr<Generation> built) {
    // The built index trained on the snapshot; the master collection may
    // have moved on. Bind a copy of the trained index to the master,
    // re-absorb the post-snapshot updates into its fresh auxiliary
    // structure, then publish a snapshot of that.
    master_index_ = std::make_unique<LearnedSetIndex>(
        built->index->BoundTo(*u.master_));
    // The built index knows each replayed set as the snapshot held it.
    for (size_t pos : updated_positions_) {
      master_index_->AbsorbUpdatedSet(pos, u.opts_.index.max_subset_size,
                                      built->collection->set(pos));
    }
    return Snapshot(*u.master_);
  }

 private:
  /// A read generation: a copy of the master collection and a BoundTo copy
  /// of the master index, which shares the model and the aux base and
  /// copies only the aux overlay written since the last rebuild.
  std::unique_ptr<Generation> Snapshot(
      const sets::SetCollection& master) const {
    auto gen = std::make_unique<IndexGeneration>();
    gen->collection = std::make_unique<sets::SetCollection>(master);
    gen->index = std::make_unique<LearnedSetIndex>(
        master_index_->BoundTo(*gen->collection));
    return gen;
  }

  std::unique_ptr<LearnedSetIndex> master_index_;
  std::set<size_t> updated_positions_;  ///< since last rebuild snapshot
  size_t updates_since_publish_ = 0;
};

/// \brief The cardinality estimator under updates: the delta-buffer +
/// periodic-retrain pattern. Writes mutate the master collection only —
/// estimates serve from the last published generation (bounded staleness,
/// the paper's §7.2 trade) until the background retrain swaps in a fresh
/// model. It has no finalize replay: a rebuild trains on the newest
/// snapshot and later writes wait for the next one.
struct CardinalityTraits {
  using Generation = LearnedCardinalityEstimator;
  struct Options {
    CardinalityOptions cardinality;
    UpdatableOptions update;
  };
  static constexpr const char* kName = "cardinality";

  static Result<std::unique_ptr<Generation>> Build(
      sets::SetCollection snapshot, const Options& opts) {
    auto built = LearnedCardinalityEstimator::Build(snapshot, opts.cardinality);
    if (!built.ok()) return built.status();
    return std::make_unique<LearnedCardinalityEstimator>(std::move(*built));
  }

  static void Save(const Generation& gen, BinaryWriter* w) { gen.Save(w); }

  static Result<size_t> Update(Updatable<CardinalityTraits>& u,
                               size_t position,
                               std::vector<sets::ElementId> elements) {
    LOS_RETURN_NOT_OK(u.master_->UpdateSet(position, std::move(elements)));
    return size_t{1};
  }

  static size_t Insert(Updatable<CardinalityTraits>& u,
                       std::vector<sets::ElementId> elements) {
    u.master_->Add(std::move(elements));
    return 1;
  }
};

/// \brief The learned Bloom filter under updates. Writes absorb into the
/// generation's delta filter immediately (in the spirit of one-shot
/// memory-augmented updates — no retrain needed for correctness), so:
///
///   any MayContain call that begins after Insert(S) returns answers
///   "maybe present" for S and for every subset of S up to
///   max_subset_size, at all times and across generation swaps.
///
/// An Update absorbs the new content the same way; the old content may
/// keep answering "maybe present" until the next rebuild — false
/// positives, never false negatives. A background rebuild folds absorbed
/// writes into a fresh learned filter (its backup filter restores the
/// trained no-false-negative guarantee) and replays any write that raced
/// the retrain into the new generation's delta before the swap, so the
/// guarantee has no gaps.
struct BloomTraits {
  using Generation = BloomGeneration;
  struct Options {
    BloomOptions bloom;
    UpdatableOptions update;
  };
  static constexpr const char* kName = "bloom";
  /// Delta filter sizing (~16 KiB). Bits are fixed per generation; an
  /// over-full delta only raises the false-positive rate.
  static constexpr size_t kDeltaBits = size_t{1} << 17;
  static constexpr size_t kDeltaHashes = 4;

  static Result<std::unique_ptr<Generation>> Build(
      sets::SetCollection snapshot, const Options& opts) {
    auto built = LearnedBloomFilter::Build(snapshot, opts.bloom);
    if (!built.ok()) return built.status();
    auto gen = std::make_unique<BloomGeneration>();
    gen->filter = std::make_unique<LearnedBloomFilter>(std::move(*built));
    gen->delta =
        std::make_shared<ConcurrentBloomDelta>(kDeltaBits, kDeltaHashes);
    return gen;
  }

  static void Save(const Generation& gen, BinaryWriter* w) {
    gen.filter->Save(w);
  }

  Result<size_t> Update(Updatable<BloomTraits>& u, size_t position,
                        std::vector<sets::ElementId> elements) {
    sets::Canonicalize(&elements);
    LOS_RETURN_NOT_OK(u.master_->UpdateSet(position, elements));
    return Absorb(u, std::move(elements));
  }

  size_t Insert(Updatable<BloomTraits>& u,
                std::vector<sets::ElementId> elements) {
    sets::Canonicalize(&elements);
    u.master_->AddSorted(elements);
    return Absorb(u, std::move(elements));
  }

  void OnSnapshot() { pending_sets_.clear(); }

  std::unique_ptr<Generation> Finalize(Updatable<BloomTraits>& u,
                                       std::unique_ptr<Generation> built) {
    // Writes that raced the retrain sit in pending_sets_; replay them into
    // the fresh delta before the swap so the no-false-negative guarantee
    // has no gap across generations.
    for (const auto& s : pending_sets_) {
      AbsorbSubsets(s, u.opts_.bloom.max_subset_size, built->delta.get());
    }
    return built;
  }

 private:
  /// Absorbs the sorted `set` into the live generation's delta and logs it
  /// for replay; returns the count of subsets absorbed.
  size_t Absorb(Updatable<BloomTraits>& u, std::vector<sets::ElementId> set) {
    // Absorb while holding write_mu: a concurrent rebuild cannot publish in
    // between (Finalize runs under the same mutex and replays pending_sets_
    // into the new delta), so the key is visible to readers at every
    // instant from here on.
    auto pin = u.engine_->Acquire();
    const size_t absorbed =
        AbsorbSubsets(set, u.opts_.bloom.max_subset_size, pin->delta.get());
    pending_sets_.push_back(std::move(set));
    return absorbed;
  }

  static size_t AbsorbSubsets(sets::SetView s, size_t max_subset_size,
                              ConcurrentBloomDelta* delta) {
    size_t absorbed = 0;
    sets::ForEachSubset(s, max_subset_size, [&](sets::SetView sub) {
      delta->Insert(sub);
      ++absorbed;
    });
    return absorbed;
  }

  /// Sets inserted/updated since the last rebuild snapshot; replayed into
  /// the next generation's delta so writes racing a retrain are not lost.
  std::vector<std::vector<sets::ElementId>> pending_sets_;
};

using UpdatableSetIndex = Updatable<IndexTraits>;
using UpdatableCardinality = Updatable<CardinalityTraits>;
using UpdatableBloom = Updatable<BloomTraits>;

}  // namespace los::core

#endif  // LOS_CORE_UPDATABLE_H_
