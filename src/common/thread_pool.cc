#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/metrics.h"
#include "common/trace.h"

namespace los {

namespace {
// Set for the lifetime of any pool's worker thread. ParallelFor uses it to
// detect nested calls: a worker that blocked waiting on sub-tasks would
// deadlock a single-worker pool (and waste a slot on any pool), so nested
// loops run inline on the calling worker instead.
thread_local bool t_in_pool_worker = false;

// Pool instruments report to the global registry: pools are process-wide
// shared infrastructure, so per-structure registry injection doesn't apply.
struct PoolInstruments {
  Gauge* queue_depth;
  Counter* tasks_executed;
};

PoolInstruments& Instruments() {
  static PoolInstruments* const inst = new PoolInstruments{
      MetricsRegistry::Global()->GetGauge("pool.queue_depth"),
      MetricsRegistry::Global()->GetCounter("pool.tasks_executed")};
  return *inst;
}
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Enqueue timestamp feeds the pool.queue_wait span; skip the clock read
  // entirely while tracing is off.
  const uint64_t enqueue_ns =
      Tracer::Global()->enabled() ? Tracer::NowNs() : 0;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(Task{std::move(task), enqueue_ns});
    depth = tasks_.size();
  }
  Instruments().queue_depth->Set(static_cast<double>(depth));
  cv_.notify_one();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_in_pool_worker = true;
  Tracer::SetCurrentThreadName("pool.worker-" +
                               std::to_string(worker_index));
  while (true) {
    Task task;
    size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      depth = tasks_.size();
    }
    Instruments().queue_depth->Set(static_cast<double>(depth));
    if (task.enqueue_ns != 0) {
      const uint64_t now = Tracer::NowNs();
      Tracer::Global()->Emit("pool", "pool.queue_wait", task.enqueue_ns,
                             now - task.enqueue_ns);
    }
    {
      TRACE_SPAN("pool", "pool.task");
      task.fn();
    }
    Instruments().tasks_executed->Increment();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn,
                             size_t min_chunk) {
  if (n == 0) return;
  if (t_in_pool_worker) {
    fn(0, n);
    return;
  }
  size_t num_chunks = (n + min_chunk - 1) / min_chunk;
  if (num_chunks > workers_.size()) num_chunks = workers_.size();
  if (num_chunks <= 1) {
    fn(0, n);
    return;
  }
  // The caller and the workers claim chunks from one shared cursor, so the
  // caller finishes the loop alone if no worker wakes: a lost wakeup or a
  // pool busy with other work costs time, never a hang. Each task owns a
  // reference to the state, so a worker that wakes after the loop has
  // returned finds no chunk left and touches nothing freed; `fn` is only
  // called for a claimed chunk, and the caller waits for every claimed
  // chunk to finish.
  struct State {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    size_t n = 0, chunk = 0, num_chunks = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // guarded by mu

    void RunChunks() {
      for (size_t c = next.fetch_add(1); c < num_chunks;
           c = next.fetch_add(1)) {
        const size_t begin = c * chunk;
        (*fn)(begin, std::min(n, begin + chunk));
        std::lock_guard<std::mutex> lock(mu);
        if (++done == num_chunks) cv.notify_one();
      }
    }
  };
  auto state = std::make_shared<State>();
  state->fn = &fn;
  state->n = n;
  state->chunk = (n + num_chunks - 1) / num_chunks;
  state->num_chunks = num_chunks;
  for (size_t c = 1; c < num_chunks; ++c) {
    Submit([state] { state->RunChunks(); });
  }
  state->RunChunks();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done == num_chunks; });
}

ThreadPool* ThreadPool::Global() {
  // Function-local static pointer: never destroyed, avoiding shutdown-order
  // issues (see style guide on static storage duration).
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

}  // namespace los
