#include "common/thread_pool.h"

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
  // `remaining`, the decrement, and the final notify are all kept under
  // done_mu: the caller can only observe remaining == 0 (and destroy this
  // stack frame) after the last worker has released the lock, at which
  // point that worker no longer touches any of this state. A lock-free
  // decrement would let a spurious wakeup race the worker between its
  // fetch_sub and taking the lock, destroying the mutex under it.
  size_t remaining = num_chunks;
  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t begin = c * chunk;
    size_t end = std::min(n, begin + chunk);
    Submit([&, begin, end] {
      fn(begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

ThreadPool* ThreadPool::Global() {
  // Function-local static pointer: never destroyed, avoiding shutdown-order
  // issues (see style guide on static storage duration).
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

}  // namespace los
