#ifndef LOS_COMMON_THREAD_POOL_H_
#define LOS_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace los {

/// \brief Minimal fixed-size thread pool used to parallelize batched GEMMs
/// and data generation. Tasks are `void()` closures; `ParallelFor` splits an
/// index range into contiguous chunks.
class ThreadPool {
 public:
  /// \param num_threads 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Runs `fn(begin, end)` over disjoint chunks of [0, n) and blocks until
  /// all chunks complete. Falls back to inline execution for tiny ranges.
  /// The chunk boundaries depend only on n, min_chunk and the worker
  /// count. The caller runs chunks too, claiming them from the same cursor
  /// as the workers, so the loop completes even when no worker is free.
  ///
  /// Safe to call from inside a pool worker (nested parallelism): the loop
  /// then runs inline on the calling worker instead of enqueueing tasks the
  /// blocked caller could deadlock on.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                   size_t min_chunk = 1024);

  /// Process-wide default pool (created on first use).
  static ThreadPool* Global();

 private:
  /// A queued closure plus its enqueue time (0 unless tracing was enabled
  /// at submit time) for the pool.queue_wait trace span.
  struct Task {
    std::function<void()> fn;
    uint64_t enqueue_ns = 0;
  };

  void Submit(std::function<void()> task);
  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace los

#endif  // LOS_COMMON_THREAD_POOL_H_
