// Bounded worker pool for the parallel query executor.
//
// A fixed set of threads consuming a bounded FIFO of tasks.  Producers block
// when the queue is full (back-pressure, not unbounded growth), Shutdown
// drains the queue and joins every thread, and exceptions thrown by tasks are
// captured and re-thrown to the caller at the next join point (ParallelFor
// rethrows the first failure after the whole batch has finished, so no task
// is left running against destroyed stack state).
//
// The database layer uses a pool for chunked full scans and batched join
// probes (src/db), and MoiraServer uses one to execute read-only queries
// concurrently (src/server) — see DESIGN.md "Concurrency model" for the
// locking contract that makes those reads safe.
#ifndef MOIRA_SRC_COMMON_WORKER_POOL_H_
#define MOIRA_SRC_COMMON_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace moira {

class WorkerPool {
 public:
  // `threads` worker threads; 0 is allowed and makes every operation run
  // inline on the caller (a degenerate pool for single-core builds and
  // tests).  `queue_capacity` bounds the pending-task FIFO; Submit blocks
  // when it is full.
  explicit WorkerPool(size_t threads, size_t queue_capacity = 256);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t thread_count() const { return threads_.size(); }

  // Enqueues one task.  Blocks while the queue is at capacity; returns false
  // (dropping the task) only after Shutdown.  A task that throws has its
  // exception captured; the next Drain/Shutdown call rethrows the first one.
  bool Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished, then rethrows the
  // first captured task exception, if any.
  void Drain();

  // Runs body(0..n-1), spreading indices over the workers with the caller
  // participating, and returns when all n calls have finished.  The first
  // exception any call throws is rethrown here (after the barrier).  Indices
  // are claimed dynamically, so uneven per-index cost still balances.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  // Stops accepting work, finishes what is queued, joins all threads, and
  // rethrows the first captured Submit-task exception.  Idempotent; the
  // destructor calls it (swallowing the rethrow).
  void Shutdown();

  // --- introspection (tests and TBLSTATS-style reporting) ---
  struct PoolStats {
    int64_t tasks_run = 0;        // tasks executed to completion (or throw)
    int64_t submit_blocks = 0;    // Submit calls that had to wait on a full queue
    int64_t parallel_fors = 0;    // ParallelFor batches executed
  };
  PoolStats stats() const;

 private:
  void WorkerLoop();
  void RecordException();

  const size_t queue_capacity_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;   // workers wait here for tasks
  std::condition_variable queue_space_;  // producers wait here when full
  std::condition_variable idle_;         // Drain waits here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;  // tasks currently executing
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  PoolStats stats_;
};

}  // namespace moira

#endif  // MOIRA_SRC_COMMON_WORKER_POOL_H_
