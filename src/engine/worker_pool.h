#ifndef DIFFC_ENGINE_WORKER_POOL_H_
#define DIFFC_ENGINE_WORKER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace diffc {

/// A fixed-size pool of `std::jthread` workers draining a shared task
/// queue — the execution substrate of the batched implication engine.
///
/// Tasks are arbitrary `void()` callables. A task that throws does NOT
/// take the process down: the exception is swallowed at the worker loop
/// (counted in `uncaught_exceptions()`, recorded as a "worker_exception"
/// event) and the worker keeps draining the queue. Callers that need the
/// error itself must catch inside the task — the engine converts throws to
/// a per-query Internal `Status` there; the loop-level catch is the
/// last-resort guard that keeps one poisoned task from terminating every
/// thread (an escaped exception in a `jthread` calls `std::terminate`).
///
/// Submission is thread-safe, and so is every observer (`stats()`,
/// `queue_depth()`, `in_flight()`): the queue depth is read under the queue
/// mutex and the counters are atomics, so snapshots taken concurrently with
/// `Submit` are race-free. The pool also exports live gauges
/// (`diffc_pool_queue_depth`, `diffc_pool_in_flight`) and task-latency
/// histograms (queue wait, run time) to the metrics registry.
///
/// Destruction requests stop, wakes all workers, and joins them (jthread);
/// tasks still queued at destruction are discarded, so callers that need
/// completion must track it themselves (the engine counts each batch's
/// unsettled goals in a block its helper tasks share).
class WorkerPool {
 public:
  /// A consistent point-in-time view of the pool.
  struct Stats {
    /// Tasks ever submitted / completed (completed includes throwers).
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    /// Exceptions that escaped tasks and were swallowed by the loop.
    std::uint64_t exceptions = 0;
    /// Tasks queued but not yet picked up.
    std::size_t queue_depth = 0;
    /// Tasks currently executing on a worker.
    int in_flight = 0;
  };

  /// Creates `num_threads` workers (clamped to at least 1).
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution by some worker.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// A snapshot safe against concurrent `Submit` / completion: the queue
  /// depth is read under the queue mutex, counters atomically.
  Stats stats() const EXCLUDES(mu_);

  /// Tasks queued but not yet picked up.
  std::size_t queue_depth() const EXCLUDES(mu_);

  /// Tasks currently executing.
  int in_flight() const { return in_flight_.load(std::memory_order_relaxed); }

  /// Number of exceptions that escaped submitted tasks (and were swallowed
  /// by the worker loop) over the pool's lifetime.
  std::uint64_t uncaught_exceptions() const {
    return uncaught_exceptions_.load(std::memory_order_relaxed);
  }

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void WorkerLoop(std::stop_token stop) EXCLUDES(mu_);

  mutable Mutex mu_;
  CondVarAny cv_;
  std::deque<QueuedTask> queue_ GUARDED_BY(mu_);
  std::vector<std::jthread> workers_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> uncaught_exceptions_{0};
};

}  // namespace diffc

#endif  // DIFFC_ENGINE_WORKER_POOL_H_
