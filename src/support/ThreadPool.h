//===- support/ThreadPool.h - Fork/join worker pool -------------*- C++ -*-===//
//
// Part of the cdvs project (PLDI 2003 compile-time DVS reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Worker pools: a fork/join helper that runs the same worker function
/// on N threads (the caller doubles as worker 0) and joins, used by the
/// bench drivers' independent-point sweeps, and the persistent TaskPool
/// behind the scheduling service.
///
//===----------------------------------------------------------------------===//

#ifndef CDVS_SUPPORT_THREADPOOL_H
#define CDVS_SUPPORT_THREADPOOL_H

#include "support/Clock.h"

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cdvs {

/// \returns the number of hardware threads, always at least 1.
int hardwareThreads();

/// Resolves a user thread-count knob: \p Requested <= 0 means "one per
/// hardware core"; anything else is clamped to at least 1.
int resolveThreads(int Requested);

/// Fork/join pool: runs \p Body as Body(WorkerIndex) on \p NumThreads
/// workers concurrently and returns when all have finished. Worker 0 runs
/// on the calling thread, so NumThreads == 1 spawns nothing and is an
/// ordinary call. \p Body must not throw.
void runOnWorkers(int NumThreads, const std::function<void(int)> &Body);

/// Dynamic parallel-for over [0, End): workers pull the next index from a
/// shared counter, so uneven per-index costs (e.g. MILP solves at
/// different deadlines) balance automatically. Runs on
/// resolveThreads(NumThreads) workers; \p Body must not throw and must
/// synchronize any shared writes itself (writing to distinct slots of a
/// pre-sized vector is safe).
void parallelFor(int End, int NumThreads,
                 const std::function<void(int)> &Body);

/// Observability counters of one TaskPool, snapshot via stats().
/// PeakQueueDepth and TotalWaitSeconds make queueing pressure visible:
/// a deep queue with long waits means the pool is undersized, a flat
/// one that the submit path itself is the bottleneck.
struct PoolStats {
  long TasksSubmitted = 0; ///< accepted by submit()
  long TasksExecuted = 0;  ///< finished running
  size_t PeakQueueDepth = 0;
  double TotalWaitSeconds = 0.0; ///< enqueue -> dequeue, summed
};

/// A persistent task pool for long-lived components (the scheduling
/// service): N worker threads drain a FIFO of submitted closures. Unlike
/// runOnWorkers this owns its threads for the pool's whole lifetime, so
/// submitters never pay thread spawn cost.
///
/// Lifecycle rules are fully defined (no UB corners):
///  * submit() after shutdown() returns false and drops the task;
///  * shutdown() is idempotent — the second and later calls (from any
///    thread) are no-ops;
///  * shutdown() drains: tasks already queued still run before the
///    workers exit, and the call returns only once they have;
///  * the destructor calls shutdown().
///
/// Tasks must not throw. A task may submit further tasks, but a task
/// submitted by a task racing with shutdown() may be dropped (submit
/// reports this by returning false).
class TaskPool {
public:
  /// Spawns resolveThreads(\p NumThreads) workers.
  explicit TaskPool(int NumThreads = 0);
  ~TaskPool();

  TaskPool(const TaskPool &) = delete;
  TaskPool &operator=(const TaskPool &) = delete;

  /// Enqueues \p Task; \returns false (without running or keeping the
  /// task) when the pool has been shut down.
  bool submit(std::function<void()> Task);

  /// Stops accepting work, runs everything still queued, and joins the
  /// workers. Safe to call repeatedly and from multiple threads.
  void shutdown();

  /// True once shutdown() has begun.
  bool stopped() const;

  /// The configured worker count (constant over the pool's lifetime).
  int numThreads() const { return Num; }

  /// Queue-pressure counters; cheap enough to call at any time.
  PoolStats stats() const;

private:
  void workerLoop();

  struct QueuedTask {
    std::function<void()> Fn;
    uint64_t EnqueuedNs = 0;
  };

  mutable std::mutex Mu;
  std::condition_variable Cv;
  std::deque<QueuedTask> Queue;
  std::vector<std::thread> Threads;
  int Num;
  bool Stop = false;
  PoolStats Counters; ///< guarded by Mu
};

} // namespace cdvs

#endif // CDVS_SUPPORT_THREADPOOL_H
