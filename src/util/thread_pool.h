// Minimal fixed-size thread pool plus a parallel-for helper.
//
// The process's executors are instances of this pool:
//   * Algorithm 2's within-layer cuboid fan-out (core::acGuidedSearch
//     with a pool; RapMiner owns one when parallel.threads > 1).  The
//     search hands helpers only to idle workers (idleWorkers()), its
//     helpers step aside once other tasks queue (queued()), and it joins
//     only helpers that started, so it may fan out on the pool whose
//     task runs it;
//   * the service's localize workers (svc::JobManager, drawing on the
//     tenant catalog's shared pool), which also carry their searches'
//     fan-out;
//   * the stream engine's localization pool, likewise shared with its
//     searches' fan-out (stream::StreamEngine);
//   * parallelFor, which the evaluation runner uses to fan localization
//     cases across cores during parameter sweeps.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rap::util {

class ThreadPool {
 public:
  /// `threads` == 0 picks hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Enqueue a task.  Tasks must not throw (they run under noexcept
  /// workers; violate this and the process terminates, loudly).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait();

  /// Tasks submitted but not yet finished (queued + running) — the
  /// utilization signal the stream lag collector samples.
  std::size_t inFlight() const;

  /// Workers that a task submitted now would find free: threadCount()
  /// minus inFlight(), floored at 0.  A snapshot, stale on return.
  std::size_t idleWorkers() const;

  /// Tasks submitted but not yet started by a worker.
  std::size_t queued() const;

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs fn(i) for i in [0, n) across `threads` workers (0 = hardware
/// concurrency).  Blocks until every index is processed.  fn must be
/// safe to call concurrently for distinct indices.
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 std::size_t threads = 0);

}  // namespace rap::util
