#include "util/thread_pool.h"

#include <atomic>

#include "util/status.h"

namespace rap::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  RAP_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    RAP_CHECK_MSG(!shutting_down_, "submit after shutdown");
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

std::size_t ThreadPool::inFlight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::size_t ThreadPool::idleWorkers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_ < workers_.size() ? workers_.size() - in_flight_ : 0;
}

std::size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 std::size_t threads) {
  if (n == 0) return;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);
  if (threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Work stealing via a shared atomic cursor: threads grab the next
  // index until exhausted — balanced even when per-index cost varies
  // (localization cases differ wildly in search depth).
  std::atomic<std::size_t> cursor{0};
  auto worker = [&cursor, n, &fn] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (auto& thread : pool) thread.join();
}

}  // namespace rap::util
