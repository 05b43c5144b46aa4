// Fixed-size worker pool: CarouselStore fans a stripe's fetches out on one,
// and RepairScheduler drains dispatched repairs on another.

#ifndef CAROUSEL_UTIL_THREAD_POOL_H
#define CAROUSEL_UTIL_THREAD_POOL_H

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/sync.h"

namespace carousel::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task.  Tasks may not touch the pool's own interface except
  /// submit() (no wait_idle from inside a task).
  void submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.  If any task threw, the
  /// first exception is rethrown here (the rest are dropped).
  void wait_idle() EXCLUDES(mu_);

 private:
  void worker_loop();

  // Shared observability (global registry): queue depth across all pools,
  // per-task wall-clock latency, total tasks executed.
  obs::Gauge* queue_depth_;
  obs::Histogram* task_seconds_;
  obs::Counter* tasks_total_;

  std::vector<std::thread> workers_;  // set in the ctor, joined in the dtor
  Mutex mu_{LockRank::kThreadPool};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  std::size_t in_flight_ GUARDED_BY(mu_) = 0;
  std::exception_ptr first_error_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace carousel::util

#endif  // CAROUSEL_UTIL_THREAD_POOL_H
