#include "util/periodic_thread.h"

#include <utility>

namespace carousel::util {

PeriodicThread::PeriodicThread(std::chrono::milliseconds interval,
                               std::function<void()> tick)
    : interval_(interval), tick_(std::move(tick)) {}

PeriodicThread::~PeriodicThread() { stop(); }

void PeriodicThread::start() {
  MutexLock lock(mu_);
  if (thread_.joinable()) return;
  const std::uint64_t stops = stops_;
  thread_ = std::thread([this, stops] { loop(stops); });
}

void PeriodicThread::stop() {
  std::thread claimed;
  {
    MutexLock lock(mu_);
    ++stops_;
    claimed = std::move(thread_);
  }
  cv_.notify_all();
  if (claimed.joinable()) claimed.join();
}

bool PeriodicThread::running() const {
  MutexLock lock(mu_);
  return thread_.joinable();
}

void PeriodicThread::loop(std::uint64_t started_after) {
  for (;;) {
    tick_();
    const auto deadline = std::chrono::steady_clock::now() + interval_;
    MutexLock lock(mu_);
    while (stops_ == started_after &&
           cv_.wait_until(mu_, deadline) != std::cv_status::timeout) {
    }
    if (stops_ != started_after) return;
  }
}

}  // namespace carousel::util
