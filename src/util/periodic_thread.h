// The one background loop: a callback run on one thread at start() and then
// once per interval until stop().  Scrubber sweeps, HealthMonitor probe
// rounds and RepairScheduler dispatch passes all run on one of these, so
// the start/stop/join discipline (DESIGN.md §11 "Shutdown joins") lives in
// one place.

#ifndef CAROUSEL_UTIL_PERIODIC_THREAD_H
#define CAROUSEL_UTIL_PERIODIC_THREAD_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "util/sync.h"

namespace carousel::util {

class PeriodicThread {
 public:
  /// `tick` runs with no lock of this class held.  It must not throw (an
  /// escaping exception ends the process, as from any thread) and must not
  /// call stop() (a thread cannot join itself).
  PeriodicThread(std::chrono::milliseconds interval,
                 std::function<void()> tick);
  /// Stops and joins.  Declare the member after everything `tick` touches,
  /// so it is destroyed (and joined) first.
  ~PeriodicThread();

  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  /// Launches the thread; the first tick runs at once.  Idempotent.
  void start() EXCLUDES(mu_);
  /// Wakes the sleep and joins the thread; a tick in progress finishes
  /// first.  Idempotent, concurrent callers included: one claims the
  /// handle under mu_ and joins it outside mu_, the rest find it empty.
  void stop() EXCLUDES(mu_);
  bool running() const EXCLUDES(mu_);

 private:
  void loop(std::uint64_t started_after) EXCLUDES(mu_);

  const std::chrono::milliseconds interval_;
  const std::function<void()> tick_;
  // Leaf (LockRank::kPeriodicThread): held only to swap the handle, count
  // a stop or sleep — never across tick_ or while taking another lock.
  mutable Mutex mu_{LockRank::kPeriodicThread};
  CondVar cv_;
  // stop() calls so far.  A loop exits at the first stop() after its own
  // start, so a start() racing a concurrent stop()'s join launches a fresh
  // loop instead of reviving the old one.
  std::uint64_t stops_ GUARDED_BY(mu_) = 0;
  std::thread thread_ GUARDED_BY(mu_);
};

}  // namespace carousel::util

#endif  // CAROUSEL_UTIL_PERIODIC_THREAD_H
