// Tests for util/sync.h: the annotated mutex wrappers and the runtime
// lock-rank checker (the "twin" of the Clang Thread Safety Analysis build).
//
// The checker is always on, Release included, so the death tests here run
// against exactly the binary the tier-1 suite ships: an inverted acquisition
// order must abort, not deadlock.  The TSA side cannot be tested from within
// a program (a violation fails compilation); the CAROUSEL_THREAD_SAFETY CI
// job is that test.

#include "util/sync.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace carousel::util {
namespace {

TEST(SyncTest, MutexLockRoundTrip) {
  Mutex mu;
  EXPECT_FALSE(mu.held_by_current_thread());
  {
    MutexLock lock(mu);
    EXPECT_TRUE(mu.held_by_current_thread());
  }
  EXPECT_FALSE(mu.held_by_current_thread());
}

TEST(SyncTest, IncreasingRankOrderPasses) {
  // The real nesting chains from the codebase, re-enacted: every one must
  // be silent under the checker.
  Mutex probe{LockRank::kMonitorProbe};
  Mutex store{LockRank::kStore};
  Mutex scheduler{LockRank::kScheduler};
  Mutex pool{LockRank::kServerPool};
  Mutex monitor{LockRank::kMonitor};
  Mutex periodic{LockRank::kPeriodicThread};
  Mutex metrics{LockRank::kMetrics};
  {
    // probe_once(): probe serializer -> store lookups -> monitor FSM.
    MutexLock a(probe);
    MutexLock b(store);
    MutexLock c(monitor);
    MutexLock d(metrics);
  }
  {
    // A repair with a scheduler attached: store -> select_helpers and
    // observe_traffic.
    MutexLock a(store);
    MutexLock b(scheduler);
  }
  {
    // RepairScheduler::start(): scheduler -> its PeriodicThread's leaf.
    MutexLock a(scheduler);
    MutexLock b(periodic);
  }
  {
    // bytes_received(): store -> per-server pool walk.
    MutexLock a(store);
    MutexLock b(pool);
  }
}

TEST(SyncTest, ReleaseOrderNeedNotMirrorAcquisition) {
  Mutex store{LockRank::kStore};
  Mutex pool{LockRank::kServerPool};
  store.lock();
  pool.lock();
  store.unlock();  // out-of-order release is legal; only acquisition ranks
  EXPECT_TRUE(pool.held_by_current_thread());
  EXPECT_FALSE(store.held_by_current_thread());
  pool.unlock();
}

TEST(SyncTest, UnrankedLocksAreExemptFromOrdering) {
  Mutex ranked{LockRank::kMetrics};
  Mutex unranked;  // kUnranked: tracked but never order-checked
  MutexLock a(ranked);
  MutexLock b(unranked);  // acquiring after the highest rank is fine
  EXPECT_TRUE(unranked.held_by_current_thread());
}

TEST(SyncTest, RanksAreTrackedPerThread) {
  // A high rank held on one thread must not constrain another thread.
  Mutex metrics{LockRank::kMetrics};
  Mutex store{LockRank::kStore};
  MutexLock lock(metrics);
  std::thread other([&] {
    MutexLock inner(store);  // fresh thread, empty held stack: legal
    EXPECT_TRUE(store.held_by_current_thread());
  });
  other.join();
  EXPECT_FALSE(store.held_by_current_thread());
}

TEST(SyncTest, CondVarWaitKeepsMutexAccountedAcrossSleep) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    ready = true;
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    // Reacquired: the held-lock bookkeeping must still know about mu.
    EXPECT_TRUE(mu.held_by_current_thread());
  }
  waker.join();
}

TEST(SyncTest, CondVarWaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_EQ(cv.wait_for(mu, std::chrono::milliseconds(1)),
            std::cv_status::timeout);
  EXPECT_TRUE(mu.held_by_current_thread());
}

TEST(SyncTest, ConcurrentCountersStayConsistent) {
  // TSan-visible smoke: many threads funnel through one ranked mutex; the
  // final count proves mutual exclusion, TSan proves the wrappers publish.
  Mutex mu{LockRank::kStore};
  CondVar cv;
  int counter = 0;
  bool go = false;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      {
        MutexLock lock(mu);
        while (!go) cv.wait(mu);
      }
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.notify_all();
  for (auto& w : workers) w.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIters);
}

#if !defined(CAROUSEL_NO_LOCK_RANK_CHECKS)

TEST(SyncDeathTest, InvertedAcquisitionAborts) {
  // The inversion the rank table exists to forbid: taking the store mutex
  // while already inside a per-server pool lock (pool tasks must never call
  // back into placement lookups).
  EXPECT_DEATH(
      {
        Mutex pool{LockRank::kServerPool};
        Mutex store{LockRank::kStore};
        MutexLock a(pool);
        MutexLock b(store);
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, SameRankReacquisitionAborts) {
  // Two distinct locks of equal rank held together is still an ordering
  // bug: the order is "strictly increasing", not "non-decreasing".
  EXPECT_DEATH(
      {
        Mutex a{LockRank::kMonitor};
        Mutex b{LockRank::kMonitor};
        MutexLock la(a);
        MutexLock lb(b);
      },
      "lock-rank violation");
}

TEST(SyncDeathTest, AssertHeldAbortsWhenUnlocked) {
  EXPECT_DEATH(
      {
        Mutex mu;
        mu.assert_held();
      },
      "assert_held");
}

#endif  // !CAROUSEL_NO_LOCK_RANK_CHECKS

TEST(SyncTest, AssertHeldPassesWhenLocked) {
  Mutex mu;
  MutexLock lock(mu);
  mu.assert_held();  // must not abort
}

}  // namespace
}  // namespace carousel::util
