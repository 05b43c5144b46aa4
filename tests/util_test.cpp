#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/crc32.h"
#include "util/periodic_thread.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace carousel::util {
namespace {

TEST(Crc32, KnownVector) {
  // "123456789" -> 0xCBF43926 (IEEE CRC-32 check value).
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { ++count; });
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.submit([&] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, TasksRunConcurrently) {
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&] {
      int now = ++inside;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --inside;
    });
  pool.wait_idle();
  EXPECT_GE(peak.load(), 2);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++count; });
    pool.wait_idle();
  }
  EXPECT_EQ(count.load(), 10);
}

/// Polls `done` every millisecond for up to 10 s; true once it holds.
template <typename Pred>
bool eventually(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(PeriodicThread, RunsTheTickRepeatedlyAtItsInterval) {
  const auto interval = std::chrono::milliseconds(20);
  std::atomic<int> ticks{0};
  std::vector<std::chrono::steady_clock::time_point> at;  // tick thread only
  PeriodicThread loop(interval, [&] {
    at.push_back(std::chrono::steady_clock::now());
    ++ticks;
  });
  EXPECT_FALSE(loop.running());
  loop.start();
  EXPECT_TRUE(loop.running());
  EXPECT_TRUE(eventually([&] { return ticks.load() >= 4; }));
  loop.stop();  // joins: `at` is safe to read from here on
  EXPECT_FALSE(loop.running());
  ASSERT_GE(at.size(), 4u);
  for (std::size_t i = 1; i < at.size(); ++i)
    EXPECT_GE(at[i] - at[i - 1], interval) << "tick " << i;
}

TEST(PeriodicThread, SecondStartLaunchesNoSecondThread) {
  Mutex mu;
  std::set<std::thread::id> threads;
  std::atomic<int> ticks{0};
  PeriodicThread loop(std::chrono::milliseconds(1), [&] {
    MutexLock lock(mu);
    threads.insert(std::this_thread::get_id());
    ++ticks;
  });
  loop.start();
  loop.start();
  EXPECT_TRUE(eventually([&] { return ticks.load() >= 10; }));
  loop.stop();
  MutexLock lock(mu);
  EXPECT_EQ(threads.size(), 1u);
}

TEST(PeriodicThread, ConcurrentStopsJoinExactlyOnce) {
  // A second join of one std::thread throws inside its stopper and ends the
  // process, so surviving the storm means exactly one stopper joined.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> ticks{0};
    PeriodicThread loop(std::chrono::milliseconds(1), [&] { ++ticks; });
    loop.start();
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t) stoppers.emplace_back([&loop] { loop.stop(); });
    for (auto& s : stoppers) s.join();
    EXPECT_FALSE(loop.running());
    const int after = ticks.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(ticks.load(), after) << "a tick ran after every stop() returned";
    loop.stop();  // idempotent after the storm
  }
}

TEST(PeriodicThread, StopInterruptsALongSleep) {
  std::atomic<int> ticks{0};
  PeriodicThread loop(std::chrono::hours(1), [&] { ++ticks; });
  loop.start();
  EXPECT_TRUE(eventually([&] { return ticks.load() == 1; }));
  const auto stop_started = std::chrono::steady_clock::now();
  loop.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - stop_started,
            std::chrono::seconds(1));
  EXPECT_EQ(ticks.load(), 1);
}

TEST(PeriodicThread, StartAfterStopRunsTheTickAgain) {
  std::atomic<int> ticks{0};
  PeriodicThread loop(std::chrono::hours(1), [&] { ++ticks; });
  loop.start();
  EXPECT_TRUE(eventually([&] { return ticks.load() == 1; }));
  loop.stop();
  EXPECT_FALSE(loop.running());
  loop.start();
  EXPECT_TRUE(loop.running());
  EXPECT_TRUE(eventually([&] { return ticks.load() == 2; }));
  loop.stop();
  EXPECT_EQ(ticks.load(), 2);
}

}  // namespace
}  // namespace carousel::util
