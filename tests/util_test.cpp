#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "util/crc32.h"
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

}  // namespace
}  // namespace carousel::util
