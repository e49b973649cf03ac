#include "wsim/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using wsim::util::ThreadPool;

TEST(ThreadPool, ResolvePicksHardwareConcurrencyForNonPositive) {
  EXPECT_GE(ThreadPool::resolve(0), 1);
  EXPECT_GE(ThreadPool::resolve(-3), 1);
  EXPECT_EQ(ThreadPool::resolve(5), 5);
  EXPECT_EQ(ThreadPool::resolve(1), 1);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool one(1);
  EXPECT_EQ(one.size(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.size(), 4);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << ", " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ZeroIterationsIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, ResultsIndependentOfExecutionOrder) {
  // Slot-indexed output: any interleaving must produce the sequential
  // result bit for bit.
  constexpr std::size_t kN = 257;
  std::vector<long long> sequential(kN);
  ThreadPool one(1);
  one.parallel_for(kN, [&](std::size_t i) {
    sequential[i] = static_cast<long long>(i * i * 31 + i);
  });
  for (const int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    for (int round = 0; round < 5; ++round) {
      std::vector<long long> parallel(kN, -1);
      pool.parallel_for(kN, [&](std::size_t i) {
        parallel[i] = static_cast<long long>(i * i * 31 + i);
      });
      EXPECT_EQ(parallel, sequential) << threads << " threads, round " << round;
    }
  }
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  const auto run = [&]() {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i == 23 || i == 71) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
  };
  try {
    run();
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Matches what a sequential loop would have thrown first.
    EXPECT_STREQ(e.what(), "boom at 23");
  }
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(10, [](std::size_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> count{0};
  pool.parallel_for(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  long long total = 0;
  for (int job = 0; job < 200; ++job) {
    std::atomic<long long> sum{0};
    pool.parallel_for(16, [&](std::size_t i) {
      sum.fetch_add(static_cast<long long>(i));
    });
    total += sum.load();
  }
  EXPECT_EQ(total, 200LL * (15 * 16 / 2));
}

TEST(ThreadPool, StressManyTinyJobsOnTwoThreads) {
  // Each parallel_for's Job lives on the caller's stack and the next call
  // reuses that slot, so a worker that touches a finished Job corrupts or
  // deadlocks a later one. Index 0 waits briefly for index 1 to be
  // claimed, so the worker usually takes it and its release of the Job
  // races the caller's return, 10^5 times over. Under ASan/TSan the race
  // is reported; otherwise it shows as a hang (the ctest TIMEOUT) or a
  // wrong total.
  ThreadPool pool(2);
  constexpr int kJobs = 100000;
  const std::thread::id caller = std::this_thread::get_id();
  long long total = 0;
  int worker_jobs = 0;
  for (int job = 0; job < kJobs; ++job) {
    std::atomic<int> claimed{0};
    std::atomic<int> sum{0};
    std::atomic<bool> worker_ran{false};
    pool.parallel_for(2, [&](std::size_t i) {
      claimed.fetch_add(1);
      for (int spin = 0; spin < 1000 && claimed.load() < 2; ++spin) {
        std::this_thread::yield();
      }
      if (std::this_thread::get_id() != caller) {
        worker_ran.store(true);
      }
      sum.fetch_add(static_cast<int>(i) + 1);
    });
    total += sum.load();
    worker_jobs += worker_ran.load() ? 1 : 0;
  }
  EXPECT_EQ(total, 3LL * kJobs);
  EXPECT_GT(worker_jobs, 0) << "the worker never took an index: the race went unexercised";
}

}  // namespace
