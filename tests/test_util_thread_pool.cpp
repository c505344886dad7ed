#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace broadway {
namespace {

TEST(ThreadPool, InlineModeRunsInOrderOnCallingThread) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_EQ(pool.parallelism(), 1u);
    std::vector<std::size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    bool off_thread = false;
    pool.run_batch(8, [&](std::size_t index) {
      order.push_back(index);
      if (std::this_thread::get_id() != caller) off_thread = true;
    });
    EXPECT_FALSE(off_thread);
    std::vector<std::size_t> expected(8);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);
  }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  // Four-way parallelism is the calling thread plus three workers.
  EXPECT_EQ(pool.parallelism(), 4u);
  EXPECT_EQ(pool.size(), 3u);
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_batch(kTasks, [&](std::size_t index) { ++hits[index]; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// A batch of N tasks that all meet at one std::barrier(N) can only
// complete if N threads run it at the same time: the caller and the
// N - 1 workers.  The caller must be one of them.
TEST(ThreadPool, CallerAndWorkersRunOneBatchConcurrently) {
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.parallelism(), threads);
    ASSERT_EQ(pool.size(), threads - 1);
    for (int round = 0; round < 10; ++round) {
      std::barrier<> meet(static_cast<std::ptrdiff_t>(threads));
      std::mutex mutex;
      std::set<std::thread::id> ran_on;
      pool.run_batch(threads, [&](std::size_t) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          ran_on.insert(std::this_thread::get_id());
        }
        meet.arrive_and_wait();
      });
      EXPECT_EQ(ran_on.size(), threads);
      EXPECT_EQ(ran_on.count(std::this_thread::get_id()), 1u);
    }
  }
}

TEST(ThreadPool, ReturnIsABarrier) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.run_batch(7, [&](std::size_t) { ++completed; });
    // Every task of every batch so far has finished by the time
    // run_batch returns — no stragglers bleed into later batches.
    EXPECT_EQ(completed.load(), (batch + 1) * 7);
  }
}

TEST(ThreadPool, PropagatesFirstExceptionAndStaysUsable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_batch(10,
                     [&](std::size_t index) {
                       ++ran;
                       if (index == 3) throw std::runtime_error("boom");
                     }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 10);  // the batch still drained fully
  std::atomic<int> after{0};
  pool.run_batch(5, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 5);
}

TEST(ThreadPool, ConcurrentThrowsSurfaceTheLowestIndex) {
  ThreadPool pool(2);
  for (int round = 0; round < 25; ++round) {
    std::atomic<int> arrived{0};
    std::atomic<int> ran{0};
    try {
      pool.run_batch(2, [&](std::size_t index) {
        ++ran;
        // Both tasks rendezvous before throwing so the two exceptions are
        // genuinely concurrent: whichever worker records its failure
        // second must still lose to the lower batch index.
        ++arrived;
        while (arrived.load() < 2) std::this_thread::yield();
        throw std::runtime_error(index == 0 ? "low" : "high");
      });
      FAIL() << "no exception surfaced";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "low");
    }
    EXPECT_EQ(ran.load(), 2);  // both indices still drained
  }
}

// The calling thread's claims are held to the same lowest-index rule as
// the workers': whichever thread ran which index, the surfaced exception
// is index 0's, and a throw only the caller's claim made still surfaces.
TEST(ThreadPool, CallerClaimedThrowsFollowTheLowestIndexRule) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 25; ++round) {
    for (const bool only_caller_throws : {false, true}) {
      std::atomic<int> arrived{0};
      std::atomic<int> caller_claims{0};
      std::atomic<std::size_t> caller_index{0};
      try {
        pool.run_batch(2, [&](std::size_t index) {
          const bool on_caller = std::this_thread::get_id() == caller;
          if (on_caller) {
            ++caller_claims;
            caller_index = index;
          }
          // Rendezvous: the two indices run at once, one per thread.
          ++arrived;
          while (arrived.load() < 2) std::this_thread::yield();
          if (only_caller_throws && !on_caller) return;
          throw std::runtime_error(std::to_string(index));
        });
        FAIL() << "no exception surfaced";
      } catch (const std::runtime_error& error) {
        const std::size_t expected =
            only_caller_throws ? caller_index.load() : 0;
        EXPECT_EQ(error.what(), std::to_string(expected));
      }
      EXPECT_EQ(caller_claims.load(), 1);
    }
  }
  std::atomic<int> after{0};
  pool.run_batch(4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadPool, WeightedBatchRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 200;
  std::vector<double> costs(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    costs[i] = static_cast<double>(i % 7);  // skewed, with ties
  }
  std::vector<std::atomic<int>> hits(kTasks);
  pool.run_batch(
      kTasks, [&](std::size_t index) { ++hits[index]; }, costs);
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WeightedInlineModeIgnoresHintsAndRunsInOrder) {
  ThreadPool pool(0);
  std::vector<std::size_t> order;
  const std::vector<double> costs = {3.0, 1.0, 4.0, 2.0};
  pool.run_batch(
      4, [&](std::size_t index) { order.push_back(index); }, costs);
  const std::vector<std::size_t> expected = {0, 1, 2, 3};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, WeightedBatchPropagatesLowestIndexException) {
  ThreadPool pool(2);
  const std::vector<double> costs = {1.0, 5.0, 2.0, 4.0, 3.0};
  std::atomic<int> ran{0};
  try {
    pool.run_batch(
        5,
        [&](std::size_t index) {
          ++ran;
          if (index == 1 || index == 3) {
            throw std::runtime_error(index == 1 ? "one" : "three");
          }
        },
        costs);
    FAIL() << "no exception surfaced";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "one");
  }
  EXPECT_EQ(ran.load(), 5);
  std::atomic<int> after{0};
  pool.run_batch(
      3, [&](std::size_t) { ++after; }, {1.0, 1.0, 1.0});
  EXPECT_EQ(after.load(), 3);
}

TEST(ThreadPool, ZeroCountBatchIsANoOp) {
  ThreadPool pool(2);
  pool.run_batch(0, [](std::size_t) { FAIL() << "task ran"; });
}

TEST(ThreadPool, MoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  constexpr std::size_t kTasks = 1000;
  pool.run_batch(kTasks,
                 [&](std::size_t index) { sum += static_cast<long>(index); });
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks * (kTasks - 1) / 2));
}

}  // namespace
}  // namespace broadway
