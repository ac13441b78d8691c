// Thread pool: task execution, parallel_for, exceptions and nesting.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace arams::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(50, 0);
  pool.parallel_for(50, [&hits](std::size_t i) { hits[i] = 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [](std::size_t i) {
                          if (i == 2) throw std::runtime_error("task failed");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  ThreadPool pool(2);
  ThreadPool other(2);
  EXPECT_FALSE(pool.on_worker_thread());
  bool inside_own = false;
  bool inside_other = true;
  pool.submit([&] {
        inside_own = pool.on_worker_thread();
        inside_other = other.on_worker_thread();
      })
      .get();
  EXPECT_TRUE(inside_own);
  EXPECT_FALSE(inside_other);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A shard task whose inner kernel dispatches onto the same pool must not
  // block on futures served by its own queue: the nested parallel_for runs
  // inline on the calling worker. With every worker occupied by an outer
  // task, a queue-based nested dispatch would deadlock this test.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for(4, [&pool, &counter](std::size_t) {
    pool.parallel_for(8, [&counter](std::size_t) { ++counter; });
  });
  EXPECT_EQ(counter.load(), 32);
}

}  // namespace
}  // namespace arams::parallel
