// Thread pool: parallel_for's coverage, exceptions, inline runs, nesting,
// concurrent callers and its allocation-free entry.
//
// The allocation check overrides global operator new in this binary only
// (each gtest binary is its own process), as tests/test_workspace.cpp does.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace {
std::atomic<long> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace arams::parallel {
namespace {

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

TEST(ThreadPool, EveryItemRunsAndTheLowestThrowIsRethrown) {
  // Items 0–3 hold all four threads on a latch, so each runs on its own
  // thread; the odd ones throw, there and among the items after them.
  ThreadPool pool(4);
  std::latch all(4);
  std::vector<std::atomic<int>> ran(16);
  std::mutex mutex;
  std::set<std::thread::id> throwers;
  try {
    pool.parallel_for(ran.size(), [&](std::size_t i) {
      if (i < 4) all.arrive_and_wait();
      ran[i] = 1;
      if (i % 2 == 1) {
        const std::lock_guard<std::mutex> lock(mutex);
        throwers.insert(std::this_thread::get_id());
        throw std::runtime_error(std::to_string(i));
      }
    });
    ADD_FAILURE() << "nothing was rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "1");
  }
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
  EXPECT_GE(throwers.size(), 2u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, OneThreadRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::thread::id> ran_on(16);
  pool.parallel_for(ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, OnWorkerThreadIsPoolSpecific) {
  // True while one of the pool's items runs, whether a worker or the
  // caller runs it, and on a one-thread pool, whose items run inline.
  ThreadPool pool(2);
  ThreadPool other(2);
  ThreadPool single(1);
  EXPECT_FALSE(pool.on_worker_thread());
  bool inside_own = false;
  bool inside_other = true;
  pool.parallel_for(1, [&](std::size_t) {
    inside_own = pool.on_worker_thread();
    inside_other = other.on_worker_thread();
  });
  EXPECT_TRUE(inside_own);
  EXPECT_FALSE(inside_other);
  EXPECT_FALSE(pool.on_worker_thread());
  bool inside_single = false;
  single.parallel_for(
      1, [&](std::size_t) { inside_single = single.on_worker_thread(); });
  EXPECT_TRUE(inside_single);
  EXPECT_FALSE(single.on_worker_thread());
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  // A shard item whose inner kernel dispatches onto the same pool runs
  // the nested loop inline on its own thread. Items 0–3 hold all four
  // threads on a latch, so the caller runs one of them too.
  ThreadPool pool(4);
  std::latch all(4);
  std::atomic<int> counter{0};
  std::atomic<int> elsewhere{0};
  pool.parallel_for(8, [&](std::size_t i) {
    if (i < 4) all.arrive_and_wait();
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(8, [&](std::size_t) {
      ++counter;
      if (std::this_thread::get_id() != outer) ++elsewhere;
    });
  });
  EXPECT_EQ(counter.load(), 64);
  EXPECT_EQ(elsewhere.load(), 0);
}

TEST(ThreadPool, ConcurrentCallersBothCoverTheirRanges) {
  // Two threads drive one pool at once; whichever finds the workers held
  // runs its items inline. First a fixed overlap: the holder's job keeps
  // every worker until the other caller's whole loop has returned.
  ThreadPool pool(4);
  std::latch held(1);
  std::latch finished(1);
  std::vector<std::thread::id> ran_on(16);
  std::thread holder([&] {
    pool.parallel_for(pool.thread_count(), [&](std::size_t i) {
      if (i == 0) held.count_down();
      finished.wait();
    });
  });
  std::thread caller([&] {
    held.wait();
    pool.parallel_for(ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
    finished.count_down();
  });
  caller.join();
  holder.join();

  // Then free-running callers, each covering its own range many times.
  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kItems = 37;
  std::vector<std::vector<int>> hits(2, std::vector<int>(kItems, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        pool.parallel_for(kItems, [&](std::size_t i) { ++hits[c][i]; });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const auto& h : hits) {
    for (const int n : h) EXPECT_EQ(n, static_cast<int>(kRounds));
  }
}

TEST(ThreadPool, WarmEntryAllocatesNothing) {
  // Items 0–3 hold all four threads on a latch, so every worker has run
  // an item (and resolved its telemetry) before the counted entries.
  ThreadPool pool(4);
  std::latch all(4);
  pool.parallel_for(4, [&](std::size_t) { all.arrive_and_wait(); });
  std::atomic<long> sum{0};
  const long before = g_heap_allocations.load();
  for (int round = 0; round < 100; ++round) {
    pool.parallel_for(16, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0);
  EXPECT_EQ(sum.load(), 100 * 120);
}

}  // namespace
}  // namespace arams::parallel
