#pragma once
// Clock-free count of the shared-pool tasks a call submits: every task's
// queue wait is observed in "pool.task_wait_seconds" when a worker takes
// it, so the histogram's count between two fences is the number of tasks.

#include <cstddef>
#include <future>
#include <latch>
#include <vector>

#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace arams::test {

/// Holds every shared-pool worker at once, so every task queued before the
/// call has been taken, and its wait observed, when it returns.
inline void fence_pool() {
  parallel::ThreadPool& pool = parallel::shared_pool();
  std::latch all(static_cast<std::ptrdiff_t>(pool.thread_count()));
  std::vector<std::future<void>> held;
  for (std::size_t t = 0; t < pool.thread_count(); ++t) {
    held.push_back(pool.submit([&all] { all.arrive_and_wait(); }));
  }
  for (auto& f : held) f.get();
}

/// The number of pool tasks fn() submits, counted between two fences.
template <typename Fn>
long tasks_submitted_by(const Fn& fn) {
  const obs::Histogram& tasks =
      obs::metrics().histogram("pool.task_wait_seconds");
  fence_pool();
  const long before = tasks.count();
  fn();
  fence_pool();
  return tasks.count() - before -
         static_cast<long>(parallel::shared_pool().thread_count());
}

}  // namespace arams::test
