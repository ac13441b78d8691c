#pragma once
// Fixed-size pool: the calling thread plus thread_count() − 1 standing
// workers. parallel_for publishes one job in a single atomic claim word
// holding (item count, next item); the caller and the workers claim items
// from it until none is left, and the call returns when every item is
// done. Idle workers spin on the word for 200 µs, then block on it, so the
// items of back-to-back jobs start without a wake. There is no queue and
// nothing is allocated per job or per item.
//
// Telemetry to obs::metrics(), per item whichever thread ran it:
// "pool.task_wait_seconds" (job opened → item claimed) and
// "pool.task_run_seconds" (the item's run time) histograms. A
// "pool.workers_busy" gauge (workers currently running a job's items), and
// per worker a "pool.worker.<i>.utilization" gauge (item seconds / alive
// seconds since the pool started, refreshed after every job it joined).
// Pools share these names; in practice the long-lived recorder is
// shared_pool().

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace arams::obs {
class Gauge;
class Histogram;
}  // namespace arams::obs

namespace arams::parallel {

class ThreadPool {
 public:
  /// The caller plus `threads` − 1 workers (0 → hardware_concurrency, min
  /// 1). ThreadPool(1) starts no thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, count) and returns when all are done.
  /// Every item runs; the exception thrown by the lowest i is rethrown.
  ///
  /// The items run inline, in index order, on the calling thread when the
  /// pool has one thread, when the caller is already running one of this
  /// pool's items (a shard whose inner GEMM dispatches row bands back onto
  /// the same pool), or when another thread's job holds the workers. Every
  /// pooled loop is partition-independent, so inline runs give the same
  /// bits.
  template <typename Fn>
  void parallel_for(std::size_t count, const Fn& fn) {
    run(count, &fn, [](const void* f, std::size_t i) {
      (*static_cast<const Fn*>(f))(i);
    });
  }

  /// True while the calling thread runs one of this pool's items, inline
  /// ones included.
  [[nodiscard]] bool on_worker_thread() const;

  [[nodiscard]] std::size_t thread_count() const {
    return workers_.size() + 1;
  }

 private:
  using Call = void (*)(const void*, std::size_t);

  void run(std::size_t count, const void* fn, Call call);
  void run_inline(std::size_t count, const void* fn, Call call);
  /// Claims the next item of the open job into `item`; false once the
  /// word shows none left. `seen` is the last word read.
  bool claim(std::uint64_t& seen, std::size_t& item);
  /// Runs one claimed item, times it and counts it done; returns its run
  /// time in seconds.
  double run_item(std::size_t item);
  void worker_loop(std::size_t index);
  /// Stops and joins the workers; no job may be open.
  void stop();

  std::atomic<std::uint64_t> word_{0};  ///< count << 32 | next item
  std::atomic<std::uint32_t> done_{0};  ///< items of the open job done
  std::atomic<bool> busy_{false};       ///< a job holds the workers
  // The open job; written before it opens, read by a thread that has
  // claimed one of its items.
  const void* fn_ = nullptr;
  Call call_ = nullptr;
  std::size_t count_ = 0;
  std::chrono::steady_clock::time_point opened_;
  // The lowest-index exception of the open job.
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::size_t error_item_ = 0;
  std::atomic<long> busy_workers_{0};
  obs::Histogram& wait_latency_;
  obs::Histogram& run_latency_;
  obs::Gauge& busy_gauge_;
  std::vector<std::thread> workers_;  ///< last: the workers use the above
};

/// Runs fn(lo, hi) over contiguous bands that cover [0, count): as one
/// band on the calling thread when `pool` is null, otherwise as
/// min(count, 4·thread_count()) bands through pool->parallel_for. Only for
/// loops whose result does not depend on where the bands fall.
template <typename Fn>
void for_bands(ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (pool == nullptr) {
    fn(std::size_t{0}, count);
    return;
  }
  const std::size_t bands = std::min(count, pool->thread_count() * 4);
  pool->parallel_for(bands, [&](std::size_t t) {
    fn(count * t / bands, count * (t + 1) / bands);
  });
}

/// Process-wide shared pool, created lazily on first use and joined at
/// process exit. This is the executor the blocked linalg kernels dispatch
/// row bands onto; sharing one pool keeps the thread count bounded no
/// matter how many sketches are live. Size comes from the
/// ARAMS_POOL_THREADS environment variable when set (tests use it to force
/// a multi-threaded pool on single-core machines), otherwise
/// hardware_concurrency.
ThreadPool& shared_pool();

}  // namespace arams::parallel
