#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace arams::parallel {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::metrics().gauge("pool.queue_depth");
  return gauge;
}

/// The pool whose worker_loop the current thread is inside, if any — the
/// re-entrancy signal parallel_for uses to run nested work inline instead
/// of deadlocking on its own queue.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_pool = this;
  static obs::Histogram& wait_latency =
      obs::metrics().histogram("pool.task_wait_seconds");
  static obs::Histogram& run_latency =
      obs::metrics().histogram("pool.task_run_seconds");
  static obs::Gauge& busy_gauge = obs::metrics().gauge("pool.workers_busy");
  // Per-worker name, so this resolves once per worker thread, not once per
  // process (a function-local static would pin every pool's workers to
  // worker 0's gauge).
  obs::Gauge& utilization = obs::metrics().gauge(
      "pool.worker." + std::to_string(index) + ".utilization");
  const auto loop_started = std::chrono::steady_clock::now();
  double busy_seconds = 0.0;
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      pending = std::move(queue_.front());
      queue_.pop();
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
    }
    wait_latency.observe(seconds_since(pending.enqueued));
    busy_gauge.set(static_cast<double>(
        busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1));
    const auto started = std::chrono::steady_clock::now();
    {
      // Span the task so the sampling profiler attributes worker wall
      // time to "pool.task" instead of leaving these threads "(idle)".
      const obs::ScopedSpan task_span("pool.task");
      pending.task();
    }
    const double ran = seconds_since(started);
    run_latency.observe(ran);
    busy_gauge.set(static_cast<double>(
        busy_workers_.fetch_sub(1, std::memory_order_relaxed) - 1));
    busy_seconds += ran;
    const double alive = seconds_since(loop_started);
    utilization.set(alive > 0.0 ? busy_seconds / alive : 0.0);
  }
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(Pending{std::move(packaged),
                        std::chrono::steady_clock::now()});
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

ThreadPool& shared_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ARAMS_POOL_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<std::size_t>(n);
    }
    return std::size_t{0};  // 0 → hardware_concurrency
  }());
  return pool;
}

bool ThreadPool::on_worker_thread() const {
  return t_worker_pool == this;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (on_worker_thread()) {
    // Nested dispatch from one of our own workers: run inline. Waiting on
    // futures here would park this worker while the subtasks sit behind it
    // in the same queue — a guaranteed deadlock once every worker does it.
    for (std::size_t i = 0; i < count; ++i) {
      fn(i);
    }
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    futures.push_back(submit([&fn, i] { fn(i); }));
  }
  // Wait for every task before rethrowing: the tasks hold references into
  // the caller's frame (fn and whatever it captures), which unwinding
  // would destroy under tasks that are still queued or running.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace arams::parallel
