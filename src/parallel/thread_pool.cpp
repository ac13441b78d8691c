#include "parallel/thread_pool.hpp"

#include <cstdlib>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace arams::parallel {

namespace {

/// How long an idle thread spins on a word before it blocks on it.
constexpr std::chrono::microseconds kSpin{200};

/// The word that stops the workers. No job publishes it: its item count,
/// 2³² − 1, is above any job's.
constexpr std::uint64_t kStopped = ~std::uint64_t{0};

std::size_t next_item(std::uint64_t word) { return word & 0xffffffffU; }
std::size_t item_count(std::uint64_t word) { return word >> 32; }

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Spins while `word` holds `seen`, for up to kSpin, then blocks until it
/// changes; returns the value that ended the wait.
template <typename T>
T await_change(const std::atomic<T>& word, T seen) {
  const auto until = std::chrono::steady_clock::now() + kSpin;
  for (unsigned i = 1;; ++i) {
    const T now = word.load(std::memory_order_acquire);
    if (now != seen) return now;
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= until) break;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  word.wait(seen, std::memory_order_acquire);
  return word.load(std::memory_order_acquire);
}

/// The pool whose item the current thread is running, if any: the
/// re-entrancy signal that runs nested work inline. A worker keeps its
/// pool for life.
thread_local const ThreadPool* t_item_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads)
    : wait_latency_(obs::metrics().histogram("pool.task_wait_seconds")),
      run_latency_(obs::metrics().histogram("pool.task_run_seconds")),
      busy_gauge_(obs::metrics().gauge("pool.workers_busy")) {
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  workers_.reserve(threads - 1);
  try {
    for (std::size_t i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  // No job is open: parallel_for returns only after all of its items.
  word_.store(kStopped, std::memory_order_release);
  word_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

bool ThreadPool::claim(std::uint64_t& seen, std::size_t& item) {
  while (next_item(seen) < item_count(seen)) {
    if (word_.compare_exchange_weak(seen, seen + 1,
                                    std::memory_order_acquire)) {
      item = next_item(seen++);
      return true;
    }
  }
  return false;
}

double ThreadPool::run_item(std::size_t item) {
  // Read before the item counts done: the next job may then rewrite it.
  const std::size_t count = count_;
  const auto claimed = std::chrono::steady_clock::now();
  wait_latency_.observe(
      std::chrono::duration<double>(claimed - opened_).count());
  try {
    call_(fn_, item);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_ || item < error_item_) {
      error_ = std::current_exception();
      error_item_ = item;
    }
  }
  const double ran = seconds_since(claimed);
  run_latency_.observe(ran);
  if (done_.fetch_add(1, std::memory_order_release) + 1 == count) {
    done_.notify_one();
  }
  return ran;
}

void ThreadPool::worker_loop(std::size_t index) {
  t_item_pool = this;
  // Per-worker name, so this resolves once per worker thread.
  obs::Gauge& utilization = obs::metrics().gauge(
      "pool.worker." + std::to_string(index) + ".utilization");
  const auto loop_started = std::chrono::steady_clock::now();
  double busy_seconds = 0.0;
  for (std::uint64_t seen = word_.load(std::memory_order_acquire);;) {
    std::size_t item = 0;
    if (claim(seen, item)) {
      // Span the items this worker runs of the job, so the sampling
      // profiler attributes them to "pool.task", not "(idle)".
      const obs::ScopedSpan task_span("pool.task");
      busy_gauge_.set(static_cast<double>(
          busy_workers_.fetch_add(1, std::memory_order_relaxed) + 1));
      do {
        busy_seconds += run_item(item);
      } while (claim(seen, item));
      busy_gauge_.set(static_cast<double>(
          busy_workers_.fetch_sub(1, std::memory_order_relaxed) - 1));
      const double alive = seconds_since(loop_started);
      utilization.set(alive > 0.0 ? busy_seconds / alive : 0.0);
    }
    if (seen == kStopped) return;
    seen = await_change(word_, seen);
  }
}

void ThreadPool::run(std::size_t count, const void* fn, Call call) {
  if (count == 0) return;
  ARAMS_CHECK(count < item_count(kStopped),
              "parallel_for takes fewer than 2^32 - 1 items");
  if (workers_.empty() || on_worker_thread() ||
      busy_.exchange(true, std::memory_order_acquire)) {
    run_inline(count, fn, call);
    return;
  }
  fn_ = fn;
  call_ = call;
  count_ = count;
  done_.store(0, std::memory_order_relaxed);
  opened_ = std::chrono::steady_clock::now();
  std::uint64_t seen = std::uint64_t{count} << 32;
  word_.store(seen, std::memory_order_release);
  word_.notify_all();
  const ThreadPool* outer = std::exchange(t_item_pool, this);
  for (std::size_t item = 0; claim(seen, item);) {
    run_item(item);
  }
  t_item_pool = outer;
  // Every item is waited for, so none outlives fn, which lives in the
  // caller's frame.
  for (std::uint32_t d; (d = done_.load(std::memory_order_acquire)) < count;) {
    await_change(done_, d);
  }
  const std::exception_ptr error = std::exchange(error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_inline(std::size_t count, const void* fn, Call call) {
  const ThreadPool* outer = std::exchange(t_item_pool, this);
  std::exception_ptr error;
  for (std::size_t i = 0; i < count; ++i) {
    try {
      call(fn, i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  t_item_pool = outer;
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::on_worker_thread() const { return t_item_pool == this; }

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

}  // namespace arams::parallel
