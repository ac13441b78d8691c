#include "obs/trace.hpp"

#include <functional>
#include <map>
#include <ostream>
#include <set>
#include <thread>

namespace arams::obs {

namespace {

std::uint64_t this_thread_id() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

}  // namespace

const char* intern_span_name(std::string_view name) {
  // std::set node addresses are stable, so the returned c_str pointers
  // survive for the process lifetime — the invariant the cross-thread
  // SpanStack readers rely on. A per-thread cache keeps the global mutex
  // off the steady-state path: span vocabularies are tiny, so each thread
  // pays the lock once per distinct name.
  static std::mutex mutex;
  static std::set<std::string, std::less<>>& names =
      *new std::set<std::string, std::less<>>();  // never destroyed
  thread_local std::map<std::string_view, const char*> t_cache;
  if (const auto cached = t_cache.find(name); cached != t_cache.end()) {
    return cached->second;
  }
  const char* interned = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = names.find(name);
    interned = (it != names.end()) ? it->c_str()
                                   : names.emplace(name).first->c_str();
  }
  // Key the cache by the interned storage, not the caller's buffer.
  t_cache.emplace(std::string_view(interned), interned);
  return interned;
}

SpanStack& SpanStackRegistry::this_thread() {
  thread_local SpanStack* t_stack = nullptr;
  if (t_stack != nullptr) return *t_stack;
  const std::size_t index = count_.fetch_add(1, std::memory_order_acq_rel);
  if (index >= kMaxStacks) {
    // Overflow threads get a private, unregistered stack: spans still
    // nest correctly for the trace recorder, the profiler just cannot
    // sample them.
    count_.store(kMaxStacks, std::memory_order_release);
    t_stack = new SpanStack();
    return *t_stack;
  }
  auto* stack = new SpanStack();
  stack->thread_id.store(this_thread_id(), std::memory_order_relaxed);
  stacks_[index].store(stack, std::memory_order_release);
  t_stack = stack;
  return *stack;
}

const SpanStack* SpanStackRegistry::stack(std::size_t i) const {
  if (i >= size()) return nullptr;
  return stacks_[i].load(std::memory_order_acquire);
}

SpanStackRegistry& span_stacks() {
  static SpanStackRegistry registry;
  return registry;
}

TraceRecorder::TraceRecorder()
    : epoch_(std::chrono::steady_clock::now()) {}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceRecorder::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> TraceRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void TraceRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, int> tids;  // first appearance → small integer
  for (const auto& s : spans_) {
    tids.emplace(s.thread_id, static_cast<int>(tids.size() + 1));
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (i != 0) out << ",";
    out << "{\"name\":";
    write_json_string(out, s.name);
    out << ",\"cat\":\"arams\",\"ph\":\"X\",\"ts\":" << s.start_us
        << ",\"dur\":" << s.duration_us << ",\"pid\":1,\"tid\":"
        << tids[s.thread_id] << ",\"args\":{\"depth\":" << s.depth << "}}";
  }
  out << "]}\n";
}

void TraceRecorder::write_json_lines(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& s : spans_) {
    out << "{\"type\":\"span\",\"name\":";
    write_json_string(out, s.name);
    out << ",\"thread\":" << s.thread_id << ",\"start_us\":" << s.start_us
        << ",\"duration_us\":" << s.duration_us << ",\"depth\":" << s.depth
        << "}\n";
  }
}

TraceRecorder& tracer() {
  // Never destroyed, like the metrics registry: a pool worker closes its
  // "pool.task" span after its last item of a job is counted done.
  static TraceRecorder& recorder = *new TraceRecorder();
  return recorder;
}

ScopedSpan::ScopedSpan(std::string_view name, TraceRecorder& recorder) {
  // The span stack is maintained unconditionally: the sampling profiler
  // attributes wall-clock samples to it even when trace *recording* is
  // off. Push is one interned-pointer store plus a release depth store.
  stack_ = &span_stacks().this_thread();
  name_ = intern_span_name(name);
  depth_ = stack_->depth.load(std::memory_order_relaxed);
  if (depth_ < SpanStack::kMaxDepth) {
    stack_->frames[depth_].store(name_, std::memory_order_relaxed);
    stack_->depth.store(depth_ + 1, std::memory_order_release);
  }
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  start_us_ = recorder.now_us();
}

ScopedSpan::~ScopedSpan() {
  if (depth_ < SpanStack::kMaxDepth) {
    stack_->depth.store(depth_, std::memory_order_release);
  }
  if (recorder_ == nullptr) return;
  const double end_us = recorder_->now_us();
  recorder_->record(SpanRecord{name_, this_thread_id(), start_us_,
                               end_us - start_us_, depth_});
}

int ScopedSpan::current_depth() {
  return span_stacks().this_thread().depth.load(std::memory_order_relaxed);
}

}  // namespace arams::obs
