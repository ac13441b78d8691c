#include "obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <sstream>

#include "obs/window.hpp"
#include "util/check.hpp"

namespace arams::obs {

namespace {

constexpr std::array<double, 8> kLatencyBounds = {
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};

}  // namespace

std::span<const double> default_latency_bounds() { return kLatencyBounds; }

Histogram::Histogram(std::span<const double> upper_bounds)
    : bounds_(upper_bounds.begin(), upper_bounds.end()) {
  ARAMS_CHECK(!bounds_.empty(), "histogram needs at least one bucket bound");
  ARAMS_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                  std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                      bounds_.end(),
              "histogram bounds must be strictly ascending");
  buckets_ = std::make_unique<std::atomic<long>[]>(bounds_.size() + 1);
}

std::size_t Histogram::bucket_index(double value) const {
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
}

void Histogram::observe(double value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // CAS loop: atomic<double>::fetch_add is C++20 but a plain loop keeps the
  // memory-order story identical on every toolchain.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<long> Histogram::bucket_counts() const {
  std::vector<long> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

// Out of line because EwmaRate/SlidingHistogram are incomplete in the
// header (obs/window.hpp includes obs/metrics.hpp, not the reverse).
MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (upper_bounds.empty()) upper_bounds = default_latency_bounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return *it->second;
}

EwmaRate& MetricsRegistry::ewma(std::string_view name, double tau_seconds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = ewmas_.find(name);
  if (it == ewmas_.end()) {
    it = ewmas_
             .emplace(std::string(name),
                      std::make_unique<EwmaRate>(tau_seconds))
             .first;
  }
  return *it->second;
}

SlidingHistogram& MetricsRegistry::sliding_histogram(
    std::string_view name, double window_seconds, std::size_t epochs,
    std::span<const double> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = slidings_.find(name);
  if (it == slidings_.end()) {
    it = slidings_
             .emplace(std::string(name),
                      std::make_unique<SlidingHistogram>(
                          window_seconds, epochs, upper_bounds))
             .first;
  }
  return *it->second;
}

void MetricsRegistry::visit(const Visitor& visitor) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (visitor.on_counter) {
    for (const auto& [name, c] : counters_) visitor.on_counter(name, *c);
  }
  if (visitor.on_gauge) {
    for (const auto& [name, g] : gauges_) visitor.on_gauge(name, *g);
  }
  if (visitor.on_histogram) {
    for (const auto& [name, h] : histograms_) visitor.on_histogram(name, *h);
  }
  if (visitor.on_ewma) {
    for (const auto& [name, e] : ewmas_) visitor.on_ewma(name, *e);
  }
  if (visitor.on_sliding) {
    for (const auto& [name, s] : slidings_) visitor.on_sliding(name, *s);
  }
}

std::string MetricsRegistry::summary() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << "counter " << name << " = " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "gauge " << name << " = " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << "histogram " << name << ": count " << h->count() << ", sum "
        << h->sum() << " s";
    if (h->count() > 0) {
      out << ", mean " << h->sum() / static_cast<double>(h->count()) << " s";
    }
    out << "\n";
  }
  for (const auto& [name, e] : ewmas_) {
    out << "ewma " << name << " = " << e->rate() << " /s (total "
        << e->total() << ")\n";
  }
  for (const auto& [name, s] : slidings_) {
    const WindowStats stats = s->stats();
    out << "sliding " << name << " [" << s->window_seconds()
        << " s]: count " << stats.count << ", rate " << stats.rate
        << " /s, p50 " << stats.p50 << ", p95 " << stats.p95 << ", p99 "
        << stats.p99 << "\n";
  }
  return out.str();
}

void MetricsRegistry::write_json_lines(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) {
    out << "{\"type\":\"counter\",\"name\":\"" << name << "\",\"value\":"
        << c->value() << "}\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << "{\"type\":\"gauge\",\"name\":\"" << name << "\",\"value\":"
        << g->value() << "}\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << "{\"type\":\"histogram\",\"name\":\"" << name << "\",\"count\":"
        << h->count() << ",\"sum\":" << h->sum() << ",\"bounds\":[";
    const auto& bounds = h->upper_bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i != 0) out << ",";
      out << bounds[i];
    }
    out << "],\"buckets\":[";
    const std::vector<long> buckets = h->bucket_counts();
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      if (i != 0) out << ",";
      out << buckets[i];
    }
    out << "]}\n";
  }
  for (const auto& [name, e] : ewmas_) {
    out << "{\"type\":\"ewma\",\"name\":\"" << name << "\",\"rate\":"
        << e->rate() << ",\"total\":" << e->total() << "}\n";
  }
  for (const auto& [name, s] : slidings_) {
    const WindowStats stats = s->stats();
    out << "{\"type\":\"sliding\",\"name\":\"" << name << "\",\"window\":"
        << s->window_seconds() << ",\"count\":" << stats.count
        << ",\"rate\":" << stats.rate << ",\"p50\":" << stats.p50
        << ",\"p95\":" << stats.p95 << ",\"p99\":" << stats.p99 << "}\n";
  }
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, e] : ewmas_) e->reset();
  for (auto& [name, s] : slidings_) s->reset();
}

MetricsRegistry& metrics() {
  // Never destroyed: a pool worker sets its busy and utilization gauges
  // after its last item of a job is counted done, when the caller may
  // already have returned, so at process exit it can still be writing here
  // while static destructors run.
  static MetricsRegistry& registry = *new MetricsRegistry();
  return registry;
}

}  // namespace arams::obs
