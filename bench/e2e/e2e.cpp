// arams_e2e — end-to-end online-monitoring benchmark, one workload per
// process (see README.md in this directory).
//
//   arams_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale full|smoke] [--out DIR]
//
// Frames are generated in memory from --seed before anything is timed.
// Untraced (--trace 0), the workload repeats rounds of set-up plus timed
// work until --seconds have passed and reports the end-to-end metrics.
// Traced (--trace 1), it makes two passes of a measured round, an untraced
// and a traced outside-in replay of the same calls (replay.hpp), and
// reports the per-layer metrics. Every metric is printed as
// "<workload> <metric> <value> <unit>"; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Failed output
// checks are named on stderr and make the exit code 1.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <thread>

#include "cluster/metrics.hpp"
#include "cluster/optics.hpp"
#include "core/error_tracker.hpp"
#include "embed/pca.hpp"
#include "harness.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "replay.hpp"
#include "stream/bounded_queue.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/stopwatch.hpp"

namespace arams::e2e {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t kQueueCapacity = 128;  ///< the DAQ hand-off queue

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What the rounds of one run measured, plus the outcome of their checks.
struct Tally {
  std::vector<double> setup_s;
  std::vector<double> frames_per_s;
  std::vector<double> latency_ms;  ///< the workload's repeated operation
  std::vector<double> picture_s;   ///< full clustered picture
  std::vector<double> frame_path_us;  ///< ingest() calls without an update
  long attempted = 0;
  long failed = 0;
  long push_waits = 0;
  double round_wall_s = 0.0;  ///< last round, checks excluded
  double recon_err = kNaN;
  double ari = kNaN;
  std::size_t clusters = 0;
  std::size_t final_ell = 0;
  linalg::Matrix batch_sketch;  ///< kBatch: the last round's result sketch
  std::vector<std::string> failures;

  void check(bool ok, const std::string& name, const std::string& detail) {
    if (!ok) failures.push_back(name + ": " + detail);
  }
};

/// The DAQ side of the ingest workloads: one thread pushing the timed
/// frames into the bounded queue (blocking push, so a slow monitor
/// back-pressures it), closing the queue when done. Closes and joins on
/// destruction, so a consumer exception cannot leak the thread.
class Producer {
 public:
  Producer(stream::BoundedQueue<stream::ShotEvent>& queue,
           const std::vector<stream::ShotEvent>& events)
      : queue_(queue), thread_([this, &events] {
          try {
            for (const auto& e : events) {
              if (!queue_.push(e)) break;
            }
          } catch (...) {
            error_ = std::current_exception();
          }
          queue_.close();
        }) {}
  ~Producer() {
    queue_.close();
    if (thread_.joinable()) thread_.join();
  }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  /// Waits for the producer and rethrows what it threw.
  void join() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  stream::BoundedQueue<stream::ShotEvent>& queue_;
  std::exception_ptr error_;
  std::thread thread_;
};

/// Checks on one clustered picture: row count, finiteness, at least two
/// clusters and, on diffraction data, agreement with the generator classes.
void check_picture(const Workload& w, const Inputs& in, std::size_t rows,
                   const linalg::Matrix& embedding,
                   const std::vector<int>& labels,
                   const std::vector<std::uint64_t>& shot_ids, Tally& t) {
  t.check(embedding.rows() == rows && labels.size() == rows,
          "picture_rows",
          std::to_string(embedding.rows()) + " rows, expected " +
              std::to_string(rows));
  bool finite = true;
  for (std::size_t i = 0; i < embedding.rows(); ++i) {
    for (const double v : embedding.row(i)) finite = finite && std::isfinite(v);
  }
  t.check(finite, "embedding_finite", "non-finite embedding coordinate");
  t.clusters = cluster::cluster_count(labels);
  t.check(t.clusters >= 2, "clusters",
          std::to_string(t.clusters) + " clusters, expected >= 2");
  if (w.diffraction && shot_ids.size() == labels.size()) {
    std::vector<int> truth;
    truth.reserve(shot_ids.size());
    for (const auto id : shot_ids) truth.push_back(in.truth.at(id));
    // Chance agreement scores 0; the seeds measured at full size score
    // 0.15–0.37, so 0.1 catches a broken picture without tripping on a
    // hard seed.
    t.ari = cluster::adjusted_rand_index(labels, truth);
    t.check(t.ari >= 0.1, "ari",
            "adjusted Rand index " + std::to_string(t.ari) + " < 0.1");
  }
}

void check_monitor(const stream::StreamingMonitor& m, long offered,
                   Tally& t) {
  const long absorbed = static_cast<long>(m.throughput().total_frames()) -
                        m.nonfinite_frames();
  t.attempted += offered;
  t.failed += offered - absorbed;
  t.check(absorbed == offered, "frames_absorbed",
          std::to_string(absorbed) + " of " + std::to_string(offered));
}

void check_recon(Tally& t) {
  t.check(std::isfinite(t.recon_err) && t.recon_err < 1.0, "recon_err",
          "sketch error estimate " + std::to_string(t.recon_err));
}

void ingest_round(const Workload& w, const Inputs& in, Tally& t) {
  Stopwatch round;
  stream::StreamingMonitor monitor(w.monitor);
  for (const auto& e : in.setup) monitor.ingest(e);
  t.setup_s.push_back(round.seconds());

  stream::BoundedQueue<stream::ShotEvent> queue(kQueueCapacity);
  queue.enable_metrics("e2e.queue");
  const obs::Counter& push_waits =
      obs::metrics().counter("e2e.queue.push_waits");
  const long waits_before = push_waits.value();
  Stopwatch timed;
  {
    Producer producer(queue, in.timed);
    while (auto event = queue.pop()) {
      monitor.note_queue_saturation(queue.saturation());
      Stopwatch call;
      if (monitor.ingest(*event)) {
        t.latency_ms.push_back(call.millis());
      } else {
        t.frame_path_us.push_back(call.seconds() * 1e6);
      }
    }
    producer.join();
  }
  monitor.flush();
  t.frames_per_s.push_back(static_cast<double>(in.timed.size()) /
                           timed.seconds());
  t.push_waits += push_waits.value() - waits_before;

  Stopwatch picture;
  const stream::SnapshotResult snap = monitor.snapshot();
  t.picture_s.push_back(picture.seconds());
  t.recon_err = monitor.sketch_error_estimate();
  t.final_ell = monitor.current_ell();
  t.round_wall_s = round.seconds();

  check_monitor(monitor, static_cast<long>(in.setup.size() + in.timed.size()),
                t);
  t.attempted += 1;
  check_picture(w, in, w.monitor.reservoir_size, snap.embedding, snap.labels,
                snap.shot_ids, t);
  check_recon(t);
}

void snapshot_round(const Workload& w, const Inputs& in, Tally& t) {
  Stopwatch round;
  stream::StreamingMonitor monitor(w.monitor);
  for (const auto& e : in.setup) monitor.ingest(e);
  (void)monitor.snapshot();
  t.setup_s.push_back(round.seconds());

  double cycle_wall = 0.0;
  stream::SnapshotResult snap;
  for (std::size_t c = 0; c < w.cycles; ++c) {
    Stopwatch cycle;
    for (const auto& e : cycle_frames(w, in, c)) monitor.ingest(e);
    Stopwatch refresh;
    snap = c == 0 ? monitor.snapshot() : monitor.snapshot_incremental();
    if (c == 0) {
      t.picture_s.push_back(refresh.seconds());
    } else {
      t.latency_ms.push_back(refresh.millis());
    }
    cycle_wall += cycle.seconds();
  }
  t.frames_per_s.push_back(static_cast<double>(in.timed.size()) /
                           cycle_wall);
  t.recon_err = monitor.sketch_error_estimate();
  t.final_ell = monitor.current_ell();
  t.round_wall_s = round.seconds();

  check_monitor(monitor, static_cast<long>(in.setup.size() + in.timed.size()),
                t);
  t.attempted += static_cast<long>(w.cycles) + 1;
  check_picture(w, in, w.monitor.reservoir_size, snap.embedding, snap.labels,
                snap.shot_ids, t);
  check_recon(t);
}

/// The sketch-quality checks of the batch workload, computed once per run
/// over the preprocessed rows A and the result sketch B (every round
/// computes the same B):
///   recon_err      the monitor's estimator (a uniform row sample) against
///                  B's top-ℓ basis;
///   cov_err_ratio  ‖AᵀA−BᵀB‖₂ ÷ (‖A‖²_F/ℓ), which Frequent Directions
///                  bounds by 1.
double batch_quality(const Workload& w, const Inputs& in, std::uint64_t seed,
                     Tally& t) {
  std::vector<image::ImageF> frames;
  frames.reserve(in.timed.size());
  for (const auto& e : in.timed) frames.push_back(e.frame);
  const linalg::Matrix a = image::images_to_matrix(
      image::preprocess_batch(frames, w.pipeline.preprocess));
  core::SketchErrorTracker tracker(core::ErrorTrackerConfig{});
  tracker.observe_batch(a);
  const embed::PcaProjector top(t.batch_sketch, t.final_ell);
  t.recon_err = tracker.relative_error(top.basis());
  check_recon(t);
  Rng rng(seed);
  const double ratio =
      linalg::covariance_error(a, t.batch_sketch, rng) /
      (linalg::frobenius_norm_squared(a) / static_cast<double>(t.final_ell));
  t.check(std::isfinite(ratio) && ratio <= 1.0, "cov_err_ratio",
          "‖AᵀA−BᵀB‖₂ is " + std::to_string(ratio) + " × ‖A‖²_F/ℓ");
  return ratio;
}

void batch_round(const Workload& w, const Inputs& in, Tally& t) {
  Stopwatch round;
  const stream::MonitoringPipeline pipeline(w.pipeline);
  (void)pipeline.analyze_events(in.setup);
  t.setup_s.push_back(round.seconds());

  Stopwatch call;
  const stream::PipelineResult result = pipeline.analyze_events(in.timed);
  const double seconds = call.seconds();
  t.round_wall_s = round.seconds();
  t.latency_ms.push_back(seconds * 1e3);
  t.frames_per_s.push_back(static_cast<double>(in.timed.size()) / seconds);
  t.picture_s.push_back(result.report.seconds("project") +
                        result.report.seconds("embed") +
                        result.report.seconds("cluster"));
  t.final_ell = result.final_ell;
  t.attempted += 2;
  t.batch_sketch = result.sketch;
  check_picture(w, in, in.timed.size(), result.embedding, result.labels,
                result.shot_ids, t);
}

void run_round(const Workload& w, const Inputs& in, Tally& t) {
  switch (w.kind) {
    case Kind::kIngest:
      ingest_round(w, in, t);
      break;
    case Kind::kSnapshot:
      snapshot_round(w, in, t);
      break;
    case Kind::kBatch:
      batch_round(w, in, t);
      break;
  }
}

/// Every counter and histogram in obs::metrics(): a counter under its name,
/// a histogram as "<name>.count" and "<name>.sum". Read through visit(), so
/// nothing is registered with the wrong bucket bounds by looking.
using MetricValues = std::map<std::string, double>;

MetricValues read_metrics() {
  MetricValues out;
  obs::MetricsRegistry::Visitor visitor;
  visitor.on_counter = [&](const std::string& name, const obs::Counter& c) {
    out[name] = static_cast<double>(c.value());
  };
  visitor.on_histogram = [&](const std::string& name,
                             const obs::Histogram& h) {
    out[name + ".count"] = static_cast<double>(h.count());
    out[name + ".sum"] = h.sum();
  };
  obs::metrics().visit(visitor);
  return out;
}

double delta(const MetricValues& before, const MetricValues& after,
             const std::string& name) {
  const auto value = [&](const MetricValues& m) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  return value(after) - value(before);
}

double median(std::vector<double> values) {
  ARAMS_CHECK(!values.empty(), "median of no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(),
                        values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return kNaN;
}

/// Untraced run: rounds until `seconds` have passed; end-to-end metrics.
void run_untraced(const Workload& w, const Inputs& in, std::uint64_t seed,
                  double seconds, Tally& t, std::vector<Metric>& headline,
                  std::vector<Metric>& detail) {
  Stopwatch elapsed;
  do {
    run_round(w, in, t);
  } while (elapsed.seconds() < seconds);
  // Read before the batch checks, whose copy of the rows is not the
  // program's memory.
  const double rss_mb = peak_rss_mb();
  const double cov_err_ratio =
      w.kind == Kind::kBatch ? batch_quality(w, in, seed, t) : kNaN;

  headline = {
      {"setup_s", median(t.setup_s), "s"},
      {"frames_per_s", median(t.frames_per_s), "frames/s"},
      {"latency_p50_ms", median(t.latency_ms), "ms"},
      {"picture_s", median(t.picture_s), "s"},
      {"recon_err", t.recon_err, "ratio"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  detail = {
      {"rounds", static_cast<double>(t.setup_s.size()), "count"},
      {"latency_samples", static_cast<double>(t.latency_ms.size()), "count"},
      {"picture_samples", static_cast<double>(t.picture_s.size()), "count"},
      {"clusters", static_cast<double>(t.clusters), "count"},
      {"final_ell", static_cast<double>(t.final_ell), "rows"},
  };
  if (w.diffraction) detail.push_back({"ari", t.ari, "index"});
  if (w.kind == Kind::kBatch) {
    detail.push_back({"cov_err_ratio", cov_err_ratio, "ratio"});
  }
  if (w.kind == Kind::kIngest) {
    detail.push_back(
        {"stream.frame_path_us", median(t.frame_path_us), "us"});
    detail.push_back({"stream.queue_push_waits",
                      static_cast<double>(t.push_waits), "count"});
  }
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

/// Traced run: two passes of (measured round, untraced replay, traced
/// replay). The first pass also warms caches and arenas; each of the three
/// walls is the lower of its two passes. Per-layer metrics come from the
/// last traced replay. Writes the Chrome trace and the layer table under
/// `out` when it is set.
void run_traced(const Workload& w, const Inputs& in, const std::string& out,
                const std::string& stem, Tally& t,
                std::vector<Metric>& headline, std::vector<Metric>& detail) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double monitor_wall = kInf;
  double replay_wall = kInf;
  double traced_wall = kInf;
  Tally last;
  obs::TraceRecorder untraced;
  obs::TraceRecorder recorder;
  MetricValues before;
  MetricValues after;
  ReplayResult replay;
  for (int pass = 0; pass < 2; ++pass) {
    last = Tally{};
    run_round(w, in, last);
    t.attempted += last.attempted;
    t.failed += last.failed;
    t.failures.insert(t.failures.end(), last.failures.begin(),
                      last.failures.end());
    monitor_wall = std::min(monitor_wall, last.round_wall_s);

    Stopwatch replay_timer;
    (void)replay_round(w, in, untraced);
    replay_wall = std::min(replay_wall, replay_timer.seconds());

    recorder.clear();
    recorder.enable(true);
    before = read_metrics();
    Stopwatch traced_timer;
    replay = replay_round(w, in, recorder);
    traced_wall = std::min(traced_wall, traced_timer.seconds());
    after = read_metrics();
    recorder.enable(false);
  }
  const SpanSummary spans = summarize(recorder.spans());

  const auto d = [&](const std::string& name) {
    return delta(before, after, name);
  };
  const auto self = [&](const std::string& layer) {
    const auto it = spans.layer_self_seconds.find(layer);
    return it == spans.layer_self_seconds.end() ? 0.0 : it->second;
  };
  const auto calls = [&](const std::string& name) {
    const auto it = spans.call_seconds.find(name);
    return it == spans.call_seconds.end() ? std::vector<double>{}
                                          : it->second;
  };
  const auto median_ms = [&](const std::string& name) {
    const std::vector<double> v = calls(name);
    return v.empty() ? 0.0 : median(v) * 1e3;
  };
  const bool batch = w.kind == Kind::kBatch;
  const double frames =
      static_cast<double>(in.setup.size() + in.timed.size());
  const double pool_threads =
      static_cast<double>(parallel::shared_pool().thread_count());

  headline = {
      {"image.preprocess_us", self("image") / frames * 1e6, "us"},
      {"image.self_s", self("image"), "s"},
      {"core.self_s", self("core"), "s"},
      {"core.update_ms",
       median_ms(batch ? "core.sketch_matrix" : "core.push_batch"), "ms"},
      {"core.sketch_ms", median_ms(batch ? "core.tree_merge" : "core.sketch"),
       "ms"},
      {"core.shrinks", d("fd.shrink_count"), "count"},
      {"core.shrink_s", d("fd.shrink_seconds.sum"), "s"},
      {"core.probe_count", d("fd.probe_count"), "count"},
      {"core.rank_increases", d("fd.rank_increases"), "count"},
      {"core.merge_ops", d("merge.ops"), "count"},
      {"core.merge_parallel_groups", d("merge.parallel_groups"), "count"},
      {"linalg.eig_s", d("linalg.eig_seconds.sum"), "s"},
      {"linalg.eig_calls", d("linalg.eig_seconds.count"), "count"},
      {"linalg.eig_iterations", d("linalg.eig_iterations.sum"), "count"},
      {"linalg.gemm_parallel_calls", d("linalg.gemm_parallel_count"),
       "count"},
      {"embed.self_s", self("embed"), "s"},
      {"embed.pca_ms", median_ms("embed.pca"), "ms"},
      {"embed.project_ms", median_ms("embed.project"), "ms"},
      {"embed.umap_s", replay.umap_seconds, "s"},
      {"embed.knn_s", replay.umap_knn_seconds, "s"},
      {"embed.umap_sgd_s", replay.umap_seconds - replay.umap_knn_seconds,
       "s"},
      {"embed.ann_build_s", d("embed.ann_build_seconds.sum"), "s"},
      {"embed.ann_query_s", d("embed.ann_query_seconds.sum"), "s"},
      {"embed.ann_candidates_scored", d("embed.ann_candidates_scored"),
       "count"},
      {"cluster.self_s", self("cluster"), "s"},
      {"cluster.optics_s", sum(calls("cluster.optics")), "s"},
      {"cluster.core_dist_s", d("cluster.core_dist_seconds.sum"), "s"},
      {"cluster.clusters", static_cast<double>(replay.clusters), "count"},
      {"parallel.task_run_s", d("pool.task_run_seconds.sum"), "s"},
      {"parallel.task_wait_s", d("pool.task_wait_seconds.sum"), "s"},
      {"parallel.tasks", d("pool.task_run_seconds.count"), "count"},
      {"parallel.busy_frac",
       d("pool.task_run_seconds.sum") / (pool_threads * spans.root_seconds),
       "ratio"},
      {"stream.self_frac", 1.0 - replay_wall / monitor_wall, "ratio"},
      {"stream.queue_push_waits", static_cast<double>(last.push_waits),
       "count"},
      {"obs.trace_overhead_frac", traced_wall / replay_wall - 1.0, "ratio"},
      {"obs.span_coverage", 1.0 - self("replay") / spans.root_seconds,
       "ratio"},
  };
  detail = {
      {"stream.self_s", self("stream"), "s"},
      {"linalg.self_s", self("linalg"), "s"},
      {"core.basis_ms", median_ms("core.basis"), "ms"},
      {"core.error_estimate_ms", median_ms("core.relative_error"), "ms"},
      {"embed.transform_s", sum(calls("embed.umap_transform")), "s"},
      {"embed.ann_insert_ms", median_ms("embed.ann_insert"), "ms"},
      {"cluster.abod_s", sum(calls("cluster.abod")), "s"},
      {"monitor_wall_s", monitor_wall, "s"},
      {"replay_wall_s", replay_wall, "s"},
      {"traced_replay_wall_s", traced_wall, "s"},
  };
  if (w.kind == Kind::kIngest) {
    detail.push_back(
        {"stream.frame_path_us", median(last.frame_path_us), "us"});
  }
  if (!batch) {
    detail.push_back({"monitor.recon_err", last.recon_err, "ratio"});
    detail.push_back({"replay.recon_err", replay.recon_err, "ratio"});
  }

  if (out.empty()) return;
  std::ofstream trace(out + "/" + stem + ".trace.json");
  recorder.write_chrome_trace(trace);
  std::ofstream table(out + "/" + stem + ".layers.txt");
  table << "# " << w.name << ": self time per layer, traced replay wall "
        << spans.root_seconds << " s\nlayer\tself_s\tshare\n";
  for (const auto& [layer, s] : spans.layer_self_seconds) {
    table << layer << '\t' << s << '\t' << s / spans.root_seconds << '\n';
  }
  table << "\ncall\tcount\ttotal_s\tmedian_ms\n";
  for (const auto& [name, durations] : spans.call_seconds) {
    table << name << '\t' << durations.size() << '\t' << sum(durations)
          << '\t' << median(durations) * 1e3 << '\n';
  }
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// All significant digits; JSON has no NaN, so a non-finite value is null.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const auto& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

/// Where and how the numbers were made. compare.py refuses to compare runs
/// whose stamps differ in anything but the git revision and the seed.
std::string provenance(const Workload& w, std::uint64_t seed, bool smoke,
                       double seconds) {
  const obs::BuildInfo& build = obs::build_info();
  const char* env = std::getenv("ARAMS_POOL_THREADS");
  std::ostringstream s;
  s << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"pool_threads\": " << parallel::shared_pool().thread_count()
    << ", \"ARAMS_POOL_THREADS\": " << json_string(env != nullptr ? env : "")
    << ", \"build\": " << json_string(obs::build_info_line())
    << ", \"git\": " << json_string(build.git)
    << ", \"compiler\": " << json_string(build.compiler)
    << ", \"march\": " << json_string(build.march)
    << ", \"sanitize\": " << json_string(build.sanitize)
    << ", \"build_type\": " << json_string(build.build_type)
    << ", \"scale\": " << json_string(smoke ? "smoke" : "full")
    << ", \"seconds\": " << json_number(seconds) << ", \"seed\": " << seed
    << ", \"side\": " << w.side << ", \"setup_frames\": " << w.setup_frames
    << ", \"frames\": " << w.frames << ", \"cycles\": " << w.cycles
    << ", \"reservoir\": "
    << (w.kind == Kind::kBatch ? 0 : w.monitor.reservoir_size) << "}";
  return s.str();
}

int run(int argc, char** argv) {
  CliFlags flags;
  flags.declare("workload", "", "workload name (see BENCHMARK.json)");
  flags.declare("seed", "1", "input generator seed");
  flags.declare("seconds", "10", "untraced: minimum measured seconds");
  flags.declare("trace", "0", "1: per-layer metrics from the replay");
  flags.declare("scale", "full", "full | smoke (32x32 frames, ~1k frames)");
  flags.declare("out", "", "directory for the result JSON and traces");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams_e2e");
    return 0;
  }
  const std::string scale = flags.get("scale");
  ARAMS_CHECK(scale == "full" || scale == "smoke",
              "--scale must be full or smoke, got " + scale);
  const bool smoke = scale == "smoke";
  const long seed_flag = flags.get_int("seed");
  ARAMS_CHECK(seed_flag >= 0, "--seed must be >= 0");
  const auto seed = static_cast<std::uint64_t>(seed_flag);
  const double seconds = flags.get_double("seconds");
  const bool traced = flags.get_bool("trace");
  const std::string out = flags.get("out");
  const Workload w = make_workload(flags.get("workload"), smoke);

  const Inputs in = generate_inputs(w, seed);
  Tally t;
  std::vector<Metric> headline;
  std::vector<Metric> detail;
  const std::string stem = w.name + "-s" + std::to_string(seed) +
                           (traced ? "-trace" : "");
  if (traced) {
    run_traced(w, in, out, stem, t, headline, detail);
  } else {
    run_untraced(w, in, seed, seconds, t, headline, detail);
  }
  for (const auto& m : headline) {
    t.check(std::isfinite(m.value), "metric_finite", m.name);
  }

  for (const auto* list : {&headline, &detail}) {
    for (const auto& m : *list) {
      std::cout << w.name << ' ' << m.name << ' ' << json_number(m.value)
                << ' ' << m.unit << '\n';
    }
  }
  for (const auto& f : t.failures) {
    std::cerr << "arams_e2e: " << w.name << ": check failed: " << f << '\n';
  }
  const bool correct = t.failures.empty();
  const std::string status = std::string("\"correct\": ") +
                             (correct ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(t.attempted) +
                             ", \"failed\": " + std::to_string(t.failed);
  if (!out.empty()) {
    std::vector<Metric> all = headline;
    all.insert(all.end(), detail.begin(), detail.end());
    std::string failures = "[";
    for (const auto& f : t.failures) {
      if (failures.size() > 1) failures += ", ";
      failures += json_string(f);
    }
    failures += "]";
    std::ofstream result(out + "/" + stem + ".json");
    result << "{\"workload\": " << json_string(w.name)
           << ", \"trace\": " << (traced ? 1 : 0) << ", " << status
           << ", \"failures\": " << failures
           << ", \"provenance\": " << provenance(w, seed, smoke, seconds)
           << ", \"metrics\": " << json_metrics(all) << "}\n";
    ARAMS_CHECK(result.good(), "cannot write " + out + "/" + stem + ".json");
  }
  std::cout << '{' << status << ", \"metrics\": " << json_metrics(headline)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace arams::e2e

int main(int argc, char** argv) {
  try {
    return arams::e2e::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "arams_e2e: " << e.what() << '\n';
    return 2;
  }
}
