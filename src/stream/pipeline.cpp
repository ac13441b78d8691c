#include "stream/pipeline.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>

#include "embed/pca.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::stream {

using linalg::Matrix;

namespace {

/// Row storage and row view of the ingest lane whose scalar is T.
template <typename T>
using RowsOf =
    std::conditional_t<std::is_same_v<T, float>, linalg::MatrixF, Matrix>;
template <typename T>
using ViewOf = std::conditional_t<std::is_same_v<T, float>,
                                  linalg::MatrixViewF, linalg::MatrixView>;

/// Bounds of the trailing-window stage latency histograms, in which
/// repeated analyze() calls show "embed p95 over the last few minutes", not
/// the lifetime mean. Stage seconds of big inputs live well above the
/// default 10 s latency ceiling, so the bounds extend into minutes.
constexpr std::array<double, 10> kStageWindowBounds = {
    1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0};

/// One Fig. 4 stage's instrumentation, opened by one statement at the top
/// of the stage. It holds the `pipeline.<stage>` span for the stage's life
/// and reserves the stage's report entry as it opens, so the report lists
/// the stages in pipeline order, each ahead of the entries its own work
/// adds. When the stage completes it reads one clock and feeds that wall
/// time to the report entry, the `pipeline.<stage>_seconds_window`
/// histogram and one stage_complete flight event (stage id in `detail`,
/// seconds in `value`). A stage that throws feeds none of the three. Every
/// name comes from obs::flight_stage_name. Names are built and the window
/// looked up at open, so the close only reads the clock and records.
class StageScope {
 public:
  StageScope(obs::FlightStage stage, obs::StageReport& report)
      : stage_(stage),
        name_(obs::flight_stage_name(stage)),
        report_(report),
        window_(obs::metrics().sliding_histogram(
            "pipeline." + std::string(name_) + "_seconds_window",
            /*window_seconds=*/300.0, /*epochs=*/6, kStageWindowBounds)),
        span_("pipeline." + std::string(name_)) {
    report_.add_seconds(name_, 0.0);
  }

  ~StageScope() {
    if (std::uncaught_exceptions() > exceptions_at_open_) return;
    const double seconds = timer_.seconds();
    report_.set_seconds(name_, seconds);
    window_.record(seconds);
    obs::flight_recorder().record(obs::FlightCode::kStageComplete, 0,
                                  static_cast<std::uint32_t>(stage_),
                                  seconds);
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  obs::FlightStage stage_;
  const char* name_;
  obs::StageReport& report_;
  obs::SlidingHistogram& window_;
  int exceptions_at_open_ = std::uncaught_exceptions();
  obs::ScopedSpan span_;
  Stopwatch timer_;
};

/// Publishes which ingest lane this run used (32 or 64) so dashboards can
/// correlate throughput shifts with the precision switch.
void publish_ingest_precision(int bits) {
  static obs::Gauge& gauge = obs::metrics().gauge("ingest.precision");
  gauge.set(static_cast<double>(bits));
}

/// Stage 2 of the fp64 "arams" lane with one shard: the num_cores
/// contiguous ranges [c·n/P, (c+1)·n/P), each sketched over a view of its
/// rows by its own Arams (seed + c). Several ranges run concurrently on
/// the shared pool, where each one's GEMMs run inline on its worker; a
/// single range stays on this thread, so its GEMMs keep the pool. Either
/// way every range has the same bits.
void sketch_ranges(const PipelineConfig& config, linalg::MatrixView rows,
                   PipelineResult& result) {
  const std::size_t n = rows.rows();
  const std::size_t ranges = std::min<std::size_t>(config.num_cores, n);
  std::vector<core::AramsResult> shards(ranges);
  const auto sketch_range = [&](std::size_t c) {
    core::AramsConfig range_config = config.sketch;
    range_config.seed = config.sketch.seed + c;
    shards[c] = core::Arams(range_config)
                    .sketch_matrix(linalg::MatrixView::rows_of(
                        rows, c * n / ranges, (c + 1) * n / ranges));
  };
  if (ranges == 1) {
    sketch_range(0);
  } else {
    parallel::shared_pool().parallel_for(ranges, sketch_range);
  }
  // Ordered fold: range order fixes the stats sum and the merge leaves.
  std::vector<Matrix> sketches;
  sketches.reserve(ranges);
  std::size_t final_ell = config.sketch.ell;
  core::SketchStats sketch_stats;
  for (core::AramsResult& shard : shards) {
    if (shard.sketch.empty()) continue;
    sketch_stats += core::sketch_stats_from_report(shard.report);
    final_ell = std::max(final_ell, shard.final_ell);
    sketches.push_back(std::move(shard.sketch));
  }
  core::append_to_report(sketch_stats, result.report);
  result.final_ell = final_ell;
  core::MergeStats merge_stats;
  result.sketch = (sketches.size() == 1)
                      ? std::move(sketches.front())
                      : core::tree_merge(std::move(sketches), final_ell, 2,
                                         &merge_stats,
                                         &parallel::shared_pool());
  core::append_to_report(merge_stats, result.report);
}

/// Stage 2. The fp64 "arams" lane with one shard sketches the num_cores
/// ranges. Every other case, all fp32 runs included, runs one factory
/// sketcher over all rows: fp32 rows enter through the Sketcher fp32 seam,
/// and with shards > 1 the factory wraps any backend (arams included) in a
/// ShardedSketcher — concurrent round-robin ingest on the shared pool,
/// pool-executed tree merge at sketch time.
template <typename View>
void sketch_rows(const PipelineConfig& config, View rows,
                 PipelineResult& result) {
  if constexpr (std::is_same_v<View, linalg::MatrixView>) {
    if (config.sketcher == "arams" && config.shards == 1) {
      sketch_ranges(config, rows, result);
      return;
    }
  }
  const std::unique_ptr<core::Sketcher> sketcher =
      core::make_sketcher(config.sketcher_config());
  sketcher->push_batch(rows);
  result.sketch = sketcher->sketch();
  result.final_ell = sketcher->current_ell();
  sketcher->report(result.report);
}

/// Stage 5: label the embedding with the configured clusterer, then score
/// outliers with FastABOD.
void cluster_embedding(const PipelineConfig& config, PipelineResult& result) {
  const std::size_t n = result.embedding.rows();
  if (config.cluster_method == PipelineConfig::ClusterMethod::kKmeans) {
    cluster::KmeansConfig kmeans_config = config.kmeans;
    kmeans_config.k = std::min<std::size_t>(kmeans_config.k, n);
    result.labels = cluster::kmeans(result.embedding, kmeans_config).labels;
  } else if (config.cluster_method ==
             PipelineConfig::ClusterMethod::kHdbscan) {
    cluster::HdbscanConfig hdbscan_config = config.hdbscan;
    hdbscan_config.min_samples = std::min<std::size_t>(
        config.min_pts_for(hdbscan_config.min_samples, n), n - 1);
    hdbscan_config.min_cluster_size =
        config.min_pts_for(hdbscan_config.min_cluster_size, n);
    result.labels = cluster::hdbscan(result.embedding, hdbscan_config).labels;
  } else {
    cluster::OpticsConfig optics_config = config.optics;
    optics_config.min_pts = config.min_pts_for(optics_config.min_pts, n);
    result.optics = cluster::optics(result.embedding, optics_config);
    result.labels =
        cluster::extract_auto(result.optics, config.cluster_quantile);
  }
  if (config.abod_k >= 2 && n > config.abod_k) {
    cluster::AbodConfig abod_config;
    abod_config.k = config.abod_k;
    result.outlier_scores = cluster::fast_abod(result.embedding, abod_config);
  }
}

/// The one stage runner behind every entry point, for either row scalar.
/// With `frame` set, stage 1 preprocesses the n frames into rows; without
/// it, `rows` holds rows that are flattened already and stage 1 does not
/// run. The tail (stages 3–5) is fp64, so the fp32 lane widens its rows
/// once after the sketch.
template <typename T>
PipelineResult run_stages(const PipelineConfig& config, std::size_t n,
                          const image::FrameAt<T>& frame, ViewOf<T> rows,
                          std::vector<std::uint64_t> shot_ids) {
  const obs::ScopedSpan span("pipeline.analyze");
  PipelineResult result;
  RowsOf<T> preprocessed;
  if (frame) {
    ARAMS_CHECK(n > 0, "no frames to analyze");
    const StageScope stage(obs::FlightStage::kPreprocess, result.report);
    preprocessed = image::preprocess_rows(n, frame, config.preprocess);
    rows = preprocessed;
  }
  ARAMS_CHECK(rows.rows() >= 2, "need at least two rows");
  ARAMS_CHECK(shot_ids.empty() || shot_ids.size() == rows.rows(),
              "shot id count does not match row count");
  result.shot_ids = std::move(shot_ids);
  publish_ingest_precision(std::is_same_v<T, float> ? 32 : 64);

  {
    const StageScope stage(obs::FlightStage::kSketch, result.report);
    sketch_rows(config, rows, result);
  }

  // PCA reads the raw rows. The fp32 lane widens them exactly once, charged
  // to "ingest_widen" so the lane's conversion cost stays visible.
  Matrix widened;
  linalg::MatrixView tail_rows;
  if constexpr (std::is_same_v<T, float>) {
    const Stopwatch widen_timer;
    linalg::widen(rows, widened);
    result.report.add_seconds("ingest_widen", widen_timer.seconds());
    tail_rows = widened;
  } else {
    tail_rows = rows;
  }

  {
    const StageScope stage(obs::FlightStage::kProject, result.report);
    const embed::PcaProjector pca(result.sketch, config.pca_components);
    result.latent = pca.project(tail_rows);
  }
  {
    const StageScope stage(obs::FlightStage::kEmbed, result.report);
    embed::UmapConfig umap_config = config.umap;
    umap_config.n_neighbors =
        std::min(umap_config.n_neighbors, result.latent.rows() - 1);
    result.embedding = embed::umap_embed(result.latent, umap_config);
  }
  {
    const StageScope stage(obs::FlightStage::kCluster, result.report);
    cluster_embedding(config, result);
  }
  return result;
}

/// The fp64 frame entry points' lane switch. With IngestPrecision::kF32
/// each frame is narrowed at the door, inside the pooled stage 1 loop, and
/// every downstream ingest step moves half the bytes. `frame(i)` returns
/// frame i where it lies (a frame vector or the events).
template <typename FrameRef>
PipelineResult analyze_frames(const PipelineConfig& config, std::size_t n,
                              const FrameRef& frame,
                              std::vector<std::uint64_t> shot_ids) {
  if (config.ingest_precision == PipelineConfig::IngestPrecision::kF32) {
    return run_stages<float>(
        config, n, [&](std::size_t i) { return image::narrow(frame(i)); },
        {}, std::move(shot_ids));
  }
  return run_stages<double>(
      config, n, [&](std::size_t i) { return frame(i); }, {},
      std::move(shot_ids));
}

}  // namespace

std::vector<std::string> PipelineConfig::validate() const {
  std::vector<std::string> errors = sketch.validate();
  const auto fmt = [](const auto& value) {
    std::ostringstream out;
    out << value;
    return out.str();
  };
  if (!core::sketcher_registered(sketcher)) {
    std::string registered;
    for (const auto& name : core::registered_sketchers()) {
      if (!registered.empty()) registered += ", ";
      registered += name;
    }
    errors.push_back("unknown sketcher backend '" + sketcher +
                     "' (registered: " + registered + ")");
  }
  if (num_cores < 1) {
    errors.push_back("num_cores must be >= 1, got " + fmt(num_cores));
  }
  if (shards < 1) {
    errors.push_back("shards must be >= 1, got " + fmt(shards));
  }
  if (pca_components == 0) {
    errors.push_back("pca_components must be >= 1");
  }
  if (umap.n_neighbors < 2) {
    errors.push_back("umap.n_neighbors must be >= 2, got " +
                     fmt(umap.n_neighbors));
  }
  for (const std::string& e : umap.knn.validate()) {
    errors.push_back("umap.knn: " + e);
  }
  if (!(cluster_quantile > 0.0 && cluster_quantile < 1.0)) {
    errors.push_back("cluster_quantile must be in (0, 1), got " +
                     fmt(cluster_quantile));
  }
  if (abod_k == 1) {
    errors.push_back("abod_k must be 0 (disabled) or >= 2");
  }
  return errors;
}

core::SketcherConfig PipelineConfig::sketcher_config() const {
  core::SketcherConfig out;
  out.backend = sketcher;
  out.shards = shards;
  out.arams = sketch;
  out.ell = sketch.ell;
  out.seed = sketch.seed;
  return out;
}

std::size_t PipelineConfig::min_pts_for(std::size_t min_pts,
                                        std::size_t n) const {
  if (scale_min_pts) {
    min_pts = std::max<std::size_t>(min_pts, std::min<std::size_t>(n / 10, 30));
  }
  return std::min(min_pts, n);
}

void PipelineConfig::throw_if_invalid() const {
  const std::vector<std::string> errors = validate();
  if (!errors.empty()) {
    std::string joined;
    for (const auto& e : errors) {
      if (!joined.empty()) joined += "; ";
      joined += e;
    }
    ARAMS_CHECK(false, "invalid PipelineConfig: " + joined);
  }
}

MonitoringPipeline::MonitoringPipeline(const PipelineConfig& config)
    : config_(config) {
  config.throw_if_invalid();
}

PipelineResult MonitoringPipeline::analyze(
    const std::vector<image::ImageF>& frames) const {
  return analyze_frames(
      config_, frames.size(),
      [&](std::size_t i) -> const image::ImageF& { return frames[i]; }, {});
}

PipelineResult MonitoringPipeline::analyze(
    const std::vector<image::ImageF32>& frames) const {
  return run_stages<float>(
      config_, frames.size(), [&](std::size_t i) { return frames[i]; }, {},
      {});
}

PipelineResult MonitoringPipeline::analyze_events(
    const std::vector<ShotEvent>& events) const {
  std::vector<std::uint64_t> shot_ids;
  shot_ids.reserve(events.size());
  for (const auto& e : events) {
    shot_ids.push_back(e.shot_id);
  }
  return analyze_frames(
      config_, events.size(),
      [&](std::size_t i) -> const image::ImageF& { return events[i].frame; },
      std::move(shot_ids));
}

PipelineResult MonitoringPipeline::analyze_matrix(const Matrix& rows) const {
  return run_stages<double>(config_, 0, {}, rows, {});
}

PipelineResult MonitoringPipeline::analyze_matrix(
    linalg::MatrixViewF rows) const {
  return run_stages<float>(config_, 0, {}, rows, {});
}

}  // namespace arams::stream
