#include "stream/pipeline.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <sstream>

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

/// Trailing-window latency per pipeline stage: repeated analyze() calls
/// (the snapshot cadence of a long run) land each stage's wall time here,
/// so an operator sees "embed p95 over the last few minutes", not the
/// lifetime mean. Stage seconds live well above the default 10 s latency
/// ceiling for big inputs, so the bounds extend into minutes.
obs::SlidingHistogram& stage_window(const char* metric) {
  static constexpr std::array<double, 10> kBounds = {
      1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0};
  return obs::metrics().sliding_histogram(
      metric, /*window_seconds=*/300.0, /*epochs=*/6,
      std::span<const double>(kBounds));
}

/// Journals one stage_complete flight event (stage id in `detail`, wall
/// seconds in `value`) — the per-stage breadcrumb a post-mortem tail
/// shows for the run's final moments.
void record_stage(obs::FlightStage stage, double seconds) {
  obs::flight_recorder().record(obs::FlightCode::kStageComplete, 0,
                                static_cast<std::uint32_t>(stage), seconds);
}

/// Publishes which ingest lane this run used (32 or 64) so dashboards can
/// correlate throughput shifts with the precision switch.
void publish_ingest_precision(int bits) {
  static obs::Gauge& gauge = obs::metrics().gauge("ingest.precision");
  gauge.set(static_cast<double>(bits));
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
  if (!(cluster_quantile > 0.0 && cluster_quantile <= 1.0)) {
    errors.push_back("cluster_quantile must be in (0, 1], got " +
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

MonitoringPipeline::MonitoringPipeline(const PipelineConfig& config)
    : config_(config) {
  const std::vector<std::string> errors = config.validate();
  if (!errors.empty()) {
    std::string joined;
    for (const auto& e : errors) {
      if (!joined.empty()) joined += "; ";
      joined += e;
    }
    ARAMS_CHECK(false, "invalid PipelineConfig: " + joined);
  }
}

PipelineResult MonitoringPipeline::analyze(
    const std::vector<image::ImageF>& frames) const {
  return analyze_frames(
      frames.size(),
      [&](std::size_t i) -> const image::ImageF& { return frames[i]; }, {});
}

PipelineResult MonitoringPipeline::analyze(
    const std::vector<image::ImageF32>& frames) const {
  return analyze_frames_f32(
      frames.size(), [&](std::size_t i) { return frames[i]; }, {});
}

PipelineResult MonitoringPipeline::analyze_events(
    const std::vector<ShotEvent>& events) const {
  std::vector<std::uint64_t> shot_ids;
  shot_ids.reserve(events.size());
  for (const auto& e : events) {
    shot_ids.push_back(e.shot_id);
  }
  return analyze_frames(
      events.size(),
      [&](std::size_t i) -> const image::ImageF& { return events[i].frame; },
      std::move(shot_ids));
}

PipelineResult MonitoringPipeline::analyze_matrix(const Matrix& rows) const {
  const obs::ScopedSpan span("pipeline.analyze");
  return run_stages(rows, {});
}

PipelineResult MonitoringPipeline::analyze_matrix(
    linalg::MatrixViewF rows) const {
  const obs::ScopedSpan span("pipeline.analyze");
  return run_stages_f32(rows, {});
}

PipelineResult MonitoringPipeline::analyze_frames(
    std::size_t n, const FrameRef& frame,
    std::vector<std::uint64_t> shot_ids) const {
  ARAMS_CHECK(n > 0, "no frames to analyze");
  if (config_.ingest_precision == PipelineConfig::IngestPrecision::kF32) {
    // Narrow at the door: one cast pass over each frame's raw pixels, in
    // the pooled preprocessing loop, then every downstream ingest step
    // moves half the bytes.
    return analyze_frames_f32(
        n, [&](std::size_t i) { return image::narrow(frame(i)); },
        std::move(shot_ids));
  }
  const obs::ScopedSpan span("pipeline.analyze");
  Stopwatch timer;
  Matrix rows;
  {
    // --- stage 1: every frame preprocessed straight into its row, in
    // bands of frames across the shared pool ---
    const obs::ScopedSpan stage_span("pipeline.preprocess");
    rows = image::preprocess_rows(
        n, [&](std::size_t i) { return frame(i); }, config_.preprocess);
  }
  const double pre = timer.seconds();
  stage_window("pipeline.preprocess_seconds_window").record(pre);
  record_stage(obs::FlightStage::kPreprocess, pre);
  PipelineResult result = run_stages(rows, std::move(shot_ids));
  result.report.set_seconds("preprocess", pre);
  return result;
}

PipelineResult MonitoringPipeline::analyze_frames_f32(
    std::size_t n, const image::FrameAt<float>& frame,
    std::vector<std::uint64_t> shot_ids) const {
  ARAMS_CHECK(n > 0, "no frames to analyze");
  const obs::ScopedSpan span("pipeline.analyze");
  Stopwatch timer;
  linalg::MatrixF rows;
  {
    // --- stage 1: per-frame preprocessing into the rows, fp32 kernels
    // (reductions in double, NaN guards identical to the fp64 lane) ---
    const obs::ScopedSpan stage_span("pipeline.preprocess");
    rows = image::preprocess_rows(n, frame, config_.preprocess);
  }
  const double pre = timer.seconds();
  stage_window("pipeline.preprocess_seconds_window").record(pre);
  record_stage(obs::FlightStage::kPreprocess, pre);
  PipelineResult result = run_stages_f32(rows, std::move(shot_ids));
  result.report.set_seconds("preprocess", pre);
  return result;
}

PipelineResult MonitoringPipeline::run_stages(
    const Matrix& rows, std::vector<std::uint64_t> shot_ids) const {
  ARAMS_CHECK(rows.rows() >= 2, "need at least two rows");
  ARAMS_CHECK(shot_ids.empty() || shot_ids.size() == rows.rows(),
              "shot id count does not match row count");
  PipelineResult result;
  result.shot_ids = std::move(shot_ids);
  publish_ingest_precision(64);
  Stopwatch timer;

  // --- stage 2: sharded ARAMS sketch, tree-merged; or any other
  // factory-registered backend as a single streaming instance ---
  if (config_.sketcher != "arams" || config_.shards > 1) {
    // Non-ARAMS backends run one streaming instance over all rows; with
    // shards > 1 the factory wraps any backend (arams included) in a
    // ShardedSketcher — concurrent round-robin ingest on the shared pool,
    // pool-executed tree merge at sketch time.
    const obs::ScopedSpan stage_span("pipeline.sketch");
    const std::unique_ptr<core::Sketcher> sketcher =
        core::make_sketcher(config_.sketcher_config());
    sketcher->push_batch(rows);
    result.sketch = sketcher->sketch();
    result.final_ell = sketcher->current_ell();
    sketcher->report(result.report);
  } else {
    // The num_cores contiguous ranges [c·n/P, (c+1)·n/P), each sketched
    // over a view of its rows by its own Arams (seed + c). Several ranges
    // run concurrently on the shared pool, where each one's GEMMs run
    // inline on its worker; a single range stays on this thread, so its
    // GEMMs keep the pool. Either way every range has the same bits.
    const obs::ScopedSpan stage_span("pipeline.sketch");
    const std::size_t n = rows.rows();
    const std::size_t ranges = std::min<std::size_t>(config_.num_cores, n);
    std::vector<core::AramsResult> shards(ranges);
    const auto sketch_range = [&](std::size_t c) {
      core::AramsConfig range_config = config_.sketch;
      range_config.seed = config_.sketch.seed + c;
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
    std::size_t final_ell = config_.sketch.ell;
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
  {
    const double sketch_seconds = timer.lap();
    stage_window("pipeline.sketch_seconds_window").record(sketch_seconds);
    result.report.set_seconds("sketch", sketch_seconds);
    record_stage(obs::FlightStage::kSketch, sketch_seconds);
  }

  run_tail_stages(rows, result, timer);
  return result;
}

PipelineResult MonitoringPipeline::run_stages_f32(
    linalg::MatrixViewF rows, std::vector<std::uint64_t> shot_ids) const {
  ARAMS_CHECK(rows.rows() >= 2, "need at least two rows");
  ARAMS_CHECK(shot_ids.empty() || shot_ids.size() == rows.rows(),
              "shot id count does not match row count");
  PipelineResult result;
  result.shot_ids = std::move(shot_ids);
  publish_ingest_precision(32);
  Stopwatch timer;

  // --- stage 2: one streaming sketcher over the float rows. Every
  // backend accepts them through the Sketcher fp32 seam (arams, fd,
  // gaussian and countsketch natively; the rest via the widening shim).
  // The fp64 lane's sharded tree-merge is not replicated here — the whole
  // point of this lane is to keep the frames narrow until the sketch core.
  {
    const obs::ScopedSpan stage_span("pipeline.sketch");
    const std::unique_ptr<core::Sketcher> sketcher =
        core::make_sketcher(config_.sketcher_config());
    sketcher->push_batch(rows);
    result.sketch = sketcher->sketch();
    result.final_ell = sketcher->current_ell();
    sketcher->report(result.report);
  }
  {
    const double sketch_seconds = timer.lap();
    stage_window("pipeline.sketch_seconds_window").record(sketch_seconds);
    result.report.set_seconds("sketch", sketch_seconds);
    record_stage(obs::FlightStage::kSketch, sketch_seconds);
  }

  // The analysis tail (PCA projection of the raw rows, UMAP, clustering)
  // is fp64; widen the rows exactly once, charging it to the report so
  // the lane's conversion cost stays visible.
  Matrix wide;
  linalg::widen(rows, wide);
  result.report.add_seconds("ingest_widen", timer.lap());
  run_tail_stages(wide, result, timer);
  return result;
}

void MonitoringPipeline::run_tail_stages(const Matrix& rows,
                                         PipelineResult& result,
                                         Stopwatch& timer) const {
  // --- stage 3: PCA latent projection of the *original* rows ---
  {
    const obs::ScopedSpan stage_span("pipeline.project");
    const embed::PcaProjector pca(result.sketch, config_.pca_components);
    result.latent = pca.project(rows);
  }
  {
    const double project_seconds = timer.lap();
    stage_window("pipeline.project_seconds_window").record(project_seconds);
    result.report.set_seconds("project", project_seconds);
    record_stage(obs::FlightStage::kProject, project_seconds);
  }

  // --- stage 4: UMAP to 2-D ---
  {
    const obs::ScopedSpan stage_span("pipeline.embed");
    embed::UmapConfig umap_config = config_.umap;
    umap_config.n_neighbors =
        std::min(umap_config.n_neighbors, result.latent.rows() - 1);
    result.embedding = embed::umap_embed(result.latent, umap_config);
  }
  {
    const double embed_seconds = timer.lap();
    stage_window("pipeline.embed_seconds_window").record(embed_seconds);
    result.report.set_seconds("embed", embed_seconds);
    record_stage(obs::FlightStage::kEmbed, embed_seconds);
  }

  // --- stage 5: density clustering + ABOD outlier scores ---
  {
    const obs::ScopedSpan stage_span("pipeline.cluster");
    const std::size_t scaled_min_pts =
        config_.scale_min_pts
            ? std::min<std::size_t>(result.embedding.rows() / 10, 30)
            : 0;
    if (config_.cluster_method == PipelineConfig::ClusterMethod::kKmeans) {
      cluster::KmeansConfig kmeans_config = config_.kmeans;
      kmeans_config.k =
          std::min<std::size_t>(kmeans_config.k, result.embedding.rows());
      result.labels =
          cluster::kmeans(result.embedding, kmeans_config).labels;
    } else if (config_.cluster_method ==
               PipelineConfig::ClusterMethod::kHdbscan) {
      cluster::HdbscanConfig hdbscan_config = config_.hdbscan;
      hdbscan_config.min_samples = std::min<std::size_t>(
          std::max(hdbscan_config.min_samples, scaled_min_pts),
          result.embedding.rows() - 1);
      hdbscan_config.min_cluster_size =
          std::max(hdbscan_config.min_cluster_size, scaled_min_pts);
      result.labels =
          cluster::hdbscan(result.embedding, hdbscan_config).labels;
    } else {
      cluster::OpticsConfig optics_config = config_.optics;
      optics_config.min_pts =
          std::max(optics_config.min_pts, scaled_min_pts);
      optics_config.min_pts = std::min<std::size_t>(
          optics_config.min_pts, result.embedding.rows());
      result.optics = cluster::optics(result.embedding, optics_config);
      result.labels = cluster::extract_auto(result.optics,
                                            config_.cluster_quantile);
    }
    if (config_.abod_k >= 2 && result.embedding.rows() > config_.abod_k) {
      cluster::AbodConfig abod_config;
      abod_config.k = config_.abod_k;
      result.outlier_scores = cluster::fast_abod(result.embedding, abod_config);
    }
  }
  {
    const double cluster_seconds = timer.lap();
    stage_window("pipeline.cluster_seconds_window").record(cluster_seconds);
    result.report.set_seconds("cluster", cluster_seconds);
    record_stage(obs::FlightStage::kCluster, cluster_seconds);
  }
}

}  // namespace arams::stream
