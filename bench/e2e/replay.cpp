#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "cluster/abod.hpp"
#include "cluster/optics.hpp"
#include "core/arams_sketch.hpp"
#include "core/error_tracker.hpp"
#include "core/merge.hpp"
#include "core/sketcher.hpp"
#include "embed/ann/searcher.hpp"
#include "embed/pca.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "linalg/workspace.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::e2e {

namespace {

using linalg::Matrix;
using Span = obs::ScopedSpan;

/// Seconds the kNN searchers have spent building and querying so far.
double knn_graph_seconds() {
  return obs::metrics().histogram("embed.ann_build_seconds").sum() +
         obs::metrics().histogram("embed.ann_query_seconds").sum();
}

/// Runs umap_embed (either overload) and books its kNN-graph share.
template <typename Fn>
Matrix timed_umap(ReplayResult& result, Fn&& embed) {
  const double knn_before = knn_graph_seconds();
  Stopwatch timer;
  Matrix out = embed();
  result.umap_seconds += timer.seconds();
  result.umap_knn_seconds += knn_graph_seconds() - knn_before;
  return out;
}

/// StreamingMonitor's calls (src/stream/monitor.cpp): ingest, update_sketch
/// with its health check, flush, snapshot, snapshot_incremental and
/// sketch_error_estimate. Telemetry, flight-recorder and watchdog calls are
/// left out; they are part of what stream.self_frac measures.
class ReplayMonitor {
 public:
  ReplayMonitor(const stream::MonitorConfig& config, obs::TraceRecorder& rec,
                ReplayResult& result)
      : config_(config),
        rec_(rec),
        result_(result),
        f32_(config.pipeline.ingest_precision ==
             stream::PipelineConfig::IngestPrecision::kF32),
        sketcher_(core::make_sketcher(config.pipeline.sketcher_config())),
        tracker_(core::ErrorTrackerConfig{}) {}

  void ingest(const stream::ShotEvent& event) {
    const Span span("stream.ingest", rec_);
    for (const double v : event.frame.pixels()) {
      ARAMS_CHECK(std::isfinite(v), "benchmark frames are finite");
    }
    std::vector<double> row;
    if (f32_) {
      std::vector<float> row32;
      {
        const Span call("image.preprocess", rec_);
        const image::ImageF32 processed = image::preprocess(
            image::narrow(event.frame), config_.pipeline.preprocess);
        dim_ = processed.pixel_count();
        row32.resize(dim_);
        processed.to_row(std::span<float>(row32));
      }
      row.resize(dim_);
      for (std::size_t i = 0; i < dim_; ++i) {
        row[i] = static_cast<double>(row32[i]);
      }
      batch_f32_.push_back(std::move(row32));
    } else {
      const Span call("image.preprocess", rec_);
      const image::ImageF processed =
          image::preprocess(event.frame, config_.pipeline.preprocess);
      dim_ = processed.pixel_count();
      row.resize(dim_);
      processed.to_row(row);
    }
    {
      const Span call("core.observe", rec_);
      tracker_.observe(row);
    }
    reservoir_.emplace_back(event.shot_id, std::move(row));
    if (reservoir_.size() > config_.reservoir_size) reservoir_.pop_front();
    if (!f32_) batch_.push_back(reservoir_.back().second);
    if (std::max(batch_.size(), batch_f32_.size()) >= config_.batch_size) {
      update_sketch();
    }
  }

  void flush() {
    const Span span("stream.flush", rec_);
    if (!batch_.empty() || !batch_f32_.empty()) update_sketch();
  }

  stream::SnapshotResult snapshot() {
    const Span span("stream.snapshot", rec_);
    stream::SnapshotResult out;
    const Matrix rows = reservoir_rows(out);
    const Matrix sketch = current_sketch();
    project(sketch, rows, out);
    embed::UmapConfig umap_config = config_.pipeline.umap;
    umap_config.n_neighbors =
        std::min(umap_config.n_neighbors, out.latent.rows() - 1);
    {
      const Span call("embed.umap_embed", rec_);
      out.embedding = timed_umap(result_, [&] {
        return embed::umap_embed(out.latent, umap_config, ws_);
      });
    }
    cluster(out);
    reference_latent_ = out.latent;
    reference_embedding_ = out.embedding;
    reference_shots_ = out.shot_ids;
    const Span call("embed.ann_build", rec_);
    if (!ann_index_) {
      ann_index_ =
          embed::make_searcher(embed::umap_knn_config(config_.pipeline.umap));
    }
    ann_index_->build(reference_latent_, ws_);
    return out;
  }

  stream::SnapshotResult snapshot_incremental() {
    if (reference_embedding_.empty()) return snapshot();
    const Span span("stream.snapshot_incremental", rec_);
    stream::SnapshotResult out;
    const Matrix rows = reservoir_rows(out);
    const Matrix sketch = current_sketch();
    project(sketch, rows, out);

    std::map<std::uint64_t, std::size_t> reference_index;
    for (std::size_t i = 0; i < reference_shots_.size(); ++i) {
      reference_index[reference_shots_[i]] = i;
    }
    std::vector<std::size_t> fresh_rows;
    out.embedding = Matrix(out.latent.rows(), reference_embedding_.cols());
    for (std::size_t i = 0; i < out.shot_ids.size(); ++i) {
      const auto it = reference_index.find(out.shot_ids[i]);
      if (it != reference_index.end()) {
        out.embedding.set_row(i, reference_embedding_.row(it->second));
      } else {
        fresh_rows.push_back(i);
      }
    }
    if (!fresh_rows.empty()) {
      Matrix fresh(fresh_rows.size(), out.latent.cols());
      for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
        fresh.set_row(i, out.latent.row(fresh_rows[i]));
      }
      embed::UmapConfig umap_config = config_.pipeline.umap;
      umap_config.n_neighbors =
          std::min(umap_config.n_neighbors, ann_index_->size() - 1);
      Matrix placed;
      {
        const Span call("embed.umap_transform", rec_);
        placed = embed::umap_transform(*ann_index_, reference_embedding_,
                                       fresh, umap_config, ws_);
      }
      for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
        out.embedding.set_row(fresh_rows[i], placed.row(i));
      }
      {
        const Span call("embed.ann_insert", rec_);
        ann_index_->insert(fresh, ws_);
      }
      const std::size_t old_ref = reference_embedding_.rows();
      reference_latent_.reshape(old_ref + fresh.rows(),
                                reference_latent_.cols());
      reference_embedding_.reshape(old_ref + fresh.rows(),
                                   reference_embedding_.cols());
      for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
        reference_latent_.set_row(old_ref + i, fresh.row(i));
        reference_embedding_.set_row(old_ref + i, placed.row(i));
        reference_shots_.push_back(out.shot_ids[fresh_rows[i]]);
      }
    }
    cluster(out);
    return out;
  }

  double sketch_error_estimate() {
    const Span span("stream.error_estimate", rec_);
    const Matrix b = basis();
    const Span call("core.relative_error", rec_);
    return tracker_.relative_error(b);
  }

 private:
  void update_sketch() {
    const Span span("stream.update_sketch", rec_);
    if (!batch_f32_.empty()) {
      linalg::MatrixF batch(batch_f32_.size(), dim_);
      for (std::size_t i = 0; i < batch_f32_.size(); ++i) {
        batch.set_row(i, batch_f32_[i]);
      }
      batch_f32_.clear();
      const Span call("core.push_batch", rec_);
      sketcher_->push_batch(linalg::MatrixViewF(batch));
    } else {
      Matrix batch(batch_.size(), dim_);
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        batch.set_row(i, batch_[i]);
      }
      batch_.clear();
      const Span call("core.push_batch", rec_);
      sketcher_->push_batch(batch);
    }
    ++batches_;
    // The watchdog's numeric checks: error estimate and orthogonality.
    if (batches_ % static_cast<long>(config_.health_check_every) == 0 &&
        tracker_.reservoir_count() > 0 && sketcher_->dim() > 0) {
      const Matrix b = basis();
      if (!b.empty()) {
        {
          const Span call("core.relative_error", rec_);
          (void)tracker_.relative_error(b);
        }
        const Span call("linalg.gram_rows", rec_);
        const Matrix gram = linalg::gram_rows(b);
        double residual_sq = 0.0;
        for (std::size_t i = 0; i < gram.rows(); ++i) {
          for (std::size_t j = 0; j < gram.cols(); ++j) {
            const double g = gram(i, j) - (i == j ? 1.0 : 0.0);
            residual_sq += g * g;
          }
        }
        orthogonality_ = std::sqrt(residual_sq);
      }
    }
  }

  Matrix basis() {
    const Span call("core.basis", rec_);
    return sketcher_->basis(sketcher_->current_ell());
  }

  Matrix current_sketch() {
    const Span call("core.sketch", rec_);
    return sketcher_->sketch();
  }

  Matrix reservoir_rows(stream::SnapshotResult& out) const {
    Matrix rows(reservoir_.size(), dim_);
    out.shot_ids.reserve(reservoir_.size());
    std::size_t r = 0;
    for (const auto& [shot, row] : reservoir_) {
      rows.set_row(r++, row);
      out.shot_ids.push_back(shot);
    }
    return rows;
  }

  void project(const Matrix& sketch, const Matrix& rows,
               stream::SnapshotResult& out) {
    std::optional<embed::PcaProjector> pca;
    {
      const Span call("embed.pca", rec_);
      pca.emplace(sketch, config_.pipeline.pca_components, ws_);
    }
    const Span call("embed.project", rec_);
    out.latent = pca->project(rows);
  }

  void cluster(stream::SnapshotResult& out) {
    cluster::OpticsConfig optics_config = config_.pipeline.optics;
    if (config_.pipeline.scale_min_pts) {
      optics_config.min_pts = std::max<std::size_t>(
          optics_config.min_pts,
          std::min<std::size_t>(out.embedding.rows() / 10, 30));
    }
    optics_config.min_pts =
        std::min<std::size_t>(optics_config.min_pts, out.embedding.rows());
    cluster::OpticsResult optics_result;
    {
      const Span call("cluster.optics", rec_);
      optics_result = cluster::optics(out.embedding, optics_config, ws_);
    }
    const Span call("cluster.extract", rec_);
    out.labels = cluster::extract_auto(optics_result,
                                       config_.pipeline.cluster_quantile);
    result_.clusters = cluster::cluster_count(out.labels);
  }

  stream::MonitorConfig config_;
  obs::TraceRecorder& rec_;
  ReplayResult& result_;
  bool f32_;
  std::unique_ptr<core::Sketcher> sketcher_;
  core::SketchErrorTracker tracker_;
  long batches_ = 0;
  double orthogonality_ = 0.0;  ///< kept so the residual is not optimised away
  std::size_t dim_ = 0;
  std::vector<std::vector<double>> batch_;
  std::vector<std::vector<float>> batch_f32_;
  std::deque<std::pair<std::uint64_t, std::vector<double>>> reservoir_;
  linalg::Workspace ws_;
  Matrix reference_latent_;
  Matrix reference_embedding_;
  std::vector<std::uint64_t> reference_shots_;
  std::unique_ptr<embed::NeighborSearcher> ann_index_;
};

/// MonitoringPipeline::analyze_events on the fp64 lane with the default
/// "arams" sketcher and one shard (src/stream/pipeline.cpp): preprocess,
/// the num_cores range-partitioned sketch with tree_merge, then the tail
/// stages.
void replay_analyze(const stream::PipelineConfig& config,
                    std::span<const stream::ShotEvent> events,
                    obs::TraceRecorder& rec, ReplayResult& result) {
  const Span span("stream.analyze", rec);
  std::vector<image::ImageF> frames;
  {
    const Span call("stream.gather", rec);
    frames.reserve(events.size());
    for (const auto& e : events) frames.push_back(e.frame);
  }
  Matrix rows;
  {
    const Span call("image.preprocess_batch", rec);
    const std::vector<image::ImageF> processed =
        image::preprocess_batch(frames, config.preprocess);
    rows = image::images_to_matrix(processed);
  }

  const std::size_t n = rows.rows();
  const std::size_t cores = std::min<std::size_t>(config.num_cores, n);
  std::vector<Matrix> sketches;
  std::size_t final_ell = config.sketch.ell;
  for (std::size_t c = 0; c < cores; ++c) {
    const std::size_t r0 = c * n / cores;
    const std::size_t r1 = (c + 1) * n / cores;
    if (r1 <= r0) continue;
    core::AramsConfig shard_config = config.sketch;
    shard_config.seed = config.sketch.seed + c;
    const Matrix part = rows.slice_rows(r0, r1);
    const Span call("core.sketch_matrix", rec);
    core::Arams sketcher(shard_config);
    core::AramsResult shard = sketcher.sketch_matrix(part);
    if (shard.sketch.empty()) continue;
    final_ell = std::max(final_ell, shard.final_ell);
    sketches.push_back(std::move(shard.sketch));
  }
  Matrix sketch;
  {
    const Span call("core.tree_merge", rec);
    core::MergeStats merge_stats;
    sketch = sketches.size() == 1
                 ? std::move(sketches.front())
                 : core::tree_merge(std::move(sketches), final_ell, 2,
                                    &merge_stats);
  }

  std::optional<embed::PcaProjector> pca;
  {
    const Span call("embed.pca", rec);
    pca.emplace(sketch, config.pca_components);
  }
  Matrix latent;
  {
    const Span call("embed.project", rec);
    latent = pca->project(rows);
  }
  embed::UmapConfig umap_config = config.umap;
  umap_config.n_neighbors =
      std::min(umap_config.n_neighbors, latent.rows() - 1);
  Matrix embedding;
  {
    const Span call("embed.umap_embed", rec);
    embedding = timed_umap(
        result, [&] { return embed::umap_embed(latent, umap_config); });
  }

  const std::size_t scaled_min_pts =
      config.scale_min_pts
          ? std::min<std::size_t>(embedding.rows() / 10, 30)
          : 0;
  cluster::OpticsConfig optics_config = config.optics;
  optics_config.min_pts = std::max(optics_config.min_pts, scaled_min_pts);
  optics_config.min_pts =
      std::min<std::size_t>(optics_config.min_pts, embedding.rows());
  cluster::OpticsResult optics_result;
  {
    const Span call("cluster.optics", rec);
    optics_result = cluster::optics(embedding, optics_config);
  }
  {
    const Span call("cluster.extract", rec);
    result.clusters = cluster::cluster_count(
        cluster::extract_auto(optics_result, config.cluster_quantile));
  }
  if (config.abod_k >= 2 && embedding.rows() > config.abod_k) {
    cluster::AbodConfig abod;
    abod.k = config.abod_k;
    const Span call("cluster.abod", rec);
    (void)cluster::fast_abod(embedding, abod);
  }
}

}  // namespace

ReplayResult replay_round(const Workload& workload, const Inputs& inputs,
                          obs::TraceRecorder& recorder) {
  ReplayResult result;
  const Span root("replay", recorder);
  if (workload.kind == Kind::kBatch) {
    replay_analyze(workload.pipeline, inputs.setup, recorder, result);
    replay_analyze(workload.pipeline, inputs.timed, recorder, result);
    return result;
  }
  std::optional<ReplayMonitor> monitor;
  {
    const Span call("stream.construct", recorder);
    monitor.emplace(workload.monitor, recorder, result);
  }
  for (const auto& e : inputs.setup) monitor->ingest(e);
  if (workload.kind == Kind::kIngest) {
    for (const auto& e : inputs.timed) monitor->ingest(e);
    monitor->flush();
    (void)monitor->snapshot();
  } else {
    (void)monitor->snapshot();
    for (std::size_t c = 0; c < workload.cycles; ++c) {
      for (const auto& e : cycle_frames(workload, inputs, c)) {
        monitor->ingest(e);
      }
      (void)(c == 0 ? monitor->snapshot() : monitor->snapshot_incremental());
    }
  }
  result.recon_err = monitor->sketch_error_estimate();
  return result;
}

SpanSummary summarize(std::vector<obs::SpanRecord> spans) {
  // Parents start no later and end no earlier than their children, so a
  // start-ordered sweep with a stack of open spans finds each direct parent.
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.duration_us > b.duration_us;
            });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    while (!open.empty()) {
      const auto& top = spans[open.back()];
      if (top.thread_id == s.thread_id &&
          top.start_us + top.duration_us > s.start_us) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_us[open.back()] += s.duration_us;
    open.push_back(i);
  }
  SpanSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out.layer_self_seconds[layer] += (s.duration_us - child_us[i]) * 1e-6;
    out.call_seconds[s.name].push_back(s.duration_us * 1e-6);
    if (s.name == "replay") out.root_seconds += s.duration_us * 1e-6;
  }
  return out;
}

}  // namespace arams::e2e
