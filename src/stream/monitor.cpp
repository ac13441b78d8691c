#include "stream/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "embed/pca.hpp"
#include "embed/umap.hpp"
#include "linalg/blas.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::stream {

using linalg::Matrix;

namespace {

/// ‖BBᵀ − I‖_F for a row-orthonormal basis B — the orthogonality loss the
/// health watchdog tracks (exactly 0 for a perfectly orthonormal basis,
/// grows as repeated rotations accumulate rounding error).
double orthogonality_residual(const Matrix& basis) {
  const Matrix gram = linalg::gram_rows(basis);
  double residual_sq = 0.0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      const double g = gram(i, j) - (i == j ? 1.0 : 0.0);
      residual_sq += g * g;
    }
  }
  return std::sqrt(residual_sq);
}

/// `config` once its pipeline config passed PipelineConfig::validate, so
/// a bad config throws before any sketcher is built or frame ingested.
const MonitorConfig& validated(const MonitorConfig& config) {
  config.pipeline.throw_if_invalid();
  return config;
}

}  // namespace

ThroughputMeter::ThroughputMeter(std::size_t window_records)
    : ring_(std::max<std::size_t>(window_records, 1)) {}

void ThroughputMeter::record(std::size_t frames, double seconds) {
  frames_ += frames;
  seconds_ += seconds;
  if (ring_count_ == ring_.size()) {
    // Evict the oldest record from the window sums.
    const auto& [old_frames, old_seconds] = ring_[ring_next_];
    window_frames_ -= old_frames;
    window_seconds_ -= old_seconds;
  } else {
    ++ring_count_;
  }
  ring_[ring_next_] = {frames, seconds};
  ring_next_ = (ring_next_ + 1) % ring_.size();
  window_frames_ += frames;
  window_seconds_ += seconds;
}

double ThroughputMeter::frames_per_second() const {
  // Guard the divide: before the first record() the accumulated time is
  // zero and the rate is defined as 0.0, never inf/NaN.
  return seconds_ > 0.0 ? static_cast<double>(frames_) / seconds_ : 0.0;
}

double ThroughputMeter::recent_frames_per_second() const {
  return window_seconds_ > 0.0
             ? static_cast<double>(window_frames_) / window_seconds_
             : 0.0;
}

StreamingMonitor::StreamingMonitor(const MonitorConfig& config)
    : config_(validated(config)),
      sketcher_(core::make_sketcher(config.pipeline.sketcher_config())),
      error_tracker_(core::ErrorTrackerConfig{}),
      health_(config.health) {
  ARAMS_CHECK(config.batch_size >= 1, "batch size must be >= 1");
  ARAMS_CHECK(config.reservoir_size >= 2, "reservoir too small");
  ARAMS_CHECK(config.health_check_every >= 1,
              "health_check_every must be >= 1");
  const bool f32 = config.pipeline.ingest_precision ==
                   PipelineConfig::IngestPrecision::kF32;
  static obs::Gauge& precision_gauge =
      obs::metrics().gauge("ingest.precision");
  precision_gauge.set(f32 ? 32.0 : 64.0);

  // Every watchdog transition lands in the flight journal (new state in
  // `detail`, old state in `value`), and a transition *into* CRITICAL
  // snapshots a post-mortem — when armed via configure_postmortem — so
  // the forensics exist even if the process limps on instead of dying.
  health_.on_transition([](const obs::HealthIncident& incident) {
    obs::flight_recorder().record(
        obs::FlightCode::kHealthTransition, 0,
        static_cast<std::uint32_t>(incident.to),
        static_cast<double>(static_cast<int>(incident.from)));
    if (incident.to == obs::HealthState::kCritical &&
        obs::postmortem_autodump_enabled()) {
      obs::dump_postmortem_now("health_critical");
    }
  });
}

bool StreamingMonitor::ingest(const ShotEvent& event) {
  Stopwatch timer;
  ++frames_seen_;

  static obs::Gauge& ingest_fps =
      obs::metrics().gauge("monitor.ingest_fps");
  static obs::Gauge& occupancy =
      obs::metrics().gauge("monitor.reservoir_occupancy");
  static obs::EwmaRate& ingest_rate =
      obs::metrics().ewma("monitor.ingest_rate_window");
  ingest_rate.record(1);

  // A single NaN/Inf pixel would propagate through the sketch SVD and
  // silently corrupt every later snapshot — reject the frame instead,
  // count it, and let the watchdog decide when the reject *rate* is an
  // incident (a dropped shot is routine; a dropping detector is not).
  // The scan runs on the *raw* detector frame: CoM centering can shift a
  // bad pixel out of the preprocessed view, which would hide a failing
  // detector tile from the watchdog while still skewing the shift itself.
  bool finite = true;
  for (const double v : event.frame.pixels()) {
    if (!std::isfinite(v)) {
      finite = false;
      break;
    }
  }
  if (!finite) {
    ++frames_nonfinite_;
    static obs::Counter& nonfinite =
        obs::metrics().counter("monitor.nonfinite_frames");
    nonfinite.add(1);
    obs::flight_recorder().record(obs::FlightCode::kFrameRejected,
                                  event.shot_id, 1,
                                  static_cast<double>(frames_nonfinite_));
    feed_health(false);
    meter_.record(1, timer.seconds());
    ingest_fps.set(meter_.recent_frames_per_second());
    return false;
  }

  std::vector<double> row;
  if (config_.pipeline.ingest_precision ==
      PipelineConfig::IngestPrecision::kF32) {
    // fp32 lane: narrow once (the NaN scan above already ran on the raw
    // fp64 frame), preprocess at fp32, and queue the float row for the
    // sketcher. The fp64 `row` below is the reservoir/error-tracker copy —
    // those feed the fp64 snapshot tail.
    const image::ImageF32 processed = image::preprocess(
        image::narrow(event.frame), config_.pipeline.preprocess);
    if (dim_ == 0) {
      dim_ = processed.pixel_count();
      batch_f32_.reshape(config_.batch_size, dim_);
    }
    ARAMS_CHECK(processed.pixel_count() == dim_,
                "frame shape changed mid-stream");
    const std::span<float> row32 = batch_f32_.row(batch_fill_++);
    processed.to_row(row32);
    row.resize(dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      row[i] = static_cast<double>(row32[i]);
    }
  } else {
    const image::ImageF processed =
        image::preprocess(event.frame, config_.pipeline.preprocess);
    if (dim_ == 0) {
      dim_ = processed.pixel_count();
      batch_.reshape(config_.batch_size, dim_);
    }
    ARAMS_CHECK(processed.pixel_count() == dim_,
                "frame shape changed mid-stream");
    row.resize(dim_);
    processed.to_row(row);
    batch_.set_row(batch_fill_++, row);
  }

  obs::flight_recorder().record(obs::FlightCode::kFrameIngested,
                                event.shot_id);
  error_tracker_.observe(row);
  reservoir_.emplace_back(event.shot_id, std::move(row));
  if (reservoir_.size() > config_.reservoir_size) {
    reservoir_.pop_front();
  }

  bool updated = false;
  if (batch_fill_ >= config_.batch_size) {
    update_sketch();
    updated = true;
  }
  meter_.record(1, timer.seconds());
  ingest_fps.set(meter_.recent_frames_per_second());
  occupancy.set(static_cast<double>(reservoir_.size()));
  return updated;
}

void StreamingMonitor::flush() {
  if (batch_fill_ > 0) {
    Stopwatch timer;
    update_sketch();
    meter_.record(0, timer.seconds());
  }
}

void StreamingMonitor::update_sketch() {
  const obs::ScopedSpan span("monitor.update_sketch");
  Stopwatch timer;
  const std::size_t batch_count = batch_fill_;
  batch_fill_ = 0;
  if (config_.pipeline.ingest_precision ==
      PipelineConfig::IngestPrecision::kF32) {
    // fp32 lane: the batch reaches the sketcher as float rows; widening
    // (if the backend needs it) happens inside the Sketcher seam.
    sketcher_->push_batch(
        linalg::MatrixViewF(batch_f32_.data(), batch_count, dim_));
  } else {
    // The filled prefix, read in place (a flush leaves it partial).
    sketcher_->push_batch(linalg::MatrixView::rows_of(batch_, 0, batch_count));
  }
  ++batches_;
  const double seconds = timer.seconds();
  static obs::Histogram& batch_latency =
      obs::metrics().histogram("monitor.batch_seconds");
  static obs::SlidingHistogram& batch_window =
      obs::metrics().sliding_histogram("monitor.batch_seconds_window");
  batch_latency.observe(seconds);
  batch_window.record(seconds);

  obs::flight_recorder().record(obs::FlightCode::kBatchSketched,
                                static_cast<std::uint64_t>(batches_),
                                static_cast<std::uint32_t>(batch_count),
                                seconds);
  const std::size_t ell = sketcher_->current_ell();
  if (ell != last_ell_) {
    obs::flight_recorder().record(obs::FlightCode::kRankChange,
                                  static_cast<std::uint64_t>(batches_),
                                  static_cast<std::uint32_t>(ell),
                                  static_cast<double>(last_ell_));
    last_ell_ = ell;
  }
  feed_health(true);
  // Keep the crash handler's pre-rendered snapshot at most one batch
  // stale (the handler itself can only copy, never render).
  obs::refresh_postmortem_snapshot();
}

void StreamingMonitor::feed_health(bool with_numerics) {
  obs::HealthSample sample;
  sample.wall_seconds = obs::steady_seconds();
  sample.frames_seen = frames_seen_;
  sample.frames_nonfinite = frames_nonfinite_;
  sample.rank = static_cast<long>(sketcher_->current_ell());
  sample.rank_increases = sketcher_->stats().rank_increases;
  sample.queue_saturation = queue_saturation_;
  if (with_numerics &&
      batches_ % static_cast<long>(config_.health_check_every) == 0 &&
      error_tracker_.reservoir_count() > 0 && sketcher_->dim() > 0) {
    const Matrix basis = sketcher_->basis(sketcher_->current_ell());
    if (!basis.empty()) {
      sample.sketch_error = error_tracker_.relative_error(basis);
      sample.orthogonality = orthogonality_residual(basis);
      static obs::Gauge& error_gauge =
          obs::metrics().gauge("monitor.sketch_error");
      static obs::Gauge& ortho_gauge =
          obs::metrics().gauge("monitor.basis_orthogonality");
      error_gauge.set(sample.sketch_error);
      ortho_gauge.set(sample.orthogonality);
    }
  }
  health_.observe(sample);
}

Matrix StreamingMonitor::project_reservoir(
    const embed::PcaProjector& pca, std::vector<std::uint64_t>& shot_ids) {
  shot_ids.reserve(reservoir_.size());
  for (const auto& entry : reservoir_) shot_ids.push_back(entry.first);
  return pca.project_rows(
      reservoir_.size(),
      [this](std::size_t i) {
        return std::span<const double>(reservoir_[i].second);
      });
}

SnapshotResult StreamingMonitor::snapshot() {
  ARAMS_CHECK(!reservoir_.empty(), "snapshot before any frames arrived");
  const obs::ScopedSpan span("monitor.snapshot");
  Stopwatch timer;
  SnapshotResult out;

  const Matrix sketch = sketcher_->sketch();
  ARAMS_CHECK(sketch.rows() > 0, "sketch is empty — ingest more frames");

  const embed::PcaProjector pca(sketch, config_.pipeline.pca_components,
                                snapshot_ws_);
  out.latent = project_reservoir(pca, out.shot_ids);

  // One index over the latent gives this snapshot's kNN graph (what
  // umap_embed would build and query) and then stays warm for the
  // incremental refreshes — the only full index build until the next full
  // snapshot; they grow it with insert(). It is held here until the
  // snapshot succeeds, so a failure leaves no index over a latent the
  // reference does not hold.
  embed::UmapConfig umap_config = config_.pipeline.umap;
  umap_config.n_neighbors =
      std::min(umap_config.n_neighbors, out.latent.rows() - 1);
  std::unique_ptr<embed::NeighborSearcher> index = std::move(ann_index_);
  if (!index) {
    index = embed::make_searcher(embed::umap_knn_config(umap_config));
  }
  index->build(out.latent, snapshot_ws_);
  embed::KnnGraph graph;
  index->query_graph(umap_config.n_neighbors, snapshot_ws_, graph);
  out.embedding = embed::umap_embed_graph(out.latent, graph, umap_config);

  cluster_snapshot(out);
  out.report.set_seconds("snapshot", timer.seconds());
  obs::flight_recorder().record(obs::FlightCode::kSnapshot, 0,
                                static_cast<std::uint32_t>(out.latent.rows()),
                                out.report.seconds("snapshot"));

  // Keep this snapshot as the reference for incremental refreshes.
  reference_latent_ = out.latent;
  reference_embedding_ = out.embedding;
  reference_shots_ = out.shot_ids;
  ann_index_ = std::move(index);
  return out;
}

void StreamingMonitor::cluster_snapshot(SnapshotResult& out) {
  cluster::OpticsConfig optics_config = config_.pipeline.optics;
  optics_config.min_pts = config_.pipeline.min_pts_for(
      optics_config.min_pts, out.embedding.rows());
  const cluster::OpticsResult optics_result =
      cluster::optics(out.embedding, optics_config, snapshot_ws_);
  out.labels = cluster::extract_auto(optics_result,
                                     config_.pipeline.cluster_quantile);
}

SnapshotResult StreamingMonitor::snapshot_incremental() {
  if (reference_embedding_.empty()) {
    return snapshot();
  }
  ARAMS_CHECK(!reservoir_.empty(), "snapshot before any frames arrived");
  const obs::ScopedSpan span("monitor.snapshot_incremental");
  Stopwatch timer;
  SnapshotResult out;

  // Project the whole reservoir through the *current* sketch.
  const Matrix sketch = sketcher_->sketch();
  const embed::PcaProjector pca(sketch, config_.pipeline.pca_components,
                                snapshot_ws_);
  out.latent = project_reservoir(pca, out.shot_ids);
  ARAMS_CHECK(out.latent.cols() == reference_latent_.cols(),
              "latent dimension changed — take a full snapshot");

  // Shots present in the reference keep their coordinates; the rest are
  // transformed against the frozen reference embedding.
  std::map<std::uint64_t, std::size_t> reference_index;
  for (std::size_t i = 0; i < reference_shots_.size(); ++i) {
    reference_index[reference_shots_[i]] = i;
  }
  std::vector<std::size_t> fresh_rows;
  out.embedding = Matrix(out.latent.rows(),
                         reference_embedding_.cols());
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
    // Recovery path only (e.g. state restored without a full snapshot):
    // the normal flow keeps the index in lock-step with the reference.
    if (!ann_index_ || ann_index_->size() != reference_latent_.rows()) {
      if (!ann_index_) {
        ann_index_ = embed::make_searcher(
            embed::umap_knn_config(config_.pipeline.umap));
      }
      ann_index_->build(reference_latent_, snapshot_ws_);
    }
    embed::UmapConfig umap_config = config_.pipeline.umap;
    umap_config.n_neighbors =
        std::min(umap_config.n_neighbors, ann_index_->size() - 1);
    const Matrix placed = embed::umap_transform(
        *ann_index_, reference_embedding_, fresh, umap_config, snapshot_ws_);
    for (std::size_t i = 0; i < fresh_rows.size(); ++i) {
      out.embedding.set_row(fresh_rows[i], placed.row(i));
    }
    // Grow the warm reference instead of rebuilding it: the new shots join
    // the index via insert() and extend the frozen reference, so the next
    // refresh keeps their coordinates and queries a richer neighbourhood.
    ann_index_->insert(fresh, snapshot_ws_);
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
  cluster_snapshot(out);
  out.report.set_seconds("snapshot", timer.seconds());
  obs::flight_recorder().record(obs::FlightCode::kSnapshot, 0,
                                static_cast<std::uint32_t>(out.latent.rows()),
                                out.report.seconds("snapshot"));
  return out;
}

void StreamingMonitor::note_queue_saturation(double fraction) {
  queue_saturation_ = fraction;
  const bool saturated = fraction >= 0.9;
  if (saturated && !queue_saturated_) {
    obs::flight_recorder().record(obs::FlightCode::kQueueSaturation, 0, 0,
                                  fraction);
  }
  queue_saturated_ = saturated;
}

std::size_t StreamingMonitor::current_ell() const {
  return sketcher_->current_ell();
}

double StreamingMonitor::sketch_error_estimate() {
  return error_tracker_.relative_error(
      sketcher_->basis(sketcher_->current_ell()));
}

core::SketchStats StreamingMonitor::sketch_stats() const {
  return sketcher_->stats();
}

}  // namespace arams::stream
