#pragma once
// Online monitoring driver: consumes a frame stream batch by batch,
// maintains a persistent ARAMS sketch, and produces embedding snapshots on
// demand — the operational mode Section VI-B times (12,000 2-MP frames at
// 136 Hz on 64 cores, UMAP/OPTICS in under a minute).

#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/error_tracker.hpp"
#include "core/sketcher.hpp"
#include "embed/ann/searcher.hpp"
#include "linalg/workspace.hpp"
#include "obs/health.hpp"
#include "obs/stage_report.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"

namespace arams::embed {
class PcaProjector;
}  // namespace arams::embed

namespace arams::stream {

/// Rolling throughput measurement: lifetime totals plus a trailing window
/// of the most recent records, so a mid-run slowdown is visible instead of
/// being averaged away by hours of healthy history.
class ThroughputMeter {
 public:
  /// `window_records` — record() calls the recent-rate ring retains.
  explicit ThroughputMeter(std::size_t window_records = 128);

  void record(std::size_t frames, double seconds);

  /// Lifetime frames per accumulated second; 0.0 before the first
  /// record() (or when only zero-duration records arrived) rather than
  /// inf/NaN.
  [[nodiscard]] double frames_per_second() const;
  /// Same quotient over only the trailing `window_records` records.
  [[nodiscard]] double recent_frames_per_second() const;

  [[nodiscard]] std::size_t total_frames() const { return frames_; }
  [[nodiscard]] double total_seconds() const { return seconds_; }
  [[nodiscard]] std::size_t window_records() const { return ring_.size(); }

 private:
  std::size_t frames_ = 0;
  double seconds_ = 0.0;
  std::vector<std::pair<std::size_t, double>> ring_;  // (frames, seconds)
  std::size_t ring_next_ = 0;
  std::size_t ring_count_ = 0;
  std::size_t window_frames_ = 0;
  double window_seconds_ = 0.0;
};

struct MonitorConfig {
  PipelineConfig pipeline;
  std::size_t batch_size = 256;      ///< frames per sketch update
  std::size_t reservoir_size = 2048; ///< frames retained for snapshots

  /// Numerical-health watchdog thresholds (obs::HealthMonitor).
  obs::HealthThresholds health;
  /// Sketch-update batches between the *expensive* health checks (error
  /// estimate + basis orthogonality, which cost a basis extraction and a
  /// reservoir projection); the cheap checks (NaN frames, rank thrash)
  /// run on every sample.
  std::size_t health_check_every = 1;
};

struct SnapshotResult {
  linalg::Matrix latent;
  linalg::Matrix embedding;
  std::vector<int> labels;
  std::vector<std::uint64_t> shot_ids;  ///< rows ↔ shots

  /// Stage timings for this snapshot ("snapshot" = end-to-end).
  obs::StageReport report;
};

/// Streaming monitor with a persistent sketch and a frame reservoir. The
/// sketch backend is whatever `config.pipeline.sketcher` names in the
/// core::make_sketcher registry — ARAMS by default, but any registered
/// backend (fd/isvd/gaussian/countsketch/normsample/rangefinder) drives the
/// same snapshot, watchdog and error-tracker plumbing. With
/// `config.pipeline.shards > 1` (or a "sharded:<inner>" backend name) the
/// batches drained from the bounded ingest queue fan out to per-shard
/// consumers on the shared pool: each sketch update round-robins its rows
/// across N concurrent shard sketchers (core::ShardedSketcher), which
/// tree-merge on demand at snapshot/error-check time.
class StreamingMonitor {
 public:
  /// Throws CheckError on an invalid config, `config.pipeline` included
  /// (PipelineConfig::throw_if_invalid), before any frame is ingested.
  explicit StreamingMonitor(const MonitorConfig& config);

  /// Preprocesses and absorbs one event into the current batch; when the
  /// batch fills, updates the sketch. Returns true if a sketch update ran.
  /// A frame whose preprocessed row contains NaN/Inf is *rejected* (it
  /// would poison the sketch's SVD path): counted, reported to the health
  /// watchdog, never added to the batch or reservoir.
  bool ingest(const ShotEvent& event);

  /// Flushes any partial batch into the sketch.
  void flush();

  /// Projects the reservoir through the current sketch, embeds and
  /// clusters it — the operator-facing picture of the run so far. The
  /// embedding's kNN graph comes from the reference index, built once over
  /// the latent, so the embedding equals embed::umap_embed's bit for bit.
  /// (Non-const: compresses the sketch buffer before projecting.)
  SnapshotResult snapshot();

  /// Cheaper refresh between full snapshots: shots already present in the
  /// previous snapshot keep their embedding coordinates; new shots are
  /// placed with the out-of-sample UMAP transform against that frozen
  /// reference, and only the clustering is recomputed. Falls back to a
  /// full snapshot when no reference exists yet.
  SnapshotResult snapshot_incremental();

  [[nodiscard]] const ThroughputMeter& throughput() const { return meter_; }
  [[nodiscard]] std::size_t current_ell() const;
  [[nodiscard]] core::SketchStats sketch_stats() const;

  /// Operator gauge: relative reconstruction error of a uniform sample of
  /// *everything seen so far* against the current sketch basis (the
  /// SketchErrorTracker estimate). Non-const: compresses the sketch.
  [[nodiscard]] double sketch_error_estimate();

  /// The numerical-health watchdog, fed after every sketch batch (and on
  /// every rejected non-finite frame). Register transition callbacks and
  /// read the incident log here.
  [[nodiscard]] obs::HealthMonitor& health() { return health_; }
  [[nodiscard]] const obs::HealthMonitor& health() const { return health_; }

  /// Frames rejected because their preprocessed row was not finite.
  [[nodiscard]] long nonfinite_frames() const { return frames_nonfinite_; }

  /// The warm reference kNN index incremental snapshots query and grow
  /// (null until the first full snapshot). Exposed so callers/tests can
  /// observe stats(): builds stays at 1 across incremental refreshes while
  /// inserted_rows grows — the no-rebuild contract.
  [[nodiscard]] const embed::NeighborSearcher* reference_index() const {
    return ann_index_.get();
  }

  /// Attaches the upstream queue's occupancy fraction (0..1) to the next
  /// health sample — the DAQ driver owns the queue, the monitor owns the
  /// watchdog. NaN (the default) skips the queue-saturation check. The
  /// first crossing of 0.9 also journals a flight-recorder
  /// queue_saturation event (edge-triggered, so a stuck-full queue does
  /// not flood the ring).
  void note_queue_saturation(double fraction);

 private:
  void update_sketch();
  /// The reservoir, oldest first, projected through `pca` in place
  /// (PcaProjector::project_rows); appends the matching shot ids to
  /// `shot_ids`.
  linalg::Matrix project_reservoir(const embed::PcaProjector& pca,
                                   std::vector<std::uint64_t>& shot_ids);
  /// Non-const: OPTICS draws its scratch from snapshot_ws_.
  void cluster_snapshot(SnapshotResult& out);
  /// Feeds one HealthSample; `with_numerics` additionally runs the
  /// basis-dependent checks (error estimate, orthogonality residual)
  /// every `health_check_every` batches.
  void feed_health(bool with_numerics);

  MonitorConfig config_;
  std::unique_ptr<core::Sketcher> sketcher_;
  core::SketchErrorTracker error_tracker_;
  ThroughputMeter meter_;
  obs::HealthMonitor health_;
  long frames_seen_ = 0;
  long frames_nonfinite_ = 0;
  long batches_ = 0;
  std::size_t last_ell_ = 0;       ///< for rank-change flight events
  bool queue_saturated_ = false;   ///< edge trigger for saturation events
  double queue_saturation_ = std::numeric_limits<double>::quiet_NaN();
  /// The pending batch, written in place as frames arrive: the first
  /// batch_fill_ rows of batch_ (fp64 lane) or of batch_f32_ (fp32 lane,
  /// pipeline.ingest_precision kF32; the reservoir and error tracker stay
  /// fp64 either way — they feed the fp64 snapshot tail). Shaped to
  /// batch_size rows by the first frame and kept across updates: a
  /// 256×16384 fp64 batch is 32 MiB, and allocating it per update makes
  /// ingest pay fresh page faults whenever the allocator maps it anew.
  linalg::Matrix batch_;
  linalg::MatrixF batch_f32_;
  std::size_t batch_fill_ = 0;
  std::deque<std::pair<std::uint64_t, std::vector<double>>> reservoir_;
  std::size_t dim_ = 0;
  /// Scratch for the whole snapshot path — the PCA rebuild (Gram,
  /// eigensolver, SVD factors) and the downstream distance engine (kNN
  /// blocks, UMAP transform, OPTICS scratch) share one arena via
  /// disjoint slot ranges. Persists across snapshots so refreshes stop
  /// allocating.
  linalg::Workspace snapshot_ws_;

  /// Reference from the last full snapshot (for incremental mode). Grows:
  /// each incremental refresh appends its freshly placed shots, so later
  /// refreshes keep those coordinates and query a richer neighbourhood.
  linalg::Matrix reference_latent_;
  linalg::Matrix reference_embedding_;
  std::vector<std::uint64_t> reference_shots_;
  /// Warm kNN index over reference_latent_: rebuilt on full snapshots,
  /// grown with insert() on incremental ones (never rebuilt between them).
  std::unique_ptr<embed::NeighborSearcher> ann_index_;
};

}  // namespace arams::stream
