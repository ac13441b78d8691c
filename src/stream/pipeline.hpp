#pragma once
// MonitoringPipeline — the Fig. 4 schematic as one public API.
//
// Stage 1  preprocess   threshold / center / normalize each frame straight
//                       into its row, bands of frames across the pool (frame
//                       input only; the matrix entry points skip it)
// Stage 2  sketch       fp64 "arams" with one shard: ARAMS per row range,
//                       the ranges concurrently on the pool over views of
//                       the rows, then tree-merged; otherwise one factory
//                       sketcher over all rows
// Stage 3  project      PCA latent projection from the global sketch
// Stage 4  embed        UMAP to 2-D
// Stage 5  cluster      OPTICS / HDBSCAN / k-means + FastABOD outlier scores
//
// Each stage that completes feeds four sinks once: the `pipeline.<stage>`
// span, its StageReport entry, the `pipeline.<stage>_seconds_window`
// histogram and a stage_complete flight event (docs/TELEMETRY.md).

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/abod.hpp"
#include "cluster/hdbscan.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/optics.hpp"
#include "core/arams_sketch.hpp"
#include "core/merge.hpp"
#include "core/sketcher.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "obs/stage_report.hpp"
#include "stream/event.hpp"

namespace arams::stream {

struct PipelineConfig {
  image::PreprocessConfig preprocess;
  core::AramsConfig sketch;
  /// Sketching backend by factory name (core::make_sketcher). "arams" (the
  /// default) runs the paper's sharded + tree-merged path and consumes the
  /// full `sketch` config; every other registered backend ("fd", "isvd",
  /// "gaussian", "countsketch", "normsample", "rangefinder") runs a single
  /// streaming instance over all rows, taking ell/seed from `sketch`.
  std::string sketcher = "arams";
  /// Concurrent in-process ingest shards for the factory sketcher path
  /// (core::ShardedSketcher on the shared pool, pool-executed tree merge
  /// at sketch time). 1 (default) keeps the classic single-instance /
  /// range-partitioned behavior bitwise unchanged; > 1 routes stage 2
  /// through "sharded:<sketcher>". Orthogonal to `num_cores`, which drives
  /// the arams-only range-partitioned shard path.
  std::size_t shards = 1;
  /// Ingest lane precision. kF64 (default) is the bitwise-unchanged
  /// classic path. kF32 narrows frames at the door, preprocesses at fp32,
  /// and feeds the sketcher through its fp32 entry point: arams with
  /// sampling on reads the float rows and widens only the survivors, every
  /// other backend widens the batch once — halving the frame path's memory
  /// traffic while every accumulation stays fp64. The fp32 lane runs one
  /// streaming sketcher instance (`num_cores` is ignored; the arams
  /// range-shard tree merge is an fp64-batch construct), but `shards`
  /// still applies: the sharded wrapper gathers and fans out fp32 rows.
  enum class IngestPrecision { kF64, kF32 };
  IngestPrecision ingest_precision = IngestPrecision::kF64;
  /// Contiguous row ranges [c·n/P, (c+1)·n/P) of the default "arams" fp64
  /// path — the paper's MPI ranks. The ranges are sketched concurrently on
  /// the shared pool, each over a view of its rows by its own Arams (seed +
  /// range index), and then tree-merged on the pool. With 1 the one range
  /// runs on the calling thread, whose GEMMs then use the pool. The result
  /// has the same bits at any pool size.
  std::size_t num_cores = 4;
  std::size_t pca_components = 15;   ///< latent dimension fed to UMAP
  embed::UmapConfig umap;
  /// Which clusterer labels the embedding. OPTICS is the paper's choice;
  /// HDBSCAN is the robust alternative when cluster densities differ (its
  /// package ships in the paper's artifact env); k-means is for operators
  /// who know the class count.
  enum class ClusterMethod { kOptics, kHdbscan, kKmeans };
  ClusterMethod cluster_method = ClusterMethod::kOptics;
  cluster::OpticsConfig optics;
  cluster::HdbscanConfig hdbscan;
  cluster::KmeansConfig kmeans;
  /// Scale optics.min_pts / hdbscan sizes up to ~n/10 (capped at 30) so
  /// density estimates smooth over UMAP's local clumping on larger
  /// embeddings (min_pts_for).
  bool scale_min_pts = true;
  double cluster_quantile = 0.9;  ///< extract_auto quantile, in (0, 1)
  std::size_t abod_k = 10;           ///< 0 disables outlier scoring

  /// Human-readable configuration errors (including the nested sketch
  /// config's), empty when usable.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// Throws util::CheckError listing every validate() error, joined by
  /// "; ". MonitoringPipeline and StreamingMonitor call it at
  /// construction, so a bad config fails at the API boundary.
  void throw_if_invalid() const;

  /// The core::SketcherConfig this pipeline config selects: `sketcher` as
  /// the backend, the nested AramsConfig carried whole, and its ell/seed
  /// mirrored into the scalar knobs the simple backends read.
  [[nodiscard]] core::SketcherConfig sketcher_config() const;

  /// The density neighbourhood a clusterer uses on n embedded points:
  /// `min_pts`, raised to min(n/10, 30) when scale_min_pts is set, capped
  /// at n. The pipeline's OPTICS and HDBSCAN branches and the streaming
  /// monitor's snapshot clustering all size theirs here.
  [[nodiscard]] std::size_t min_pts_for(std::size_t min_pts,
                                        std::size_t n) const;
};

struct PipelineResult {
  linalg::Matrix sketch;          ///< global merged sketch (≤ ℓ × d)
  linalg::Matrix latent;          ///< n × pca_components
  linalg::Matrix embedding;       ///< n × 2
  std::vector<int> labels;        ///< OPTICS cluster labels (−1 = noise)
  std::vector<double> outlier_scores;  ///< ABOF per point (low = outlier)
  /// Row ↔ shot mapping; filled by analyze_events, empty otherwise.
  std::vector<std::uint64_t> shot_ids;
  cluster::OpticsResult optics;
  std::size_t final_ell = 0;

  /// Stage seconds in pipeline order — "preprocess" (frame input only),
  /// "sketch", "project", "embed", "cluster" — with the sketcher's own
  /// entries ("shrink", "fd", "merge", ...; "ingest_widen" on the fp32
  /// lane) after "sketch", plus the sketch/merge operation counters.
  obs::StageReport report;
};

/// Batch analysis facade over the whole pipeline. All public entry points
/// are thin adapters over one internal stage runner, so every caller gets
/// identical plumbing, telemetry and reporting.
class MonitoringPipeline {
 public:
  explicit MonitoringPipeline(const PipelineConfig& config);

  /// Full pipeline over raw detector frames. With
  /// IngestPrecision::kF32 the frames are narrowed at the door and the
  /// fp32 lane runs end-to-end.
  PipelineResult analyze(const std::vector<image::ImageF>& frames) const;

  /// Full pipeline over fp32 detector frames — the mixed-precision ingest
  /// lane, regardless of `ingest_precision` (the frames are already fp32;
  /// widening them first would only add traffic).
  PipelineResult analyze(const std::vector<image::ImageF32>& frames) const;

  /// Full pipeline over shot events (uses their frames; result rows carry
  /// the events' shot ids).
  PipelineResult analyze_events(const std::vector<ShotEvent>& events) const;

  /// Pipeline over already-flattened rows (skips stage 1). Always the
  /// fp64 lane: the rows are fp64 already.
  PipelineResult analyze_matrix(const linalg::Matrix& rows) const;

  /// Pipeline over already-flattened fp32 rows (skips stage 1); the
  /// sketch stage consumes the float rows directly, the tail stages see
  /// them widened once.
  PipelineResult analyze_matrix(linalg::MatrixViewF rows) const;

  [[nodiscard]] const PipelineConfig& config() const { return config_; }

 private:
  PipelineConfig config_;
};

}  // namespace arams::stream
