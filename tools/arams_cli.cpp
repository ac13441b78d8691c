// arams — command-line front end for the ARAMS monitoring library.
//
// Subcommands:
//   generate   synthesize a detector run into a .frames bundle
//   sketch     ARAMS-sketch a .frames bundle or .npy matrix into a .npy
//   pipeline   run the full monitoring pipeline; emit CSV and/or HTML
//   monitor    replay a run through the streaming monitor with live
//              telemetry, the health watchdog, and Prometheus snapshots
//   backends   list the registered sketching backends
//   doctor     parse and validate a post-mortem dump
//   info       describe a .frames or .npy file
//
// Examples:
//   arams generate --kind=beam --frames=500 --size=48 --out=run.frames
//   arams sketch --in=run.frames --ell=32 --epsilon=0.05 --out=sketch.npy
//   arams sketch --in=run.frames --sketcher=rangefinder --out=sketch.npy
//   arams monitor --in=run.frames --sketcher=fd --batch=64
//   arams pipeline --in=run.frames --html=run.html --csv=run.csv
//   arams pipeline --in=run.frames --knn-backend=rpforest
//   arams pipeline --in=run.frames --trace-out=trace.json
//       --metrics-out=metrics.jsonl
//   arams monitor --in=run.frames --batch=64 --prom-out=arams.prom
//       --health-log=health.jsonl
//   arams monitor --in=run.frames --postmortem-dir=dumps
//       --flight-recorder=flight.jsonl --profile-out=profile.folded
//   arams doctor dumps/postmortem-12345-0.txt
//   arams info --in=sketch.npy

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arams.hpp"

namespace {

using namespace arams;

void print_usage() {
  std::cout <<
      "usage: arams <command> [flags]\n"
      "\n"
      "commands:\n"
      "  generate   synthesize a run (--kind=beam|diffraction|speckle)\n"
      "  sketch     ARAMS-sketch frames/matrix into a .npy sketch\n"
      "  pipeline   full monitoring pipeline -> labels, CSV, HTML\n"
      "  monitor    replay a run through the streaming monitor: DAQ\n"
      "             queue, health watchdog, Prometheus snapshots\n"
      "  compare    covariance error of a sketch against its data\n"
      "  diag       beam diagnostics over a run: CUSUM alarms, frame\n"
      "             statistics, dead/hot pixel mask\n"
      "  backends   list the registered sketching backends (--sketcher=)\n"
      "             or, with --knn, the kNN searchers (--knn-backend=)\n"
      "  doctor     parse and validate a post-mortem dump\n"
      "  info       describe a .frames or .npy file\n"
      "\n"
      "run `arams <command> --help` for the command's flags.\n";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Loads rows either from a .frames bundle (flattened) or a .npy matrix.
linalg::Matrix load_rows(const std::string& path) {
  if (ends_with(path, ".frames")) {
    return image::images_to_matrix(io::load_frames(path));
  }
  return io::load_npy(path);
}

/// fp32 twin of load_rows for the mixed-precision ingest lane: frames are
/// narrowed at the door, '<f4' .npy payloads never round-trip through fp64.
linalg::MatrixF load_rows_f32(const std::string& path) {
  if (ends_with(path, ".frames")) {
    const std::vector<image::ImageF> frames = io::load_frames(path);
    std::vector<image::ImageF32> narrowed;
    narrowed.reserve(frames.size());
    for (const image::ImageF& frame : frames) {
      narrowed.push_back(image::narrow(frame));
    }
    return image::images_to_matrix(narrowed);
  }
  return io::load_npy_f32(path);
}

void declare_ingest_flag(CliFlags& flags) {
  flags.declare("ingest-precision", "fp64",
                "frame ingest lane: fp64 (classic, bitwise-stable default) "
                "| fp32 (mixed precision: fp32 rows, fp64 accumulation)");
}

/// True for fp32; rejects anything other than the two lane names.
bool ingest_is_f32(const CliFlags& flags) {
  const std::string lane = flags.get("ingest-precision");
  if (lane == "fp32") return true;
  ARAMS_CHECK(lane == "fp64", "unknown --ingest-precision: " + lane);
  return false;
}

void declare_telemetry_flags(CliFlags& flags) {
  flags.declare("trace-out", "",
                "write a Chrome trace_event JSON of pipeline spans");
  flags.declare("metrics-out", "", "write telemetry metrics as JSON lines");
  flags.declare("prom-out", "",
                "write metrics in Prometheus text exposition format");
  flags.declare("flight-recorder", "",
                "enable the in-memory flight journal and write it as JSON "
                "lines at exit");
  flags.declare("postmortem-dir", "",
                "install crash handlers; dump post-mortems (crash or "
                "watchdog CRITICAL) into this directory");
  flags.declare("profile-out", "",
                "run the sampling profiler and write folded stacks "
                "(flamegraph.pl format) at exit");
}

/// The run-wide sampling profiler --profile-out starts (static so its
/// sampler thread outlives the subcommand scopes that poke it).
obs::SamplingProfiler& profiler() {
  static obs::SamplingProfiler instance;
  return instance;
}

/// kNN searcher flags, shared by the subcommands that build neighbour
/// graphs (`pipeline`, `monitor`). Backend names come from the
/// embed::make_searcher registry.
void declare_knn_flags(CliFlags& flags) {
  flags.declare("knn-backend", "auto",
                "kNN searcher: exact | rpforest | auto "
                "(see `arams backends --knn`)");
  flags.declare("knn-exact-threshold", "4096",
                "auto backend: largest point count still served by the "
                "exact searcher");
}

void apply_knn_flags(const CliFlags& flags, embed::UmapConfig& umap) {
  umap.knn.backend = flags.get("knn-backend");
  umap.knn.exact_threshold =
      static_cast<std::size_t>(flags.get_int("knn-exact-threshold"));
}

/// Span recording costs a little per stage, so it stays off unless the run
/// actually asked for a trace file. The same gate arms the forensics
/// layer: flight journal, crash handlers, sampling profiler.
void arm_telemetry(const CliFlags& flags) {
  if (!flags.get("trace-out").empty()) {
    obs::tracer().enable(true);
  }
  if (!flags.get("flight-recorder").empty()) {
    obs::flight_recorder().enable(true);
  }
  if (const std::string& dir = flags.get("postmortem-dir"); !dir.empty()) {
    obs::PostmortemConfig pm;
    pm.dir = dir;
    pm.autodump_on_critical = true;
    obs::configure_postmortem(pm);
    obs::install_postmortem_handlers();
    obs::refresh_postmortem_snapshot();
    // Crash forensics without the flight journal would be an empty tail.
    obs::flight_recorder().enable(true);
  }
  if (!flags.get("profile-out").empty()) {
    profiler().start();
  }
}

void write_telemetry(const CliFlags& flags,
                     const obs::HealthMonitor* health = nullptr) {
  // Stop the profiler first: stop() publishes the
  // profile.stage_cpu_fraction gauges, which the metrics/prom writers
  // below should include.
  if (const std::string& path = flags.get("profile-out"); !path.empty()) {
    profiler().stop();
    std::ofstream out(path);
    ARAMS_CHECK(out.good(), "cannot open --profile-out file: " + path);
    profiler().write_folded(out);
    std::cout << "folded profile (" << profiler().samples()
              << " samples) written to " << path << "\n";
  }
  if (const std::string& path = flags.get("flight-recorder");
      !path.empty()) {
    std::ofstream out(path);
    ARAMS_CHECK(out.good(), "cannot open --flight-recorder file: " + path);
    obs::flight_recorder().write_json_lines(out);
    std::cout << "flight journal ("
              << obs::flight_recorder().total_recorded()
              << " events recorded) written to " << path << "\n";
  }
  if (const std::string& path = flags.get("trace-out"); !path.empty()) {
    std::ofstream out(path);
    ARAMS_CHECK(out.good(), "cannot open --trace-out file: " + path);
    obs::tracer().write_chrome_trace(out);
    std::cout << "Chrome trace written to " << path << "\n";
  }
  if (const std::string& path = flags.get("metrics-out"); !path.empty()) {
    std::ofstream out(path);
    ARAMS_CHECK(out.good(), "cannot open --metrics-out file: " + path);
    obs::metrics().write_json_lines(out);
    std::cout << "metrics written to " << path << "\n";
  }
  if (const std::string& path = flags.get("prom-out"); !path.empty()) {
    std::ofstream out(path);
    ARAMS_CHECK(out.good(), "cannot open --prom-out file: " + path);
    obs::write_prometheus(out, obs::metrics(), health);
    std::cout << "Prometheus snapshot written to " << path << "\n";
  }
}

int cmd_generate(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("kind", "beam", "beam | diffraction | speckle");
  flags.declare("frames", "500", "number of frames");
  flags.declare("size", "48", "frame height/width");
  flags.declare("classes", "4", "diffraction: latent classes");
  flags.declare("seed", "7", "generator seed");
  flags.declare("out", "run.frames", "output .frames bundle");
  flags.declare("truth", "", "optional CSV of generative ground truth");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams generate");
    return 0;
  }
  const auto count = static_cast<std::size_t>(flags.get_int("frames"));
  const auto size = static_cast<std::size_t>(flags.get_int("size"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::string kind = flags.get("kind");

  std::vector<image::ImageF> frames;
  frames.reserve(count);
  Table truth_table({"index", "factor1", "factor2", "label"});

  if (kind == "beam") {
    data::BeamProfileConfig config;
    config.height = size;
    config.width = size;
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      auto sample = data::generate_beam_profile(config, rng);
      truth_table.add_row(
          {Table::num(static_cast<long>(i)),
           Table::num(sample.truth.com_x),
           Table::num(sample.truth.ellipticity),
           sample.truth.exotic ? "exotic" : "normal"});
      frames.push_back(std::move(sample.frame));
    }
  } else if (kind == "diffraction") {
    data::DiffractionConfig config;
    config.height = size;
    config.width = size;
    config.num_classes =
        static_cast<std::size_t>(flags.get_int("classes"));
    const data::DiffractionGenerator generator(config);
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
      auto sample = generator.generate(rng);
      truth_table.add_row(
          {Table::num(static_cast<long>(i)),
           Table::num(sample.truth.quadrant_weights[0]),
           Table::num(sample.truth.quadrant_weights[1]),
           Table::num(static_cast<long>(sample.truth.class_label))});
      frames.push_back(std::move(sample.frame));
    }
  } else if (kind == "speckle") {
    data::SpeckleConfig config;
    config.height = size;
    config.width = size;
    data::SpeckleGenerator generator(config, seed);
    for (std::size_t i = 0; i < count; ++i) {
      auto sample = generator.next();
      truth_table.add_row({Table::num(static_cast<long>(i)),
                           Table::num(sample.truth.realized_contrast),
                           Table::num(config.coherence_length), "speckle"});
      frames.push_back(std::move(sample.frame));
    }
  } else {
    ARAMS_CHECK(false, "unknown --kind: " + kind);
  }

  io::save_frames(flags.get("out"), frames);
  std::cout << "wrote " << count << " " << size << "x" << size << " "
            << kind << " frames to " << flags.get("out") << "\n";
  if (const std::string& truth = flags.get("truth"); !truth.empty()) {
    truth_table.save_csv(truth);
    std::cout << "ground truth written to " << truth << "\n";
  }
  return 0;
}

int cmd_sketch(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("in", "", ".frames bundle or .npy matrix (required)");
  flags.declare("out", "sketch.npy", "output sketch .npy");
  flags.declare("sketcher", "arams",
                "backend: arams | fd | isvd | gaussian | countsketch | "
                "normsample | rangefinder | sharded:<inner> "
                "(see `arams backends`)");
  flags.declare("ell", "32", "initial/fixed sketch rank");
  flags.declare("seed", "2024", "sketcher RNG seed");
  flags.declare("shards", "1",
                "concurrent ingest shards (>1 wraps the backend in "
                "sharded:<backend>, pool tree-merged)");
  flags.declare("beta", "0.8", "arams: priority-sampling keep fraction");
  flags.declare("epsilon", "0.05",
                "arams: rank-adaptation target (0 disables RA)");
  flags.declare("estimator", "gaussian",
                "RA residual estimator: gaussian | hutchinson | hutchpp");
  flags.declare("report-error", "false",
                "also print the relative covariance error (costs extra)");
  declare_ingest_flag(flags);
  declare_telemetry_flags(flags);
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams sketch");
    return 0;
  }
  ARAMS_CHECK(!flags.get("in").empty(), "--in is required");
  arm_telemetry(flags);
  const bool f32 = ingest_is_f32(flags);
  linalg::Matrix rows;
  linalg::MatrixF rows_f32;
  if (f32) {
    rows_f32 = load_rows_f32(flags.get("in"));
  } else {
    rows = load_rows(flags.get("in"));
  }
  std::cout << "loaded " << (f32 ? rows_f32.rows() : rows.rows()) << " x "
            << (f32 ? rows_f32.cols() : rows.cols()) << " from "
            << flags.get("in") << (f32 ? " (fp32 ingest lane)" : "")
            << "\n";

  core::SketcherConfig config;
  config.backend = flags.get("sketcher");
  config.ell = static_cast<std::size_t>(flags.get_int("ell"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const long shards_flag = flags.get_int("shards");
  ARAMS_CHECK(shards_flag >= 1,
              "--shards must be >= 1, got " + std::to_string(shards_flag));
  config.shards = static_cast<std::size_t>(shards_flag);
  config.arams.ell = config.ell;
  config.arams.seed = config.seed;
  config.arams.beta = flags.get_double("beta");
  config.arams.use_sampling = config.arams.beta < 1.0;
  const double epsilon = flags.get_double("epsilon");
  config.arams.rank_adaptive = epsilon > 0.0;
  config.arams.epsilon = epsilon;
  config.arams.estimator =
      linalg::parse_residual_estimator(flags.get("estimator"));

  linalg::Matrix sketch;
  std::size_t final_ell = 0;
  Stopwatch timer;
  if (f32) {
    // The fp32 lane always goes through the factory: every backend exposes
    // the same fp32 entry point there (arams samples the float rows, every
    // other backend widens the batch once).
    const std::unique_ptr<core::Sketcher> sketcher =
        core::make_sketcher(config);
    sketcher->push_batch(linalg::MatrixViewF(rows_f32));
    sketch = sketcher->sketch();
    final_ell = sketcher->current_ell();
    std::cout << "sketched to " << sketch.rows() << " x " << sketch.cols()
              << " in " << timer.seconds() << " s (" << sketcher->name()
              << ", fp32 lane, " << sketcher->rows_ingested_f32()
              << " fp32 rows, ell " << final_ell << ")\n";
  } else if (config.backend == "arams" && config.shards <= 1) {
    // The paper path: Algorithm 3 verbatim through core::Arams, so the
    // default CLI invocation stays bitwise-identical to pre-factory runs.
    // (--shards>1 takes the factory branch: the sharded wrapper applies
    // to any backend, arams included.)
    core::Arams sketcher(config.arams);
    const core::AramsResult result = sketcher.sketch_matrix(rows);
    std::cout << "sketched to " << result.sketch.rows() << " x "
              << result.sketch.cols() << " in " << timer.seconds() << " s ("
              << result.report.counter("svd_count")
              << " rotations, final ell " << result.final_ell << ")\n";
    sketch = result.sketch;
    final_ell = result.final_ell;
  } else {
    const std::unique_ptr<core::Sketcher> sketcher =
        core::make_sketcher(config);
    sketcher->push_batch(rows);
    sketch = sketcher->sketch();
    final_ell = sketcher->current_ell();
    std::cout << "sketched to " << sketch.rows() << " x " << sketch.cols()
              << " in " << timer.seconds() << " s (" << sketcher->name()
              << ", " << sketcher->stats().svd_count
              << " rotations, ell " << final_ell << ")\n";
  }
  io::save_npy(flags.get("out"), sketch);
  std::cout << "sketch written to " << flags.get("out") << "\n";
  write_telemetry(flags);

  if (flags.get_bool("report-error")) {
    if (f32) linalg::widen(linalg::MatrixViewF(rows_f32), rows);
    Rng power(1);
    std::cout << "relative covariance error: "
              << linalg::covariance_error_relative(rows, sketch, power, 60)
              << " (FD bound "
              << 1.0 / static_cast<double>(final_ell) << ")\n";
  }
  return 0;
}

int cmd_pipeline(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("in", "", ".frames bundle or .npy matrix (required)");
  flags.declare("sketcher", "arams",
                "sketch backend (see `arams backends`)");
  flags.declare("ell", "24", "sketch rank");
  flags.declare("cores", "4", "row ranges sketched, then tree-merged");
  flags.declare("shards", "1",
                "concurrent ingest shards (>1 runs stage 2 through "
                "sharded:<sketcher> on the shared pool)");
  flags.declare("components", "12", "PCA latent dimension");
  flags.declare("neighbors", "15", "UMAP n_neighbors");
  flags.declare("epochs", "200", "UMAP epochs");
  declare_knn_flags(flags);
  flags.declare("clusterer", "optics", "optics | hdbscan | kmeans");
  flags.declare("k", "4", "kmeans: number of clusters");
  flags.declare("center", "true", "CoM-center frames before sketching");
  flags.declare("csv", "", "output CSV (x,y,label per shot)");
  flags.declare("html", "", "output interactive HTML scatter");
  flags.declare("latent", "", "output latent matrix .npy");
  declare_ingest_flag(flags);
  declare_telemetry_flags(flags);
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams pipeline");
    return 0;
  }
  ARAMS_CHECK(!flags.get("in").empty(), "--in is required");
  arm_telemetry(flags);

  stream::PipelineConfig config;
  config.sketcher = flags.get("sketcher");
  config.sketch.ell = static_cast<std::size_t>(flags.get_int("ell"));
  config.num_cores = static_cast<std::size_t>(flags.get_int("cores"));
  const long shards_flag = flags.get_int("shards");
  ARAMS_CHECK(shards_flag >= 1,
              "--shards must be >= 1, got " + std::to_string(shards_flag));
  config.shards = static_cast<std::size_t>(shards_flag);
  config.pca_components =
      static_cast<std::size_t>(flags.get_int("components"));
  config.umap.n_neighbors =
      static_cast<std::size_t>(flags.get_int("neighbors"));
  config.umap.n_epochs = static_cast<int>(flags.get_int("epochs"));
  apply_knn_flags(flags, config.umap);
  config.preprocess.center = flags.get_bool("center");
  const bool f32 = ingest_is_f32(flags);
  if (f32) {
    config.ingest_precision = stream::PipelineConfig::IngestPrecision::kF32;
  }
  const std::string clusterer = flags.get("clusterer");
  if (clusterer == "hdbscan") {
    config.cluster_method =
        stream::PipelineConfig::ClusterMethod::kHdbscan;
  } else if (clusterer == "kmeans") {
    config.cluster_method = stream::PipelineConfig::ClusterMethod::kKmeans;
    config.kmeans.k = static_cast<std::size_t>(flags.get_int("k"));
  } else {
    ARAMS_CHECK(clusterer == "optics",
                "unknown --clusterer: " + clusterer);
  }
  const stream::MonitoringPipeline pipeline(config);

  const std::string in = flags.get("in");
  Stopwatch timer;
  stream::PipelineResult result;
  if (ends_with(in, ".frames")) {
    // analyze() narrows at the door itself when the fp32 lane is on.
    result = pipeline.analyze(io::load_frames(in));
  } else if (f32) {
    // '<f4' payloads feed the sketcher without an fp64 round trip.
    result = pipeline.analyze_matrix(
        linalg::MatrixViewF(io::load_npy_f32(in)));
  } else {
    result = pipeline.analyze_matrix(io::load_npy(in));
  }
  const std::size_t n = result.embedding.rows();
  std::cout << "pipeline over " << n << " shots in " << timer.seconds()
            << " s: sketch " << result.report.seconds("sketch")
            << " s, UMAP " << result.report.seconds("embed") << " s, cluster "
            << result.report.seconds("cluster") << " s\n"
            << cluster::cluster_count(result.labels)
            << " clusters, final sketch rank " << result.final_ell << "\n";

  if (const std::string& csv = flags.get("csv"); !csv.empty()) {
    Table table({"shot", "x", "y", "label"});
    for (std::size_t i = 0; i < n; ++i) {
      table.add_row({Table::num(static_cast<long>(i)),
                     Table::num(result.embedding(i, 0)),
                     Table::num(result.embedding(i, 1)),
                     Table::num(static_cast<long>(result.labels[i]))});
    }
    table.save_csv(csv);
    std::cout << "embedding CSV written to " << csv << "\n";
  }
  if (const std::string& html = flags.get("html"); !html.empty()) {
    embed::ScatterConfig scatter;
    scatter.title = "ARAMS pipeline — " + in;
    embed::write_scatter_html(html, result.embedding, result.labels, {},
                              scatter);
    std::cout << "interactive scatter written to " << html << "\n";
  }
  if (const std::string& latent = flags.get("latent"); !latent.empty()) {
    io::save_npy(latent, result.latent);
    std::cout << "latent matrix written to " << latent << "\n";
  }
  write_telemetry(flags);
  return 0;
}

// Replays a recorded .frames bundle through the streaming monitor the way
// a live DAQ feed would arrive: a producer thread pushes shot events into
// a bounded hand-off queue while the analysis loop pops, ingests, and
// periodically republishes a Prometheus snapshot. This is the operational
// harness for the health watchdog — `--nan-from`/`--nan-count` poison a
// span of shots so an operator (or the round-trip test) can watch the
// DEGRADED/CRITICAL transition fire and recover.
int cmd_monitor(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("in", "", ".frames bundle (required)");
  flags.declare("sketcher", "arams",
                "sketch backend (see `arams backends`)");
  flags.declare("batch", "64", "frames per sketch update");
  flags.declare("ell", "16", "initial sketch rank");
  flags.declare("shards", "1",
                "concurrent ingest shards per sketch update (>1 fans the "
                "batch out to sharded:<sketcher> consumers)");
  flags.declare("epsilon", "0.0", "rank-adaptation target (0 disables RA)");
  flags.declare("reservoir", "1024", "frames retained for snapshots");
  flags.declare("queue", "128", "DAQ hand-off queue capacity");
  flags.declare("fps", "0",
                "throttle replay to this shot rate (0 = full speed; full "
                "speed keeps the queue saturated, which the watchdog "
                "rightly reports as back-pressure)");
  flags.declare("publish-every", "8",
                "sketch batches between --prom-out rewrites");
  flags.declare("health-log", "",
                "write health incidents (state transitions) as JSON lines");
  flags.declare("nan-from", "-1",
                "inject a non-finite pixel starting at this shot index");
  flags.declare("nan-count", "0", "number of consecutive shots to poison");
  flags.declare("crash-after", "-1",
                "fault injection: std::terminate() after this many shots "
                "(exercises the post-mortem crash path; -1 disables)");
  declare_ingest_flag(flags);
  declare_knn_flags(flags);
  declare_telemetry_flags(flags);
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams monitor");
    return 0;
  }
  ARAMS_CHECK(!flags.get("in").empty(), "--in is required");
  arm_telemetry(flags);
  const auto frames = io::load_frames(flags.get("in"));

  stream::MonitorConfig config;
  config.pipeline.sketcher = flags.get("sketcher");
  const long shards_flag = flags.get_int("shards");
  ARAMS_CHECK(shards_flag >= 1,
              "--shards must be >= 1, got " + std::to_string(shards_flag));
  config.pipeline.shards = static_cast<std::size_t>(shards_flag);
  config.batch_size = static_cast<std::size_t>(flags.get_int("batch"));
  config.reservoir_size =
      static_cast<std::size_t>(flags.get_int("reservoir"));
  config.pipeline.sketch.ell =
      static_cast<std::size_t>(flags.get_int("ell"));
  const double epsilon = flags.get_double("epsilon");
  config.pipeline.sketch.rank_adaptive = epsilon > 0.0;
  config.pipeline.sketch.epsilon = epsilon;
  if (ingest_is_f32(flags)) {
    config.pipeline.ingest_precision =
        stream::PipelineConfig::IngestPrecision::kF32;
  }
  apply_knn_flags(flags, config.pipeline.umap);
  stream::StreamingMonitor monitor(config);

  // Re-point the crash snapshot at this run's watchdog so a post-mortem
  // carries the incident log (arm_telemetry ran before the monitor
  // existed).
  if (const std::string& dir = flags.get("postmortem-dir"); !dir.empty()) {
    obs::PostmortemConfig pm;
    pm.dir = dir;
    pm.health = &monitor.health();
    pm.autodump_on_critical = true;
    obs::configure_postmortem(pm);
    obs::refresh_postmortem_snapshot();
  }

  // Every state transition is echoed live; the full incident log lands in
  // --health-log at the end of the run.
  monitor.health().on_transition([](const obs::HealthIncident& incident) {
    std::cout << "health: " << obs::to_string(incident.from) << " -> "
              << obs::to_string(incident.to) << " (" << incident.reason
              << ")\n";
  });

  std::optional<obs::PeriodicPublisher> publisher;
  if (const std::string& prom = flags.get("prom-out"); !prom.empty()) {
    obs::PeriodicPublisher::Config pub_config;
    pub_config.path = prom;
    pub_config.every =
        static_cast<std::size_t>(flags.get_int("publish-every"));
    publisher.emplace(pub_config, obs::metrics(), &monitor.health());
  }

  const long nan_from = flags.get_int("nan-from");
  const long nan_count = flags.get_int("nan-count");

  stream::BoundedQueue<stream::ShotEvent> queue(
      static_cast<std::size_t>(flags.get_int("queue")));
  queue.enable_metrics("daq.queue");
  const double fps = flags.get_double("fps");
  std::thread producer([&] {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      stream::ShotEvent event;
      event.shot_id = i;
      event.frame = frames[i];
      const long shot = static_cast<long>(i);
      if (nan_from >= 0 && shot >= nan_from &&
          shot < nan_from + nan_count) {
        event.frame.at(0, 0) = std::numeric_limits<double>::quiet_NaN();
      }
      if (!queue.push(std::move(event))) break;  // closed early
      if (fps > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / fps));
      }
    }
    queue.close();
  });

  const long crash_after = flags.get_int("crash-after");
  Stopwatch timer;
  long shots_popped = 0;
  try {
    while (auto event = queue.pop()) {
      monitor.note_queue_saturation(queue.saturation());
      const bool updated = monitor.ingest(*event);
      if (updated && publisher) publisher->tick();
      ++shots_popped;
      if (crash_after >= 0 && shots_popped >= crash_after) {
        // Deterministic fault injection for the crash drill: terminate
        // runs the post-mortem hook in ordinary (non-signal) context and
        // behaves identically under ASan/TSan, unlike a raw SIGSEGV.
        std::cerr << "crash-after: injecting std::terminate() at shot "
                  << shots_popped << "\n";
        obs::flight_recorder().record(
            obs::FlightCode::kCrash,
            static_cast<std::uint64_t>(shots_popped));
        std::terminate();
      }
    }
  } catch (...) {
    // Unblock and reap the producer before the exception unwinds past the
    // joinable std::thread (which would call std::terminate).
    queue.close();
    while (queue.pop()) {
    }
    producer.join();
    throw;
  }
  producer.join();
  monitor.flush();

  const obs::HealthMonitor& health = monitor.health();
  std::cout << "monitored " << frames.size() << " shots in "
            << timer.seconds() << " s ("
            << monitor.throughput().recent_frames_per_second()
            << " fps recent, "
            << monitor.throughput().frames_per_second() << " fps lifetime)\n"
            << "rejected " << monitor.nonfinite_frames()
            << " non-finite frames, final sketch rank "
            << monitor.current_ell() << "\n"
            << "health: " << obs::to_string(health.state()) << " after "
            << health.transitions() << " transitions ("
            << health.incidents().size() << " incidents logged)\n";

  if (const std::string& path = flags.get("health-log"); !path.empty()) {
    std::ofstream out(path);
    ARAMS_CHECK(out.good(), "cannot open --health-log file: " + path);
    health.write_incidents_json(out);
    std::cout << "health incident log written to " << path << "\n";
  }
  if (publisher) publisher->publish_now();
  write_telemetry(flags, &health);
  return 0;
}

int cmd_compare(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("data", "", "original data (.frames or .npy, required)");
  flags.declare("sketch", "", "sketch .npy (required)");
  flags.declare("power-iters", "60", "power iterations for the error");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams compare");
    return 0;
  }
  ARAMS_CHECK(!flags.get("data").empty() && !flags.get("sketch").empty(),
              "--data and --sketch are required");
  const linalg::Matrix rows = load_rows(flags.get("data"));
  const linalg::Matrix sketch = io::load_npy(flags.get("sketch"));
  ARAMS_CHECK(rows.cols() == sketch.cols(),
              "data and sketch have different column counts");
  Rng power(1);
  const int iters = static_cast<int>(flags.get_int("power-iters"));
  const double abs_err =
      linalg::covariance_error(rows, sketch, power, iters);
  const double rel = abs_err / linalg::frobenius_norm_squared(rows);
  std::cout << "data:   " << rows.rows() << " x " << rows.cols() << "\n"
            << "sketch: " << sketch.rows() << " x " << sketch.cols() << "\n"
            << "covariance error |AtA - BtB|_2: " << abs_err << "\n"
            << "relative (vs |A|_F^2):          " << rel << "\n"
            << "FD bound at ell=" << sketch.rows() << ":          "
            << 1.0 / static_cast<double>(sketch.rows()) << "\n";
  return 0;
}

int cmd_diag(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("in", "", ".frames bundle (required)");
  flags.declare("warmup", "120", "CUSUM calibration shots");
  flags.declare("mean", "", "optional PGM path for the mean frame");
  flags.declare("variance", "", "optional PGM path for the variance frame");
  flags.declare("mask-report", "false",
                "derive a dead/hot pixel mask and report its size");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams diag");
    return 0;
  }
  ARAMS_CHECK(!flags.get("in").empty(), "--in is required");
  const auto frames = io::load_frames(flags.get("in"));

  stream::BeamDiagnostics diagnostics(
      static_cast<std::size_t>(flags.get_int("warmup")));
  long alarm_shots = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    stream::ShotEvent event;
    event.shot_id = i;
    event.frame = frames[i];
    const auto alarms = diagnostics.update(event);
    if (!alarms.empty()) {
      ++alarm_shots;
      if (alarm_shots <= 10) {
        std::cout << "shot " << i << ":";
        for (const auto& a : alarms) std::cout << " [" << a << "]";
        std::cout << "\n";
      }
    }
  }
  std::cout << "monitored " << diagnostics.shots_seen() << " shots: "
            << diagnostics.total_alarms() << " alarms across "
            << alarm_shots << " shots\n";

  if (const std::string& mean = flags.get("mean"); !mean.empty()) {
    diagnostics.frame_stats().mean().save_pgm(mean);
    std::cout << "mean frame written to " << mean << "\n";
  }
  if (const std::string& var = flags.get("variance"); !var.empty()) {
    diagnostics.frame_stats().variance().save_pgm(var);
    std::cout << "variance frame written to " << var << "\n";
  }
  if (flags.get_bool("mask-report")) {
    const image::PixelMask mask =
        image::mask_from_stats(diagnostics.frame_stats());
    std::cout << "pixel mask: " << mask.bad_count() << " of "
              << mask.good.size() << " pixels flagged dead/hot\n";
  }
  return 0;
}

// Lists the factory-registered sketching backends, one per line as
// "name<TAB>description". The docs lint (tools/check_sketcher_doc.sh)
// parses this output, so the registry and docs/ALGORITHMS.md cannot drift
// apart silently.
int cmd_backends(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("knn", "false",
                "list the kNN searcher backends (--knn-backend=) instead "
                "of the sketchers");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams backends");
    return 0;
  }
  // Build provenance first, '#'-prefixed so scripted consumers of the
  // name<TAB>description lines can skip it (`grep -v '^#'`).
  std::cout << "# arams " << obs::build_info_line() << "\n";
  if (flags.get_bool("knn")) {
    for (const auto& name : embed::registered_searchers()) {
      std::cout << name << "\t" << embed::searcher_description(name)
                << "\n";
    }
    return 0;
  }
  for (const auto& name : core::registered_sketchers()) {
    std::cout << name << "\t" << core::sketcher_description(name) << "\n";
  }
  // The sharded wrapper spelling, listed with a concrete runnable inner so
  // scripted consumers (the CLI round-trip test iterates these names) can
  // exercise it like any plain backend.
  std::cout << "sharded:fd\t" << core::sketcher_description("sharded:fd")
            << "\n";
  return 0;
}

// Validates a post-mortem dump: parses the versioned format, prints a
// summary of what the file contains, and exits non-zero when any of the
// forensic sections (backtrace, flight-recorder tail, metrics snapshot,
// health incident log) is missing or the file was truncated mid-crash.
int cmd_doctor(int argc, const char* const* argv) {
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::cout << "usage: arams doctor <postmortem-file>\n"
                   "\n"
                   "parse and validate a post-mortem dump written by\n"
                   "--postmortem-dir (on crash or watchdog CRITICAL).\n";
      return 0;
    }
    path = arg;
  }
  if (path.empty()) {
    std::cerr << "usage: arams doctor <postmortem-file>\n";
    return 1;
  }
  std::ifstream in(path);
  if (!in.good()) {
    std::cerr << "doctor: cannot open " << path << "\n";
    return 1;
  }
  obs::PostmortemReport report;
  std::string error;
  if (!obs::parse_postmortem(in, report, &error)) {
    std::cerr << "doctor: " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << "post-mortem " << path << " (format v" << report.version
            << ")\n"
            << "  reason:               " << report.reason << "\n"
            << "  pid:                  " << report.pid << "\n"
            << "  uptime:               " << report.uptime << " s\n"
            << "  build:                " << report.build << "\n"
            << "  backtrace frames:     " << report.backtrace.size() << "\n"
            << "  flight-recorder tail: " << report.flight_lines.size()
            << " events\n"
            << "  metrics snapshot:     " << report.metrics_lines.size()
            << " lines\n"
            << "  health incident log:  " << report.health_lines.size()
            << " lines\n";
  if (!obs::validate_postmortem(report, &error)) {
    std::cerr << "doctor: INVALID: " << error << "\n";
    return 1;
  }
  std::cout << "doctor: OK — dump is complete and parseable\n";
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  CliFlags flags;
  flags.declare("in", "", "file to describe (required)");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("arams info");
    return 0;
  }
  const std::string in = flags.get("in");
  ARAMS_CHECK(!in.empty(), "--in is required");
  if (ends_with(in, ".frames")) {
    const auto frames = io::load_frames(in);
    double total = 0.0;
    for (const auto& f : frames) total += f.total_intensity();
    std::cout << in << ": frame bundle, " << frames.size() << " frames of "
              << frames.front().height() << "x" << frames.front().width()
              << ", mean intensity "
              << total / static_cast<double>(frames.size()) << "\n";
  } else {
    const linalg::Matrix m = io::load_npy(in);
    std::cout << in << ": float64 matrix, " << m.rows() << " x "
              << m.cols() << ", Frobenius norm "
              << linalg::frobenius_norm(m) << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "sketch") return cmd_sketch(argc - 1, argv + 1);
    if (command == "pipeline") return cmd_pipeline(argc - 1, argv + 1);
    if (command == "monitor") return cmd_monitor(argc - 1, argv + 1);
    if (command == "compare") return cmd_compare(argc - 1, argv + 1);
    if (command == "diag") return cmd_diag(argc - 1, argv + 1);
    if (command == "backends") return cmd_backends(argc - 1, argv + 1);
    if (command == "doctor") return cmd_doctor(argc - 1, argv + 1);
    if (command == "info") return cmd_info(argc - 1, argv + 1);
    if (command == "--help" || command == "help") {
      print_usage();
      return 0;
    }
    std::cerr << "unknown command: " << command << "\n";
    print_usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
