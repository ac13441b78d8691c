#include "harness.hpp"

#include <iterator>
#include <memory>

#include "stream/source.hpp"
#include "util/check.hpp"

namespace arams::e2e {

namespace {

/// The Fig. 6 analysis settings (bench/fig6_diffraction_embedding).
stream::PipelineConfig fig6_pipeline() {
  stream::PipelineConfig p;
  p.sketch.ell = 24;
  p.num_cores = 4;
  p.pca_components = 10;
  p.umap.n_neighbors = 15;
  p.umap.n_epochs = 200;
  p.preprocess.center = false;
  return p;
}

/// The ingest-path monitor shared by the two ingest workloads.
stream::MonitorConfig ingest_monitor(std::size_t reservoir) {
  stream::MonitorConfig m;
  m.batch_size = 256;
  m.reservoir_size = reservoir;
  m.pipeline.sketch.ell = 32;
  m.pipeline.sketch.rank_adaptive = true;
  m.pipeline.sketch.epsilon = 0.08;
  return m;
}

}  // namespace

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "beam_ingest" || name == "diffraction_ingest_f32x4") {
    w.kind = Kind::kIngest;
    w.side = smoke ? 32 : 128;
    w.setup_frames = smoke ? 128 : 512;
    w.frames = smoke ? 768 : 2048;
    w.monitor = ingest_monitor(smoke ? 512 : 2048);
    if (name == "diffraction_ingest_f32x4") {
      w.diffraction = true;
      w.monitor.pipeline.preprocess.center = false;
      w.monitor.pipeline.ingest_precision =
          stream::PipelineConfig::IngestPrecision::kF32;
      w.monitor.pipeline.shards = 4;
    }
  } else if (name == "diffraction_snapshot") {
    // The reservoir sits above the 4096-point exact-kNN threshold, so the
    // full snapshots build an rpforest index and the refreshes insert into
    // it.
    w.kind = Kind::kSnapshot;
    w.diffraction = true;
    w.side = smoke ? 32 : 64;
    w.monitor.pipeline = fig6_pipeline();
    w.monitor.batch_size = 256;
    w.monitor.reservoir_size = smoke ? 512 : 4608;
    w.setup_frames = w.monitor.reservoir_size;
    w.frames = smoke ? 128 : 512;
    w.cycles = 3;
  } else if (name == "diffraction_batch") {
    w.kind = Kind::kBatch;
    w.diffraction = true;
    w.side = smoke ? 32 : 64;
    w.pipeline = fig6_pipeline();
    w.setup_frames = smoke ? 128 : 512;
    w.frames = smoke ? 768 : 4608;
  } else {
    ARAMS_CHECK(false, "unknown workload '" + name + "'");
  }
  return w;
}

Inputs generate_inputs(const Workload& workload, std::uint64_t seed) {
  const std::size_t timed = workload.frames * workload.cycles;
  const std::size_t total = workload.setup_frames + timed;
  std::unique_ptr<stream::FrameSource> source;
  if (workload.diffraction) {
    data::DiffractionConfig diff;
    diff.height = workload.side;
    diff.width = workload.side;
    diff.num_classes = 4;
    diff.photons_per_frame = 5e4;
    source = std::make_unique<stream::DiffractionSource>(diff, total, 120.0,
                                                         seed);
  } else {
    data::BeamProfileConfig beam;
    beam.height = workload.side;
    beam.width = workload.side;
    source = std::make_unique<stream::BeamProfileSource>(beam, total, 120.0,
                                                         seed);
  }
  std::vector<stream::ShotEvent> events = stream::drain(*source, total);
  ARAMS_CHECK(events.size() == total, "frame source ran dry");
  Inputs in;
  in.truth.reserve(total);
  for (const auto& e : events) in.truth.push_back(e.truth_label);
  const auto split = events.begin() +
                     static_cast<std::ptrdiff_t>(workload.setup_frames);
  in.setup.assign(std::make_move_iterator(events.begin()),
                  std::make_move_iterator(split));
  in.timed.assign(std::make_move_iterator(split),
                  std::make_move_iterator(events.end()));
  return in;
}

std::span<const stream::ShotEvent> cycle_frames(const Workload& workload,
                                                const Inputs& inputs,
                                                std::size_t cycle) {
  return std::span<const stream::ShotEvent>(inputs.timed)
      .subspan(cycle * workload.frames, workload.frames);
}

}  // namespace arams::e2e
