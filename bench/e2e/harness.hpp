#pragma once
// The end-to-end benchmark's four workloads (sizes and configs) and the
// seeded in-memory frame generator, shared by e2e.cpp and replay.cpp.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "stream/monitor.hpp"
#include "stream/pipeline.hpp"

namespace arams::e2e {

enum class Kind {
  kIngest,    ///< StreamingMonitor fed through a BoundedQueue
  kSnapshot,  ///< StreamingMonitor refresh loop (ingest, then refresh)
  kBatch,     ///< MonitoringPipeline::analyze
};

struct Workload {
  std::string name;
  Kind kind = Kind::kIngest;
  bool diffraction = false;  ///< diffraction generator, else beam profiles
  std::size_t side = 0;      ///< frame height = width
  /// Set-up frames: monitor warm-up (kIngest), reservoir fill (kSnapshot)
  /// or the warm-up analyze call (kBatch).
  std::size_t setup_frames = 0;
  /// Timed frames per round; per refresh cycle for kSnapshot.
  std::size_t frames = 0;
  /// kSnapshot refresh cycles per round; cycle 0 takes a full snapshot,
  /// the rest take incremental ones.
  std::size_t cycles = 1;
  stream::MonitorConfig monitor;    ///< kIngest, kSnapshot
  stream::PipelineConfig pipeline;  ///< kBatch
};

/// The named workload at full size, or at smoke size (32×32 frames, about
/// 1k frames, reservoir 512) for a fast functional check. Throws CheckError
/// on an unknown name.
Workload make_workload(const std::string& name, bool smoke);

/// Frames for one round, generated before anything is timed. Shot ids run
/// 0..N-1 over setup then timed frames, and `truth` is indexed by shot id.
struct Inputs {
  std::vector<stream::ShotEvent> setup;
  std::vector<stream::ShotEvent> timed;
  std::vector<int> truth;
};

Inputs generate_inputs(const Workload& workload, std::uint64_t seed);

/// The frames a kSnapshot round ingests in refresh cycle `cycle`.
std::span<const stream::ShotEvent> cycle_frames(const Workload& workload,
                                                const Inputs& inputs,
                                                std::size_t cycle);

}  // namespace arams::e2e
