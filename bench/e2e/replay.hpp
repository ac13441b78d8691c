#pragma once
// Outside-in replay of one benchmark round.
//
// StreamingMonitor and MonitoringPipeline are measured as black boxes; to
// say where their time goes without instrumenting src/, the replay makes
// the same public calls they make internally at this commit, in the same
// order and with the same configs, and wraps each call in an
// obs::ScopedSpan on a recorder the benchmark owns. A span is named
// "<layer>.<call>", where the layer is the src/ module the call enters;
// "stream.*" spans cover the monitor's or pipeline's own glue, and the
// root span "replay" holds whatever no other span covers.
//
// If the monitor or pipeline internals change, this replay goes stale: the
// monitor-vs-replay wall ratio (stream.self_frac) turning negative is the
// sign, and the fix is a benchmark-only change that mirrors the new calls.

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/trace.hpp"

namespace arams::e2e {

struct ReplayResult {
  double recon_err = 0.0;  ///< end-of-round sketch error (stream workloads)
  std::size_t clusters = 0;  ///< clusters in the round's last picture
  /// Inside umap_embed: kNN-graph time (searcher build + query, from the
  /// embed.ann_* histograms) and the call's whole wall time.
  double umap_knn_seconds = 0.0;
  double umap_seconds = 0.0;
};

/// Replays one round of `workload` over `inputs`. Spans record only while
/// `recorder` is enabled; a disabled recorder gives the untraced replay.
ReplayResult replay_round(const Workload& workload, const Inputs& inputs,
                          obs::TraceRecorder& recorder);

/// Self time by layer and durations by span name, from one thread's spans.
struct SpanSummary {
  std::map<std::string, double> layer_self_seconds;
  std::map<std::string, std::vector<double>> call_seconds;
  double root_seconds = 0.0;  ///< the "replay" span
};

SpanSummary summarize(std::vector<obs::SpanRecord> spans);

}  // namespace arams::e2e
