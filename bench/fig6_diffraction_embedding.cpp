// Figure 6 — latent-space embedding of diffraction data.
//
// The paper shows diffraction frames separating into clear clusters that
// differ by quadrant weights of the ring (run xpplx9221, private). The
// synthetic generator draws frames from K latent quadrant-weight classes,
// so cluster recovery is quantified with ARI and purity.

#include <iostream>

#include "bench_common.hpp"
#include "cluster/metrics.hpp"
#include "embed/metrics.hpp"
#include "stream/pipeline.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("frames", "400", "diffraction frames");
  flags.declare("classes", "4", "latent quadrant-weight classes");
  flags.declare("size", "40", "frame height/width");
  flags.declare("full", "false", "larger run (1200 frames, 64x64)");
  flags.declare("seed", "6", "generator seed");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("fig6_diffraction_embedding");
    return 0;
  }
  const bool full = flags.get_bool("full");
  const std::size_t frames =
      full ? 1200 : static_cast<std::size_t>(flags.get_int("frames"));
  const std::size_t size =
      full ? 64 : static_cast<std::size_t>(flags.get_int("size"));

  bench::banner("Figure 6 (diffraction latent embedding)", full,
                "unsupervised clusters vs latent quadrant-weight classes");

  data::DiffractionConfig diff;
  diff.height = size;
  diff.width = size;
  diff.num_classes = static_cast<std::size_t>(flags.get_int("classes"));
  diff.photons_per_frame = 5e4;
  std::cerr << "[fig6] generating " << frames << " diffraction frames ("
            << diff.num_classes << " classes)...\n";
  stream::DiffractionSource source(
      diff, frames, 120.0, static_cast<std::uint64_t>(flags.get_int("seed")));
  const auto events = stream::drain(source, frames);
  std::vector<int> truth;
  truth.reserve(frames);
  for (const auto& e : events) truth.push_back(e.truth_label);

  stream::PipelineConfig config;
  config.sketch.ell = 24;
  config.num_cores = 4;
  config.pca_components = 10;
  config.umap.n_neighbors = 15;
  config.umap.n_epochs = 200;
  config.preprocess.center = false;
  const stream::MonitoringPipeline pipeline(config);

  Stopwatch timer;
  const stream::PipelineResult result = pipeline.analyze_events(events);
  const double total_s = timer.seconds();

  Table table({"metric", "value"});
  table.add_row({"clusters found",
                 Table::num(static_cast<long>(
                     cluster::cluster_count(result.labels)))});
  table.add_row({"latent classes",
                 Table::num(static_cast<long>(diff.num_classes))});
  table.add_row({"adjusted Rand index",
                 Table::num(cluster::adjusted_rand_index(result.labels,
                                                         truth))});
  table.add_row({"purity", Table::num(cluster::purity(result.labels,
                                                      truth))});
  table.add_row({"silhouette (embedding)",
                 Table::num(cluster::silhouette(result.embedding,
                                                result.labels))});
  table.add_row(
      {"trustworthiness",
       Table::num(embed::trustworthiness(result.latent, result.embedding,
                                         12))});
  table.add_row({"pipeline seconds", Table::num(total_s)});
  bench::emit("cluster recovery vs latent classes", table);

  std::cout << "\nexpected shape: clear clusters (silhouette well above 0) "
               "that align with the latent classes (ARI >> 0, ideally "
               ">0.5) without any supervision.\n";
  return 0;
}
