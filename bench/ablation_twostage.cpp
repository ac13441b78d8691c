// Ablation — why the pipeline needs BOTH dimension-reduction stages.
//
// Section VI argues: "UMAP ... is not suitable for directly analyzing
// extremely high-dimensional data ... and would be far too slow ...
// On the other hand, PCA is a simple linear method and cannot capture the
// intricacies of complex data sources. Thus, both stages of the procedure
// are necessary." This harness quantifies that claim on the diffraction
// workload:
//   pca-only     project to 2-D with the sketch PCA, no UMAP
//   umap-on-raw  UMAP directly on the pixel rows (no PCA stage)
//   pca+umap     the paper's pipeline
//   pca+tsne     t-SNE as the stage-3 alternative
// reporting runtime, trustworthiness, and cluster recovery (ARI via
// k-means at the true K, isolating embedding quality from the clusterer).

#include <iostream>

#include "bench_common.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "core/arams_sketch.hpp"
#include "embed/metrics.hpp"
#include "embed/pca.hpp"
#include "embed/tsne.hpp"
#include "embed/umap.hpp"
#include "image/preprocess.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace arams;

double kmeans_ari(const linalg::Matrix& embedding,
                  const std::vector<int>& truth, std::size_t k) {
  cluster::KmeansConfig config;
  config.k = k;
  config.restarts = 6;
  const cluster::KmeansResult r = cluster::kmeans(embedding, config);
  return cluster::adjusted_rand_index(r.labels, truth);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("frames", "300", "diffraction frames");
  flags.declare("size", "40", "frame height/width");
  flags.declare("classes", "4", "latent classes");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("ablation_twostage");
    return 0;
  }
  const auto frames = static_cast<std::size_t>(flags.get_int("frames"));
  const auto classes = static_cast<std::size_t>(flags.get_int("classes"));

  bench::banner("Ablation (both pipeline stages are necessary)", false,
                "pca-only vs umap-on-raw vs pca+umap vs pca+tsne");

  data::DiffractionConfig diff;
  diff.height = static_cast<std::size_t>(flags.get_int("size"));
  diff.width = diff.height;
  diff.num_classes = classes;
  diff.photons_per_frame = 5e4;
  stream::DiffractionSource source(diff, frames, 120.0, 19);
  const auto events = stream::drain(source, frames);
  std::vector<int> truth;
  std::vector<image::ImageF> images;
  for (const auto& e : events) {
    truth.push_back(e.truth_label);
    images.push_back(e.frame);
  }
  image::PreprocessConfig pre;
  pre.center = false;
  const linalg::Matrix raw = image::preprocess_rows(images, pre);

  // Shared sketch + latent projection (the streaming stages).
  Stopwatch timer;
  core::AramsConfig sketch_config;
  sketch_config.ell = 24;
  core::Arams sketcher(sketch_config);
  const core::AramsResult sketch = sketcher.sketch_matrix(raw);
  const embed::PcaProjector pca(sketch.sketch, 10);
  const linalg::Matrix latent = pca.project(raw);
  const double sketch_s = timer.lap();
  std::cerr << "[twostage] sketch+project in " << sketch_s << " s\n";

  embed::UmapConfig umap_config;
  umap_config.n_neighbors = 15;
  umap_config.n_epochs = 200;
  embed::TsneConfig tsne_config;
  tsne_config.perplexity = 20.0;
  tsne_config.n_iters = 400;

  Table table({"variant", "embed_s", "trustworthiness", "kmeans_ari"});
  const auto report = [&](const std::string& name,
                          const linalg::Matrix& embedding, double seconds,
                          const linalg::Matrix& reference) {
    table.add_row(
        {name, Table::num(seconds),
         Table::num(embed::trustworthiness(reference, embedding, 12)),
         Table::num(kmeans_ari(embedding, truth, classes))});
  };

  // pca-only: top-2 principal coordinates as the "embedding".
  {
    Stopwatch t;
    const embed::PcaProjector pca2(sketch.sketch, 2);
    const linalg::Matrix y = pca2.project(raw);
    report("pca-only", y, t.seconds(), latent);
  }
  // umap-on-raw: skip the PCA stage entirely.
  {
    Stopwatch t;
    const linalg::Matrix y = embed::umap_embed(raw, umap_config);
    report("umap-on-raw", y, t.seconds(), latent);
  }
  // pca+umap: the paper's pipeline.
  {
    Stopwatch t;
    const linalg::Matrix y = embed::umap_embed(latent, umap_config);
    report("pca+umap", y, t.seconds(), latent);
  }
  // pca+tsne: the alternative stage-3.
  {
    Stopwatch t;
    const linalg::Matrix y = embed::tsne_embed(latent, tsne_config);
    report("pca+tsne", y, t.seconds(), latent);
  }
  bench::emit("stage ablation on the diffraction workload", table);

  std::cout << "\nexpected shape: pca+umap (and pca+tsne) reach the best "
               "ARI; umap-on-raw pays a large runtime multiple for "
               "comparable quality (and scales with pixel count, which is "
               "fatal at 2 MP); pca-only is fastest but loses cluster "
               "structure that the nonlinear stage recovers.\n";
  return 0;
}
