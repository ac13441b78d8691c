// Ablation — incremental (out-of-sample) UMAP placement vs full re-embed.
//
// The streaming monitor refreshes its operator view between full snapshots
// by placing only the new shots against a frozen reference embedding. This
// harness measures what that buys: wall time per refresh and placement
// quality (do transformed points land in the same cluster neighbourhood a
// full re-embed would put them in?).

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "cluster/kmeans.hpp"
#include "cluster/metrics.hpp"
#include "data/diffraction.hpp"
#include "embed/umap.hpp"
#include "image/image.hpp"
#include "image/preprocess.hpp"
#include "stream/source.hpp"
#include "util/stopwatch.hpp"

int main(int argc, char** argv) {
  using namespace arams;

  CliFlags flags;
  flags.declare("reference", "400", "reference points");
  flags.declare("fresh", "100", "new points to place");
  flags.declare("help", "false", "print usage");
  flags.parse(argc, argv);
  if (flags.get_bool("help")) {
    std::cout << flags.usage("ablation_transform");
    return 0;
  }
  const auto n_ref = static_cast<std::size_t>(flags.get_int("reference"));
  const auto n_new = static_cast<std::size_t>(flags.get_int("fresh"));

  bench::banner("Ablation (incremental UMAP transform vs full re-embed)",
                false, "refresh latency and placement agreement");

  // Latent-like points from the diffraction workload (3 classes).
  data::DiffractionConfig diff;
  diff.height = 28;
  diff.width = 28;
  diff.num_classes = 3;
  diff.photons_per_frame = 4e4;
  stream::DiffractionSource source(diff, n_ref + n_new, 120.0, 51);
  const auto events = stream::drain(source, n_ref + n_new);
  std::vector<int> truth;
  std::vector<image::ImageF> frames;
  for (const auto& e : events) {
    truth.push_back(e.truth_label);
    frames.push_back(e.frame);
  }
  image::PreprocessConfig pre;
  pre.center = false;
  const linalg::Matrix rows = image::preprocess_rows(frames, pre);
  // Cheap latent: the first 10 PCA coordinates via a random projection is
  // overkill here — use the raw rows' top directions through UMAP's own
  // kNN, i.e. feed raw rows (28² dims are fine at these point counts).
  const linalg::Matrix reference = rows.slice_rows(0, n_ref);
  const linalg::Matrix fresh = rows.slice_rows(n_ref, n_ref + n_new);

  embed::UmapConfig config;
  config.n_neighbors = 15;
  config.n_epochs = 200;

  Stopwatch timer;
  const linalg::Matrix ref_embedding = embed::umap_embed(reference, config);
  const double embed_ref_s = timer.lap();

  // Incremental: place the fresh points against the frozen reference.
  const linalg::Matrix placed =
      embed::umap_transform(reference, ref_embedding, fresh, config);
  const double transform_s = timer.lap();

  // Full re-embed of everything (what the incremental path avoids).
  const linalg::Matrix full_embedding = embed::umap_embed(rows, config);
  const double full_s = timer.lap();

  // Quality: classify the fresh points by the majority truth label of
  // their nearest reference neighbours in each embedding; agreement with
  // their real label measures placement fidelity.
  const auto knn_label = [&](const linalg::Matrix& emb_ref,
                             const linalg::Matrix& emb_new,
                             std::size_t offset) {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < n_new; ++i) {
      double best = 1e300;
      int vote = -1;
      for (std::size_t j = 0; j < n_ref; ++j) {
        const double d =
            std::hypot(emb_new(i, 0) - emb_ref(j, 0),
                       emb_new(i, 1) - emb_ref(j, 1));
        if (d < best) {
          best = d;
          vote = truth[j];
        }
      }
      if (vote == truth[offset + i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(n_new);
  };
  const double acc_incremental = knn_label(ref_embedding, placed, n_ref);
  const linalg::Matrix full_ref = full_embedding.slice_rows(0, n_ref);
  const linalg::Matrix full_new =
      full_embedding.slice_rows(n_ref, n_ref + n_new);
  const double acc_full = knn_label(full_ref, full_new, n_ref);

  Table table({"metric", "value"});
  table.add_row({"reference embed seconds", Table::num(embed_ref_s)});
  table.add_row({"incremental transform seconds", Table::num(transform_s)});
  table.add_row({"full re-embed seconds", Table::num(full_s)});
  table.add_row({"speedup (refresh vs re-embed)",
                 Table::num(full_s / std::max(transform_s, 1e-12))});
  table.add_row({"1-NN class agreement (incremental)",
                 Table::num(acc_incremental)});
  table.add_row({"1-NN class agreement (full)", Table::num(acc_full)});
  bench::emit("incremental placement vs full re-embed", table);

  std::cout << "\nexpected shape: the transform refresh runs an order of "
               "magnitude faster than a full re-embed while placing new "
               "shots into the right neighbourhoods nearly as often.\n";
  return 0;
}
