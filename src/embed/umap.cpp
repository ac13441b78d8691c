#include "embed/umap.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>

#include "embed/pca.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"

namespace arams::embed {

using linalg::Matrix;

namespace {

// SGD settings of the reference implementation, which nothing here tunes.
constexpr double kLearningRate = 1.0;
constexpr int kNegativeSamples = 5;
constexpr double kRepulsionStrength = 1.0;

// The layout's partition: fixed, so that no bit depends on the pool size.
constexpr std::size_t kChunks = 16;
constexpr std::size_t kWaves = 2;
// Below this many edges the layout runs inline on the caller.
constexpr std::size_t kPoolMinEdges = 2048;

}  // namespace

SmoothKnn smooth_knn_distances(const KnnGraph& graph,
                               double local_connectivity, int iterations) {
  const std::size_t n = graph.n;
  const std::size_t k = graph.k;
  SmoothKnn out;
  out.rho.resize(n, 0.0);
  out.sigma.resize(n, 1.0);
  const double target = std::log2(static_cast<double>(k));

  // Each point's ρ and σ depend on its own row alone.
  parallel::for_bands(graph_loop_pool(true, n * k), n, [&](std::size_t i0,
                                                           std::size_t i1) {
    std::vector<double> nonzero;
    nonzero.reserve(k);
    for (std::size_t i = i0; i < i1; ++i) {
      // ρᵢ: distance to the ⌈local_connectivity⌉-th non-zero neighbour
      // (interpolated; with the default 1.0 this is simply the nearest).
      nonzero.clear();
      for (std::size_t j = 0; j < k; ++j) {
        const double d = graph.distance(i, j);
        if (d > 0.0) nonzero.push_back(d);
      }
      if (!nonzero.empty()) {
        const auto idx = static_cast<std::size_t>(
            std::floor(local_connectivity));
        if (idx >= 1 && idx <= nonzero.size()) {
          const double frac =
              local_connectivity - std::floor(local_connectivity);
          out.rho[i] = nonzero[idx - 1];
          if (frac > 0.0 && idx < nonzero.size()) {
            out.rho[i] += frac * (nonzero[idx] - nonzero[idx - 1]);
          }
        } else {
          out.rho[i] = *std::max_element(nonzero.begin(), nonzero.end());
        }
      }

      // Binary search σᵢ so that Σⱼ exp(−max(0, dᵢⱼ−ρᵢ)/σᵢ) = log₂(k).
      double lo = 0.0;
      double hi = std::numeric_limits<double>::infinity();
      double mid = 1.0;
      for (int it = 0; it < iterations; ++it) {
        double sum = 0.0;
        for (std::size_t j = 0; j < k; ++j) {
          const double d = graph.distance(i, j) - out.rho[i];
          sum += (d <= 0.0) ? 1.0 : std::exp(-d / mid);
        }
        if (std::abs(sum - target) < 1e-5) break;
        if (sum > target) {
          hi = mid;
          mid = (lo + hi) / 2.0;
        } else {
          lo = mid;
          mid = std::isinf(hi) ? mid * 2.0 : (lo + hi) / 2.0;
        }
      }
      // Bandwidth floor relative to the mean neighbour distance, as in the
      // reference implementation.
      double mean_d = 0.0;
      for (std::size_t j = 0; j < k; ++j) mean_d += graph.distance(i, j);
      mean_d /= static_cast<double>(k);
      out.sigma[i] = std::max(mid, 1e-3 * mean_d);
      if (out.sigma[i] <= 0.0) out.sigma[i] = 1.0;
    }
  });
  return out;
}

FuzzyGraph fuzzy_simplicial_set(const KnnGraph& graph,
                                const SmoothKnn& smooth) {
  const std::size_t n = graph.n;
  const std::size_t k = graph.k;
  parallel::ThreadPool* pool = graph_loop_pool(true, n * k);
  // Directed membership strengths: row i's targets sit ascending in
  // directed[i·k, i·k + row_size[i]).
  struct Directed {
    std::size_t j;
    double w;
  };
  std::vector<Directed> directed(n * k);
  std::vector<std::size_t> row_size(n);
  parallel::for_bands(pool, n, [&](std::size_t i0, std::size_t i1) {
    std::vector<std::pair<std::size_t, std::size_t>> row(k);  // (target, slot)
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t slot = 0; slot < k; ++slot) {
        const std::size_t t = graph.neighbor(i, slot);
        ARAMS_CHECK(t < n, "kNN graph neighbour " + std::to_string(t) +
                               " out of range for " + std::to_string(n) +
                               " points");
        row[slot] = {t, slot};
      }
      std::sort(row.begin(), row.end());
      std::size_t size = 0;
      for (std::size_t r = 0; r < k; ++r) {
        // A target listed twice keeps the weight of its last listing.
        if (r + 1 < k && row[r + 1].first == row[r].first) continue;
        const auto [t, slot] = row[r];
        const double d = graph.distance(i, slot) - smooth.rho[i];
        const double w = (d <= 0.0) ? 1.0 : std::exp(-d / smooth.sigma[i]);
        directed[i * k + size++] = {t, w};
      }
      row_size[i] = size;
    }
  });
  const auto weight = [&](std::size_t i, std::size_t j) {
    const auto first = directed.begin() + static_cast<std::ptrdiff_t>(i * k);
    const auto last = first + static_cast<std::ptrdiff_t>(row_size[i]);
    const auto it = std::lower_bound(
        first, last, j,
        [](const Directed& e, std::size_t t) { return e.j < t; });
    return (it != last && it->j == j) ? it->w : 0.0;
  };

  // w = a + b − ab per canonical (u < v) pair, row i's edges at
  // edges[edge_start[i], …) in the serial loop's order. Both directions of
  // a mutual pair give the same bits (IEEE + and × commute), so after
  // sorting the duplicates are dropped.
  std::vector<std::size_t> edge_start(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    edge_start[i + 1] = edge_start[i] + row_size[i];
  }
  FuzzyGraph out;
  out.n = n;
  std::vector<FuzzyGraph::Edge>& edges = out.edges;
  edges.resize(edge_start[n]);
  parallel::for_bands(pool, n, [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t r = 0; r < row_size[i]; ++r) {
        const auto [j, w] = directed[i * k + r];
        const double wr = weight(j, i);
        const auto [u, v] = std::minmax(i, j);
        edges[edge_start[i] + r] = {u, v, w + wr - w * wr};
      }
    }
  });
  const auto key_less = [](const FuzzyGraph::Edge& a,
                           const FuzzyGraph::Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::sort(edges.begin(), edges.end(), key_less);
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const FuzzyGraph::Edge& a,
                             const FuzzyGraph::Edge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  std::erase_if(edges, [](const FuzzyGraph::Edge& e) {
    return !(e.weight > 0.0);
  });
  return out;
}

namespace {

/// fit_ab's two-stage grid search (arguments already validated).
std::pair<double, double> fit_ab_grid(double spread, double min_dist) {
  // Target curve ψ(x): 1 on [0, min_dist], exp decay beyond.
  constexpr int kSamples = 300;
  std::vector<double> xs(kSamples), ys(kSamples);
  for (int s = 0; s < kSamples; ++s) {
    const double x = 3.0 * spread * (s + 0.5) / kSamples;
    xs[s] = x;
    ys[s] = (x <= min_dist) ? 1.0 : std::exp(-(x - min_dist) / spread);
  }
  const auto loss = [&](double a, double b) {
    double l = 0.0;
    for (int s = 0; s < kSamples; ++s) {
      const double f = 1.0 / (1.0 + a * std::pow(xs[s], 2.0 * b));
      const double diff = f - ys[s];
      l += diff * diff;
    }
    return l;
  };
  // Two-stage grid search: coarse, then refined around the best cell.
  double best_a = 1.0, best_b = 1.0, best = loss(1.0, 1.0);
  for (int stage = 0; stage < 3; ++stage) {
    const double ra = (stage == 0) ? 3.0 : std::pow(0.3, stage);
    const double rb = (stage == 0) ? 1.2 : std::pow(0.3, stage);
    const double a0 = (stage == 0) ? 0.05 : best_a;
    const double b0 = (stage == 0) ? 0.3 : best_b;
    for (int ia = -20; ia <= 20; ++ia) {
      const double a = (stage == 0)
                           ? a0 * std::pow(10.0, ia * ra / 20.0)
                           : a0 * (1.0 + ra * ia / 20.0);
      if (a <= 0.0) continue;
      for (int ib = -20; ib <= 20; ++ib) {
        const double b = (stage == 0) ? b0 + (ib + 20) * rb / 20.0
                                      : b0 * (1.0 + rb * ib / 20.0);
        if (b <= 0.05) continue;
        const double l = loss(a, b);
        if (l < best) {
          best = l;
          best_a = a;
          best_b = b;
        }
      }
    }
  }
  return {best_a, best_b};
}

}  // namespace

std::pair<double, double> fit_ab(double spread, double min_dist) {
  ARAMS_CHECK(spread > 0.0, "spread must be positive");
  ARAMS_CHECK(min_dist >= 0.0 && min_dist < 3.0 * spread,
              "min_dist out of range");
  // The grid search costs tens of milliseconds and every umap_embed and
  // umap_transform asks for the same pair, so each thread keeps its last
  // result. spread = 0 never passes the checks, so the empty entry never
  // matches.
  struct Entry {
    double spread = 0.0;
    double min_dist = 0.0;
    std::pair<double, double> ab;
  };
  thread_local Entry last;
  if (last.spread != spread || last.min_dist != min_dist) {
    last = {spread, min_dist, fit_ab_grid(spread, min_dist)};
  }
  return last.ab;
}

namespace {

/// PCA initialization (the documented deviation from spectral init). An
/// input with fewer columns than n_components has no such projection and
/// starts uniform in the same [-10, 10] box instead.
Matrix initialize_embedding(const Matrix& points, const UmapConfig& config,
                            Rng& rng) {
  const std::size_t n = points.rows();
  Matrix y(n, config.n_components);
  if (points.cols() >= config.n_components) {
    // Center, project on top components, rescale to [-10, 10].
    Matrix centered = points;
    std::vector<double> mean(points.cols(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(1.0, points.row(i), mean);
    }
    linalg::scale(mean, 1.0 / static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      linalg::axpy(-1.0, mean, centered.row(i));
    }
    const PcaProjector pca(centered, config.n_components);
    y = pca.project(centered);
    double mx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const double v : y.row(i)) mx = std::max(mx, std::abs(v));
    }
    if (mx > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        linalg::scale(y.row(i), 10.0 / mx);
      }
    }
    // Tiny jitter breaks exact ties so SGD does not divide by zero.
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : y.row(i)) v += 1e-4 * rng.normal();
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : y.row(i)) v = rng.uniform(-10.0, 10.0);
    }
  }
  return y;
}

double clip4(double v) { return std::clamp(v, -4.0, 4.0); }

/// One chunk of the owned-chunk layout: a contiguous run of the
/// (u, v)-sorted edge list, cut at a change of head u, whose heads all fall
/// in the rows [lo, hi) it owns. It is the only one that writes those rows,
/// in place; every other row it reads from the snapshot taken at the start
/// of the wave, and its moves of tails it does not own go into a private
/// delta (rows [hi, n), since v > u ≥ lo).
struct LayoutChunk {
  std::size_t e0 = 0, e1 = 0;  ///< edge range [e0, e1)
  std::size_t lo = 0, hi = 0;  ///< owned rows [lo, hi)
  Matrix delta;                ///< tail moves for rows hi + i
  /// Delta rows written this wave, filed by the chunk that owns the row.
  /// Each list is reserved to its owner's row count, so filing never
  /// allocates.
  std::array<std::vector<std::size_t>, kChunks> moved;
  std::vector<std::uint8_t> marked;  ///< per delta row: filed in `moved`
  Rng rng;                     ///< this epoch's negative-sample stream

  /// Tail v's move target (v > u >= lo): y itself when this chunk owns
  /// v, else its delta row, filed under v's owner on first use.
  std::span<double> tail(Matrix& y, const std::vector<std::uint8_t>& owner,
                         std::size_t v) {
    if (v < hi) return y.row(v);
    const std::size_t r = v - hi;
    if (marked[r] == 0) {
      marked[r] = 1;
      moved[owner[v]].push_back(r);
    }
    return delta.row(r);
  }
};

/// Cuts the edge list into kChunks chunks of about m / kChunks edges, each
/// cut moved forward to the next change of head u (some may be empty), and
/// sets owner[r] to the chunk whose rows [lo, hi) hold row r.
std::vector<LayoutChunk> cut_chunks(const FuzzyGraph& graph, std::size_t dim,
                                    std::vector<std::uint8_t>& owner) {
  static_assert(kChunks <= 256, "owner entries are bytes");
  const auto& edges = graph.edges;
  const std::size_t m = edges.size();
  std::vector<LayoutChunk> chunks(kChunks);
  for (std::size_t c = 1; c < kChunks; ++c) {
    std::size_t e = std::max(m * c / kChunks, chunks[c - 1].e0);
    while (e > 0 && e < m && edges[e].u == edges[e - 1].u) ++e;
    chunks[c].e0 = e;
    chunks[c].lo = (e < m) ? edges[e].u : graph.n;
  }
  owner.resize(graph.n);
  for (std::size_t c = 0; c < kChunks; ++c) {
    LayoutChunk& ch = chunks[c];
    const bool last = c + 1 == kChunks;
    ch.e1 = last ? m : chunks[c + 1].e0;
    ch.hi = last ? graph.n : chunks[c + 1].lo;
    ch.delta = Matrix(graph.n - ch.hi, dim);
    ch.marked.assign(graph.n - ch.hi, 0);
    std::fill(owner.begin() + static_cast<std::ptrdiff_t>(ch.lo),
              owner.begin() + static_cast<std::ptrdiff_t>(ch.hi),
              static_cast<std::uint8_t>(c));
    for (std::size_t p = 0; p < c; ++p) {
      chunks[p].moved[c].reserve(ch.hi - ch.lo);
    }
  }
  return chunks;
}

/// Negative-sampling SGD on the fuzzy graph's cross-entropy, as owned
/// chunks. Each epoch runs in kWaves waves, and each wave in two phases,
/// each one parallel_for over kChunks items: first every chunk moves the
/// w-th slice of its edges with the reference per-edge rule, then every
/// chunk folds the rows it owns (the other chunks' deltas, in chunk order)
/// and refreshes them in the snapshot. Within a phase no item reads a row
/// another item writes, so the result does not depend on who runs them.
class Layout {
 public:
  Layout(Matrix& y, const FuzzyGraph& graph, double a, double b)
      : y_(y), snap_(y), graph_(graph), a_(a), b_(b),
        chunks_(cut_chunks(graph, y.cols(), owner_)) {
    const std::size_t m = graph.edges.size();
    double w_max = 0.0;
    for (const auto& e : graph.edges) w_max = std::max(w_max, e.weight);
    epochs_per_sample_.resize(m);
    epochs_per_negative_.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
      epochs_per_sample_[e] = w_max / graph.edges[e].weight;
      epochs_per_negative_[e] = epochs_per_sample_[e] / kNegativeSamples;
    }
    epoch_of_next_ = epochs_per_sample_;
    epoch_of_next_negative_ = epochs_per_negative_;
  }

  void run(int n_epochs, const Rng& rng) {
    parallel::ThreadPool* pool = graph_.edges.size() >= kPoolMinEdges
                                     ? &parallel::shared_pool()
                                     : nullptr;
    const auto phase = [pool](const auto& item) {
      if (pool != nullptr) {
        pool->parallel_for(kChunks, item);
        return;
      }
      for (std::size_t c = 0; c < kChunks; ++c) item(c);
    };
    for (int epoch = 1; epoch <= n_epochs; ++epoch) {
      const double alpha =
          kLearningRate *
          (1.0 - static_cast<double>(epoch) / static_cast<double>(n_epochs));
      for (std::size_t c = 0; c < kChunks; ++c) {
        chunks_[c].rng =
            rng.split(static_cast<std::uint64_t>(epoch) * kChunks + c);
      }
      for (std::size_t wave = 0; wave < kWaves; ++wave) {
        phase([&](std::size_t c) {
          LayoutChunk& ch = chunks_[c];
          const std::size_t len = ch.e1 - ch.e0;
          move_edges(ch, ch.e0 + len * wave / kWaves,
                     ch.e0 + len * (wave + 1) / kWaves, epoch, alpha);
        });
        phase([&](std::size_t b) { fold(b); });
      }
    }
  }

 private:
  /// The serial loop's visit of edges [e_begin, e_end) that are due:
  /// attraction along the edge, then the head's negative samples, each
  /// acting on the head as the previous one left it.
  void move_edges(LayoutChunk& ch, std::size_t e_begin, std::size_t e_end,
                  int epoch, double alpha) {
    const std::size_t n = y_.rows();
    const std::size_t dim = y_.cols();
    const auto read = [&](std::size_t r) {
      return (r >= ch.lo && r < ch.hi) ? std::span<const double>(y_.row(r))
                                       : snap_.row(r);
    };
    Rng rng = ch.rng;  // a local copy: the chunks' streams share cache lines
    for (std::size_t e = e_begin; e < e_end; ++e) {
      if (epoch_of_next_[e] > epoch) continue;
      const auto& edge = graph_.edges[e];
      auto yu = y_.row(edge.u);
      const auto yv = read(edge.v);
      auto dv = ch.tail(y_, owner_, edge.v);

      // Attractive move along the edge.
      double d2 = 0.0;
      for (std::size_t c = 0; c < dim; ++c) {
        const double diff = yu[c] - yv[c];
        d2 += diff * diff;
      }
      if (d2 > 0.0) {
        const double coeff = (-2.0 * a_ * b_ * std::pow(d2, b_ - 1.0)) /
                             (1.0 + a_ * std::pow(d2, b_));
        for (std::size_t c = 0; c < dim; ++c) {
          const double g = clip4(coeff * (yu[c] - yv[c]));
          yu[c] += alpha * g;
          dv[c] -= alpha * g;
        }
      }
      epoch_of_next_[e] += epochs_per_sample_[e];

      // Negative (repulsive) samples for the head vertex.
      const int n_neg = static_cast<int>(
          (epoch - epoch_of_next_negative_[e]) / epochs_per_negative_[e]) + 1;
      for (int s = 0; s < n_neg; ++s) {
        const std::size_t r = rng.uniform_index(n);
        if (r == edge.u || r == edge.v) continue;
        const auto yr = read(r);
        double rd2 = 0.0;
        for (std::size_t c = 0; c < dim; ++c) {
          const double diff = yu[c] - yr[c];
          rd2 += diff * diff;
        }
        double coeff = 0.0;
        if (rd2 > 0.0) {
          coeff = (2.0 * kRepulsionStrength * b_) /
                  ((0.001 + rd2) * (1.0 + a_ * std::pow(rd2, b_)));
        }
        for (std::size_t c = 0; c < dim; ++c) {
          const double g =
              (coeff > 0.0) ? clip4(coeff * (yu[c] - yr[c])) : 4.0;
          yu[c] += alpha * g;
        }
      }
      epoch_of_next_negative_[e] +=
          epochs_per_negative_[e] * static_cast<double>(n_neg);
    }
    ch.rng = rng;
  }

  /// Fold item b: adds into the rows chunk b owns the delta rows the
  /// chunks before it moved there, chunks in order, then copies those rows
  /// into the snapshot. Only chunks c < b hold deltas for them, so every
  /// row gets its additions in chunk order whoever runs the item. A row a
  /// chunk did not move would only get +0.0 from it, which changes nothing:
  /// y never holds −0.0, because the init adds nonzero jitter (or draws
  /// lo + (hi − lo)·u) and an exactly zero IEEE sum rounds to +0.0.
  void fold(std::size_t b) {
    for (std::size_t c = 0; c < b; ++c) {
      LayoutChunk& ch = chunks_[c];
      for (const std::size_t r : ch.moved[b]) {
        const std::span<double> src = ch.delta.row(r);
        const std::span<double> dst = y_.row(ch.hi + r);
        for (std::size_t i = 0; i < src.size(); ++i) {
          dst[i] += src[i];
          src[i] = 0.0;
        }
        ch.marked[r] = 0;
      }
      ch.moved[b].clear();
    }
    const std::size_t dim = y_.cols();
    std::copy(y_.data() + chunks_[b].lo * dim, y_.data() + chunks_[b].hi * dim,
              snap_.data() + chunks_[b].lo * dim);
  }

  Matrix& y_;
  Matrix snap_;
  const FuzzyGraph& graph_;
  const double a_;
  const double b_;
  std::vector<std::uint8_t> owner_;  ///< row → the chunk that owns it
  std::vector<LayoutChunk> chunks_;
  std::vector<double> epochs_per_sample_;
  std::vector<double> epoch_of_next_;
  std::vector<double> epochs_per_negative_;
  std::vector<double> epoch_of_next_negative_;
};

}  // namespace

Matrix umap_embed_graph(const Matrix& points, const KnnGraph& graph,
                        const UmapConfig& config) {
  ARAMS_CHECK(points.rows() == graph.n, "graph does not match points");
  ARAMS_CHECK(config.n_components >= 1, "need at least one component");
  Rng rng(config.seed);

  const SmoothKnn smooth = smooth_knn_distances(graph);
  const FuzzyGraph fuzzy = fuzzy_simplicial_set(graph, smooth);
  const auto [a, b] = fit_ab(config.spread, config.min_dist);

  Matrix y = initialize_embedding(points, config, rng);
  Layout(y, fuzzy, a, b).run(config.n_epochs, rng);
  return y;
}

namespace {

/// Places one new point given its k nearest reference neighbours (indices
/// `nbr`, ascending Euclidean distances `ndist` — one row of the searcher's
/// query_batch output): weighted-average init from the k nearest, then a
/// short attract-only refinement driven by the point's own RNG stream (so
/// every point is independent and the loop can fan across the pool).
void place_new_point(std::span<const std::size_t> nbr,
                     std::span<const double> ndist,
                     const Matrix& reference_embedding,
                     const UmapConfig& config, double a, double b,
                     const Rng& base_rng, std::size_t point_index,
                     std::span<double> yi) {
  const std::size_t k = nbr.size();
  const std::size_t dim = yi.size();
  thread_local std::vector<double> w;

  // Membership weights from the same smooth-kNN kernel.
  const double rho = ndist[0];
  double sigma = std::max(ndist[k - 1] - rho, 1e-3 * (rho + 1e-12));
  if (sigma <= 0.0) sigma = 1.0;
  w.resize(k);
  double wsum = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double d = ndist[j] - rho;
    w[j] = (d <= 0.0) ? 1.0 : std::exp(-d / sigma);
    wsum += w[j];
  }

  // Init: weighted average of neighbour embeddings.
  for (std::size_t c = 0; c < dim; ++c) yi[c] = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto ref = reference_embedding.row(nbr[j]);
    for (std::size_t c = 0; c < dim; ++c) {
      yi[c] += (w[j] / wsum) * ref[c];
    }
  }

  // Short attract-only refinement toward the neighbours (the reference
  // embedding is frozen; repulsion would need global context).
  Rng rng = base_rng.split(point_index);
  const int epochs = std::max(config.n_epochs / 6, 10);
  for (int epoch = 1; epoch <= epochs; ++epoch) {
    const double alpha = kLearningRate * 0.5 *
                         (1.0 - static_cast<double>(epoch) / epochs);
    const std::size_t j = rng.uniform_index(k);
    const auto ref = reference_embedding.row(nbr[j]);
    double d2 = 0.0;
    for (std::size_t c = 0; c < dim; ++c) {
      const double diff = yi[c] - ref[c];
      d2 += diff * diff;
    }
    if (d2 <= 0.0) continue;
    const double coeff = (-2.0 * a * b * std::pow(d2, b - 1.0)) /
                         (1.0 + a * std::pow(d2, b));
    for (std::size_t c = 0; c < dim; ++c) {
      yi[c] += alpha * (w[j] / wsum) *
               clip4(coeff * (yi[c] - ref[c]));
    }
  }
}

}  // namespace

Matrix umap_transform(NeighborSearcher& reference_index,
                      const Matrix& reference_embedding,
                      const Matrix& new_points, const UmapConfig& config,
                      linalg::Workspace& ws, const DistanceOptions& opts) {
  const std::size_t n_ref = reference_index.size();
  ARAMS_CHECK(n_ref == reference_embedding.rows(),
              "reference index/embedding row mismatch");
  ARAMS_CHECK(new_points.cols() == reference_index.dim(),
              "new points have a different dimension");
  ARAMS_CHECK(n_ref > config.n_neighbors,
              "need more reference points than n_neighbors");
  const std::size_t n_new = new_points.rows();
  const std::size_t dim = reference_embedding.cols();
  const std::size_t k = config.n_neighbors;
  const Rng rng(config.seed ^ 0x77aa77ull);

  const auto [a, b] = fit_ab(config.spread, config.min_dist);
  Matrix y(n_new, dim);
  if (n_new == 0) return y;

  // One batch query resolves every new point's reference neighbourhood
  // (the exact backend streams row blocks through the prenormed engine —
  // the same blocked arithmetic this function used to inline).
  KnnGraph knn;
  reference_index.query_batch(new_points, k, ws, knn, opts);

  // Placement fans across the pool: each point owns a split RNG stream, so
  // the result is deterministic and independent of the banding.
  const auto place_band = [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      place_new_point(
          std::span<const std::size_t>(knn.neighbors).subspan(r * k, k),
          std::span<const double>(knn.distances).subspan(r * k, k),
          reference_embedding, config, a, b, rng, r, y.row(r));
    }
  };
  parallel::ThreadPool* pool = nullptr;
  if (opts.allow_parallel && n_new * n_ref >= (std::size_t{1} << 18)) {
    parallel::ThreadPool& shared = parallel::shared_pool();
    if (shared.thread_count() >= 2) pool = &shared;
  }
  parallel::for_bands(pool, n_new, place_band);
  return y;
}

Matrix umap_transform(const Matrix& reference_points,
                      const Matrix& reference_embedding,
                      const Matrix& new_points, const UmapConfig& config,
                      linalg::Workspace& ws, const DistanceOptions& opts) {
  // One-shot form: an exact index over the reference set (selection through
  // the searcher is lexicographically identical to the historical
  // partial_sort, so results are unchanged).
  const auto index = make_searcher("exact", config.seed);
  index->build(reference_points, ws, opts);
  return umap_transform(*index, reference_embedding, new_points, config, ws,
                        opts);
}

Matrix umap_transform(const Matrix& reference_points,
                      const Matrix& reference_embedding,
                      const Matrix& new_points, const UmapConfig& config) {
  linalg::Workspace ws;
  return umap_transform(reference_points, reference_embedding, new_points,
                        config, ws);
}

/// The effective searcher config for an embedding run: `seed` flows into
/// the searcher stream.
AnnConfig umap_knn_config(const UmapConfig& config) {
  AnnConfig ann = config.knn;
  ann.seed = config.seed ^ 0xabcdefull;
  return ann;
}

Matrix umap_embed(const Matrix& points, const UmapConfig& config,
                  linalg::Workspace& ws, const DistanceOptions& opts) {
  ARAMS_CHECK(points.rows() > config.n_neighbors,
              "need more points than n_neighbors");
  const auto searcher = make_searcher(umap_knn_config(config));
  searcher->build(points, ws, opts);
  KnnGraph graph;
  searcher->query_graph(config.n_neighbors, ws, graph, opts);
  return umap_embed_graph(points, graph, config);
}

Matrix umap_embed(const Matrix& points, const UmapConfig& config) {
  linalg::Workspace ws;
  return umap_embed(points, config, ws);
}

}  // namespace arams::embed
