#pragma once
// The single-threaded rpforest graph path, kept as the bit-for-bit oracle
// for the library's pooled one: trees built one after another, leaf
// co-membership seeding pair by pair, and the NN-descent local join that
// calls try_insert as it scores each pair. The library builds the trees
// concurrently, replays each seed row's insertion sequence, and scores the
// join in parallel before replaying the calls that can change a list; its
// graph must equal this one's, neighbour indices and distance bits.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "embed/ann/searcher.hpp"
#include "embed/distance.hpp"
#include "embed/knn.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "rng/rng.hpp"

namespace arams::test {

/// Leaves of one serially built tree over `arr[lo, hi)`, in creation order
/// (left subtree first), with the library's split rule and rng draws.
inline void serial_fill_subtree(const linalg::Matrix& points,
                                std::size_t leaf_size,
                                std::vector<std::size_t>& arr, std::size_t lo,
                                std::size_t hi, Rng& rng,
                                std::vector<std::vector<std::size_t>>& leaves) {
  const std::size_t m = hi - lo;
  const std::size_t d = points.cols();
  const auto make_leaf = [&] {
    leaves.emplace_back(arr.begin() + static_cast<std::ptrdiff_t>(lo),
                        arr.begin() + static_cast<std::ptrdiff_t>(hi));
  };
  if (m <= leaf_size) {
    make_leaf();
    return;
  }
  std::vector<double> dir(d);
  double norm2 = 0.0;
  for (int attempt = 0; attempt < 4 && norm2 == 0.0; ++attempt) {
    const std::size_t ia = rng.uniform_index(m);
    std::size_t ib = rng.uniform_index(m - 1);
    if (ib >= ia) ++ib;
    const auto pa = points.row(arr[lo + ia]);
    const auto pb = points.row(arr[lo + ib]);
    norm2 = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      dir[j] = pa[j] - pb[j];
      norm2 += dir[j] * dir[j];
    }
  }
  if (norm2 == 0.0) {
    make_leaf();
    return;
  }
  linalg::Matrix gathered;
  embed::gather_rows(points, std::span<const std::size_t>(arr).subspan(lo, m),
                     gathered);
  linalg::Matrix proj;
  linalg::matmul_nt(gathered, linalg::MatrixView(dir.data(), 1, d), proj);
  std::vector<std::pair<double, std::size_t>> pairs(m);
  for (std::size_t j = 0; j < m; ++j) pairs[j] = {proj(j, 0), arr[lo + j]};
  const std::size_t mid = m / 2;
  std::nth_element(pairs.begin(),
                   pairs.begin() + static_cast<std::ptrdiff_t>(mid),
                   pairs.end());
  for (std::size_t j = 0; j < m; ++j) arr[lo + j] = pairs[j].second;
  serial_fill_subtree(points, leaf_size, arr, lo, lo + mid, rng, leaves);
  serial_fill_subtree(points, leaf_size, arr, lo + mid, hi, rng, leaves);
}

/// Bounded sorted insert of (i → j, d2) into row i of the seed arrays.
inline void serial_seed_insert(std::vector<double>& seed_d2,
                               std::vector<std::size_t>& seed_idx,
                               std::size_t i, std::size_t k, double d2,
                               std::size_t j) {
  double* drow = seed_d2.data() + i * k;
  std::size_t* irow = seed_idx.data() + i * k;
  if (d2 >= drow[k - 1]) return;
  for (std::size_t t = 0; t < k; ++t) {
    if (irow[t] == j) return;
  }
  std::size_t pos = k - 1;
  while (pos > 0 && drow[pos - 1] > d2) {
    drow[pos] = drow[pos - 1];
    irow[pos] = irow[pos - 1];
    --pos;
  }
  drow[pos] = d2;
  irow[pos] = j;
}

/// The serial NN-descent join: a bounded list per point, each candidate
/// pair offered to both lists the moment it is scored.
inline void serial_nn_descent(const linalg::Matrix& points, Rng& rng,
                              embed::KnnGraph& g, int iters,
                              double sample_rate,
                              const embed::DistanceOptions& opts) {
  struct Item {
    double dist = std::numeric_limits<double>::infinity();
    std::size_t index = static_cast<std::size_t>(-1);
    bool is_new = false;
  };
  struct List {
    std::vector<Item> items;
    std::size_t worst_at = 0;
    double worst_dist = std::numeric_limits<double>::infinity();
    void refresh_worst() {
      worst_at = 0;
      worst_dist = -1.0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (items[i].dist > worst_dist) {
          worst_dist = items[i].dist;
          worst_at = i;
        }
      }
    }
    bool try_insert(double dist, std::size_t idx) {
      if (dist >= worst_dist) return false;
      for (const auto& it : items) {
        if (it.index == idx) return false;
      }
      items[worst_at] = Item{dist, idx, true};
      refresh_worst();
      return true;
    }
  };
  const std::size_t n = points.rows();
  const std::size_t k = g.k;
  if (iters <= 0) return;
  std::vector<List> lists(n);
  for (std::size_t i = 0; i < n; ++i) {
    lists[i].items.resize(k);
    for (std::size_t j = 0; j < k; ++j) {
      const double d = g.distance(i, j);
      lists[i].items[j] = Item{d * d, g.neighbor(i, j), true};
    }
    lists[i].refresh_worst();
  }

  constexpr std::size_t kGramCutoff = 8;
  linalg::Matrix gathered, gram;
  std::vector<std::vector<std::size_t>> fwd_new(n), fwd_old(n), rev_new(n),
      rev_old(n);
  std::vector<std::size_t> union_idx, new_c, old_c;
  for (int iter = 0; iter < iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      fwd_new[i].clear();
      fwd_old[i].clear();
      rev_new[i].clear();
      rev_old[i].clear();
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& it : lists[i].items) {
        if (it.index == static_cast<std::size_t>(-1)) continue;
        if (it.is_new) {
          if (sample_rate >= 1.0 || rng.uniform() < sample_rate) {
            fwd_new[i].push_back(it.index);
            rev_new[it.index].push_back(i);
            it.is_new = false;
          }
        } else {
          fwd_old[i].push_back(it.index);
          rev_old[it.index].push_back(i);
        }
      }
    }
    long updates = 0;
    for (std::size_t i = 0; i < n; ++i) {
      new_c = fwd_new[i];
      new_c.insert(new_c.end(), rev_new[i].begin(), rev_new[i].end());
      old_c = fwd_old[i];
      old_c.insert(old_c.end(), rev_old[i].begin(), rev_old[i].end());
      if (new_c.empty()) continue;
      const bool use_gram =
          opts.use_gemm && new_c.size() + old_c.size() >= kGramCutoff;
      if (use_gram) {
        union_idx.assign(new_c.begin(), new_c.end());
        union_idx.insert(union_idx.end(), old_c.begin(), old_c.end());
        embed::gather_rows(points, union_idx, gathered);
        linalg::gram_rows(gathered, gram);
      }
      const auto pair_dist = [&](std::size_t pa, std::size_t pb, std::size_t a,
                                 std::size_t b) {
        if (use_gram) {
          return embed::gram_sq_dist(gram(pa, pa), gram(pb, pb), gram(pa, pb));
        }
        return embed::sq_dist(points.row(a), points.row(b));
      };
      for (std::size_t a = 0; a < new_c.size(); ++a) {
        const std::size_t pu = new_c[a];
        for (std::size_t b = a + 1; b < new_c.size(); ++b) {
          const std::size_t pv = new_c[b];
          if (pu == pv) continue;
          const double dd = pair_dist(a, b, pu, pv);
          updates += lists[pu].try_insert(dd, pv) ? 1 : 0;
          updates += lists[pv].try_insert(dd, pu) ? 1 : 0;
        }
        for (std::size_t b = 0; b < old_c.size(); ++b) {
          const std::size_t pv = old_c[b];
          if (pu == pv) continue;
          const double dd = pair_dist(a, new_c.size() + b, pu, pv);
          updates += lists[pu].try_insert(dd, pv) ? 1 : 0;
          updates += lists[pv].try_insert(dd, pu) ? 1 : 0;
        }
      }
    }
    if (updates <= static_cast<long>(0.001 * static_cast<double>(n * k))) {
      break;
    }
  }

  std::vector<std::pair<double, std::size_t>> sorted(k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      sorted[j] = {lists[i].items[j].dist, lists[i].items[j].index};
    }
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t j = 0; j < k; ++j) {
      g.neighbors[i * k + j] = sorted[j].second;
      g.distances[i * k + j] = std::sqrt(sorted[j].first);
    }
  }
}

/// The rpforest searcher's build() then query_graph(k), serially, for an
/// `config` whose backend resolves to rpforest.
inline embed::KnnGraph serial_forest_graph(const linalg::Matrix& points,
                                           const embed::AnnConfig& config,
                                           std::size_t k,
                                           const embed::DistanceOptions& opts) {
  const std::size_t n = points.rows();
  const Rng root(config.seed);
  std::vector<std::vector<std::vector<std::size_t>>> forest(config.num_trees);
  for (std::size_t t = 0; t < config.num_trees; ++t) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng = root.split(t + 1);
    serial_fill_subtree(points, config.leaf_size, order, 0, n, rng,
                        forest[t]);
  }

  constexpr std::size_t kGramCutoff = 8;
  constexpr auto kNoSelf = static_cast<std::size_t>(-1);
  std::vector<double> seed_d2(n * k, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> seed_idx(n * k, kNoSelf);
  linalg::Matrix gathered, gram;
  for (const auto& leaves : forest) {
    for (const std::vector<std::size_t>& members : leaves) {
      const std::size_t c = members.size();
      if (c < 2) continue;
      const bool use_gram = opts.use_gemm && c >= kGramCutoff;
      if (use_gram) {
        embed::gather_rows(points, members, gathered);
        linalg::gram_rows(gathered, gram);
      }
      for (std::size_t a = 0; a < c; ++a) {
        for (std::size_t b = a + 1; b < c; ++b) {
          const double d2 =
              use_gram ? std::max(0.0, gram(a, a) + gram(b, b) -
                                           2.0 * gram(a, b))
                       : embed::sq_dist(points.row(members[a]),
                                        points.row(members[b]));
          serial_seed_insert(seed_d2, seed_idx, members[a], k, d2,
                             members[b]);
          serial_seed_insert(seed_d2, seed_idx, members[b], k, d2,
                             members[a]);
        }
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t step = 1;
    while (seed_idx[i * k + k - 1] == kNoSelf) {
      const std::size_t j = (i + step) % n;
      ++step;
      if (j == i) continue;
      serial_seed_insert(seed_d2, seed_idx, i, k,
                         embed::sq_dist(points.row(i), points.row(j)), j);
    }
  }

  embed::KnnGraph g;
  g.n = n;
  g.k = k;
  g.neighbors = seed_idx;
  g.distances.resize(n * k);
  for (std::size_t s = 0; s < n * k; ++s) {
    g.distances[s] = std::sqrt(seed_d2[s]);
  }
  Rng refine_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  serial_nn_descent(points, refine_rng, g, config.refine_iters, 1.0, opts);
  return g;
}

}  // namespace arams::test
