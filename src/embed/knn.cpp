#include "embed/knn.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "linalg/blas.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::embed {

using linalg::Matrix;
using linalg::MatrixView;

namespace {

obs::Histogram& knn_seconds() {
  static obs::Histogram& h = obs::metrics().histogram("embed.knn_seconds");
  return h;
}

/// Bounded neighbour list used by NN-descent: a flat array of
/// (distance, index, is_new) keeping the k smallest distances seen.
///
/// The worst entry (index + distance) is cached: a non-improving candidate
/// is rejected in O(1) against the cached distance before the O(k)
/// duplicate scan runs, and the cache is refreshed only on a successful
/// replacement — so a join step over c candidates costs O(c + hits·k)
/// instead of the former O(c·k) with a redundant re-scan in worst().
struct NeighborList {
  struct Item {
    double dist = std::numeric_limits<double>::infinity();
    std::size_t index = static_cast<std::size_t>(-1);
    bool is_new = false;
  };
  std::vector<Item> items;
  std::size_t worst_at = 0;
  double worst_dist = std::numeric_limits<double>::infinity();

  explicit NeighborList(std::size_t k) : items(k) {}

  [[nodiscard]] double worst() const { return worst_dist; }

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

  /// Inserts (dist, idx) if it improves the list; returns true on change.
  bool try_insert(double dist, std::size_t idx) {
    if (dist >= worst_dist) return false;  // cannot improve the list
    for (const auto& it : items) {
      if (it.index == idx) return false;  // already present
    }
    items[worst_at] = Item{dist, idx, true};
    refresh_worst();
    return true;
  }
};

/// Per-row k-smallest selection scratch. One per worker thread (grow-only),
/// so the parallel selection path stays allocation-free at steady state.
std::vector<std::pair<double, std::size_t>>& selection_scratch() {
  thread_local std::vector<std::pair<double, std::size_t>> buf;
  return buf;
}

/// Selects the k nearest of the n candidate distances `value(j)` (squared),
/// excluding `self`, into the graph slots of point `i` (see select_k).
template <typename ValueFn>
void select_row(std::size_t n, std::size_t self, std::size_t k,
                std::size_t i, KnnGraph& g, ValueFn value) {
  auto& best = selection_scratch();
  select_k(n, self, k, best, value);
  for (std::size_t j = 0; j < k; ++j) {
    g.neighbors[i * k + j] = best[j].second;
    g.distances[i * k + j] = std::sqrt(best[j].first);
  }
}

// Selection fans out across the pool once a block holds this many distance
// entries (the same order of work as the engine's fix-up threshold).
constexpr std::size_t kSelectParallelThreshold = std::size_t{1} << 18;

// The per-point graph loops fan out from this many units of work.
constexpr std::size_t kGraphLoopParallelWork = std::size_t{1} << 14;

}  // namespace

parallel::ThreadPool* graph_loop_pool(bool allow_parallel, std::size_t work) {
  if (!allow_parallel || work < kGraphLoopParallelWork) return nullptr;
  parallel::ThreadPool& pool = parallel::shared_pool();
  if (pool.thread_count() < 2 || pool.on_worker_thread()) return nullptr;
  return &pool;
}

namespace {

/// Shared k-vs-n validation for the self-excluding graph builders. A point
/// set of n rows has only n−1 candidate neighbours per point, so k ≥ n can
/// never be satisfied — reject loudly (with the offending values) instead
/// of silently producing a graph padded with sentinel indices.
void check_graph_args(std::size_t n, std::size_t k) {
  ARAMS_CHECK(n >= 2, "kNN graph needs at least two points (got n=" +
                          std::to_string(n) +
                          "); a single point has no neighbours");
  ARAMS_CHECK(k >= 1 && k < n,
              "kNN graph needs 1 <= k < n (got k=" + std::to_string(k) +
                  ", n=" + std::to_string(n) + ")");
}

}  // namespace

void exact_knn(const Matrix& points, std::size_t k, linalg::Workspace& ws,
               KnnGraph& g, const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  check_graph_args(n, k);
  Stopwatch timer;

  g.n = n;
  g.k = k;
  g.neighbors.resize(n * k);
  g.distances.resize(n * k);

  const auto norms = ws.vec(linalg::wslot::kDistYNorms, n);
  if (opts.use_gemm) row_sq_norms(points, norms);

  // Block of query rows per distance block: big enough that the GEMM core
  // reaches its packed fast path, small enough that the whole block stays
  // cache-resident until the selection pass consumes it (at n=4096 a
  // 128-row block is 4 MB; measured fastest end-to-end against
  // 32/64/256/512-row alternatives on the Section VI-B shapes).
  constexpr std::size_t kBlock = 128;
  Matrix& d = ws.mat(linalg::wslot::kDistBlock, std::min(kBlock, n), n);

  for (std::size_t b0 = 0; b0 < n; b0 += kBlock) {
    const std::size_t rows = std::min(kBlock, n - b0);
    const MatrixView queries = MatrixView::rows_of(points, b0, b0 + rows);
    if (opts.use_gemm) {
      // Gram-only block: the ‖q‖² + ‖p‖² − 2g fix-up is fused into the
      // selection scan below, so each block is traversed exactly once
      // (the fix-up expression matches pairwise_sq_dists_prenormed's, so
      // selected distances are identical to the unfused engine path).
      pairwise_gram(queries, points, d);
    } else {
      pairwise_sq_dists_prenormed(queries, points, norms.subspan(b0, rows),
                                  norms, ws, d, opts);
    }

    const auto select_band = [&](std::size_t r0, std::size_t r1) {
      for (std::size_t r = r0; r < r1; ++r) {
        const std::size_t self = b0 + r;
        const double* row = d.row(r).data();
        if (opts.use_gemm) {
          const double qn = norms[self];
          select_row(n, self, k, self, g, [&](std::size_t j) {
            return gram_sq_dist(qn, norms[j], row[j]);
          });
        } else {
          select_row(n, self, k, self, g,
                     [&](std::size_t j) { return row[j]; });
        }
      }
    };
    parallel::ThreadPool* pool = nullptr;
    if (opts.allow_parallel && rows * n >= kSelectParallelThreshold) {
      parallel::ThreadPool& shared = parallel::shared_pool();
      if (shared.thread_count() >= 2) pool = &shared;
    }
    parallel::for_bands(pool, rows, select_band);
  }
  knn_seconds().observe(timer.seconds());
}

KnnGraph exact_knn(const Matrix& points, std::size_t k) {
  linalg::Workspace ws;
  KnnGraph g;
  exact_knn(points, k, ws, g);
  return g;
}

namespace {

/// One try_insert call of the serial join that the scoring pass keeps:
/// (d2, j) offered to list `target`. Indices fit 32 bits (checked in
/// nn_descent_refine), which keeps a kept call at 16 bytes.
struct JoinCall {
  std::uint32_t target;
  std::uint32_t j;
  double d2;
};

/// One band of anchors in a pass's scoring: its candidate scratch, and the
/// calls it keeps in the serial join's order, bucketed by the replay band
/// their target falls in.
struct JoinBand {
  std::vector<std::size_t> new_c, old_c, union_idx;
  Matrix gathered, gram;
  std::vector<std::vector<JoinCall>> calls;  ///< per replay band
};

/// The lists as a pass starts, flat: per list its worst and its k
/// (index, d²) members. A call try_insert(d2, j) is rejected wherever it
/// falls in the pass, with no side effect, if d2 is not below the list's
/// worst at the start, since the worst only falls during a pass, or if j
/// was a member at a distance d2 does not beat: while j stays the call is
/// a duplicate, and an evicted j was the worst when it went, so it left a
/// worst no larger than its own distance.
struct PassStart {
  explicit PassStart(std::size_t list_size) : k(list_size) {}

  std::size_t k;
  std::vector<double> worst;
  std::vector<std::uint32_t> index;
  std::vector<double> dist;

  void capture(const std::vector<NeighborList>& lists) {
    const std::size_t n = lists.size();
    worst.resize(n);
    index.resize(n * k);
    dist.resize(n * k);
    for (std::size_t t = 0; t < n; ++t) {
      worst[t] = lists[t].worst();
      for (std::size_t s = 0; s < k; ++s) {
        const NeighborList::Item& it = lists[t].items[s];
        index[t * k + s] = static_cast<std::uint32_t>(it.index);
        dist[t * k + s] = it.dist;
      }
    }
  }

  /// False when the call is rejected wherever it falls (see above).
  [[nodiscard]] bool can_change(std::size_t target, std::size_t j,
                                double d2) const {
    if (d2 >= worst[target]) return false;
    const std::uint32_t* idx = index.data() + target * k;
    for (std::size_t s = 0; s < k; ++s) {
      if (idx[s] == j) return d2 < dist[target * k + s];
    }
    return true;
  }
};

/// The NN-descent local-join iterations (Dong et al. 2011) behind
/// nn_descent_refine. Distances in `lists` are squared Euclidean.
///
/// A list's state depends only on the sequence of try_insert calls it
/// receives, and a rejected call leaves no trace. Each pass therefore
/// scores its joins in bands of anchor points, keeping only the calls
/// PassStart::can_change admits, each in a bucket for the band of lists
/// its target falls in. A replay band then replays its buckets through
/// try_insert, anchor bands in order and each bucket in order, so every
/// list receives its kept calls in the serial loop's order; calls to
/// different lists may interleave, which changes nothing. The lists, their
/// is_new flags and the update count equal the serial loop's.
void descent_iterations(const Matrix& points, std::vector<NeighborList>& lists,
                        std::size_t k, Rng& rng, int iters, double sample_rate,
                        const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  // Candidate Gram scoring: the union of a join's candidates is gathered
  // into a contiguous block and its Gram matrix computed once through the
  // tiled kernel; each pair's distance is then the rank-1 combination
  // G(a,a) + G(b,b) − 2·G(a,b). Unions smaller than this stay on the
  // scalar path (the Gram's extra old–old entries would not amortize).
  constexpr std::size_t kGramCutoff = 8;
  parallel::ThreadPool* pool = graph_loop_pool(opts.allow_parallel, n * k);
  const std::size_t bands =
      pool == nullptr ? 1 : std::min(n, pool->thread_count() * 4);
  std::vector<JoinBand> band(bands);
  for (JoinBand& jb : band) jb.calls.resize(bands);
  const auto run_bands = [&](const auto& fn) {
    if (pool == nullptr) {
      fn(std::size_t{0});
    } else {
      pool->parallel_for(bands, fn);
    }
  };

  std::vector<std::vector<std::size_t>> fwd_new(n), fwd_old(n), rev_new(n),
      rev_old(n);
  PassStart pass_start(k);
  std::vector<long> band_updates(bands);
  for (int iter = 0; iter < iters; ++iter) {
    for (auto& v : fwd_new) v.clear();
    for (auto& v : fwd_old) v.clear();
    for (auto& v : rev_new) v.clear();
    for (auto& v : rev_old) v.clear();

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

    // 1. Score every anchor's joins; keep the calls that can change a list.
    pass_start.capture(lists);
    run_bands([&](std::size_t bi) {
      JoinBand& jb = band[bi];
      for (std::vector<JoinCall>& bucket : jb.calls) bucket.clear();
      const auto offer = [&](std::size_t target, std::size_t j, double d2) {
        if (!pass_start.can_change(target, j, d2)) return;
        jb.calls[target * bands / n].push_back(
            {static_cast<std::uint32_t>(target), static_cast<std::uint32_t>(j),
             d2});
      };
      std::vector<std::size_t>& new_c = jb.new_c;
      std::vector<std::size_t>& old_c = jb.old_c;
      const Matrix& gram = jb.gram;
      for (std::size_t i = n * bi / bands; i < n * (bi + 1) / bands; ++i) {
        new_c = fwd_new[i];
        new_c.insert(new_c.end(), rev_new[i].begin(), rev_new[i].end());
        old_c = fwd_old[i];
        old_c.insert(old_c.end(), rev_old[i].begin(), rev_old[i].end());
        if (new_c.empty()) continue;

        const std::size_t u = new_c.size() + old_c.size();
        const bool use_gram = opts.use_gemm && u >= kGramCutoff;
        if (use_gram) {
          jb.union_idx.assign(new_c.begin(), new_c.end());
          jb.union_idx.insert(jb.union_idx.end(), old_c.begin(), old_c.end());
          gather_rows(points, jb.union_idx, jb.gathered);
          linalg::gram_rows(jb.gathered, jb.gram);
        }
        // Candidate (a, b) positions within the union: new entries first,
        // old entries after, matching union_idx.
        const auto pair_dist = [&](std::size_t pa, std::size_t pb,
                                   std::size_t a, std::size_t b) {
          if (use_gram) {
            return gram_sq_dist(gram(pa, pa), gram(pb, pb), gram(pa, pb));
          }
          return sq_dist(points.row(a), points.row(b));
        };

        // new-new pairs and new-old pairs share an anchor at i; each pair
        // is a candidate edge, offered to both lists.
        for (std::size_t a = 0; a < new_c.size(); ++a) {
          const std::size_t pu = new_c[a];
          for (std::size_t b = a + 1; b < new_c.size(); ++b) {
            const std::size_t pv = new_c[b];
            if (pu == pv) continue;
            const double dd = pair_dist(a, b, pu, pv);
            offer(pu, pv, dd);
            offer(pv, pu, dd);
          }
          for (std::size_t b = 0; b < old_c.size(); ++b) {
            const std::size_t pv = old_c[b];
            if (pu == pv) continue;
            const double dd = pair_dist(a, new_c.size() + b, pu, pv);
            offer(pu, pv, dd);
            offer(pv, pu, dd);
          }
        }
      }
    });

    // 2. Replay: each replay band takes its buckets in anchor-band order.
    run_bands([&](std::size_t ri) {
      long hits = 0;
      for (const JoinBand& jb : band) {
        for (const JoinCall& call : jb.calls[ri]) {
          hits += lists[call.target].try_insert(call.d2, call.j) ? 1 : 0;
        }
      }
      band_updates[ri] = hits;
    });
    long updates = 0;
    for (const long hits : band_updates) updates += hits;
    if (updates <= static_cast<long>(0.001 * static_cast<double>(n * k))) {
      break;  // converged early
    }
  }
}

/// Writes the (squared-distance) neighbour lists into `g`, sorted ascending
/// with Euclidean distances.
void lists_to_graph(const std::vector<NeighborList>& lists, std::size_t k,
                    KnnGraph& g) {
  const std::size_t n = lists.size();
  g.n = n;
  g.k = k;
  g.neighbors.resize(n * k);
  g.distances.resize(n * k);
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

}  // namespace

void nn_descent_refine(const Matrix& points, Rng& rng, KnnGraph& g,
                       int iters, double sample_rate,
                       const DistanceOptions& opts) {
  const std::size_t n = points.rows();
  const std::size_t k = g.k;
  check_graph_args(n, k);
  ARAMS_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
              "nn_descent_refine: " + std::to_string(n) +
                  " points exceed 32-bit indices");
  ARAMS_CHECK(g.n == n, "nn_descent_refine: graph covers " +
                            std::to_string(g.n) + " points, expected " +
                            std::to_string(n));
  if (iters <= 0) return;
  Stopwatch timer;

  // Seed the bounded lists from the caller's graph (Euclidean distances →
  // the squared form the join arithmetic uses), every entry marked new so
  // the first pass joins the full seed neighbourhood.
  std::vector<NeighborList> lists(n, NeighborList(k));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t idx = g.neighbor(i, j);
      ARAMS_CHECK(idx < n && idx != i,
                  "nn_descent_refine: seed graph has invalid neighbour " +
                      std::to_string(idx) + " for point " + std::to_string(i));
      const double d = g.distance(i, j);
      lists[i].items[j] = NeighborList::Item{d * d, idx, true};
    }
    lists[i].refresh_worst();
  }

  descent_iterations(points, lists, k, rng, iters, sample_rate, opts);
  lists_to_graph(lists, k, g);
  knn_seconds().observe(timer.seconds());
}

double knn_recall(const KnnGraph& approx, const KnnGraph& exact) {
  ARAMS_CHECK(approx.n == exact.n && approx.k == exact.k,
              "graphs not comparable");
  long hits = 0;
  for (std::size_t i = 0; i < exact.n; ++i) {
    for (std::size_t j = 0; j < exact.k; ++j) {
      const std::size_t target = exact.neighbor(i, j);
      for (std::size_t l = 0; l < approx.k; ++l) {
        if (approx.neighbor(i, l) == target) {
          ++hits;
          break;
        }
      }
    }
  }
  return static_cast<double>(hits) /
         static_cast<double>(exact.n * exact.k);
}

}  // namespace arams::embed
