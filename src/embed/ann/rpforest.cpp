// rpforest — randomized-projection-tree forest (Annoy-style hyperplane
// splits) with NN-descent refinement for the graph path.
//
// Index: num_trees independent trees over the stored points. Each internal
// node splits on the hyperplane normal to the difference of two randomly
// chosen member points, at the median projection (nth_element over
// (projection, index) pairs — the index tie-break makes the partition
// deterministic even with duplicate projections). Construction is blocked:
// a node gathers its members once and projects them with a single
// tall-skinny GEMM through the packed matmul_nt core, instead of n·depth
// scalar dot products.
//
// Queries: best-first traversal over all trees with a shared max-heap keyed
// by hyperplane margin (the near child inherits the parent's bound, the far
// child is bounded by |margin|), collecting leaf members until the
// candidate budget (candidate_factor·k) is met; candidates are scored as a
// single gathered GEMM block and reduced with the shared bounded select.
//
// Graph path: leaf co-membership seeds bounded neighbour lists (per-leaf
// Gram scoring through gram_rows), then embed::nn_descent_refine runs a few
// local-join passes — NN-descent converges far faster from forest seeds
// than from the random initialization the standalone builder uses.
//
// insert(): each new point is routed down every tree and appended to the
// leaf it lands in; a leaf grown past 2·leaf_size is re-split in place
// (sub-tree rebuild over its members only), so the index stays warm across
// streaming snapshots instead of being rebuilt from scratch.
//
// Parallelism and determinism: above embed::graph_loop_pool's threshold
// the trees build concurrently (each from its own stream, into its own
// nodes and direction rows, numbered afterwards as the serial build numbers
// them), and within each tree the leaves, which hold disjoint rows, seed
// their members' rows in parallel, each row receiving the sequence the
// serial loop gives it. Queries and insert() stay serial with explicit
// index tie-breaks, and the GEMM core's parallel partition is bit-identical
// to its serial path — so a fixed config.seed gives bitwise-identical
// results regardless of thread count (tests/rpforest_serial_reference.hpp
// keeps the serial graph path as the oracle).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "embed/ann/point_store.hpp"
#include "embed/ann/searcher.hpp"
#include "embed/distance.hpp"
#include "embed/knn.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "linalg/workspace.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::embed::ann {
namespace {

constexpr std::size_t kNoSelf = static_cast<std::size_t>(-1);

// Candidate sets at or above this size are scored through a gathered GEMM
// block; smaller sets stay on the scalar path (same cutoff as NN-descent's
// join scoring).
constexpr std::size_t kGramCutoff = 8;

class RpForestSearcher final : public PointStoreSearcher {
 public:
  using PointStoreSearcher::PointStoreSearcher;

  void build(const linalg::Matrix& points, linalg::Workspace& ws,
             const DistanceOptions& opts) override {
    (void)ws;
    Stopwatch timer;
    store_points(points);
    const std::size_t n = size();
    const std::size_t num_trees = config_.num_trees;
    trees_.assign(num_trees, Tree{});
    visit_mark_.assign(n, 0);
    visit_epoch_ = 0;
    // Tree t draws from its own stream and writes only its own nodes and
    // scratch, so the trees build concurrently.
    std::vector<SubtreeBuild> builds(num_trees);
    const Rng root(config_.seed);
    const auto build_tree = [&](std::size_t t) {
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      Rng rng = root.split(t + 1);
      fill_subtree(trees_[t], alloc_node(trees_[t]), order, 0, n, rng,
                   builds[t]);
    };
    parallel::ThreadPool* pool =
        graph_loop_pool(opts.allow_parallel, n * num_trees);
    if (pool == nullptr) {
      for (std::size_t t = 0; t < num_trees; ++t) build_tree(t);
    } else {
      pool->parallel_for(num_trees, build_tree);
    }
    // Directions in tree order, node ids shifted by the trees before: the
    // numbering the serial build gives.
    dirs_.reshape(0, dim());
    dirs_count_ = 0;
    for (std::size_t t = 0; t < num_trees; ++t) {
      const auto base = static_cast<std::int32_t>(dirs_count_);
      for (Node& node : trees_[t].nodes) {
        if (node.dir >= 0) node.dir += base;
      }
      append_dirs(builds[t]);
    }
    note_build(timer.seconds());
  }

  void insert(linalg::MatrixView rows, linalg::Workspace& ws,
              const DistanceOptions& opts) override {
    (void)ws;
    (void)opts;
    Stopwatch timer;
    const std::size_t old_rows = size();
    append_rows(rows);
    visit_mark_.resize(size(), 0);
    for (std::size_t i = old_rows; i < size(); ++i) {
      const std::span<const double> p = points_.row(i);
      for (std::size_t t = 0; t < trees_.size(); ++t) {
        Tree& tree = trees_[t];
        std::int32_t nid = 0;
        while (tree.nodes[static_cast<std::size_t>(nid)].leaf < 0) {
          const Node& node = tree.nodes[static_cast<std::size_t>(nid)];
          const double proj =
              linalg::dot(p, dirs_.row(static_cast<std::size_t>(node.dir)));
          nid = proj < node.threshold ? node.left : node.right;
        }
        Node& leaf_node = tree.nodes[static_cast<std::size_t>(nid)];
        std::vector<std::size_t>& members =
            tree.leaves[static_cast<std::size_t>(leaf_node.leaf)];
        members.push_back(i);
        if (members.size() > 2 * config_.leaf_size) {
          resplit_leaf(tree, t, nid);
        }
      }
    }
    note_insert(timer.seconds(), rows.rows());
  }

  void query_batch(linalg::MatrixView queries, std::size_t k,
                   linalg::Workspace& ws, KnnGraph& out,
                   const DistanceOptions& opts) override {
    ARAMS_CHECK(queries.cols() == dim(),
                "NeighborSearcher::query_batch dimension mismatch (got " +
                    std::to_string(queries.cols()) + ", index has " +
                    std::to_string(dim()) + ")");
    check_k(k, /*self_excluded=*/false);
    check_finite(queries, "NeighborSearcher::query_batch");
    Stopwatch timer;
    const std::size_t m = queries.rows();
    out.n = m;
    out.k = k;
    out.neighbors.resize(m * k);
    out.distances.resize(m * k);
    long scored = 0;
    for (std::size_t r = 0; r < m; ++r) {
      scored += query_one(queries.row(r), k, ws, out, r, opts);
    }
    note_query(timer.seconds(), m, scored);
  }

  void query_graph(std::size_t k, linalg::Workspace& ws, KnnGraph& out,
                   const DistanceOptions& opts) override {
    (void)ws;
    check_k(k, /*self_excluded=*/true);
    Stopwatch timer;
    const std::size_t n = size();
    const double inf = std::numeric_limits<double>::infinity();
    seed_d2_.assign(n * k, inf);
    seed_idx_.assign(n * k, kNoSelf);
    const long scored =
        seed_graph(k, graph_loop_pool(opts.allow_parallel, n * k),
                   opts.use_gemm);

    out.n = n;
    out.k = k;
    out.neighbors.assign(seed_idx_.begin(), seed_idx_.end());
    out.distances.resize(n * k);
    for (std::size_t s = 0; s < n * k; ++s) {
      out.distances[s] = std::sqrt(seed_d2_[s]);
    }

    Rng refine_rng(config_.seed ^ 0x9e3779b97f4a7c15ULL);
    nn_descent_refine(points_, refine_rng, out, config_.refine_iters,
                      /*sample_rate=*/1.0, opts);
    note_query(timer.seconds(), n, scored);
  }

  [[nodiscard]] std::string name() const override { return "rpforest"; }

 private:
  struct Node {
    std::int32_t left = -1;       ///< internal: child node ids
    std::int32_t right = -1;
    std::int32_t dir = -1;        ///< internal: row in dirs_
    std::int32_t leaf = -1;       ///< >= 0: id into Tree::leaves
    double threshold = 0.0;       ///< internal: median projection
  };
  struct Tree {
    std::vector<Node> nodes;                       ///< node 0 is the root
    std::vector<std::vector<std::size_t>> leaves;  ///< member point indices
    std::uint64_t resplits = 0;  ///< deterministic rng stream for re-splits
  };
  struct HeapEntry {
    double priority;  ///< upper bound on how close the subtree can be
    std::uint32_t tree;
    std::int32_t node;
    // Max-heap on priority with a total order (tree, node break ties) so
    // traversal order never depends on heap internals.
    bool operator<(const HeapEntry& o) const {
      if (priority != o.priority) return priority < o.priority;
      if (tree != o.tree) return tree > o.tree;
      return node > o.node;
    }
  };

  /// What building one subtree writes besides its nodes: the split
  /// directions, dim() doubles each, which its nodes number from
  /// `dir_base`, plus its scratch.
  struct SubtreeBuild {
    std::size_t dir_base = 0;
    std::vector<double> dirs;
    std::vector<double> dir;  ///< the split direction being drawn
    std::vector<std::pair<double, std::size_t>> pairs;
    linalg::Matrix gathered;
    linalg::Matrix proj;
  };

  std::int32_t alloc_node(Tree& tree) {
    tree.nodes.emplace_back();
    return static_cast<std::int32_t>(tree.nodes.size() - 1);
  }

  /// Appends a build's directions to dirs_ (their ids must start at
  /// dirs_count_).
  void append_dirs(const SubtreeBuild& b) {
    const std::size_t d = dim();
    const std::size_t count = b.dirs.size() / d;
    dirs_.reshape(dirs_count_ + count, d);
    std::copy(b.dirs.begin(), b.dirs.end(), dirs_.data() + dirs_count_ * d);
    dirs_count_ += count;
  }

  /// Builds the subtree over arr[lo, hi) into the (already allocated) node
  /// `id`. Consumes rng draws in a fixed order (left subtree first).
  void fill_subtree(Tree& tree, std::int32_t id, std::vector<std::size_t>& arr,
                    std::size_t lo, std::size_t hi, Rng& rng,
                    SubtreeBuild& b) {
    const std::size_t m = hi - lo;
    const std::size_t d = dim();
    tree.nodes[static_cast<std::size_t>(id)] = Node{};
    if (m <= config_.leaf_size) {
      make_leaf(tree, id, arr, lo, hi);
      return;
    }

    // Split direction: difference of two distinct random members
    // (Annoy-style). A few retries dodge coincident picks; an all-duplicate
    // subset cannot be split and becomes an oversized leaf.
    b.dir.resize(d);
    double norm2 = 0.0;
    for (int attempt = 0; attempt < 4 && norm2 == 0.0; ++attempt) {
      const std::size_t ia = rng.uniform_index(m);
      std::size_t ib = rng.uniform_index(m - 1);
      if (ib >= ia) ++ib;
      const std::span<const double> pa = points_.row(arr[lo + ia]);
      const std::span<const double> pb = points_.row(arr[lo + ib]);
      norm2 = 0.0;
      for (std::size_t j = 0; j < d; ++j) {
        b.dir[j] = pa[j] - pb[j];
        norm2 += b.dir[j] * b.dir[j];
      }
    }
    if (norm2 == 0.0) {
      make_leaf(tree, id, arr, lo, hi);
      return;
    }
    const auto dir_id =
        static_cast<std::int32_t>(b.dir_base + b.dirs.size() / d);
    b.dirs.insert(b.dirs.end(), b.dir.begin(), b.dir.end());

    // Blocked projections: gather the members once, one tall-skinny GEMM
    // against the direction. The (projection, index) pairs are consumed
    // before recursing, so the scratch can be reused below.
    gather_rows(points_, std::span<const std::size_t>(arr).subspan(lo, m),
                b.gathered);
    linalg::matmul_nt(b.gathered, linalg::MatrixView(b.dir.data(), 1, d),
                      b.proj);
    std::vector<std::pair<double, std::size_t>>& pairs = b.pairs;
    pairs.resize(m);
    const linalg::Matrix& proj = b.proj;
    for (std::size_t j = 0; j < m; ++j) {
      pairs[j] = {proj(j, 0), arr[lo + j]};
    }
    const std::size_t mid = m / 2;
    std::nth_element(pairs.begin(),
                     pairs.begin() + static_cast<std::ptrdiff_t>(mid),
                     pairs.end());
    const double threshold = pairs[mid].first;
    for (std::size_t j = 0; j < m; ++j) {
      arr[lo + j] = pairs[j].second;
    }

    const std::int32_t left = alloc_node(tree);
    const std::int32_t right = alloc_node(tree);
    {
      Node& node = tree.nodes[static_cast<std::size_t>(id)];
      node.dir = dir_id;
      node.threshold = threshold;
      node.left = left;
      node.right = right;
    }
    fill_subtree(tree, left, arr, lo, lo + mid, rng, b);
    fill_subtree(tree, right, arr, lo + mid, hi, rng, b);
  }

  void make_leaf(Tree& tree, std::int32_t id, const std::vector<std::size_t>& arr,
                 std::size_t lo, std::size_t hi) {
    Node& node = tree.nodes[static_cast<std::size_t>(id)];
    node.leaf = static_cast<std::int32_t>(tree.leaves.size());
    tree.leaves.emplace_back(arr.begin() + static_cast<std::ptrdiff_t>(lo),
                             arr.begin() + static_cast<std::ptrdiff_t>(hi));
  }

  /// Re-splits an over-full leaf in place: its members become a fresh
  /// subtree rooted at the same node id. The old leaf slot is tombstoned
  /// (cleared, never referenced again) so leaf ids stay stable.
  void resplit_leaf(Tree& tree, std::size_t tree_index, std::int32_t nid) {
    Node& node = tree.nodes[static_cast<std::size_t>(nid)];
    std::vector<std::size_t> members =
        std::move(tree.leaves[static_cast<std::size_t>(node.leaf)]);
    tree.leaves[static_cast<std::size_t>(node.leaf)].clear();
    Rng rng = Rng(config_.seed ^ 0x5eedb0b5c0ffee11ULL)
                  .split(tree_index)
                  .split(tree.resplits++);
    SubtreeBuild b;
    b.dir_base = dirs_count_;
    fill_subtree(tree, nid, members, 0, members.size(), rng, b);
    append_dirs(b);
  }

  /// Best-first margin traversal across all trees; appends deduplicated
  /// leaf members to cand_ until `budget` candidates are collected.
  void collect_candidates(std::span<const double> q, std::size_t budget,
                          std::size_t self) {
    cand_.clear();
    heap_.clear();
    ++visit_epoch_;
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t t = 0; t < trees_.size(); ++t) {
      heap_.push_back(HeapEntry{inf, static_cast<std::uint32_t>(t), 0});
    }
    std::make_heap(heap_.begin(), heap_.end());
    while (!heap_.empty() && cand_.size() < budget) {
      std::pop_heap(heap_.begin(), heap_.end());
      const HeapEntry e = heap_.back();
      heap_.pop_back();
      const Tree& tree = trees_[e.tree];
      const Node& node = tree.nodes[static_cast<std::size_t>(e.node)];
      if (node.leaf >= 0) {
        for (const std::size_t idx :
             tree.leaves[static_cast<std::size_t>(node.leaf)]) {
          if (visit_mark_[idx] == visit_epoch_) continue;
          visit_mark_[idx] = visit_epoch_;
          if (idx != self) cand_.push_back(idx);
        }
        continue;
      }
      const double margin =
          linalg::dot(q, dirs_.row(static_cast<std::size_t>(node.dir))) -
          node.threshold;
      const std::int32_t near = margin < 0.0 ? node.left : node.right;
      const std::int32_t far = margin < 0.0 ? node.right : node.left;
      heap_.push_back(HeapEntry{e.priority, e.tree, near});
      std::push_heap(heap_.begin(), heap_.end());
      heap_.push_back(
          HeapEntry{std::min(e.priority, std::abs(margin)), e.tree, far});
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  /// One external-point query into row `row` of `out`; returns candidates
  /// scored. Allocation-free at steady state (grow-only members + slots).
  long query_one(std::span<const double> q, std::size_t k,
                 linalg::Workspace& ws, KnnGraph& out, std::size_t row,
                 const DistanceOptions& opts) {
    const std::size_t n = size();
    const std::size_t d = dim();
    const std::size_t budget = std::min(
        n, std::max<std::size_t>(
               static_cast<std::size_t>(config_.candidate_factor *
                                        static_cast<double>(k)),
               2 * k));
    collect_candidates(q, budget, kNoSelf);
    const std::size_t c = cand_.size();
    ARAMS_CHECK(c >= k, "rpforest traversal produced " + std::to_string(c) +
                            " candidates for k=" + std::to_string(k));
    if (opts.use_gemm && c >= kGramCutoff) {
      linalg::Matrix& gathered = ws.mat(linalg::wslot::kAnnGather, c, d);
      gather_rows(points_, cand_, gathered);
      linalg::Matrix& inner = ws.mat(linalg::wslot::kAnnBlock, c, 1);
      linalg::matmul_nt(gathered, linalg::MatrixView(q.data(), 1, d), inner);
      const double qn = linalg::dot(q, q);
      select_k(c, kNoSelf, k, best_, [&](std::size_t j) {
        return std::max(0.0, qn + norms_[cand_[j]] - 2.0 * inner(j, 0));
      });
    } else {
      select_k(c, kNoSelf, k, best_, [&](std::size_t j) {
        return sq_dist(q, points_.row(cand_[j]));
      });
    }
    const std::size_t base = row * k;
    for (std::size_t j = 0; j < k; ++j) {
      out.neighbors[base + j] = cand_[best_[j].second];
      out.distances[base + j] = std::sqrt(best_[j].first);
    }
    return static_cast<long>(c);
  }

  /// Seeds the graph arrays from leaf co-membership: every pair sharing a
  /// leaf in any tree is a candidate edge. Returns the candidates scored.
  ///
  /// What seed_insert leaves in row i depends only on the (d², j) sequence
  /// row i receives: tree by tree, the other members of i's leaf in leaf
  /// order. Within a tree the leaves hold disjoint rows, so they run in
  /// parallel, each forming its pair d² once and then replaying its
  /// members' rows; the trees follow one another. Last, each row short of
  /// k neighbours gets its fill-in probes.
  long seed_graph(std::size_t k, parallel::ThreadPool* pool, bool use_gemm) {
    const std::size_t n = size();
    long scored = 0;
    for (const Tree& tree : trees_) {
      const auto seed_leaves = [&](std::size_t l0, std::size_t l1) {
        linalg::Matrix gathered;
        linalg::Matrix gram;
        std::vector<double> d2;
        for (std::size_t l = l0; l < l1; ++l) {
          const std::vector<std::size_t>& members = tree.leaves[l];
          const std::size_t c = members.size();
          if (c < 2) continue;  // tombstoned or singleton leaf
          // The serial loop's arithmetic: through the leaf's Gram block,
          // or per pair below the cutoff.
          const bool use_gram = use_gemm && c >= kGramCutoff;
          if (use_gram) {
            gather_rows(points_, members, gathered);
            linalg::gram_rows(gathered, gram);
          }
          d2.resize(c * c);
          for (std::size_t a = 0; a < c; ++a) {
            for (std::size_t b = a + 1; b < c; ++b) {
              const double v =
                  use_gram ? std::max(0.0, gram(a, a) + gram(b, b) -
                                               2.0 * gram(a, b))
                           : sq_dist(points_.row(members[a]),
                                     points_.row(members[b]));
              d2[a * c + b] = v;
              d2[b * c + a] = v;
            }
          }
          for (std::size_t x = 0; x < c; ++x) {
            for (std::size_t y = 0; y < c; ++y) {
              if (y != x) seed_insert(members[x], k, d2[x * c + y], members[y]);
            }
          }
        }
      };
      parallel::for_bands(pool, tree.leaves.size(), seed_leaves);
      for (const std::vector<std::size_t>& members : tree.leaves) {
        const std::size_t c = members.size();
        if (c >= 2) scored += static_cast<long>(c * (c - 1) / 2);
      }
    }

    // Points that never shared a leaf with k distinct others (tiny inputs,
    // heavy duplicates) get deterministic sequential probes so the seed
    // graph handed to the refiner is always fully populated.
    std::atomic<long> probes{0};
    parallel::for_bands(pool, n, [&](std::size_t i0, std::size_t i1) {
      long band_probes = 0;
      for (std::size_t i = i0; i < i1; ++i) {
        std::size_t step = 1;
        while (seed_idx_[i * k + k - 1] == kNoSelf) {
          const std::size_t j = (i + step) % n;
          ++step;
          if (j == i) continue;
          seed_insert(i, k, sq_dist(points_.row(i), points_.row(j)), j);
          ++band_probes;
        }
      }
      probes += band_probes;
    });
    return scored + probes.load();
  }

  /// Bounded sorted insert of candidate edge (i → j, d2) into the seed
  /// arrays: O(1) reject against the row's current worst, O(k) duplicate
  /// scan + shift otherwise.
  void seed_insert(std::size_t i, std::size_t k, double d2, std::size_t j) {
    double* drow = seed_d2_.data() + i * k;
    std::size_t* irow = seed_idx_.data() + i * k;
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

  std::vector<Tree> trees_;
  linalg::Matrix dirs_;         ///< split directions, one row per internal node
  std::size_t dirs_count_ = 0;  ///< rows of dirs_ in use
  // Grow-only scratch (members so steady-state queries stay heap-free).
  std::vector<std::size_t> cand_;        ///< query: candidate union
  std::vector<HeapEntry> heap_;          ///< query: traversal frontier
  std::vector<std::uint64_t> visit_mark_;  ///< query: dedup epochs
  std::uint64_t visit_epoch_ = 0;
  std::vector<double> seed_d2_;          ///< graph: seed distances (squared)
  std::vector<std::size_t> seed_idx_;    ///< graph: seed neighbour indices
};

}  // namespace

std::unique_ptr<NeighborSearcher> make_rpforest_searcher(
    const AnnConfig& config) {
  return std::make_unique<RpForestSearcher>(config);
}

}  // namespace arams::embed::ann
