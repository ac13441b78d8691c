#include "cluster/hdbscan.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "cluster/optics.hpp"
#include "util/check.hpp"

namespace arams::cluster {

using linalg::Matrix;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double euclidean(const Matrix& pts, std::size_t a, std::size_t b) {
  double s = 0.0;
  const auto ra = pts.row(a);
  const auto rb = pts.row(b);
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const double d = ra[i] - rb[i];
    s += d * d;
  }
  return std::sqrt(s);
}

struct MstEdge {
  std::size_t a;
  std::size_t b;
  double weight;  ///< mutual-reachability distance
};

/// Single-linkage merge node (ids n..2n−2; leaves are 0..n−1).
struct LinkageNode {
  std::size_t left;
  std::size_t right;
  double distance;
  std::size_t size;
};

/// Condensed-tree cluster.
struct CondensedCluster {
  std::size_t parent;            ///< condensed parent id (self for root)
  double lambda_birth;           ///< 1/distance when the cluster appeared
  double stability = 0.0;
  std::vector<std::size_t> points;        ///< points that fall out here
  std::vector<double> point_lambda;       ///< λ at which each fell out
  std::vector<std::size_t> children;      ///< condensed child ids
  bool selected = false;
};

}  // namespace

HdbscanResult hdbscan(const Matrix& points, const HdbscanConfig& config) {
  const std::size_t n = points.rows();
  ARAMS_CHECK(n >= 2, "HDBSCAN needs at least two points");
  ARAMS_CHECK(config.min_samples >= 1 && config.min_samples < n,
              "min_samples out of range");
  ARAMS_CHECK(config.min_cluster_size >= 2, "min_cluster_size must be >= 2");

  // --- 1. core distances -------------------------------------------------
  // The pass OPTICS runs, with the per-pair scalar arithmetic of
  // euclidean() below (sqrt is monotone and correctly rounded, so the
  // min_samples-th smallest distance is the root of the min_samples-th
  // smallest d²). It refuses a NaN or ±inf point, naming its row and
  // column.
  const std::vector<double> core =
      core_distances(points, config.min_samples, {.use_gemm = false});

  // --- 2+3. MST of the mutual-reachability graph (Prim, dense) ----------
  std::vector<MstEdge> mst;
  mst.reserve(n - 1);
  {
    std::vector<bool> in_tree(n, false);
    std::vector<double> best(n, kInf);
    std::vector<std::size_t> from(n, 0);
    std::size_t current = 0;
    in_tree[0] = true;
    for (std::size_t added = 1; added < n; ++added) {
      for (std::size_t j = 0; j < n; ++j) {
        if (in_tree[j]) continue;
        const double d = euclidean(points, current, j);
        const double mr = std::max({core[current], core[j], d});
        if (mr < best[j]) {
          best[j] = mr;
          from[j] = current;
        }
      }
      std::size_t next = 0;
      double next_w = kInf;
      for (std::size_t j = 0; j < n; ++j) {
        if (!in_tree[j] && best[j] < next_w) {
          next_w = best[j];
          next = j;
        }
      }
      mst.push_back({from[next], next, next_w});
      in_tree[next] = true;
      current = next;
    }
  }
  std::sort(mst.begin(), mst.end(),
            [](const MstEdge& a, const MstEdge& b) {
              return a.weight < b.weight;
            });

  // --- 4. single-linkage hierarchy ---------------------------------------
  // Union-find mapping each component to its current hierarchy node id.
  std::vector<std::size_t> uf_parent(2 * n - 1);
  std::iota(uf_parent.begin(), uf_parent.end(), std::size_t{0});
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (uf_parent[x] != x) {
      uf_parent[x] = uf_parent[uf_parent[x]];
      x = uf_parent[x];
    }
    return x;
  };
  std::vector<LinkageNode> nodes;
  nodes.reserve(n - 1);
  for (const auto& e : mst) {
    const std::size_t ra = find(e.a);
    const std::size_t rb = find(e.b);
    const std::size_t id = n + nodes.size();
    const std::size_t size_a = (ra < n) ? 1 : nodes[ra - n].size;
    const std::size_t size_b = (rb < n) ? 1 : nodes[rb - n].size;
    nodes.push_back({ra, rb, e.weight, size_a + size_b});
    uf_parent[ra] = id;
    uf_parent[rb] = id;
  }

  // --- 5. condensed tree --------------------------------------------------
  std::vector<CondensedCluster> clusters;
  {
    CondensedCluster root;
    root.parent = 0;
    root.lambda_birth = 0.0;
    clusters.push_back(std::move(root));
  }

  // Iterative DFS: (hierarchy node, condensed cluster id).
  struct Frame {
    std::size_t node;
    std::size_t cluster;
  };
  std::vector<Frame> stack;
  stack.push_back({2 * n - 2, 0});

  // Collect every leaf under a hierarchy node, with the λ at which the
  // walk down dissolves (all edges below are tighter than lambda).
  const auto collect_points = [&](std::size_t root, std::size_t cluster,
                                  double lambda) {
    std::vector<std::size_t> walk{root};
    while (!walk.empty()) {
      const std::size_t v = walk.back();
      walk.pop_back();
      if (v < n) {
        clusters[cluster].points.push_back(v);
        clusters[cluster].point_lambda.push_back(lambda);
      } else {
        walk.push_back(nodes[v - n].left);
        walk.push_back(nodes[v - n].right);
      }
    }
  };

  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.node < n) {
      // Singleton reaching here falls out at its parent edge's λ — handled
      // by the caller via collect_points; a leaf only lands on the stack
      // from the root when n == 1 (excluded by the checks).
      clusters[frame.cluster].points.push_back(frame.node);
      clusters[frame.cluster].point_lambda.push_back(
          clusters[frame.cluster].lambda_birth);
      continue;
    }
    const LinkageNode& node = nodes[frame.node - n];
    const double lambda =
        node.distance > 0.0 ? 1.0 / node.distance : kInf;
    const std::size_t size_l =
        (node.left < n) ? 1 : nodes[node.left - n].size;
    const std::size_t size_r =
        (node.right < n) ? 1 : nodes[node.right - n].size;
    const bool big_l = size_l >= config.min_cluster_size;
    const bool big_r = size_r >= config.min_cluster_size;

    if (big_l && big_r) {
      // True split: two new condensed clusters born at λ.
      for (const std::size_t side : {node.left, node.right}) {
        CondensedCluster born;
        born.parent = frame.cluster;
        born.lambda_birth = lambda;
        clusters.push_back(std::move(born));
        const std::size_t child_id = clusters.size() - 1;
        clusters[frame.cluster].children.push_back(child_id);
        stack.push_back({side, child_id});
      }
    } else if (big_l || big_r) {
      // The big side continues as the same cluster; the small side's
      // points fall out of it at λ.
      const std::size_t cont = big_l ? node.left : node.right;
      const std::size_t fall = big_l ? node.right : node.left;
      collect_points(fall, frame.cluster, lambda);
      stack.push_back({cont, frame.cluster});
    } else {
      // Both sides below min size: everything falls out at λ.
      collect_points(node.left, frame.cluster, lambda);
      collect_points(node.right, frame.cluster, lambda);
    }
  }

  // --- stability ----------------------------------------------------------
  // Point term: each point contributes (λ_fall-out − λ_birth).
  for (auto& cluster : clusters) {
    double s = 0.0;
    for (std::size_t i = 0; i < cluster.points.size(); ++i) {
      const double lam = std::isinf(cluster.point_lambda[i])
                             ? cluster.lambda_birth
                             : cluster.point_lambda[i];
      s += lam - cluster.lambda_birth;
    }
    cluster.stability = s;
  }
  // Child-departure term: each child's subtree contributes
  // subtree_point_count · (λ_child_birth − λ_birth).
  std::vector<std::size_t> subtree_points(clusters.size(), 0);
  for (std::size_t c = clusters.size(); c-- > 0;) {
    subtree_points[c] += clusters[c].points.size();
    for (const std::size_t child : clusters[c].children) {
      subtree_points[c] += subtree_points[child];
    }
  }
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (const std::size_t child : clusters[c].children) {
      const double dl =
          clusters[child].lambda_birth - clusters[c].lambda_birth;
      clusters[c].stability +=
          static_cast<double>(subtree_points[child]) * dl;
    }
  }

  // --- 6. stability-maximizing selection (bottom-up) ----------------------
  std::vector<double> best_below(clusters.size(), 0.0);
  for (std::size_t c = clusters.size(); c-- > 0;) {
    double children_total = 0.0;
    for (const std::size_t child : clusters[c].children) {
      children_total += best_below[child];
    }
    if (clusters[c].children.empty() ||
        clusters[c].stability >= children_total) {
      best_below[c] = clusters[c].stability;
      clusters[c].selected = true;
    } else {
      best_below[c] = children_total;
      clusters[c].selected = false;
    }
  }
  // The root is never a flat cluster (it would swallow everything) unless
  // it has no children at all or the caller explicitly allows it.
  if (!clusters[0].children.empty() && !config.allow_single_cluster) {
    clusters[0].selected = false;
  }
  // Deselect descendants of selected clusters (antichain property).
  {
    std::vector<std::pair<std::size_t, bool>> walk{{0, false}};
    while (!walk.empty()) {
      const auto [c, covered] = walk.back();
      walk.pop_back();
      bool now_covered = covered;
      if (covered) {
        clusters[c].selected = false;
      } else if (clusters[c].selected) {
        now_covered = true;
      }
      for (const std::size_t child : clusters[c].children) {
        walk.emplace_back(child, now_covered);
      }
    }
  }

  // --- labels + membership probabilities ----------------------------------
  HdbscanResult result;
  result.labels.assign(n, -1);
  result.probabilities.assign(n, 0.0);
  int next_label = 0;
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    if (!clusters[c].selected) continue;
    const int label = next_label++;
    // Gather all points in the selected cluster's subtree.
    double lambda_max = clusters[c].lambda_birth;
    std::vector<std::pair<std::size_t, double>> members;
    std::vector<std::size_t> walk{c};
    while (!walk.empty()) {
      const std::size_t v = walk.back();
      walk.pop_back();
      for (std::size_t i = 0; i < clusters[v].points.size(); ++i) {
        const double lam = clusters[v].point_lambda[i];
        members.emplace_back(clusters[v].points[i], lam);
        if (!std::isinf(lam)) lambda_max = std::max(lambda_max, lam);
      }
      for (const std::size_t child : clusters[v].children) {
        walk.push_back(child);
      }
    }
    for (const auto& [p, lam] : members) {
      result.labels[p] = label;
      const double l = std::isinf(lam) ? lambda_max : lam;
      result.probabilities[p] =
          lambda_max > clusters[c].lambda_birth
              ? (l - clusters[c].lambda_birth) /
                    (lambda_max - clusters[c].lambda_birth)
              : 1.0;
    }
  }
  result.num_clusters = static_cast<std::size_t>(next_label);
  return result;
}

}  // namespace arams::cluster
