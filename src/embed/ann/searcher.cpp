// NeighborSearcher base plumbing, the `exact` and `auto` backends, and the
// string-keyed factory. The rpforest backend lives in rpforest.cpp.

#include "embed/ann/searcher.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "embed/ann/point_store.hpp"
#include "embed/distance.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::embed {
namespace {

obs::Histogram& build_seconds_hist() {
  static obs::Histogram& h = obs::metrics().histogram("embed.ann_build_seconds");
  return h;
}

obs::Histogram& query_seconds_hist() {
  static obs::Histogram& h = obs::metrics().histogram("embed.ann_query_seconds");
  return h;
}

obs::Counter& candidates_counter() {
  static obs::Counter& c = obs::metrics().counter("embed.ann_candidates_scored");
  return c;
}

}  // namespace

namespace ann {

PointStoreSearcher::PointStoreSearcher(AnnConfig config)
    : config_(std::move(config)) {}

void PointStoreSearcher::check_finite(linalg::MatrixView rows,
                                      const char* what) {
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    const std::span<const double> row = rows.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (!std::isfinite(row[j])) {
        ARAMS_CHECK(false, std::string(what) + ": non-finite value " +
                               std::to_string(row[j]) + " at row " +
                               std::to_string(i) + ", column " +
                               std::to_string(j));
      }
    }
  }
}

void PointStoreSearcher::store_points(const linalg::Matrix& points) {
  ARAMS_CHECK(points.rows() >= 1 && points.cols() >= 1,
              "NeighborSearcher::build needs a non-empty point matrix");
  check_finite(points, "NeighborSearcher::build");
  points_ = points;
  norms_.resize(points_.rows());
  row_sq_norms(points_, norms_);
}

void PointStoreSearcher::append_rows(linalg::MatrixView rows) {
  ARAMS_CHECK(points_.rows() > 0,
              "NeighborSearcher::insert requires a built index");
  ARAMS_CHECK(rows.cols() == points_.cols(),
              "NeighborSearcher::insert dimension mismatch (got " +
                  std::to_string(rows.cols()) + " columns, index has " +
                  std::to_string(points_.cols()) + ")");
  check_finite(rows, "NeighborSearcher::insert");
  const std::size_t old_rows = points_.rows();
  // reshape is prefix-preserving, so existing rows stay in place and only
  // the appended tail is written. `rows` must not alias this index.
  points_.reshape(old_rows + rows.rows(), points_.cols());
  for (std::size_t i = 0; i < rows.rows(); ++i) {
    points_.set_row(old_rows + i, rows.row(i));
  }
  norms_.resize(points_.rows());
  row_sq_norms(rows, std::span<double>(norms_).subspan(old_rows));
}

void PointStoreSearcher::check_k(std::size_t k, bool self_excluded) const {
  const std::size_t n = size();
  ARAMS_CHECK(n >= 1, "NeighborSearcher query before build");
  if (self_excluded) {
    ARAMS_CHECK(k >= 1 && k < n,
                "kNN graph needs 1 <= k < n (got k=" + std::to_string(k) +
                    ", n=" + std::to_string(n) +
                    "); an index of n points has only n-1 neighbours per "
                    "point");
  } else {
    ARAMS_CHECK(k >= 1 && k <= n,
                "kNN query needs 1 <= k <= index size (got k=" +
                    std::to_string(k) + ", size=" + std::to_string(n) + ")");
  }
}

void PointStoreSearcher::note_build(double seconds) {
  ++stats_.builds;
  stats_.build_seconds += seconds;
  build_seconds_hist().observe(seconds);
}

void PointStoreSearcher::note_insert(double seconds, std::size_t rows) {
  stats_.inserted_rows += static_cast<long>(rows);
  stats_.build_seconds += seconds;
  build_seconds_hist().observe(seconds);
}

void PointStoreSearcher::note_query(double seconds, std::size_t rows,
                                    long candidates) const {
  stats_.query_rows += static_cast<long>(rows);
  stats_.candidates_scored += candidates;
  stats_.query_seconds += seconds;
  query_seconds_hist().observe(seconds);
  candidates_counter().add(candidates);
}

void PointStoreSearcher::query(std::span<const double> point, std::size_t k,
                               linalg::Workspace& ws,
                               std::vector<std::size_t>& neighbors,
                               std::vector<double>& distances,
                               const DistanceOptions& opts) {
  ARAMS_CHECK(point.size() == dim(),
              "NeighborSearcher::query dimension mismatch (got " +
                  std::to_string(point.size()) + ", index has " +
                  std::to_string(dim()) + ")");
  const linalg::MatrixView one(point.data(), 1, dim());
  query_batch(one, k, ws, query_scratch_, opts);
  neighbors.resize(k);
  distances.resize(k);
  std::copy(query_scratch_.neighbors.begin(),
            query_scratch_.neighbors.begin() + static_cast<std::ptrdiff_t>(k),
            neighbors.begin());
  std::copy(query_scratch_.distances.begin(),
            query_scratch_.distances.begin() + static_cast<std::ptrdiff_t>(k),
            distances.begin());
}

void PointStoreSearcher::sq_dists_to(std::span<const double> point,
                                     linalg::Workspace& ws,
                                     std::span<double> out,
                                     const DistanceOptions& opts) const {
  const std::size_t n = size();
  ARAMS_CHECK(n >= 1, "NeighborSearcher query before build");
  ARAMS_CHECK(point.size() == dim(),
              "NeighborSearcher::sq_dists_to dimension mismatch (got " +
                  std::to_string(point.size()) + ", index has " +
                  std::to_string(dim()) + ")");
  ARAMS_CHECK(out.size() == n,
              "NeighborSearcher::sq_dists_to output span must cover the "
              "index (got " +
                  std::to_string(out.size()) + ", size=" + std::to_string(n) +
                  ")");
  const linalg::MatrixView q(point.data(), 1, dim());
  check_finite(q, "NeighborSearcher::sq_dists_to");
  Stopwatch timer;
  const std::span<double> qn = ws.vec(linalg::wslot::kAnnQNorms, 1);
  row_sq_norms(q, qn);
  linalg::Matrix& block = ws.mat(linalg::wslot::kAnnBlock, 1, n);
  pairwise_sq_dists_prenormed(q, points_, qn, norms_, ws, block, opts);
  std::copy(block.row(0).begin(), block.row(0).end(), out.begin());
  note_query(timer.seconds(), 1, static_cast<long>(n));
}

}  // namespace ann

void NeighborSearcher::report(obs::StageReport& report) const {
  const AnnStats& s = stats();
  report.add_seconds("ann_build", s.build_seconds);
  report.add_seconds("ann_query", s.query_seconds);
  report.add_counter("ann_builds", s.builds);
  report.add_counter("ann_inserted_rows", s.inserted_rows);
  report.add_counter("ann_query_rows", s.query_rows);
  report.add_counter("ann_candidates_scored", s.candidates_scored);
}

std::vector<std::string> AnnConfig::validate() const {
  std::vector<std::string> errors;
  if (!searcher_registered(backend)) {
    std::string names;
    for (const std::string& n : registered_searchers()) {
      if (!names.empty()) names += ", ";
      names += n;
    }
    errors.push_back("unknown kNN backend '" + backend + "' (registered: " +
                     names + ")");
  }
  if (exact_threshold < 1) {
    errors.push_back("knn exact_threshold must be >= 1");
  }
  if (num_trees < 1) {
    errors.push_back("rpforest num_trees must be >= 1");
  }
  if (leaf_size < 2) {
    errors.push_back("rpforest leaf_size must be >= 2");
  }
  if (refine_iters < 0) {
    errors.push_back("rpforest refine_iters must be >= 0");
  }
  if (!(candidate_factor >= 1.0)) {
    errors.push_back("rpforest candidate_factor must be >= 1");
  }
  return errors;
}

namespace {

/// GEMM-blocked brute force over the stored points — the PR-5 distance
/// engine behind the searcher seam. Ground truth for every recall pin.
class ExactSearcher final : public ann::PointStoreSearcher {
 public:
  using PointStoreSearcher::PointStoreSearcher;

  void build(const linalg::Matrix& points, linalg::Workspace& ws,
             const DistanceOptions& opts) override {
    (void)ws;
    (void)opts;
    Stopwatch timer;
    store_points(points);
    note_build(timer.seconds());
  }

  void insert(linalg::MatrixView rows, linalg::Workspace& ws,
              const DistanceOptions& opts) override {
    (void)ws;
    (void)opts;
    Stopwatch timer;
    append_rows(rows);
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
    const std::size_t n = size();
    const std::size_t m = queries.rows();
    out.n = m;
    out.k = k;
    out.neighbors.resize(m * k);
    out.distances.resize(m * k);
    // Stream query bands against the whole index: one prenormed distance
    // block per band, then a bounded insertion select per row — identical
    // selection semantics (lexicographic on (d², index)) to the historical
    // partial_sort in umap_transform.
    const std::size_t band = std::min<std::size_t>(m, 256);
    for (std::size_t r0 = 0; r0 < m; r0 += band) {
      const std::size_t rows = std::min(band, m - r0);
      const linalg::MatrixView qband(queries.row(r0).data(), rows,
                                     queries.cols());
      const std::span<double> qn = ws.vec(linalg::wslot::kAnnQNorms, rows);
      row_sq_norms(qband, qn);
      linalg::Matrix& block = ws.mat(linalg::wslot::kAnnBlock, rows, n);
      pairwise_sq_dists_prenormed(qband, points_, qn, norms_, ws, block, opts);
      for (std::size_t r = 0; r < rows; ++r) {
        const std::span<const double> drow = block.row(r);
        select_k(n, n, k, best_, [&](std::size_t j) { return drow[j]; });
        const std::size_t base = (r0 + r) * k;
        for (std::size_t j = 0; j < k; ++j) {
          out.neighbors[base + j] = best_[j].second;
          out.distances[base + j] = std::sqrt(best_[j].first);
        }
      }
    }
    note_query(timer.seconds(), m, static_cast<long>(m * n));
  }

  void query_graph(std::size_t k, linalg::Workspace& ws, KnnGraph& out,
                   const DistanceOptions& opts) override {
    check_k(k, /*self_excluded=*/true);
    Stopwatch timer;
    exact_knn(points_, k, ws, out, opts);
    const std::size_t n = size();
    note_query(timer.seconds(), n, static_cast<long>(n * n));
  }

  [[nodiscard]] std::string name() const override { return "exact"; }
};

/// Size-based dispatch: the concrete backend is chosen at build() time —
/// exact at or below config.exact_threshold indexed points, rpforest above.
class AutoSearcher final : public NeighborSearcher {
 public:
  explicit AutoSearcher(AnnConfig config) : config_(std::move(config)) {}

  void build(const linalg::Matrix& points, linalg::Workspace& ws,
             const DistanceOptions& opts) override {
    // The backend is re-chosen on every full rebuild; insert() growth
    // keeps whatever build() picked (re-dispatching mid-stream would throw
    // away a warm index).
    if (points.rows() <= config_.exact_threshold) {
      inner_ = ann::make_exact_searcher(config_);
    } else {
      inner_ = ann::make_rpforest_searcher(config_);
    }
    inner_->build(points, ws, opts);
  }

  void insert(linalg::MatrixView rows, linalg::Workspace& ws,
              const DistanceOptions& opts) override {
    ARAMS_CHECK(inner_ != nullptr,
                "NeighborSearcher::insert requires a built index");
    inner_->insert(rows, ws, opts);
  }

  void query(std::span<const double> point, std::size_t k,
             linalg::Workspace& ws, std::vector<std::size_t>& neighbors,
             std::vector<double>& distances,
             const DistanceOptions& opts) override {
    ARAMS_CHECK(inner_ != nullptr, "NeighborSearcher query before build");
    inner_->query(point, k, ws, neighbors, distances, opts);
  }

  void query_batch(linalg::MatrixView queries, std::size_t k,
                   linalg::Workspace& ws, KnnGraph& out,
                   const DistanceOptions& opts) override {
    ARAMS_CHECK(inner_ != nullptr, "NeighborSearcher query before build");
    inner_->query_batch(queries, k, ws, out, opts);
  }

  void query_graph(std::size_t k, linalg::Workspace& ws, KnnGraph& out,
                   const DistanceOptions& opts) override {
    ARAMS_CHECK(inner_ != nullptr, "NeighborSearcher query before build");
    inner_->query_graph(k, ws, out, opts);
  }

  void sq_dists_to(std::span<const double> point, linalg::Workspace& ws,
                   std::span<double> out,
                   const DistanceOptions& opts) const override {
    ARAMS_CHECK(inner_ != nullptr, "NeighborSearcher query before build");
    inner_->sq_dists_to(point, ws, out, opts);
  }

  [[nodiscard]] std::size_t size() const override {
    return inner_ ? inner_->size() : 0;
  }
  [[nodiscard]] std::size_t dim() const override {
    return inner_ ? inner_->dim() : 0;
  }
  [[nodiscard]] const linalg::Matrix& points() const override {
    return inner_ ? inner_->points() : empty_;
  }
  [[nodiscard]] std::string name() const override { return "auto"; }
  [[nodiscard]] const AnnStats& stats() const override {
    return inner_ ? inner_->stats() : empty_stats_;
  }

  /// The backend build() dispatched to (tests peek at this; empty before
  /// the first build).
  [[nodiscard]] std::string dispatched() const {
    return inner_ ? inner_->name() : std::string();
  }

 private:
  AnnConfig config_;
  std::unique_ptr<NeighborSearcher> inner_;
  linalg::Matrix empty_;
  AnnStats empty_stats_;
};

struct SearcherEntry {
  const char* name;
  const char* description;
};

// Registration order == listing order (mirrors core::Sketcher's registry).
constexpr SearcherEntry kSearchers[] = {
    {"exact",
     "GEMM-blocked brute-force kNN (ground truth; O(n^2) per graph)"},
    {"rpforest",
     "randomized-projection-tree forest + NN-descent refinement "
     "(approximate, subquadratic)"},
    {"auto",
     "exact at or below --knn-exact-threshold points, rpforest above"},
};

}  // namespace

namespace ann {

std::unique_ptr<NeighborSearcher> make_exact_searcher(
    const AnnConfig& config) {
  return std::make_unique<ExactSearcher>(config);
}

}  // namespace ann

bool searcher_registered(const std::string& name) {
  for (const SearcherEntry& e : kSearchers) {
    if (name == e.name) return true;
  }
  return false;
}

std::vector<std::string> registered_searchers() {
  std::vector<std::string> names;
  for (const SearcherEntry& e : kSearchers) names.emplace_back(e.name);
  return names;
}

std::string searcher_description(const std::string& name) {
  for (const SearcherEntry& e : kSearchers) {
    if (name == e.name) return e.description;
  }
  ARAMS_CHECK(false, "unknown kNN backend '" + name + "'");
  return {};
}

std::unique_ptr<NeighborSearcher> make_searcher(const AnnConfig& config) {
  const std::vector<std::string> errors = config.validate();
  if (!errors.empty()) {
    std::string joined;
    for (const std::string& e : errors) {
      if (!joined.empty()) joined += "; ";
      joined += e;
    }
    ARAMS_CHECK(false, "invalid AnnConfig: " + joined);
  }
  if (config.backend == "exact") return ann::make_exact_searcher(config);
  if (config.backend == "rpforest") return ann::make_rpforest_searcher(config);
  return std::make_unique<AutoSearcher>(config);
}

std::unique_ptr<NeighborSearcher> make_searcher(const std::string& name,
                                                std::uint64_t seed) {
  AnnConfig config;
  config.backend = name;
  config.seed = seed;
  return make_searcher(config);
}

}  // namespace arams::embed
