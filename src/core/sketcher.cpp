#include "core/sketcher.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "core/baselines.hpp"
#include "core/fd.hpp"
#include "core/sharded.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace arams::core {

using linalg::Matrix;

namespace {

/// Uniform empty-state message — every backend's basis() precondition
/// failure reads the same (see the contract in sketcher.hpp).
constexpr const char* kEmptyBasisMessage =
    "basis of an empty sketch: no rows ingested yet "
    "(check dim() != 0 before calling basis)";

struct BackendEntry {
  const char* name;
  const char* description;
};

/// Canonical registry, factory order.
constexpr BackendEntry kBackends[] = {
    {"arams", "priority sampling + (rank-adaptive) FD — the paper's Alg. 3"},
    {"fd", "fixed-rank Frequent Directions, fast 2l-buffer variant"},
    {"isvd", "incremental truncated SVD (no shrinkage, no guarantee)"},
    {"gaussian", "dense Gaussian (JL) projection, one GEMM per batch"},
    {"countsketch", "sparse sign embedding, one scatter pass per batch"},
    {"normsample", "length-squared iid row sampling (A-Res reservoirs)"},
    {"rangefinder",
     "single-pass randomized range-finder / Nystrom sketch of A^T A"},
};

/// The registry entry named `name`; nullptr when unknown.
const BackendEntry* find_backend(const std::string& name) {
  for (const auto& entry : kBackends) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

/// The sharded-wrapper spelling: "sharded:<inner>" wraps any plain backend
/// in SketcherConfig::shards concurrent ingest shards (core/sharded.hpp).
constexpr const char* kShardedPrefix = "sharded:";

bool is_sharded_name(const std::string& name) {
  return name.rfind(kShardedPrefix, 0) == 0;
}

std::string sharded_inner_name(const std::string& name) {
  return name.substr(std::string(kShardedPrefix).size());
}

std::string joined_backend_names() {
  std::ostringstream out;
  bool first = true;
  for (const auto& entry : kBackends) {
    if (!first) out << ", ";
    out << entry.name;
    first = false;
  }
  return out.str();
}

/// Adapter presenting the full ARAMS engine (priority sampling +
/// rank-adaptive FD) through the Sketcher seam. Owns a core::Arams built
/// from the exact AramsConfig handed in, so factory-built "arams" behaves
/// bitwise-identically to direct core::Arams use. A sampled fp32 push goes
/// to Arams, whose priority sampler reads the float rows directly; an
/// unsampled one (β = 1) takes the seam's timed widen. Its report adds the
/// sampler's time as "sample", the entry Arams::sketch_matrix reports.
class AramsSketcher final : public Sketcher {
 public:
  explicit AramsSketcher(const AramsConfig& config) : arams_(config) {}

  void push_batch(linalg::MatrixView batch) override {
    arams_.push_batch(batch);
  }
  void push_batch(linalg::MatrixViewF batch) override {
    if (!arams_.samples_batches()) {
      Sketcher::push_batch(batch);
      return;
    }
    arams_.push_batch(batch);
    note_f32_rows(batch.rows());
  }
  void report(obs::StageReport& out) const override {
    Sketcher::report(out);
    out.add_seconds("sample", arams_.sample_seconds());
  }
  Matrix sketch() override { return arams_.sketch(); }
  Matrix basis(std::size_t k) override {
    ARAMS_CHECK(arams_.dim() > 0, kEmptyBasisMessage);
    return arams_.basis(k);
  }
  [[nodiscard]] std::size_t current_ell() const override {
    return arams_.current_ell();
  }
  [[nodiscard]] std::size_t dim() const override { return arams_.dim(); }
  [[nodiscard]] SketchStats stats() const override { return arams_.stats(); }
  [[nodiscard]] std::string name() const override { return "arams"; }

 private:
  Arams arams_;
};

/// Adapter presenting fixed-rank FrequentDirections (fast variant) through
/// the Sketcher seam.
class FdBackend final : public Sketcher {
 public:
  explicit FdBackend(std::size_t ell)
      : fd_(FdConfig{.sketch_rows = ell, .fast = true}) {}

  void push_batch(linalg::MatrixView batch) override {
    fd_.append_batch(batch);
  }
  Matrix sketch() override {
    fd_.compress();
    return fd_.sketch();
  }
  Matrix basis(std::size_t k) override {
    ARAMS_CHECK(fd_.dim() > 0, kEmptyBasisMessage);
    return fd_.basis(k);
  }
  [[nodiscard]] std::size_t current_ell() const override { return fd_.ell(); }
  [[nodiscard]] std::size_t dim() const override { return fd_.dim(); }
  [[nodiscard]] SketchStats stats() const override { return fd_.stats(); }
  [[nodiscard]] std::string name() const override { return "fd"; }

 private:
  FrequentDirections fd_;
};

}  // namespace

// ----------------------------------------------------- interface defaults

void Sketcher::push_batch(linalg::MatrixViewF batch) {
  if (batch.rows() == 0) return;
  // Resolved once; the per-batch cost is the cast loop plus one histogram
  // observation.
  static obs::Histogram& widen_hist =
      obs::metrics().histogram("ingest.widen_seconds");
  Stopwatch timer;
  linalg::widen(batch, widened_);
  const double seconds = timer.seconds();
  widen_seconds_ += seconds;
  widen_hist.observe(seconds);
  note_f32_rows(batch.rows());
  push_batch(widened_);
}

Matrix Sketcher::basis(std::size_t k) {
  ARAMS_CHECK(dim() > 0, kEmptyBasisMessage);
  const Matrix b = sketch();
  if (b.rows() == 0 || k == 0) return Matrix(0, dim());
  linalg::sigma_vt_svd(b, basis_ws_, basis_svd_, std::min(k, b.rows()));
  const linalg::SigmaVt& svd = basis_svd_;
  // Rows of w are σᵢ·vᵢᵀ; normalizing recovers the orthonormal directions.
  // Same 1e-7 relative rank floor as FD::basis / right_vectors.
  const std::size_t cap = std::min({k, svd.w.rows(), svd.sigma.size()});
  const double floor = svd.sigma.empty() ? 0.0 : 1e-7 * svd.sigma[0];
  std::size_t keep = 0;
  while (keep < cap && svd.sigma[keep] > floor) ++keep;
  Matrix out(keep, dim());
  for (std::size_t i = 0; i < keep; ++i) {
    out.set_row(i, svd.w.row(i));
    linalg::scale(out.row(i), 1.0 / svd.sigma[i]);
  }
  return out;
}

// ------------------------------------------------------- config + factory

std::vector<std::string> SketcherConfig::validate() const {
  std::vector<std::string> errors;
  if (shards < 1) {
    errors.push_back("shards must be >= 1, got " + std::to_string(shards));
    return errors;
  }
  if (is_sharded_name(backend)) {
    const std::string inner = sharded_inner_name(backend);
    if (is_sharded_name(inner)) {
      errors.push_back("nested sharded backends are not supported, got '" +
                       backend + "'");
      return errors;
    }
    if (find_backend(inner) == nullptr) {
      errors.push_back("sharded: unknown inner backend '" + inner +
                       "' (registered: " + joined_backend_names() + ")");
      return errors;
    }
    SketcherConfig inner_config = *this;
    inner_config.backend = inner;
    inner_config.shards = 1;
    for (const auto& err : inner_config.validate()) {
      errors.push_back("sharded: " + err);
    }
    return errors;
  }
  if (find_backend(backend) == nullptr) {
    errors.push_back("unknown sketcher backend '" + backend +
                     "' (registered: " + joined_backend_names() + ")");
    return errors;
  }
  if (backend == "arams") {
    for (const auto& err : arams.validate()) {
      errors.push_back("arams: " + err);
    }
    return errors;
  }
  if (ell < 1) {
    errors.push_back("ell must be >= 1");
  }
  if (backend == "rangefinder") {
    if (rf_oversample < 1) {
      errors.push_back("rangefinder oversample must be >= 1");
    }
    if (rf_reorth_every < 1) {
      errors.push_back("rangefinder reorth_every must be >= 1");
    }
  }
  return errors;
}

bool sketcher_registered(const std::string& name) {
  if (is_sharded_name(name)) {
    const std::string inner = sharded_inner_name(name);
    return !is_sharded_name(inner) && find_backend(inner) != nullptr;
  }
  return find_backend(name) != nullptr;
}

std::vector<std::string> registered_sketchers() {
  std::vector<std::string> names;
  names.reserve(std::size(kBackends));
  for (const auto& entry : kBackends) {
    names.emplace_back(entry.name);
  }
  return names;
}

std::string sketcher_description(const std::string& name) {
  if (is_sharded_name(name)) {
    const std::string inner = sharded_inner_name(name);
    ARAMS_CHECK(sketcher_registered(name), "unknown sketcher: " + name);
    return "concurrent sharded ingest over '" + inner +
           "', pool tree-merged at sketch() (--shards=N)";
  }
  const BackendEntry* entry = find_backend(name);
  ARAMS_CHECK(entry != nullptr, "unknown sketcher: " + name);
  return entry->description;
}

std::unique_ptr<Sketcher> make_sketcher(const SketcherConfig& config) {
  const auto errors = config.validate();
  if (!errors.empty()) {
    std::ostringstream msg;
    msg << "invalid sketcher config:";
    for (const auto& err : errors) msg << " " << err << ";";
    ARAMS_CHECK(false, msg.str());
  }
  if (is_sharded_name(config.backend) || config.shards > 1) {
    SketcherConfig inner = config;
    inner.backend = is_sharded_name(config.backend)
                        ? sharded_inner_name(config.backend)
                        : config.backend;
    inner.shards = 1;
    return std::make_unique<ShardedSketcher>(inner, config.shards,
                                             &parallel::shared_pool());
  }
  const std::string& backend = config.backend;
  if (backend == "arams") {
    return std::make_unique<AramsSketcher>(config.arams);
  }
  if (backend == "fd") {
    return std::make_unique<FdBackend>(config.ell);
  }
  if (backend == "isvd") {
    return std::make_unique<TruncatedSvdSketch>(config.ell);
  }
  if (backend == "gaussian") {
    return std::make_unique<GaussianProjectionSketch>(config.ell, config.seed);
  }
  if (backend == "countsketch") {
    return std::make_unique<CountSketch>(config.ell, config.seed);
  }
  if (backend == "normsample") {
    return std::make_unique<NormSamplingSketch>(config.ell, config.seed);
  }
  if (backend == "rangefinder") {
    return std::make_unique<RangeFinderSketch>(
        config.ell, config.seed, config.rf_oversample, config.rf_reorth_every);
  }
  ARAMS_CHECK(false, "unknown sketcher: " + config.backend);
  return nullptr;
}

std::unique_ptr<Sketcher> make_sketcher(const std::string& name,
                                        std::size_t ell, std::uint64_t seed) {
  SketcherConfig config;
  config.backend = name;
  config.ell = ell;
  config.seed = seed;
  config.arams.ell = ell;
  config.arams.seed = seed;
  return make_sketcher(config);
}

// ------------------------------------------------------------ rangefinder

RangeFinderSketch::RangeFinderSketch(std::size_t ell, std::uint64_t seed,
                                     std::size_t oversample,
                                     std::size_t reorth_every)
    : ell_(ell),
      oversample_(oversample),
      reorth_every_(reorth_every),
      seed_(seed) {
  ARAMS_CHECK(ell >= 1, "sketch needs at least one row");
  ARAMS_CHECK(oversample >= 1, "rangefinder oversample must be >= 1");
  ARAMS_CHECK(reorth_every >= 1, "rangefinder reorth_every must be >= 1");
}

void RangeFinderSketch::ensure_dim(std::size_t d) {
  if (dim_ == 0) {
    ARAMS_CHECK(d > 0, "zero-dimensional rows");
    dim_ = d;
    k_ = std::min(ell_ + oversample_, d);
    omega_ = Matrix(d, k_);
    Rng rng(seed_);
    rng.fill_normal(std::span<double>(omega_.data(), d * k_));
    y_ = Matrix(d, k_);
  }
  ARAMS_CHECK(d == dim_, "row dimension changed");
}

void RangeFinderSketch::push_batch(linalg::MatrixView batch) {
  if (batch.rows() == 0) return;
  ensure_dim(batch.cols());
  // Y += batchᵀ·(batch·Ω): two packed GEMMs keep the invariant Y = G·Ω.
  linalg::matmul(batch, omega_, proj_);
  linalg::matmul_tn(batch, proj_, update_);
  for (std::size_t r = 0; r < dim_; ++r) {
    linalg::axpy(1.0, update_.row(r), y_.row(r));
  }
  stats_.rows_processed += static_cast<long>(batch.rows());
  ++batches_;
  if (batches_ % reorth_every_ == 0) {
    reorthogonalize();
  }
}

void RangeFinderSketch::reorthogonalize() {
  // Thin QR of the drifting test matrix; rotating Y by R⁻¹ preserves
  // Y = G·Ω while Ω regains orthonormal columns.
  auto qr = linalg::householder_qr(omega_);
  double max_diag = 0.0;
  for (std::size_t j = 0; j < k_; ++j) {
    max_diag = std::max(max_diag, std::abs(qr.r(j, j)));
  }
  const double tiny = 1e-13 * max_diag;
  // Row-wise in-place back-substitution: X·R = Y. Processing columns in
  // ascending order, x[i<j] is already final when x[j] is formed.
  for (std::size_t row = 0; row < dim_; ++row) {
    auto y = y_.row(row);
    for (std::size_t j = 0; j < k_; ++j) {
      double s = y[j];
      for (std::size_t i = 0; i < j; ++i) {
        s -= y[i] * qr.r(i, j);
      }
      y[j] = (std::abs(qr.r(j, j)) > tiny) ? s / qr.r(j, j) : 0.0;
    }
  }
  omega_ = std::move(qr.q);
}

Matrix RangeFinderSketch::sketch() {
  if (dim_ == 0) return Matrix();
  Stopwatch timer;
  // Shifted Nyström factorization (Tropp et al. 2017, Alg. 3 adapted to
  // our eig core): Ys = Y + νΩ, M = sym(ΩᵀYs) = UΛUᵀ,
  // T = Λ^{-1/2}·Uᵀ·Ysᵀ so that TᵀT = Ys·M⁻¹·Ysᵀ ≈ G.
  const double shift = std::sqrt(static_cast<double>(dim_)) *
                       std::numeric_limits<double>::epsilon() *
                       linalg::frobenius_norm(y_);
  ys_.reshape(dim_, k_);
  for (std::size_t r = 0; r < dim_; ++r) {
    ys_.set_row(r, y_.row(r));
    linalg::axpy(shift, omega_.row(r), ys_.row(r));
  }
  linalg::matmul_tn(omega_, ys_, gram_);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double avg = 0.5 * (gram_(i, j) + gram_(j, i));
      gram_(i, j) = avg;
      gram_(j, i) = avg;
    }
  }
  linalg::EigenConfig eig_config;
  eig_config.vectors = true;
  eig_config.max_vectors = k_;
  linalg::eigen_symmetric(gram_, ws_, eig_, eig_config);
  // Drop the numerically null probe directions: 1/√λ amplifies anything
  // below the eigenvalue floor into pure noise.
  const double lambda_max = eig_.values.empty() ? 0.0 : eig_.values.front();
  std::size_t rank = 0;
  while (rank < eig_.values.size() && rank < eig_.vectors.cols() &&
         eig_.values[rank] > lambda_max * 1e-10 && eig_.values[rank] > 0.0) {
    ++rank;
  }
  if (rank == 0) return Matrix(0, dim_);
  linalg::matmul(ys_, eig_.vectors, z_);  // Z = Ys·U (d × #vectors)
  t_.reshape(rank, dim_);
  for (std::size_t i = 0; i < rank; ++i) {
    const double inv = 1.0 / std::sqrt(eig_.values[i]);
    auto row = t_.row(i);
    for (std::size_t c = 0; c < dim_; ++c) {
      row[c] = z_(c, i) * inv;
    }
  }
  // Fixed-rank truncation through the packed SVD core: keep the top-ℓ of
  // Σ·Vᵀ of the Nyström factor, exactly the FD output convention.
  linalg::sigma_vt_svd(t_, ws_, svd_, std::min(ell_, rank));
  const std::size_t cap = std::min({ell_, svd_.w.rows(), svd_.sigma.size()});
  std::size_t keep = 0;
  while (keep < cap && svd_.sigma[keep] > 0.0) ++keep;
  Matrix out(keep, dim_);
  for (std::size_t i = 0; i < keep; ++i) {
    out.set_row(i, svd_.w.row(i));
  }
  ++stats_.svd_count;
  stats_.shrink_seconds += timer.seconds();
  return out;
}

}  // namespace arams::core
