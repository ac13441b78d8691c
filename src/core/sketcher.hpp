#pragma once
// core::Sketcher — the one seam every matrix-sketching backend sits behind.
//
// The paper's whole comparison (FD-family vs sampling vs random projection,
// Desai–Ghashami–Phillips 2016) only becomes architecture when the pipeline
// can swap designs without recompiling: the streaming monitor, the stage
// runner, the CLI and the ablation benches all consume this interface, and
// the factory (`make_sketcher`) resolves a backend by name at run time.
//
// Registered backends (canonical factory names):
//   arams        priority sampling + (rank-adaptive) FD — Algorithm 3
//   fd           fixed-rank Frequent Directions (fast 2ℓ buffer)
//   isvd         incremental truncated SVD (no shrinkage, no guarantee)
//   gaussian     dense Gaussian (JL) projection, batch GEMM accumulation
//   countsketch  sparse sign embedding (one bucket per row)
//   normsample   length-squared iid row sampling (A-Res reservoirs)
//   rangefinder  single-pass randomized range-finder / Nyström sketch of
//                AᵀA (Tropp, Yurtsever, Udell, Cevher 2017)
//
// Any backend can additionally be wrapped in N concurrent ingest shards
// with the "sharded:<inner>" spelling (e.g. "sharded:fd") or by setting
// SketcherConfig::shards > 1 — see core/sharded.hpp.
//
// ## Empty-state contract (uniform across every backend)
//
//  * `dim() == 0` until the first row lands in the sketch. Note that a
//    push_batch call alone is no guarantee for every backend — ARAMS's
//    priority sampler may drop an entire batch — so callers gate on
//    `dim()`, never on "I pushed something".
//  * `sketch()` on an empty sketch returns an empty Matrix (0×0 before the
//    dimension is known, 0×d once it is). It never throws.
//  * `basis(k)` REQUIRES `dim() > 0` and throws util::CheckError with the
//    uniform "basis of an empty sketch" message otherwise; once the
//    dimension is known it returns a (possibly 0)×d row-orthonormal matrix.
//    Check `dim() != 0` first.

#include <memory>
#include <string>
#include <vector>

#include "core/arams_sketch.hpp"
#include "core/sketch_stats.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"
#include "linalg/workspace.hpp"
#include "obs/stage_report.hpp"
#include "rng/rng.hpp"

namespace arams::core {

/// Streaming matrix-sketcher interface. Its whole ingest seam is
/// `push_batch`, in fp64 and fp32: a row stream is a sequence of batches,
/// and one row is a one-row batch (MatrixView::rows_of(m, r, r + 1)).
/// Long-lived instances are expected to be allocation-free at steady state
/// in their ingest path (grow-only scratch, workspace-backed kernels).
class Sketcher {
 public:
  virtual ~Sketcher() = default;

  /// Ingests a batch of rows (n×d), read in place: a Matrix converts to a
  /// view, and a row range of one (MatrixView::rows_of) costs no copy. The
  /// first non-empty batch fixes d.
  virtual void push_batch(linalg::MatrixView batch) = 0;

  /// fp32 ingest lane: accepts an fp32 batch directly. The default widens
  /// into grow-only scratch (allocation-free at steady state), charges the
  /// conversion to the "ingest.widen_seconds" histogram and forwards to
  /// the fp64 primitive, so *every* backend accepts fp32 frames. Two
  /// backends override it: arams (when it samples, its priority sampler
  /// reads the float rows and widens only the survivors; at β = 1 it
  /// calls this default) and the sharded wrapper (it gathers float rows
  /// per shard and hands each shard an fp32 batch). Either way the
  /// result is bitwise identical to widening the batch up front, because
  /// every accumulation runs in double.
  virtual void push_batch(linalg::MatrixViewF batch);

  /// Current sketch, ≤ current_ell() rows × dim(). May compress internal
  /// state but must be idempotent: two consecutive calls with no ingest in
  /// between return identical matrices. Empty sketch → empty Matrix.
  virtual linalg::Matrix sketch() = 0;

  /// Orthonormal top-k principal row directions of the current sketch
  /// (≤k × d). Precondition: dim() > 0 (throws CheckError otherwise — see
  /// the empty-state contract above). Default implementation recovers the
  /// right singular vectors of sketch() through an SVD whose workspace the
  /// sketcher keeps across calls; backends with a cheaper route (FD's
  /// already-rotated buffer) override.
  virtual linalg::Matrix basis(std::size_t k);

  /// Target sketch size ℓ (rows retained); grows under rank adaptation.
  [[nodiscard]] virtual std::size_t current_ell() const = 0;

  /// Column count; 0 until the first row actually lands in the sketch.
  [[nodiscard]] virtual std::size_t dim() const = 0;

  /// Operation counters (rows, rotations, probes, shrink seconds).
  [[nodiscard]] virtual SketchStats stats() const = 0;

  /// Folds stats() into a StageReport — the structured form every result
  /// type carries. When any fp32 rows were ingested the report also gains
  /// the lane's counters ("rows_ingested_f32", "ingest_widen" seconds), so
  /// fp64-only runs keep their report shape bit-for-bit. Virtual so
  /// composite backends (sharded) can append their own keys; overrides
  /// must call the base.
  virtual void report(obs::StageReport& out) const {
    append_to_report(stats(), out);
    if (rows_f32_ > 0) {
      out.add_counter("rows_ingested_f32", rows_f32_);
      out.add_seconds("ingest_widen", widen_seconds_);
    }
  }

  /// fp32 rows ingested through the lane (the default or an override).
  [[nodiscard]] long rows_ingested_f32() const { return rows_f32_; }

  /// Canonical factory name; make_sketcher(name(), …) round-trips.
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  /// Credits `rows` fp32 rows to the ingest counters — the fp32 overrides
  /// call this, since they bypass the default's widen.
  void note_f32_rows(std::size_t rows) {
    rows_f32_ += static_cast<long>(rows);
  }

 private:
  linalg::Matrix widened_;  ///< fp32 lane widen target, grow-only
  linalg::Workspace basis_ws_;  ///< default basis() SVD scratch, grow-only
  linalg::SigmaVt basis_svd_;   ///< default basis() SVD output
  long rows_f32_ = 0;
  double widen_seconds_ = 0.0;
};

/// Configuration for any factory-constructed backend. `backend` selects the
/// implementation; the scalar knobs apply to the simple backends, and the
/// nested AramsConfig carries the full Algorithm-3 parameter set for
/// "arams" (which reads its own ell/seed from `arams`, not the scalars).
struct SketcherConfig {
  std::string backend = "arams";  ///< registered backend name
  std::size_t ell = 32;           ///< sketch rows for non-arams backends
  std::uint64_t seed = 2024;      ///< RNG seed for non-arams backends

  /// Concurrent ingest shards. 1 = plain single instance. Either shards > 1
  /// or a "sharded:<inner>" backend spelling builds a core::ShardedSketcher
  /// over the shared pool; shard i seeds with seed + i.
  std::size_t shards = 1;

  /// Full parameter set for the "arams" backend.
  AramsConfig arams;

  // --- rangefinder knobs ---
  std::size_t rf_oversample = 8;    ///< extra probe columns beyond ℓ
  std::size_t rf_reorth_every = 16; ///< batches between QR re-orthogonalizations

  /// Human-readable configuration errors, empty when usable. Called by
  /// make_sketcher so a bad config fails at the API boundary.
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// True when `name` is a registered backend name.
[[nodiscard]] bool sketcher_registered(const std::string& name);

/// Canonical backend names, factory registration order.
[[nodiscard]] std::vector<std::string> registered_sketchers();

/// One-line description of a canonical backend (for --help / `arams
/// backends`). Throws CheckError on unknown names.
[[nodiscard]] std::string sketcher_description(const std::string& name);

/// Builds the backend selected by `config.backend`. Validates the config
/// and throws CheckError on errors or unknown names.
std::unique_ptr<Sketcher> make_sketcher(const SketcherConfig& config);

/// Convenience: default config with the given name/ell/seed. For "arams"
/// this is the stock AramsConfig (sampling + rank adaptation on) with
/// ell/seed substituted.
std::unique_ptr<Sketcher> make_sketcher(const std::string& name,
                                        std::size_t ell, std::uint64_t seed);

/// Single-pass randomized range-finder sketch — the streaming Nyström
/// approximation of G = AᵀA from Tropp, Yurtsever, Udell & Cevher,
/// "Fixed-rank approximation of a positive-semidefinite matrix from
/// streaming data" (2017), adapted to row streams:
///
///   maintain   Y = G·Ω = Σ_batches batchᵀ·(batch·Ω)
///
/// with Ω a fixed seeded d×k Gaussian test matrix (k = ℓ + oversample).
/// Each batch costs two packed GEMMs; every `reorth_every` batches Ω is
/// QR-re-orthogonalized (Householder) and Y is rotated by R⁻¹ so the
/// invariant Y = G·Ω survives with a well-conditioned Ω. sketch() forms
/// the shifted Nyström factor T = Λ^{-1/2}·Uᵀ·(Y+νΩ)ᵀ (eig of the k×k
/// Ωᵀ(Y+νΩ)) and truncates to the top ℓ of Σ·Vᵀ — so BᵀB equals the
/// fixed-rank Nyström approximation of G.
///
/// No FD-style worst-case bound; accuracy tracks the spectral decay
/// (excellent on low-rank streams, weak on flat spectra) at a fraction of
/// FD's per-row cost. Measured against the family in
/// `bench/ablation_baselines`.
class RangeFinderSketch : public Sketcher {
 public:
  RangeFinderSketch(std::size_t ell, std::uint64_t seed,
                    std::size_t oversample = 8,
                    std::size_t reorth_every = 16);

  void push_batch(linalg::MatrixView batch) override;
  linalg::Matrix sketch() override;
  [[nodiscard]] std::size_t current_ell() const override { return ell_; }
  [[nodiscard]] std::size_t dim() const override { return dim_; }
  [[nodiscard]] SketchStats stats() const override { return stats_; }
  [[nodiscard]] std::string name() const override { return "rangefinder"; }

 private:
  void ensure_dim(std::size_t d);
  /// Ω ← Q, Y ← Y·R⁻¹ from the thin Householder QR of Ω.
  void reorthogonalize();

  std::size_t ell_;
  std::size_t oversample_;
  std::size_t reorth_every_;
  std::uint64_t seed_;
  std::size_t k_ = 0;    ///< probe columns, min(ℓ + oversample, d)
  std::size_t dim_ = 0;  ///< 0 until the first row arrives
  std::size_t batches_ = 0;
  linalg::Matrix omega_;  ///< d×k test matrix
  linalg::Matrix y_;      ///< d×k accumulated G·Ω
  SketchStats stats_;
  // Grow-only scratch: steady-state push_batch (between
  // re-orthogonalizations) performs no heap allocation.
  linalg::Matrix proj_;    ///< batch·Ω (b×k)
  linalg::Matrix update_;  ///< batchᵀ·proj (d×k)
  linalg::Matrix ys_;      ///< shifted Y (d×k), sketch() scratch
  linalg::Matrix gram_;    ///< ΩᵀYs (k×k)
  linalg::Matrix z_;       ///< Ys·U (d×r)
  linalg::Matrix t_;       ///< Nyström factor (r×d)
  linalg::Workspace ws_;
  linalg::SymmetricEig eig_;
  linalg::SigmaVt svd_;
};

}  // namespace arams::core
