// core::Sketcher conformance suite — every factory-registered backend must
// honor the interface contract in sketcher.hpp:
//   * factory round-trip: make_sketcher(name(), …) rebuilds the same kind
//   * batch-vs-row parity: push_batch(A) ≡ one-row push_batch per row
//   * bitwise determinism under a fixed seed
//   * allocation-free steady-state ingest
//   * sketch() idempotence
//   * the uniform empty-state contract (dim 0 / empty sketch / checked basis)
//
// The allocation check overrides global operator new/delete in this
// translation unit only (each gtest binary is its own process, so the
// override is hermetic) — same pattern as test_distance.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <vector>

#include "core/sketcher.hpp"
#include "data/beam_profile.hpp"
#include "data/diffraction.hpp"
#include "data/synthetic.hpp"
#include "image/image.hpp"
#include "image/preprocess.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace {
std::atomic<long> g_heap_allocations{0};
}  // namespace

// The replacements stay out of line: inlined into a caller, GCC pairs the
// malloc() of one with the delete or free() of another and reports a
// mismatch (-Wmismatched-new-delete), although all of them are these.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     std::align_val_t a) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a), n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace arams::core {
namespace {

using linalg::Matrix;

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  for (std::size_t i = 0; i < r; ++i) rng.fill_normal(m.row(i));
  return m;
}

/// Same draw as random_matrix, narrowed once — the fp32 lane's input. Pair
/// with widen() so both lanes start from the identical float values.
linalg::MatrixF random_matrix_f32(std::size_t r, std::size_t c,
                                  std::uint64_t seed) {
  const Matrix wide = random_matrix(r, c, seed);
  linalg::MatrixF m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    const auto src = wide.row(i);
    auto dst = m.row(i);
    for (std::size_t j = 0; j < c; ++j) {
      dst[j] = static_cast<float>(src[j]);
    }
  }
  return m;
}

/// Backend config for the strict conformance properties. Two deliberate
/// accommodations, both documented in sketcher.hpp:
///  * arams runs with sampling and rank adaptation off — the priority
///    sampler decides per *batch*, so row-wise and batched ingest see
///    different sample draws by design, and adaptation re-sizes scratch.
///  * rangefinder's re-orthogonalization cadence is pushed past the test
///    window — the QR step is batch-count-triggered (ingest-granularity
///    dependent) and allocates by design.
SketcherConfig conformance_config(const std::string& name, std::size_t ell,
                                  std::uint64_t seed) {
  SketcherConfig config;
  config.backend = name;
  config.ell = ell;
  config.seed = seed;
  config.arams.ell = ell;
  config.arams.seed = seed;
  config.arams.use_sampling = false;
  config.arams.rank_adaptive = false;
  config.rf_reorth_every = 1u << 20;
  return config;
}

// ------------------------------------------------------------- the factory

TEST(SketcherFactory, RoundTripsEveryRegisteredName) {
  const auto names = registered_sketchers();
  EXPECT_EQ(names.size(), 7u);
  for (const auto& name : names) {
    EXPECT_TRUE(sketcher_registered(name));
    EXPECT_FALSE(sketcher_description(name).empty());
    const auto sketcher = make_sketcher(name, 8, 3);
    ASSERT_NE(sketcher, nullptr);
    // name() must be the canonical factory name, so it round-trips.
    EXPECT_EQ(sketcher->name(), name);
    EXPECT_EQ(make_sketcher(sketcher->name(), 8, 3)->name(), name);
  }
  EXPECT_FALSE(sketcher_registered("typo"));
  EXPECT_THROW(make_sketcher("typo", 8, 3), CheckError);
  EXPECT_THROW(sketcher_description("typo"), CheckError);
}

TEST(SketcherFactory, UnknownBackendErrorListsRegistry) {
  SketcherConfig config;
  config.backend = "nope";
  const auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("unknown sketcher backend 'nope'"),
            std::string::npos);
  // The message should teach the registry, not just reject.
  EXPECT_NE(errors[0].find("rangefinder"), std::string::npos);
  EXPECT_THROW(make_sketcher(config), CheckError);
}

TEST(SketcherFactory, AramsErrorsArePrefixed) {
  SketcherConfig config;
  config.backend = "arams";
  config.arams.beta = -0.5;
  const auto errors = config.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].rfind("arams: ", 0), 0u) << errors[0];
}

TEST(SketcherFactory, RangefinderKnobsValidated) {
  SketcherConfig config;
  config.backend = "rangefinder";
  config.rf_oversample = 0;
  config.rf_reorth_every = 0;
  EXPECT_EQ(config.validate().size(), 2u);
  EXPECT_THROW(make_sketcher(config), CheckError);
}

// ------------------------------------------------- conformance properties

class SketcherConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(SketcherConformance, EmptyStateContract) {
  const auto sketcher = make_sketcher(conformance_config(GetParam(), 8, 5));
  EXPECT_EQ(sketcher->dim(), 0u);
  EXPECT_EQ(sketcher->stats().rows_processed, 0);
  EXPECT_EQ(sketcher->sketch().rows(), 0u);  // never throws when empty
  try {
    sketcher->basis(4);
    FAIL() << GetParam() << ": basis() on an empty sketch must throw";
  } catch (const CheckError& e) {
    // The uniform message, identical across backends.
    EXPECT_NE(std::string(e.what()).find("basis of an empty sketch"),
              std::string::npos)
        << GetParam();
  }
}

TEST_P(SketcherConformance, BatchAndRowIngestAgree) {
  // A row is a one-row batch: the seam has no per-row entry point.
  const Matrix a = random_matrix(60, 18, 6);
  const auto batched = make_sketcher(conformance_config(GetParam(), 8, 5));
  const auto rowwise = make_sketcher(conformance_config(GetParam(), 8, 5));
  batched->push_batch(a);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    rowwise->push_batch(linalg::MatrixView::rows_of(a, r, r + 1));
  }

  const Matrix sb = batched->sketch();
  const Matrix sr = rowwise->sketch();
  ASSERT_EQ(sb.rows(), sr.rows()) << GetParam();
  ASSERT_EQ(sb.cols(), sr.cols()) << GetParam();
  EXPECT_EQ(batched->stats().rows_processed, rowwise->stats().rows_processed);
  // gaussian accumulates one GEMM per batch and rangefinder one Y-update
  // per batch, so row/batch sums associate differently — parity is exact
  // up to floating-point summation order. Everything else is bitwise.
  const bool exact = GetParam() != "gaussian" && GetParam() != "rangefinder";
  const double tol =
      exact ? 0.0 : 1e-9 * (1.0 + linalg::frobenius_norm(sb));
  EXPECT_LE(Matrix::max_abs_diff(sb, sr), tol) << GetParam();
}

TEST_P(SketcherConformance, DeterministicUnderFixedSeed) {
  // Stock factory config (for arams that means sampling + adaptation ON):
  // identical seed and ingest pattern must reproduce the sketch bitwise.
  const Matrix a = random_matrix(90, 16, 7);
  const auto first = make_sketcher(GetParam(), 12, 77);
  const auto second = make_sketcher(GetParam(), 12, 77);
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += 30) {
    first->push_batch(a.slice_rows(r0, r0 + 30));
    second->push_batch(a.slice_rows(r0, r0 + 30));
  }
  const Matrix s1 = first->sketch();
  const Matrix s2 = second->sketch();
  ASSERT_EQ(s1.rows(), s2.rows()) << GetParam();
  EXPECT_EQ(Matrix::max_abs_diff(s1, s2), 0.0) << GetParam();
  EXPECT_EQ(first->current_ell(), second->current_ell());
}

TEST_P(SketcherConformance, SketchIsIdempotent) {
  const Matrix a = random_matrix(50, 14, 8);
  const auto sketcher = make_sketcher(conformance_config(GetParam(), 8, 5));
  sketcher->push_batch(a);
  const Matrix s1 = sketcher->sketch();
  const Matrix s2 = sketcher->sketch();
  ASSERT_EQ(s1.rows(), s2.rows()) << GetParam();
  ASSERT_EQ(s1.cols(), s2.cols()) << GetParam();
  EXPECT_EQ(Matrix::max_abs_diff(s1, s2), 0.0) << GetParam();
  EXPECT_EQ(sketcher->stats().rows_processed, 50);
}

/// The paper's default ARAMS config — priority sampling at β = 0.8 and
/// rank adaptation with ν probes — with ε set so high that ℓ never grows
/// (a rank growth re-sizes the FD buffer, which allocates by design).
/// Shapes stay tiny so the GEMM cores run serially (no pool dispatch).
SketcherConfig default_arams_fixed_rank_config() {
  SketcherConfig config;
  config.backend = "arams";
  config.ell = 6;
  config.arams.ell = 6;
  config.arams.seed = 5;
  config.arams.epsilon = 1e6;
  return config;
}

/// Warm-up fixes d, grows every scratch buffer and (for fd/arams/isvd)
/// passes through at least one shrink cycle — for arams with rank
/// adaptation, one probe estimate too; then ingest must not allocate.
template <typename Batch>
void expect_steady_state_allocation_free(const SketcherConfig& config,
                                         const std::vector<Batch>& batches) {
  const auto sketcher = make_sketcher(config);
  const std::size_t warm = batches.size() * 2 / 3;
  for (std::size_t i = 0; i < warm; ++i) sketcher->push_batch(batches[i]);

  const long before = g_heap_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = warm; i < batches.size(); ++i) {
    sketcher->push_batch(batches[i]);
  }
  const long after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << config.backend;
  EXPECT_EQ(sketcher->current_ell(), config.ell) << config.backend;
}

TEST_P(SketcherConformance, SteadyStateIngestIsAllocationFree) {
  std::vector<Matrix> batches;
  batches.reserve(24);
  for (std::size_t i = 0; i < 24; ++i) {
    batches.push_back(random_matrix(8, 12, 100 + i));
  }
  expect_steady_state_allocation_free(conformance_config(GetParam(), 6, 5),
                                      batches);
  if (GetParam() == "arams") {
    expect_steady_state_allocation_free(default_arams_fixed_rank_config(),
                                        batches);
  }
}

TEST_P(SketcherConformance, BasisIsRowOrthonormal) {
  data::SyntheticConfig dc;
  dc.n = 200;
  dc.d = 20;
  dc.spectrum.kind = data::DecayKind::kExponential;
  dc.spectrum.count = 8;
  dc.spectrum.rate = 0.4;
  Rng rng(9);
  const Matrix a = data::make_low_rank(dc, rng);
  const auto sketcher = make_sketcher(conformance_config(GetParam(), 12, 5));
  sketcher->push_batch(a);
  ASSERT_GT(sketcher->dim(), 0u);

  const Matrix q = sketcher->basis(4);
  ASSERT_LE(q.rows(), 4u) << GetParam();
  ASSERT_EQ(q.cols(), 20u) << GetParam();
  ASSERT_GE(q.rows(), 1u) << GetParam();
  for (std::size_t i = 0; i < q.rows(); ++i) {
    for (std::size_t j = 0; j < q.rows(); ++j) {
      const double dot = linalg::dot(q.row(i), q.row(j));
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-8)
          << GetParam() << " rows " << i << "," << j;
    }
  }
}

TEST_P(SketcherConformance, ReasonableCovarianceOnLowRankData) {
  data::SyntheticConfig dc;
  dc.n = 300;
  dc.d = 30;
  dc.spectrum.kind = data::DecayKind::kExponential;
  dc.spectrum.count = 10;
  dc.spectrum.rate = 0.5;
  Rng rng(10);
  const Matrix a = data::make_low_rank(dc, rng);
  const auto sketcher = make_sketcher(GetParam(), 24, 11);
  sketcher->push_batch(a);
  const Matrix b = sketcher->sketch();
  Rng power(12);
  EXPECT_LT(linalg::covariance_error_relative(a, b, power, 80), 0.6)
      << GetParam();
}

TEST_P(SketcherConformance, StatsFlowIntoStageReport) {
  const auto sketcher = make_sketcher(conformance_config(GetParam(), 8, 5));
  sketcher->push_batch(random_matrix(40, 10, 13));
  obs::StageReport report;
  sketcher->report(report);
  EXPECT_EQ(report.counter("rows_processed"), 40);
}

// -------------------------------------------------- the fp32 ingest lane

TEST_P(SketcherConformance, F32IngestMatchesWidenedIngestBitwise) {
  // Design contract of the mixed-precision lane: pushing fp32 rows is
  // bitwise identical to widening the batch up front, because every
  // accumulation runs in fp64 on the identical widened values (the arams
  // sampler widens its survivors, the Sketcher default the whole batch).
  const linalg::MatrixF a32 = random_matrix_f32(60, 18, 14);
  Matrix a64;
  linalg::widen(linalg::MatrixViewF(a32), a64);
  const auto f32 = make_sketcher(conformance_config(GetParam(), 8, 5));
  const auto f64 = make_sketcher(conformance_config(GetParam(), 8, 5));
  f32->push_batch(linalg::MatrixViewF(a32));
  f64->push_batch(a64);
  const Matrix s32 = f32->sketch();
  const Matrix s64 = f64->sketch();
  ASSERT_EQ(s32.rows(), s64.rows()) << GetParam();
  ASSERT_EQ(s32.cols(), s64.cols()) << GetParam();
  EXPECT_EQ(Matrix::max_abs_diff(s32, s64), 0.0) << GetParam();
  EXPECT_EQ(f32->stats().rows_processed, f64->stats().rows_processed);
}

TEST_P(SketcherConformance, F32IngestTracksWidenedIngestUnderStockConfig) {
  // Stock factory config — for arams that switches priority sampling and
  // rank adaptation ON. The sampler's fp32 weight reduction may differ
  // from the widened stream's in the last ulp (documented in
  // priority_sampler.cpp), so rescaled survivor rows are equal-to-rounding
  // rather than bitwise; every other backend stays exactly bitwise.
  const linalg::MatrixF a32 = random_matrix_f32(90, 16, 15);
  Matrix a64;
  linalg::widen(linalg::MatrixViewF(a32), a64);
  const auto f32 = make_sketcher(GetParam(), 12, 77);
  const auto f64 = make_sketcher(GetParam(), 12, 77);
  for (std::size_t r0 = 0; r0 < a32.rows(); r0 += 30) {
    f32->push_batch(linalg::MatrixViewF::rows_of(a32, r0, r0 + 30));
    f64->push_batch(a64.slice_rows(r0, r0 + 30));
  }
  const Matrix s32 = f32->sketch();
  const Matrix s64 = f64->sketch();
  ASSERT_EQ(s32.rows(), s64.rows()) << GetParam();
  const double tol =
      GetParam() == "arams" ? 1e-12 * (1.0 + linalg::frobenius_norm(s64))
                            : 0.0;
  EXPECT_LE(Matrix::max_abs_diff(s32, s64), tol) << GetParam();
  EXPECT_EQ(f32->current_ell(), f64->current_ell()) << GetParam();
}

TEST_P(SketcherConformance, F32SteadyStateIngestIsAllocationFree) {
  // fp32 twin of SteadyStateIngestIsAllocationFree: the default's
  // grow-only widen target (and every fp32 override) must go quiet
  // once the batch shape has been seen.
  std::vector<linalg::MatrixF> storage;
  storage.reserve(24);
  std::vector<linalg::MatrixViewF> batches;
  batches.reserve(24);
  for (std::size_t i = 0; i < 24; ++i) {
    storage.push_back(random_matrix_f32(8, 12, 200 + i));
    batches.emplace_back(storage.back());
  }
  expect_steady_state_allocation_free(conformance_config(GetParam(), 6, 5),
                                      batches);
  if (GetParam() == "arams") {
    expect_steady_state_allocation_free(default_arams_fixed_rank_config(),
                                        batches);
  }
}

TEST_P(SketcherConformance, EmptyBatchIsANoOp) {
  // An empty batch leaves every backend untouched, in both lanes — for
  // arams also under the stock factory config, where sampling is on.
  std::vector<std::unique_ptr<Sketcher>> sketchers;
  sketchers.push_back(make_sketcher(conformance_config(GetParam(), 8, 5)));
  sketchers.push_back(make_sketcher(GetParam(), 8, 5));
  for (const auto& sketcher : sketchers) {
    sketcher->push_batch(Matrix(0, 12));
    sketcher->push_batch(linalg::MatrixViewF(linalg::MatrixF(0, 12)));
    EXPECT_EQ(sketcher->dim(), 0u) << GetParam();
    EXPECT_EQ(sketcher->stats().rows_processed, 0) << GetParam();

    sketcher->push_batch(random_matrix(30, 12, 18));
    const Matrix before = sketcher->sketch();
    const long rows = sketcher->stats().rows_processed;
    sketcher->push_batch(Matrix(0, 12));
    sketcher->push_batch(linalg::MatrixViewF(linalg::MatrixF(0, 12)));
    const Matrix after = sketcher->sketch();
    ASSERT_EQ(after.rows(), before.rows()) << GetParam();
    EXPECT_EQ(Matrix::max_abs_diff(after, before), 0.0) << GetParam();
    EXPECT_EQ(sketcher->stats().rows_processed, rows) << GetParam();
  }
}

TEST_P(SketcherConformance, F32LaneCountersFlowIntoStageReport) {
  const auto sketcher = make_sketcher(conformance_config(GetParam(), 8, 5));
  sketcher->push_batch(linalg::MatrixViewF(random_matrix_f32(40, 10, 13)));
  EXPECT_EQ(sketcher->rows_ingested_f32(), 40);
  obs::StageReport report;
  sketcher->report(report);
  EXPECT_EQ(report.counter("rows_processed"), 40);
  EXPECT_EQ(report.counter("rows_ingested_f32"), 40);

  // A pure-fp64 run must not grow the lane counter.
  const auto classic = make_sketcher(conformance_config(GetParam(), 8, 5));
  classic->push_batch(random_matrix(40, 10, 13));
  EXPECT_EQ(classic->rows_ingested_f32(), 0);
  obs::StageReport classic_report;
  classic->report(classic_report);
  EXPECT_EQ(classic_report.counter("rows_ingested_f32"), 0);
}

TEST(AramsSketcherLane, UnsampledF32PushIsTimedAtTheSeam) {
  // β = 1 leaves arams no survivors to pick, so its fp32 push takes the
  // seam's timed widen: "ingest_widen" reads the conversion, and the
  // sketch keeps the bits of the widened batch pushed as fp64.
  SketcherConfig config = conformance_config("arams", 8, 5);
  config.arams.use_sampling = true;
  config.arams.beta = 1.0;
  config.arams.rank_adaptive = true;
  const linalg::MatrixF a32 = random_matrix_f32(256, 512, 16);
  Matrix a64;
  linalg::widen(linalg::MatrixViewF(a32), a64);
  const auto f32 = make_sketcher(config);
  const auto f64 = make_sketcher(config);
  for (std::size_t r0 = 0; r0 < a32.rows(); r0 += 64) {
    f32->push_batch(linalg::MatrixViewF::rows_of(a32, r0, r0 + 64));
    f64->push_batch(linalg::MatrixView::rows_of(a64, r0, r0 + 64));
  }
  obs::StageReport report;
  f32->report(report);
  EXPECT_EQ(report.counter("rows_ingested_f32"), 256);
  EXPECT_GT(report.seconds("ingest_widen"), 0.0);
  const Matrix s32 = f32->sketch();
  const Matrix s64 = f64->sketch();
  ASSERT_EQ(s32.rows(), s64.rows());
  ASSERT_EQ(s32.cols(), s64.cols());
  EXPECT_EQ(Matrix::max_abs_diff(s32, s64), 0.0);
}

TEST(AramsSketcherLane, ReportsPrioritySamplingTime) {
  // The streaming pushes' stage-1 time is the report's "sample" entry, the
  // name Arams::sketch_matrix reports it under, in both lanes.
  for (const bool f32 : {false, true}) {
    SketcherConfig config = conformance_config("arams", 8, 5);
    config.arams.use_sampling = true;
    config.arams.beta = 0.5;
    const auto sketcher = make_sketcher(config);
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      if (f32) {
        sketcher->push_batch(
            linalg::MatrixViewF(random_matrix_f32(128, 256, 30 + seed)));
      } else {
        sketcher->push_batch(random_matrix(128, 256, 30 + seed));
      }
    }
    obs::StageReport report;
    sketcher->report(report);
    EXPECT_TRUE(report.has_stage("sample")) << "f32 " << f32;
    EXPECT_GT(report.seconds("sample"), 0.0) << "f32 " << f32;
  }
}

/// The ISSUE's pinned accuracy budget: sketching frames preprocessed in
/// fp32 must land within 1e-5 (relative) of the fp64-reference sketch.
/// Compared through the Gram matrix BᵀB — the covariance estimate the
/// sketch exists to carry — which is invariant to the left-rotation slack
/// that SVD-based backends have on near-degenerate directions.
void expect_f32_drift_within_bound(const std::string& backend,
                                   const std::vector<image::ImageF>& frames) {
  const image::PreprocessConfig prep;  // stock threshold + center + normalize
  const Matrix rows64 =
      image::images_to_matrix(image::preprocess_batch(frames, prep));
  std::vector<image::ImageF32> narrowed;
  narrowed.reserve(frames.size());
  for (const auto& frame : frames) narrowed.push_back(image::narrow(frame));
  const linalg::MatrixF rows32 =
      image::images_to_matrix(image::preprocess_batch(narrowed, prep));

  const auto f64 = make_sketcher(conformance_config(backend, 12, 5));
  const auto f32 = make_sketcher(conformance_config(backend, 12, 5));
  f64->push_batch(rows64);
  f32->push_batch(linalg::MatrixViewF(rows32));
  const Matrix s64 = f64->sketch();
  const Matrix s32 = f32->sketch();
  ASSERT_EQ(s32.rows(), s64.rows()) << backend;
  ASSERT_EQ(s32.cols(), s64.cols()) << backend;
  const Matrix g64 = linalg::gram_cols(s64);
  const Matrix g32 = linalg::gram_cols(s32);
  EXPECT_LE(Matrix::max_abs_diff(g32, g64),
            1e-5 * (1.0 + linalg::frobenius_norm(g64)))
      << backend;
}

TEST_P(SketcherConformance, F32DriftWithinBoundOnBeamProfiles) {
  data::BeamProfileConfig beam;
  beam.height = 32;
  beam.width = 32;
  Rng rng(16);
  std::vector<image::ImageF> frames;
  frames.reserve(48);
  for (auto& sample : data::generate_beam_profiles(beam, 48, rng)) {
    frames.push_back(std::move(sample.frame));
  }
  expect_f32_drift_within_bound(GetParam(), frames);
}

TEST_P(SketcherConformance, F32DriftWithinBoundOnDiffractionFrames) {
  data::DiffractionConfig diff;
  diff.height = 32;
  diff.width = 32;
  const data::DiffractionGenerator generator(diff);
  Rng rng(17);
  std::vector<image::ImageF> frames;
  frames.reserve(48);
  for (auto& sample : generator.generate_batch(48, rng)) {
    frames.push_back(std::move(sample.frame));
  }
  expect_f32_drift_within_bound(GetParam(), frames);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SketcherConformance,
                         ::testing::ValuesIn(registered_sketchers()));

// ------------------------------------------------------ exact low-rank input

// A quiet detector streams rows of (numerically) tiny rank. Every shrink
// and merge then eigendecomposes a Gram with a roundoff-level block of
// zero eigenvalues; the FD-family backends must sketch it and keep the FD
// bound ‖AᵀA − BᵀB‖₂ ≤ ‖A‖²_F/ℓ. "arams" runs with sampling off, so the
// bound is over all rows (rank adaptation stays on and only grows ℓ).
struct LowRankCase {
  const char* backend;
  std::size_t rank;
  std::size_t ell;

  friend void PrintTo(const LowRankCase& c, std::ostream* os) {
    *os << c.backend << " rank " << c.rank << " ell " << c.ell;
  }
};

class ExactLowRank : public ::testing::TestWithParam<LowRankCase> {};

TEST_P(ExactLowRank, SketchesAndKeepsTheFdBound) {
  const LowRankCase c = GetParam();
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kDim = 1024;
  Rng rng(1000 + 10 * c.rank + c.ell);
  Matrix u(kRows, c.rank);
  Matrix w(c.rank, kDim);
  for (std::size_t i = 0; i < kRows; ++i) rng.fill_normal(u.row(i));
  for (std::size_t i = 0; i < c.rank; ++i) rng.fill_normal(w.row(i));
  const Matrix a = linalg::matmul(u, w);

  SketcherConfig config;
  config.backend = c.backend;
  config.ell = c.ell;
  config.seed = 3;
  config.shards = std::string(c.backend) == "sharded:fd" ? 4 : 1;
  config.arams.ell = c.ell;
  config.arams.use_sampling = false;
  const auto sketcher = make_sketcher(config);
  for (std::size_t r0 = 0; r0 < kRows; r0 += 256) {
    ASSERT_NO_THROW(sketcher->push_batch(a.slice_rows(r0, r0 + 256)))
        << c.backend << " rank " << c.rank << " ell " << c.ell;
  }
  Matrix b;
  ASSERT_NO_THROW(b = sketcher->sketch());
  ASSERT_GT(b.rows(), 0u);
  Rng power(17);
  const double err = linalg::covariance_error(a, b, power, 40);
  EXPECT_LE(err, linalg::frobenius_norm_squared(a) /
                     static_cast<double>(c.ell))
      << c.backend << " rank " << c.rank << " ell " << c.ell;
  const Matrix q = sketcher->basis(c.rank);
  EXPECT_EQ(q.rows(), c.rank);
}

std::string low_rank_case_name(
    const ::testing::TestParamInfo<LowRankCase>& info) {
  std::string name = info.param.backend;
  if (name == "sharded:fd") name = "ShardedFd";
  return name + "_Rank" + std::to_string(info.param.rank) + "_Ell" +
         std::to_string(info.param.ell);
}

INSTANTIATE_TEST_SUITE_P(
    FdFamily, ExactLowRank,
    ::testing::Values(LowRankCase{"fd", 1, 64}, LowRankCase{"fd", 8, 64},
                      LowRankCase{"fd", 1, 128}, LowRankCase{"fd", 8, 128},
                      LowRankCase{"arams", 1, 64},
                      LowRankCase{"arams", 8, 64},
                      LowRankCase{"arams", 1, 128},
                      LowRankCase{"arams", 8, 128},
                      LowRankCase{"sharded:fd", 1, 64},
                      LowRankCase{"sharded:fd", 8, 64},
                      LowRankCase{"sharded:fd", 1, 128},
                      LowRankCase{"sharded:fd", 8, 128}),
    low_rank_case_name);

// ------------------------------------------------------------- rangefinder

TEST(RangeFinder, AccurateOnDecayingSpectrum) {
  data::SyntheticConfig dc;
  dc.n = 500;
  dc.d = 48;
  dc.spectrum.kind = data::DecayKind::kExponential;
  dc.spectrum.count = 24;
  dc.spectrum.rate = 0.3;
  Rng rng(20);
  const Matrix a = data::make_low_rank(dc, rng);

  RangeFinderSketch sketcher(16, 21);
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += 50) {
    sketcher.push_batch(a.slice_rows(r0, r0 + 50));
  }
  const Matrix b = sketcher.sketch();
  EXPECT_LE(b.rows(), 16u);
  Rng power(22);
  EXPECT_LT(linalg::covariance_error_relative(a, b, power, 80), 0.05);
}

TEST(RangeFinder, ReorthogonalizationPreservesTheApproximation) {
  // The Nyström approximation is invariant under Ω → Ω·M for invertible M
  // (in exact arithmetic), so an aggressive QR cadence must agree with no
  // re-orthogonalization at all up to rounding.
  const Matrix a = random_matrix(240, 24, 23);
  RangeFinderSketch eager(8, 31, 8, /*reorth_every=*/1);
  RangeFinderSketch lazy(8, 31, 8, /*reorth_every=*/1u << 20);
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += 20) {
    eager.push_batch(a.slice_rows(r0, r0 + 20));
    lazy.push_batch(a.slice_rows(r0, r0 + 20));
  }
  const Matrix be = eager.sketch();
  const Matrix bl = lazy.sketch();
  ASSERT_EQ(be.rows(), bl.rows());
  // Compare the Gram matrices — the sketches themselves are only defined
  // up to a rotation of the retained subspace.
  const Matrix ge = linalg::gram_cols(be);
  const Matrix gl = linalg::gram_cols(bl);
  EXPECT_LT(Matrix::max_abs_diff(ge, gl),
            1e-6 * (1.0 + linalg::frobenius_norm(ge)));
}

TEST(RangeFinder, ProbeCountClampsToDimension) {
  // d < ℓ + oversample: the probe count must clamp to d and still work.
  RangeFinderSketch sketcher(8, 33, 8);
  sketcher.push_batch(random_matrix(40, 5, 24));
  const Matrix b = sketcher.sketch();
  EXPECT_EQ(b.cols(), 5u);
  EXPECT_LE(b.rows(), 8u);
}

}  // namespace
}  // namespace arams::core
