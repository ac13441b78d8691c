// core::ShardedSketcher — N-way concurrent ingest + pool-executed tree
// merge. The load-bearing properties:
//   * factory round-trip of the "sharded:<inner>" spelling and the
//     SketcherConfig::shards knob, with teaching validation messages
//   * round-robin partitioning is a pure function of arrival order, so the
//     merged sketch is bitwise identical at any pool size (including no
//     pool at all)
//   * a 1-shard wrapper is bitwise the plain backend
//   * the FD error guarantee survives sharding on the LCLS-like workloads
//   * steady-state ingest is allocation-free in inline mode
//   * shard-row accounting (gauges + report) and the sketch()-time merge
//     stats (measured + modeled makespans) are published
//
// The allocation check overrides global operator new/delete in this
// translation unit only — same pattern as test_sketcher.cpp.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/sharded.hpp"
#include "core/sketcher.hpp"
#include "data/beam_profile.hpp"
#include "data/diffraction.hpp"
#include "image/image.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_report.hpp"
#include "parallel/thread_pool.hpp"
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

SketcherConfig fd_config(std::size_t ell, std::uint64_t seed) {
  SketcherConfig config;
  config.backend = "fd";
  config.ell = ell;
  config.seed = seed;
  return config;
}

/// Pushes `a` in fixed-size batches — the DAQ-shaped ingest pattern.
void stream_batches(Sketcher& sketcher, const Matrix& a, std::size_t batch) {
  for (std::size_t r0 = 0; r0 < a.rows(); r0 += batch) {
    sketcher.push_batch(a.slice_rows(r0, std::min(a.rows(), r0 + batch)));
  }
}

// ------------------------------------------------------------- the factory

TEST(ShardedFactory, RoundTripsTheShardedSpelling) {
  EXPECT_TRUE(sketcher_registered("sharded:fd"));
  EXPECT_TRUE(sketcher_registered("sharded:arams"));
  EXPECT_FALSE(sketcher_registered("sharded:nope"));
  EXPECT_FALSE(sketcher_registered("sharded:sharded:fd"));
  EXPECT_NE(sketcher_description("sharded:fd").find("sharded"),
            std::string::npos);

  const auto sketcher = make_sketcher("sharded:fd", 8, 3);
  ASSERT_NE(sketcher, nullptr);
  EXPECT_EQ(sketcher->name(), "sharded:fd");
  EXPECT_EQ(make_sketcher(sketcher->name(), 8, 3)->name(), "sharded:fd");
}

TEST(ShardedFactory, ShardsKnobWrapsAnyBackend) {
  SketcherConfig config = fd_config(8, 3);
  config.shards = 4;
  const auto sketcher = make_sketcher(config);
  EXPECT_EQ(sketcher->name(), "sharded:fd");
  const auto* sharded = dynamic_cast<const ShardedSketcher*>(sketcher.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->shard_count(), 4u);
}

TEST(ShardedFactory, ValidationTeachesTheRules) {
  SketcherConfig config = fd_config(8, 3);
  config.shards = 0;
  auto errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("shards must be >= 1, got 0"), std::string::npos);

  config = fd_config(8, 3);
  config.backend = "sharded:nope";
  errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("sharded: unknown inner backend 'nope'"),
            std::string::npos);
  // The message should teach the registry, not just reject.
  EXPECT_NE(errors[0].find("rangefinder"), std::string::npos);
  EXPECT_THROW(make_sketcher(config), CheckError);

  config.backend = "sharded:sharded:fd";
  errors = config.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("nested sharded backends are not supported"),
            std::string::npos);

  // Inner-config problems surface with the sharded: prefix.
  config = fd_config(8, 3);
  config.backend = "sharded:rangefinder";
  config.rf_oversample = 0;
  errors = config.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_EQ(errors[0].rfind("sharded: ", 0), 0u) << errors[0];

  EXPECT_THROW(ShardedSketcher(fd_config(8, 3), 0, nullptr), CheckError);
}

// ----------------------------------------------------------- partitioning

TEST(Sharded, OneShardIsBitwiseThePlainBackend) {
  const Matrix a = random_matrix(70, 12, 5);
  ShardedSketcher sharded(fd_config(8, 5), 1, nullptr);
  const auto plain = make_sketcher(fd_config(8, 5));
  stream_batches(sharded, a, 20);
  stream_batches(*plain, a, 20);
  const Matrix s1 = sharded.sketch();
  const Matrix s2 = plain->sketch();
  ASSERT_EQ(s1.rows(), s2.rows());
  EXPECT_EQ(Matrix::max_abs_diff(s1, s2), 0.0);
  EXPECT_EQ(sharded.stats().rows_processed, 70);
}

TEST(Sharded, RoundRobinFollowsTheLifetimeCursor) {
  ShardedSketcher sharded(fd_config(8, 5), 4, nullptr);
  sharded.push_batch(random_matrix(10, 6, 7));
  // Rows 0..9 → shards 0,1,2,3,0,1,2,3,0,1.
  EXPECT_EQ(sharded.shard_rows(0), 3);
  EXPECT_EQ(sharded.shard_rows(1), 3);
  EXPECT_EQ(sharded.shard_rows(2), 2);
  EXPECT_EQ(sharded.shard_rows(3), 2);
  // The next batch resumes at row 10 → shard 2, not at shard 0.
  sharded.push_batch(random_matrix(6, 6, 8));
  EXPECT_EQ(sharded.shard_rows(0), 4);
  EXPECT_EQ(sharded.shard_rows(1), 4);
  EXPECT_EQ(sharded.shard_rows(2), 4);
  EXPECT_EQ(sharded.shard_rows(3), 4);
  // Lifetime row routing is also published as gauges.
  EXPECT_EQ(obs::metrics().gauge("sketch.shard_rows.0").value(), 4.0);
  EXPECT_EQ(obs::metrics().gauge("sketch.shard_rows.3").value(), 4.0);
}

TEST(Sharded, BitwiseIdenticalAtAnyPoolSize) {
  // The determinism contract: scheduling decides only *when* a shard or
  // merge group runs, never what it computes. ARAMS_POOL_THREADS is read
  // once per process, so the pool sizes are constructed explicitly here.
  const Matrix a = random_matrix(96, 14, 9);
  ShardedSketcher inline_run(fd_config(8, 5), 4, nullptr);
  stream_batches(inline_run, a, 32);
  const Matrix expected = inline_run.sketch();
  ASSERT_GT(expected.rows(), 0u);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{0} /* hardware */}) {
    parallel::ThreadPool pool(threads);
    ShardedSketcher pooled(fd_config(8, 5), 4, &pool);
    stream_batches(pooled, a, 32);
    const Matrix got = pooled.sketch();
    ASSERT_EQ(got.rows(), expected.rows()) << "threads=" << threads;
    EXPECT_EQ(Matrix::max_abs_diff(got, expected), 0.0)
        << "threads=" << threads;
    EXPECT_EQ(pooled.stats().rows_processed, 96);
  }
}

TEST(Sharded, F32IngestMatchesWidenedIngestBitwise) {
  const linalg::MatrixF a32 = random_matrix_f32(60, 18, 14);
  Matrix a64;
  linalg::widen(linalg::MatrixViewF(a32), a64);
  ShardedSketcher f32(fd_config(8, 5), 4, nullptr);
  ShardedSketcher f64(fd_config(8, 5), 4, nullptr);
  f32.push_batch(linalg::MatrixViewF(a32));
  f64.push_batch(a64);
  const Matrix s32 = f32.sketch();
  const Matrix s64 = f64.sketch();
  ASSERT_EQ(s32.rows(), s64.rows());
  EXPECT_EQ(Matrix::max_abs_diff(s32, s64), 0.0);
  // The lane counter lands on the wrapper; row routing is unchanged.
  EXPECT_EQ(f32.rows_ingested_f32(), 60);
  EXPECT_EQ(f32.shard_rows(0), 15);
  EXPECT_EQ(f32.stats().rows_processed, 60);
}

// ------------------------------------------------------- error guarantee

/// Relative covariance error of sharded-vs-single FD on one workload: the
/// sharded sketch must stay within the merge bound (2× the one-pass
/// ‖A‖²_F/ℓ mass bound, see test_merge.cpp) and track the single-instance
/// error closely.
void expect_sharded_error_parity(const Matrix& rows, std::size_t ell) {
  const auto single = make_sketcher(fd_config(ell, 5));
  single->push_batch(rows);
  Rng p1(42);
  const double err_single =
      linalg::covariance_error(rows, single->sketch(), p1, 150);
  const double bound = linalg::frobenius_norm_squared(rows) /
                       static_cast<double>(ell);
  for (const std::size_t shards : {2u, 4u, 8u}) {
    ShardedSketcher sharded(fd_config(ell, 5), shards, nullptr);
    stream_batches(sharded, rows, 32);
    const Matrix merged = sharded.sketch();
    EXPECT_LE(merged.rows(), sharded.current_ell()) << shards << " shards";
    Rng p2(42);
    const double err = linalg::covariance_error(rows, merged, p2, 150);
    EXPECT_LE(err, 2.0 * bound) << shards << " shards";
    EXPECT_LE(err, 4.0 * err_single + 1e-9) << shards << " shards";
  }
}

TEST(Sharded, KeepsFdErrorBoundOnBeamProfiles) {
  data::BeamProfileConfig config;
  config.height = 16;
  config.width = 16;
  Rng rng(11);
  std::vector<image::ImageF> frames;
  frames.reserve(96);
  for (std::size_t i = 0; i < 96; ++i) {
    frames.push_back(data::generate_beam_profile(config, rng).frame);
  }
  expect_sharded_error_parity(image::images_to_matrix(frames), 12);
}

TEST(Sharded, KeepsFdErrorBoundOnDiffractionRings) {
  data::DiffractionConfig config;
  config.height = 16;
  config.width = 16;
  const data::DiffractionGenerator generator(config);
  Rng rng(12);
  std::vector<image::ImageF> frames;
  frames.reserve(96);
  for (std::size_t i = 0; i < 96; ++i) {
    frames.push_back(generator.generate(rng).frame);
  }
  expect_sharded_error_parity(image::images_to_matrix(frames), 12);
}

// ------------------------------------------------------------ degenerates

TEST(Sharded, EmptyStateContract) {
  ShardedSketcher sharded(fd_config(8, 5), 4, nullptr);
  EXPECT_EQ(sharded.name(), "sharded:fd");
  EXPECT_EQ(sharded.dim(), 0u);
  EXPECT_EQ(sharded.stats().rows_processed, 0);
  EXPECT_EQ(sharded.sketch().rows(), 0u);  // never throws when empty
  try {
    sharded.basis(4);
    FAIL() << "basis() on an empty sharded sketch must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("basis of an empty sketch"),
              std::string::npos);
  }
  // Merge stats stay zeroed until a sketch()-time merge actually runs.
  EXPECT_EQ(sharded.last_merge_stats().merge_ops, 0);
}

TEST(Sharded, EmptyBatchIsANoOp) {
  ShardedSketcher sharded(fd_config(8, 5), 4, nullptr);
  sharded.push_batch(Matrix());
  EXPECT_EQ(sharded.dim(), 0u);
  sharded.push_batch(random_matrix(9, 6, 13));
  sharded.push_batch(Matrix(0, 6));
  // The cursor must not advance on empty batches: shard 1 is next.
  sharded.push_batch(random_matrix(1, 6, 14));
  EXPECT_EQ(sharded.shard_rows(0), 3);
  EXPECT_EQ(sharded.shard_rows(1), 3);
  EXPECT_EQ(sharded.shard_rows(2), 2);
  EXPECT_EQ(sharded.shard_rows(3), 2);
}

TEST(Sharded, FewerRowsThanShards) {
  ShardedSketcher sharded(fd_config(8, 5), 8, nullptr);
  const Matrix a = random_matrix(3, 10, 15);
  sharded.push_batch(a);
  EXPECT_EQ(sharded.shard_rows(0), 1);
  EXPECT_EQ(sharded.shard_rows(2), 1);
  EXPECT_EQ(sharded.shard_rows(3), 0);
  const Matrix s = sharded.sketch();
  EXPECT_GT(s.rows(), 0u);
  EXPECT_EQ(s.cols(), 10u);
  EXPECT_EQ(sharded.stats().rows_processed, 3);
}

// ------------------------------------------------------------ allocation

TEST(Sharded, SteadyStateIngestIsAllocationFreeInline) {
  // pool == nullptr is the strictly allocation-free mode (pool dispatch
  // costs O(shards) control allocations; inline ingest costs none once
  // every gather matrix and inner scratch buffer has grown to shape).
  ShardedSketcher sharded(fd_config(6, 5), 4, nullptr);
  std::vector<Matrix> batches;
  batches.reserve(24);
  for (std::size_t i = 0; i < 24; ++i) {
    batches.push_back(random_matrix(8, 12, 100 + i));
  }
  for (std::size_t i = 0; i < 16; ++i) sharded.push_batch(batches[i]);

  const long before = g_heap_allocations.load(std::memory_order_relaxed);
  for (std::size_t i = 16; i < 24; ++i) sharded.push_batch(batches[i]);
  const long after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
}

// ------------------------------------------------------------- reporting

TEST(Sharded, ReportCarriesShardAndMergeKeys) {
  ShardedSketcher sharded(fd_config(8, 5), 4, nullptr);
  stream_batches(sharded, random_matrix(64, 10, 16), 16);
  const Matrix merged = sharded.sketch();
  ASSERT_GT(merged.rows(), 0u);

  const MergeStats& stats = sharded.last_merge_stats();
  EXPECT_EQ(stats.merge_ops, 3);  // 4 shard sketches → binary tree
  EXPECT_EQ(stats.levels, 2);
  EXPECT_GT(stats.critical_path_seconds_measured, 0.0);
  EXPECT_GT(stats.critical_path_seconds_modeled, 0.0);
  // Inline execution never dispatches a merge group to a pool.
  EXPECT_EQ(stats.parallel_groups, 0);

  obs::StageReport report;
  sharded.report(report);
  EXPECT_EQ(report.counter("shards"), 4);
  EXPECT_EQ(report.counter("rows_processed"), 64);
  EXPECT_EQ(report.counter("merge_ops"), 3);
  EXPECT_EQ(report.seconds("merge_critical_path_measured"),
            stats.critical_path_seconds_measured);
}

TEST(Sharded, PooledMergeDispatchesGroups) {
  parallel::ThreadPool pool(4);
  ShardedSketcher sharded(fd_config(8, 5), 8, &pool);
  stream_batches(sharded, random_matrix(96, 10, 17), 24);
  const Matrix merged = sharded.sketch();
  ASSERT_GT(merged.rows(), 0u);
  // 8 sketches → levels of 4 and 2 groups dispatch; the final single
  // group runs inline (nothing to overlap with).
  EXPECT_EQ(sharded.last_merge_stats().parallel_groups, 6);
}

}  // namespace
}  // namespace arams::core
