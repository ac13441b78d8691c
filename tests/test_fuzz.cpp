// Randomized stress tests: random shapes, degenerate and adversarial
// inputs through the sketching stack — nothing may crash, produce NaNs,
// or violate the FD invariants, across a seeded sweep — and byte
// mutations through the .npy, .frames and post-mortem readers, which must
// fail closed.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/arams_sketch.hpp"
#include "core/fd.hpp"
#include "core/merge.hpp"
#include "core/priority_sampler.hpp"
#include "image/image.hpp"
#include "io/frames.hpp"
#include "io/npy.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "obs/postmortem.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace arams {
namespace {

using linalg::Matrix;

/// Random matrix with occasional pathological rows: zeros, duplicates,
/// huge magnitudes, rank-1 repeats.
Matrix nasty_matrix(Rng& rng) {
  const std::size_t n = 5 + rng.uniform_index(120);
  const std::size_t d = 2 + rng.uniform_index(40);
  Matrix m(n, d);
  std::vector<double> repeat(d);
  rng.fill_normal(repeat);
  for (std::size_t i = 0; i < n; ++i) {
    const double dice = rng.uniform();
    auto row = m.row(i);
    if (dice < 0.1) {
      // zero row
    } else if (dice < 0.2) {
      std::copy(repeat.begin(), repeat.end(), row.begin());
    } else if (dice < 0.3) {
      rng.fill_normal(row);
      linalg::scale(row, 1e8);
    } else if (dice < 0.4) {
      rng.fill_normal(row);
      linalg::scale(row, 1e-8);
    } else {
      rng.fill_normal(row);
    }
  }
  return m;
}

bool has_nan(const Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (const double v : m.row(i)) {
      if (std::isnan(v) || std::isinf(v)) return true;
    }
  }
  return false;
}

class FuzzSeeds : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSeeds, FdSurvivesNastyInputsAndKeepsGuarantee) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const Matrix a = nasty_matrix(rng);
  const std::size_t ell = 2 + rng.uniform_index(12);

  core::FrequentDirections fd(core::FdConfig{ell, true});
  fd.append_batch(a);
  fd.compress();
  const Matrix b = fd.sketch();
  ASSERT_FALSE(has_nan(b));
  EXPECT_LE(b.rows(), ell);

  const double mass = linalg::frobenius_norm_squared(a);
  if (mass > 0.0) {
    Rng power(99);
    const double err = linalg::covariance_error(a, b, power, 60);
    EXPECT_LE(err, mass / static_cast<double>(ell) * 1.01);
  }
}

TEST_P(FuzzSeeds, PrioritySamplerSurvivesNastyInputs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 3);
  const Matrix a = nasty_matrix(rng);
  const auto n = static_cast<double>(a.rows());
  // β = m/n for m in [1, n): a β of 1 returns the batch unsampled.
  const double fraction =
      static_cast<double>(1 + rng.uniform_index(a.rows() - 1)) / n;
  core::PrioritySamplerConfig config;
  config.seed = static_cast<std::uint64_t>(GetParam());
  core::PrioritySampleScratch scratch;
  const Matrix& s = core::priority_sample(a, fraction, config, scratch);
  EXPECT_LE(s.rows(), static_cast<std::size_t>(std::ceil(fraction * n)));
  EXPECT_FALSE(has_nan(s));
  // Sampled rows never include zero rows.
  for (std::size_t i = 0; i < s.rows(); ++i) {
    EXPECT_GT(linalg::norm2(s.row(i)), 0.0);
  }
}

TEST_P(FuzzSeeds, MergeSurvivesMixedSketches) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709 + 5);
  const std::size_t d = 3 + rng.uniform_index(20);
  const std::size_t shards = 2 + rng.uniform_index(6);
  const std::size_t ell = 2 + rng.uniform_index(8);
  std::vector<Matrix> sketches;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t rows = 1 + rng.uniform_index(2 * ell);
    Matrix sk(rows, d);
    for (std::size_t i = 0; i < rows; ++i) {
      if (rng.uniform() < 0.15) continue;  // leave a zero row in
      rng.fill_normal(sk.row(i));
    }
    sketches.push_back(std::move(sk));
  }
  const Matrix tree = core::tree_merge(sketches, ell);
  const Matrix serial = core::serial_merge(std::move(sketches), ell);
  EXPECT_FALSE(has_nan(tree));
  EXPECT_FALSE(has_nan(serial));
  EXPECT_LE(tree.rows(), std::max<std::size_t>(ell, 1));
}

TEST_P(FuzzSeeds, AramsEndToEndOnNastyInputs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863 + 7);
  const Matrix a = nasty_matrix(rng);
  if (linalg::frobenius_norm_squared(a) == 0.0) return;  // nothing to do
  core::AramsConfig config;
  config.ell = 4 + rng.uniform_index(8);
  config.beta = 0.3 + 0.7 * rng.uniform();
  config.rank_adaptive = rng.uniform() < 0.5;
  config.epsilon = 0.05 + 0.2 * rng.uniform();
  config.max_ell = 64;
  config.seed = static_cast<std::uint64_t>(GetParam());
  core::Arams sketcher(config);
  const core::AramsResult result = sketcher.sketch_matrix(a);
  EXPECT_FALSE(has_nan(result.sketch));
  EXPECT_LE(result.sketch.rows(), result.final_ell);
}

TEST_P(FuzzSeeds, SigmaVtSvdStableOnNastyInputs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843 + 11);
  const Matrix a = nasty_matrix(rng);
  const linalg::SigmaVt svd = linalg::sigma_vt_svd(a);
  for (const double s : svd.sigma) {
    EXPECT_FALSE(std::isnan(s));
    EXPECT_GE(s, 0.0);
  }
  EXPECT_FALSE(has_nan(svd.w));
  // Frobenius mass preserved.
  double s2 = 0.0;
  for (const double s : svd.sigma) s2 += s * s;
  const double mass = linalg::frobenius_norm_squared(a);
  EXPECT_NEAR(s2, mass, 1e-6 * std::max(mass, 1.0));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Range(0, 12));

// ------------------------------------------ reader header mutations
//
// Deterministic sweep over the byte-level readers. Starting from a valid
// small file, every header byte is overwritten in turn with each of a
// fixed set of hostile values, and each shape or count field with hostile
// numbers; a seeded pass then overwrites several header bytes at once.
// Every load must return exactly the payload the (mutated) header leaves
// in the file — element count × element size = payload bytes — or throw
// CheckError. Any other exception fails the test; a crash kills it.

/// Single-byte values: zero, all-ones, a sign and a digit.
constexpr char kHostileBytes[] = {'\x00', '\xff', '-', '9'};
/// Replacement shape dimensions: empty, zero, signed, non-decimal, and
/// digit runs whose value or product with the other dimension overflows.
const char* const kHostileDims[] = {"",   "0",   "-1",  "-0",
                                    "+3", "3.0", "0x3", "4294967296",
                                    "4611686018427387904",
                                    "18446744073709551616",
                                    "99999999999999999999999999"};
/// Seeded multi-byte pass: mutants per file in tier-1.
constexpr int kRandomMutants = 200;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::string temp_path(const std::string& ext) {
  return ::testing::TempDir() + "arams_mutant_" + std::to_string(::getpid()) +
         ext;
}

/// Writes `bytes` to `path` and loads it with `load` (which returns the
/// element count it read). The load must return `payload_bytes` /
/// `elem_size` elements or throw CheckError.
template <typename Load>
void expect_fail_closed(const std::string& path, const std::string& bytes,
                        long payload_bytes, std::size_t elem_size, Load load,
                        const std::string& what) {
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    const std::size_t count = load(path);
    EXPECT_EQ(static_cast<long>(count * elem_size), payload_bytes) << what;
  } catch (const CheckError&) {
    // Failed closed.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what() << " instead of CheckError";
  }
}

/// Where a (possibly mutated) .npy says its header ends: the 10-byte
/// preamble plus the little-endian u16 length in bytes 8–9.
long npy_header_end(const std::string& bytes) {
  const auto lo = static_cast<unsigned char>(bytes[8]);
  const auto hi = static_cast<unsigned char>(bytes[9]);
  return 10 + (static_cast<long>(lo) | (static_cast<long>(hi) << 8));
}

/// A valid little .npy (3×4, dtype by `f32`), its header length and the
/// on-disk element size.
struct NpyFixture {
  std::string bytes;
  std::size_t header_end = 0;  ///< 10 + header length
  std::size_t elem = 0;
};

NpyFixture valid_npy(bool f32) {
  Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = 0.5 * static_cast<double>(i) - 2.0;
  }
  const std::string path = temp_path(".npy");
  if (f32) {
    io::save_npy_f32(path, linalg::MatrixF::from_matrix(m));
  } else {
    io::save_npy(path, m);
  }
  NpyFixture out;
  out.bytes = read_file(path);
  std::remove(path.c_str());
  out.header_end = static_cast<std::size_t>(npy_header_end(out.bytes));
  out.elem = f32 ? sizeof(float) : sizeof(double);
  return out;
}

/// Runs one mutant through both .npy loaders.
void check_npy_mutant(const std::string& bytes, std::size_t elem,
                      const std::string& what) {
  const std::string path = temp_path(".npy");
  const long payload = static_cast<long>(bytes.size()) - npy_header_end(bytes);
  expect_fail_closed(path, bytes, payload, elem, [](const std::string& p) {
    return io::load_npy(p).size();
  }, what + " load_npy");
  expect_fail_closed(path, bytes, payload, elem, [](const std::string& p) {
    return io::load_npy_f32(p).size();
  }, what + " load_npy_f32");
  std::remove(path.c_str());
}

/// Header-byte sweep plus the seeded multi-byte pass over [0, end).
template <typename Check>
void sweep_header_bytes(const std::string& valid, std::size_t end,
                        Check check) {
  for (std::size_t pos = 0; pos < end; ++pos) {
    for (const char v : kHostileBytes) {
      std::string mutant = valid;
      mutant[pos] = v;
      check(mutant, "byte " + std::to_string(pos) + " := " +
                        std::to_string(static_cast<unsigned char>(v)));
    }
  }
  Rng rng(2024);
  for (int m = 0; m < kRandomMutants; ++m) {
    std::string mutant = valid;
    const std::size_t count = 2 + rng.uniform_index(3);
    std::string what = "mutant " + std::to_string(m) + ":";
    for (std::size_t c = 0; c < count; ++c) {
      const std::size_t pos = rng.uniform_index(end);
      const char v = kHostileBytes[rng.uniform_index(std::size(kHostileBytes))];
      mutant[pos] = v;
      what += " " + std::to_string(pos);
    }
    check(mutant, what);
  }
}

TEST(ReaderMutation, NpyHeaderBytes) {
  for (const bool f32 : {false, true}) {
    const NpyFixture fx = valid_npy(f32);
    sweep_header_bytes(fx.bytes, fx.header_end,
                       [&](const std::string& mutant, const std::string& what) {
                         check_npy_mutant(mutant, fx.elem,
                                          (f32 ? "<f4 " : "<f8 ") + what);
                       });
  }
}

TEST(ReaderMutation, NpyShapeFields) {
  for (const bool f32 : {false, true}) {
    const NpyFixture fx = valid_npy(f32);
    const std::string header = fx.bytes.substr(10, fx.header_end - 10);
    const std::string payload = fx.bytes.substr(fx.header_end);
    const std::size_t at = header.find("(3, 4)");
    ASSERT_NE(at, std::string::npos);
    for (const char* dim : kHostileDims) {
      for (const bool rows : {true, false}) {
        const std::string shape = rows ? "(" + std::string(dim) + ", 4)"
                                       : "(3, " + std::string(dim) + ")";
        // Re-pad so the header stays a valid v1.0 block of 64-byte units.
        std::string dict = header.substr(0, at) + shape +
                           header.substr(at + 6);
        while (!dict.empty() && (dict.back() == ' ' || dict.back() == '\n')) {
          dict.pop_back();
        }
        const std::size_t total = ((10 + dict.size() + 1 + 63) / 64) * 64;
        dict.resize(total - 10 - 1, ' ');
        dict += '\n';
        std::string mutant = fx.bytes.substr(0, 8);
        mutant += static_cast<char>(dict.size() & 0xff);
        mutant += static_cast<char>(dict.size() >> 8);
        mutant += dict + payload;
        check_npy_mutant(mutant, fx.elem,
                         std::string(f32 ? "<f4 " : "<f8 ") + "shape " + shape);
      }
    }
  }
}

/// A valid little .frames bundle: 3 frames of 2×3.
std::string valid_frames() {
  std::vector<image::ImageF> frames;
  for (int i = 0; i < 3; ++i) {
    image::ImageF img(2, 3);
    for (std::size_t p = 0; p < img.pixels().size(); ++p) {
      img.pixels()[p] = static_cast<double>(i) + 0.25 * static_cast<double>(p);
    }
    frames.push_back(std::move(img));
  }
  const std::string path = temp_path(".frames");
  io::save_frames(path, frames);
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

void check_frames_mutant(const std::string& bytes, const std::string& what) {
  constexpr long kHeader = 32;  // magic + {height, width, count}
  const std::string path = temp_path(".frames");
  expect_fail_closed(
      path, bytes, static_cast<long>(bytes.size()) - kHeader, sizeof(double),
      [](const std::string& p) {
        std::size_t count = 0;
        for (const image::ImageF& frame : io::load_frames(p)) {
          count += frame.pixels().size();
        }
        return count;
      },
      what);
  std::remove(path.c_str());
}

TEST(ReaderMutation, FramesHeaderBytes) {
  sweep_header_bytes(valid_frames(), 32, check_frames_mutant);
}

TEST(ReaderMutation, FramesCountFields) {
  const std::string valid = valid_frames();
  const std::uint64_t values[] = {0,
                                  1,
                                  4,
                                  std::uint64_t{1} << 32,
                                  std::uint64_t{1} << 40,
                                  std::uint64_t{1} << 62,
                                  std::uint64_t{1} << 63,  // the sign bit
                                  ~std::uint64_t{0}};
  const char* const fields[] = {"height", "width", "count"};
  for (std::size_t field = 0; field < 3; ++field) {
    for (const std::uint64_t v : values) {
      std::string mutant = valid;
      for (int i = 0; i < 8; ++i) {
        mutant[8 + 8 * field + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xff);
      }
      check_frames_mutant(mutant, std::string(fields[field]) + " := " +
                                      std::to_string(v));
    }
  }
}

/// A valid post-mortem dump in the v1 format, one line per section.
const char kValidDump[] =
    "ARAMS-POSTMORTEM v1\n"
    "reason=signal:SIGSEGV\n"
    "pid=4242\n"
    "uptime=12.500000\n"
    "build=version=1.0.0 git=abc1234 compiler=GNU march=baseline\n"
    "[backtrace]\n"
    "./arams(+0x1234) [0x55]\n"
    "[flight-recorder]\n"
    "t=12.400000 code=batch_sketched shot=17 d=64 v=0.003000 tid=0\n"
    "[metrics]\n"
    "arams_fd_shrink_count_total 9\n"
    "[health]\n"
    "{\"t\":12.1,\"from\":\"ok\",\"to\":\"degraded\",\"reason\":\"x\"}\n"
    "[end]\n";

bool has_end_line(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "[end]") return true;
  }
  return false;
}

/// A dump fails closed when parse_postmortem refuses it with a message, or
/// parses it and validate_postmortem decides, naming its reason when it
/// refuses. Without an intact [end] line it must be refused. Returns
/// whether the dump validated.
bool check_postmortem_mutant(const std::string& bytes,
                             const std::string& what) {
  std::istringstream in(bytes);
  obs::PostmortemReport report;
  std::string error;
  try {
    if (!obs::parse_postmortem(in, report, &error)) {
      EXPECT_FALSE(error.empty()) << what;
      return false;
    }
    const bool valid = obs::validate_postmortem(report, &error);
    EXPECT_NE(valid, !error.empty()) << what << ": " << error;
    if (!has_end_line(bytes)) {
      EXPECT_FALSE(valid) << what;
    }
    return valid;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": threw " << e.what();
  }
  return false;
}

TEST(ReaderMutation, PostmortemBytes) {
  const std::string valid = kValidDump;
  ASSERT_TRUE(check_postmortem_mutant(valid, "valid dump"));
  sweep_header_bytes(valid, valid.size(),
                     [](const std::string& mutant, const std::string& what) {
                       check_postmortem_mutant(mutant, what);
                     });
  // Cut at every line boundary: every dump cut before the [end] line is
  // refused.
  const std::size_t end_line = valid.find("[end]");
  for (std::size_t cut = 0; cut <= valid.size();
       cut = valid.find('\n', cut) + 1) {
    const bool ok =
        check_postmortem_mutant(valid.substr(0, cut), "cut at " +
                                                          std::to_string(cut));
    EXPECT_EQ(ok, cut > end_line) << "cut at " << cut;
    if (cut == valid.size()) break;
  }
}

}  // namespace
}  // namespace arams
