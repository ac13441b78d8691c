#include "cluster/sq_dist_2d.hpp"

#include <cmath>

#include "embed/distance.hpp"
#include "linalg/blas.hpp"

namespace arams::cluster::detail {
namespace {

/// Whether linalg::matmul_nt_row fuses the second product of a k = 2 row.
/// That row is one compiled loop (row_panel in linalg/blas.cpp) whose
/// contraction the compiler decides. GCC 12 at x86-64-v3 multiplies the
/// pair in one vector and adds both products unfused, (0 + a0·b0) + a1·b1;
/// under sanitizer instrumentation the loop stays scalar and each product
/// goes through a fused multiply-add, which at k = 2 is
/// fma(a1, b1, 0 + a0·b0). One row tells them apart: u·u rounds away the
/// 2⁻⁶⁰ that the fused form keeps. MatmulNtRow.TwoColumnRowIsUnfusedSum
/// checks that every row has the form this one row shows.
bool row_fuses_second_product() {
  const double u = 1.0 + 0x1p-30;
  const double a[2] = {u, u};
  const double bt[2] = {u, -u};
  double g = 0.0;
  linalg::matmul_nt_row(a, bt, 1, std::span<double>(&g, 1));
  return g != 0.0;
}

}  // namespace

void sq_dist_row_2d(double px, double py, double np, const double* xs,
                    const double* ys, const double* norms,
                    std::span<double> out) {
  static const bool fused = row_fuses_second_product();
  for (std::size_t q = 0; q < out.size(); ++q) {
    const double first = 0.0 + px * xs[q];
    const double g = fused ? std::fma(py, ys[q], first) : first + py * ys[q];
    out[q] = embed::gram_sq_dist(np, norms[q], g);
  }
}

}  // namespace arams::cluster::detail
