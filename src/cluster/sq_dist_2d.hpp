#pragma once
// OPTICS' d = 2 row kernel (cluster/optics.cpp). It lives in its own
// translation unit so that only this loop gets the vector ISA and
// -ffp-contract=off (src/cluster/CMakeLists.txt); optics.cpp keeps the
// flags of every other scalar path.

#include <cstddef>
#include <span>

namespace arams::cluster::detail {

/// out[q] = d²(p, q) for every q < out.size(), at d = 2: p = (px, py) with
/// ‖p‖² = np, q = (xs[q], ys[q]) with ‖q‖² = norms[q]. Each value has the
/// bits of one NeighborSearcher::sq_dists_to row with use_gemm: the Gram
/// value linalg::matmul_nt_row forms at k = 2, (0 + px·x) + py·y with the
/// second product fused where that row fuses it, then
/// embed::gram_sq_dist. The compiler vectorises the loop.
void sq_dist_row_2d(double px, double py, double np, const double* xs,
                    const double* ys, const double* norms,
                    std::span<double> out);

}  // namespace arams::cluster::detail
