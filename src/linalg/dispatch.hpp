#pragma once
// The pool rule the blocked kernels share (blas.cpp's GEMM, gram.cpp's
// Gram): one threshold, one dispatch counter. Internal to src/linalg.

namespace arams::parallel {
class ThreadPool;
}  // namespace arams::parallel

namespace arams::linalg::detail {

/// The pool a call of `flops` dispatches to, or nullptr for the serial
/// path: below the 8 Mflop threshold (2·m·n·k for GEMM, m²·d for Gram), on
/// a one-thread pool, and inside one of the pool's own items, where
/// parallel_for would run the items inline.
parallel::ThreadPool* maybe_pool(double flops);

/// Counts one dispatched call in "linalg.gemm_parallel_count".
void count_dispatch();

}  // namespace arams::linalg::detail
