#pragma once

/**
 * @file
 * Single-precision GEMM and matrix-vector helpers.
 *
 * This is the compute substrate under DHE's FC decoder, the DLRM MLPs, and
 * the transformer. Everything is branch-free with respect to data values:
 * the control flow depends only on shapes, which are public in the threat
 * model (Section III of the paper).
 *
 * All entry points dispatch to the packed SIMD kernel subsystem
 * (tensor/kernels): cache-blocked microkernels selected per the active
 * ISA tier (SECEMB_ISA), with B packed into 64-byte-aligned panels. The
 * *Naive reference loops are kept as the correctness/perf baseline for
 * tests and benchmarks. GemmBT/GemmAT pack their B operand per call at
 * f32. AffineActForward takes B already packed: the caller owns the
 * panels and their precision (f32 / bf16 / int8 quantize-on-pack), and
 * decides when they are stale. nn::Linear repacks its weight after
 * Adam::Step or Parameter::BumpVersion(); a raw write after the first
 * Forward is not seen.
 */

#include <cstdint>

#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace secemb {

/**
 * C = A * B^T for row-major A (m x k), B (n x k), C (m x n).
 *
 * Packed-kernel path (transient B pack); optionally parallelised over
 * row tiles of C with nthreads.
 */
void GemmBT(const Tensor& a, const Tensor& b_t, Tensor& c, int nthreads = 1);

/** C = A^T * B for A (k x m), B (k x n), C (m x n). */
void GemmAT(const Tensor& a_t, const Tensor& b, Tensor& c, int nthreads = 1);

/**
 * y = act(x * W + bias broadcast) for x (m x k), W packed k x n, bias
 * (n) — the canonical FC-layer forward. Bias may be empty to skip; bias,
 * activation and, when `preact` is non-null, the side output
 * x * W + bias (same shape as y, for Backward) all ride the GEMM's final
 * store pass. W runs at the precision and tier it was packed for.
 */
void AffineActForward(const Tensor& x, const kernels::PackedB& w,
                      const Tensor& bias, Tensor& y, int nthreads,
                      kernels::Activation act = kernels::Activation::kIdentity,
                      Tensor* preact = nullptr);

// ---------------------------------------------------------------------------
// Naive reference kernels (tests and benchmarks)
// ---------------------------------------------------------------------------

/** The pre-kernel scalar triple loop: i-k-j order, row-parallel. */
void GemmNaive(const Tensor& a, const Tensor& b, Tensor& c,
               int nthreads = 1);

/** Naive C = A * B^T. */
void GemmBTNaive(const Tensor& a, const Tensor& b_t, Tensor& c,
                 int nthreads = 1);

/** Naive C = A^T * B. */
void GemmATNaive(const Tensor& a_t, const Tensor& b, Tensor& c,
                 int nthreads = 1);

}  // namespace secemb
