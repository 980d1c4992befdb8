#include "tensor/gemm.h"

#include <cassert>
#include <stdexcept>

#include "telemetry/telemetry.h"
#include "tensor/parallel.h"

namespace secemb {

namespace {

/**
 * Validate all three operands of C = A * B against the public shape
 * (m, k, n). `b_rows`/`b_cols` are what the B operand must actually be
 * — (k, n) for GemmNaive, (n, k) for GemmBT — so a mismatched B fails here
 * instead of producing silent out-of-bounds reads.
 */
void
CheckMatMulShapes(const Tensor& a, const Tensor& b, const Tensor& c,
                  int64_t m, int64_t k, int64_t n, int64_t b_rows,
                  int64_t b_cols)
{
    if (a.dim() != 2 || b.dim() != 2 || c.dim() != 2) {
        throw std::invalid_argument("Gemm: all operands must be 2-D");
    }
    if (a.size(0) != m || a.size(1) != k) {
        throw std::invalid_argument("Gemm: A shape mismatch");
    }
    if (b.size(0) != b_rows || b.size(1) != b_cols) {
        throw std::invalid_argument("Gemm: B shape mismatch");
    }
    if (c.size(0) != m || c.size(1) != n) {
        throw std::invalid_argument("Gemm: C shape mismatch");
    }
}

/** Tensor-buffer alignment contract at the kernel boundary. */
void
AssertKernelAlignment(const Tensor& a, const Tensor& c)
{
    assert(IsAligned64(a.data()));
    assert(IsAligned64(c.data()));
    (void)a;
    (void)c;
}

}  // namespace

void
GemmBT(const Tensor& a, const Tensor& b_t, Tensor& c, int nthreads)
{
    const int64_t m = a.size(0), k = a.size(1), n = b_t.size(0);
    if (b_t.size(1) != k) {
        throw std::invalid_argument("GemmBT: inner mismatch");
    }
    CheckMatMulShapes(a, b_t, c, m, k, n, n, k);
    TELEMETRY_SPAN("tensor.gemm_bt");
    TELEMETRY_COUNT("tensor.gemm.calls", 1);
    TELEMETRY_COUNT("tensor.gemm.flops", 2 * m * k * n);
    AssertKernelAlignment(a, c);

    kernels::PackedB packed;
    kernels::PackB(b_t.data(), k, n, /*transposed_src=*/true,
                   kernels::ActiveIsa(), &packed);
    kernels::GemmArgs args;
    args.a = a.data();
    args.b = &packed;
    args.c = c.data();
    args.m = m;
    args.nthreads = nthreads;
    kernels::GemmPacked(args);
}

void
GemmAT(const Tensor& a_t, const Tensor& b, Tensor& c, int nthreads)
{
    const int64_t k = a_t.size(0), m = a_t.size(1), n = b.size(1);
    if (b.size(0) != k) {
        throw std::invalid_argument("GemmAT: inner mismatch");
    }
    if (c.size(0) != m || c.size(1) != n) {
        throw std::invalid_argument("GemmAT: output shape mismatch");
    }
    TELEMETRY_SPAN("tensor.gemm_at");
    TELEMETRY_COUNT("tensor.gemm.calls", 1);
    TELEMETRY_COUNT("tensor.gemm.flops", 2 * m * k * n);
    AssertKernelAlignment(a_t, c);

    kernels::PackedB packed;
    kernels::PackB(b.data(), k, n, /*transposed_src=*/false,
                   kernels::ActiveIsa(), &packed);
    kernels::GemmArgs args;
    args.a = a_t.data();
    args.a_transposed = true;
    args.b = &packed;
    args.c = c.data();
    args.m = m;
    args.nthreads = nthreads;
    kernels::GemmPacked(args);
}

void
AffineActForward(const Tensor& x, const kernels::PackedB& w,
                 const Tensor& bias, Tensor& y, int nthreads,
                 kernels::Activation act, Tensor* preact)
{
    if (x.dim() != 2 || y.dim() != 2) {
        throw std::invalid_argument("AffineActForward: operands must be 2-D");
    }
    const int64_t m = x.size(0), k = w.k, n = w.n;
    if (x.size(1) != k) {
        throw std::invalid_argument("AffineActForward: inner mismatch");
    }
    if (y.size(0) != m || y.size(1) != n) {
        throw std::invalid_argument("AffineActForward: C shape mismatch");
    }
    assert(bias.empty() || bias.numel() == n);
    assert(preact == nullptr ||
           (preact->size(0) == m && preact->size(1) == n));
    TELEMETRY_SPAN("tensor.affine");
    TELEMETRY_COUNT("tensor.gemm.calls", 1);
    TELEMETRY_COUNT("tensor.gemm.flops", 2 * m * k * n);
    AssertKernelAlignment(x, y);

    kernels::GemmArgs args;
    args.a = x.data();
    args.b = &w;
    args.c = y.data();
    args.m = m;
    args.epilogue.bias = bias.empty() ? nullptr : bias.data();
    args.epilogue.act = act;
    args.epilogue.preact = preact == nullptr ? nullptr : preact->data();
    args.nthreads = nthreads;
    kernels::GemmPacked(args);
}

// ---------------------------------------------------------------------------
// Naive reference kernels
// ---------------------------------------------------------------------------

void
GemmNaive(const Tensor& a, const Tensor& b, Tensor& c, int nthreads)
{
    const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
    if (b.size(0) != k) throw std::invalid_argument("Gemm: inner mismatch");
    CheckMatMulShapes(a, b, c, m, k, n, k, n);

    const float* ap = a.data();
    const float* bp = b.data();
    float* cp = c.data();

    ParallelFor(m, nthreads, [=](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
            float* crow = cp + i * n;
            for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
            const float* arow = ap + i * k;
            for (int64_t p = 0; p < k; ++p) {
                const float aval = arow[p];
                const float* brow = bp + p * n;
                for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
            }
        }
    });
}

void
GemmBTNaive(const Tensor& a, const Tensor& b_t, Tensor& c, int nthreads)
{
    const int64_t m = a.size(0), k = a.size(1), n = b_t.size(0);
    if (b_t.size(1) != k) {
        throw std::invalid_argument("GemmBT: inner mismatch");
    }
    CheckMatMulShapes(a, b_t, c, m, k, n, n, k);

    const float* ap = a.data();
    const float* bp = b_t.data();
    float* cp = c.data();

    ParallelFor(m, nthreads, [=](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
            const float* arow = ap + i * k;
            float* crow = cp + i * n;
            for (int64_t j = 0; j < n; ++j) {
                const float* brow = bp + j * k;
                float acc = 0.0f;
                for (int64_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
                crow[j] = acc;
            }
        }
    });
}

void
GemmATNaive(const Tensor& a_t, const Tensor& b, Tensor& c, int nthreads)
{
    const int64_t k = a_t.size(0), m = a_t.size(1), n = b.size(1);
    if (b.size(0) != k) {
        throw std::invalid_argument("GemmAT: inner mismatch");
    }
    if (c.size(0) != m || c.size(1) != n) {
        throw std::invalid_argument("GemmAT: output shape mismatch");
    }

    const float* ap = a_t.data();
    const float* bp = b.data();
    float* cp = c.data();

    ParallelFor(m, nthreads, [=](int64_t row_begin, int64_t row_end) {
        for (int64_t i = row_begin; i < row_end; ++i) {
            float* crow = cp + i * n;
            for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
            for (int64_t p = 0; p < k; ++p) {
                const float aval = ap[p * m + i];
                const float* brow = bp + p * n;
                for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
            }
        }
    });
}

}  // namespace secemb
