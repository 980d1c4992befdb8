#pragma once

/**
 * @file
 * Runtime-dispatched packed GEMM microkernels with fused epilogues.
 *
 * This is the compute engine under every FC GEMM in the library (DHE
 * decoder, DLRM MLPs, the transformer head/FFN). Three tiers are built as
 * separate translation units with per-TU ISA flags and selected once at
 * startup:
 *
 *   AVX-512F (8x32 tiles) -> AVX2+FMA (6x16 tiles) -> scalar (4x8 tiles)
 *
 * The active tier can be forced with SECEMB_ISA=scalar|avx2|avx512 (for
 * A/B testing and the certification gate) and overridden per-process in
 * tests via SetIsaForTest(). Requests for a tier the CPU or build cannot
 * satisfy clamp down to the widest supported tier.
 *
 * B operands are packed into 64-byte-aligned NR-wide column panels
 * (cache-blocked MC/KC/NC traversal), on 2 MiB pages from one huge
 * page up (PanelAllocator). This layer keeps no weight state:
 * a PackedB belongs to its caller. nn::Linear owns the panels of its
 * weight and repacks only when the weight's version, its precision or
 * the effective tier changes, so serving workloads pack each FC weight
 * once and reuse the panels across every batch. Weights change through
 * Adam::Step or Parameter::BumpVersion(); a raw write after the first
 * Forward is not seen.
 *
 * Obliviousness: control flow in every kernel depends only on shapes
 * (public in the threat model); the packed traversal touches the whole
 * weight panel for every batch, exactly like the reference loops. The
 * PR-3 certification harness proves canonical traces are bit-identical
 * across tiers (see tests/kernel_test.cc, label `kernels`/`leakage`).
 */

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "tensor/aligned.h"

namespace secemb::kernels {

/** Dispatch tiers, widest last. */
enum class Isa
{
    kScalar = 0,
    kAvx2 = 1,
    kAvx512 = 2,
};

/** Lowercase tier name: "scalar", "avx2", "avx512". */
const char* IsaName(Isa isa);

/** True if the tier's microkernel TU was compiled into this binary. */
bool IsaCompiledIn(Isa isa);

/** True if the tier is compiled in AND the CPU reports support. */
bool IsaSupported(Isa isa);

/** Widest tier usable on this machine/build (always >= kScalar). */
Isa WidestSupportedIsa();

/**
 * The tier all dispatched GEMMs use: SetIsaForTest() override if set,
 * else SECEMB_ISA (clamped to supported, parsed once), else the widest
 * supported tier.
 */
Isa ActiveIsa();

/**
 * Test hook: force a tier (pass static_cast<int>(Isa)) or restore
 * normal selection (pass -1). Forcing an unsupported tier clamps, like
 * the environment variable. Not for production use.
 */
void SetIsaForTest(int isa_or_negative);

// ---------------------------------------------------------------------------
// Precision tiers
// ---------------------------------------------------------------------------

/**
 * Storage precision of packed weight panels. Quantization happens at
 * pack time; every tier accumulates and stores C in f32, and the
 * blocked traversal (hence the address trace) is identical across
 * precisions — only the payload of the panel loads changes.
 *
 *   kF32  : reference panels, bit-exact packed GEMM
 *   kBf16 : B panels stored as round-to-nearest-even bf16, widened to
 *           f32 in the microkernel (half the panel traffic)
 *   kInt8 : B quantized per column (symmetric, s8), A quantized per row
 *           at pack time (7-bit unsigned, zero point 64 — keeps the
 *           AVX2 pmaddubsw path saturation-free), integer dot products
 *           with f32 dequant fused into the final-k-block store
 */
enum class Dtype
{
    kF32 = 0,
    kBf16 = 1,
    kInt8 = 2,
};

/** Lowercase precision name: "f32", "bf16", "int8". */
const char* DtypeName(Dtype dtype);

/** Parse a DtypeName; returns false on unknown name. */
bool ParseDtype(const char* name, Dtype* out);

/**
 * The precision dispatched GEMMs default to: SetDtypeForTest() override
 * if set, else SECEMB_PRECISION=f32|bf16|int8 (parsed once), else f32.
 * Layers can still pin a precision explicitly.
 */
Dtype ActiveDtype();

/**
 * Test hook: force a precision (pass static_cast<int>(Dtype)) or
 * restore normal selection (pass -1). Not for production use.
 */
void SetDtypeForTest(int dtype_or_negative);

/**
 * The tier that actually serves (want, dtype): steps down from `want`
 * while the precision's microkernel is unavailable there (e.g. int8 at
 * kAvx512 needs AVX-512 VNNI; without it the int8 path runs the AVX2
 * kernel). The scalar tier implements every precision, so this always
 * resolves. Packing and dispatch both use this, keeping PackedB::isa
 * consistent with the kernel that consumes it.
 */
Isa EffectiveIsaFor(Isa want, Dtype dtype);

// ---------------------------------------------------------------------------
// Fused epilogue
// ---------------------------------------------------------------------------

/** Activation applied in the GEMM epilogue (and by nn fused layers). */
enum class Activation
{
    kIdentity = 0,
    kRelu = 1,
    kGelu = 2,
};

/**
 * GELU (tanh approximation, as in GPT-2) on every lane of `x`, a GCC
 * vector of floats of any width: each tier's fused epilogue runs it at
 * its own width, and GeluF one lane wide. 0.5 x (1 + tanh u) with
 * u = sqrt(2/pi) (x + 0.044715 x^3) is evaluated as x / (1 + e^y),
 * y = -2u, which cannot cancel for negative x the way 1 + tanh u does.
 * e^y = 2^n e^r with n = round(y / ln 2) and e^r from a degree-7
 * polynomial on |r| <= ln(2) / 2; y is clamped so that n stays in
 * [-126, 128], where 2^128 is the +inf bit pattern. Every value runs
 * the same instructions (glibc tanhf branches on |x|). Max error over
 * [-12, 12] against a double reference: 5.2e-7 absolute, 1.1e-6
 * relative where |GELU(x)| >= 1e-3 (tests/kernel_test.cc). Always
 * inlined: the tiers build it under different -m flags, so no one
 * out-of-line copy may serve them all.
 */
template <class V>
[[gnu::always_inline]] inline V
GeluLanes(V x)
{
    using Ints = decltype(x < x);  // the int32 lanes of V
    constexpr float kA = -1.5957691216057308f;  // -2 sqrt(2/pi)
    constexpr float kB = kA * 0.044715f;
    constexpr float kMagic = 12582912.0f;  // 1.5 * 2^23: rounds to int
    V y = x * (kA + kB * (x * x));
    const V hi = V{} + 88.72f, lo = V{} - 87.0f;
    y = y > hi ? hi : y;  // NaN passes through both clamps
    y = y < lo ? lo : y;
    const V t = y * 1.44269504088896341f + kMagic;  // n in the low bits
    const V n = t - kMagic;
    V r = y - n * 0.693359375f;  // Cody-Waite: ln 2 = hi + lo
    r = r - n * -2.12194440e-4f;
    V p = V{} + 1.9875691500e-4f;  // Cephes expf
    p = p * r + 1.3981999507e-3f;
    p = p * r + 8.3334519073e-3f;
    p = p * r + 4.1665795894e-2f;
    p = p * r + 1.6666665459e-1f;
    p = p * r + 5.0000001201e-1f;
    p = p * (r * r) + r + 1.0f;
    const Ints pow2 =
        (std::bit_cast<Ints>(t) - std::bit_cast<int32_t>(kMagic) + 127) << 23;
    return x / (1.0f + p * std::bit_cast<V>(pow2));
}

/** GeluLanes one lane wide: the scalar definition of the fused GELU. */
inline float
GeluF(float x)
{
    using Lane = float __attribute__((vector_size(sizeof(float))));
    return GeluLanes(Lane{x})[0];
}

/** d/dx of GeluF. */
inline float
GeluGradF(float x)
{
    constexpr float kC = 0.7978845608028654f;
    const float x3 = x * x * x;
    const float inner = kC * (x + 0.044715f * x3);
    const float t = std::tanh(inner);
    const float dinner = kC * (1.0f + 3.0f * 0.044715f * x * x);
    return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * dinner;
}

/**
 * Work fused into the GEMM's final store: bias broadcast, activation,
 * and an optional pre-activation side output (what fused training
 * layers cache for Backward). All pointers are borrowed.
 */
struct Epilogue
{
    const float* bias = nullptr;  ///< length n; nullptr = no bias
    Activation act = Activation::kIdentity;
    float* preact = nullptr;  ///< m x n row-major; receives C + bias
};

// ---------------------------------------------------------------------------
// Packed operands
// ---------------------------------------------------------------------------

/** One x86-64 transparent huge page. */
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/**
 * madvise(MADV_HUGEPAGE) on the whole huge pages of [p, p + bytes),
 * where `p` is kHugePageBytes-aligned. A failure (a kernel built
 * without THP) is ignored: the pages stay 4 KiB and hold the same bytes.
 */
void AdviseHugePages(void* p, std::size_t bytes);

/**
 * The allocator of packed panels. A request of at least one huge page
 * starts on a 2 MiB boundary, and its whole huge pages are advised
 * before the vector's zero-fill first touches them, so the GEMM's B
 * stream walks 2 MiB pages; the partial tail stays on 4 KiB pages, so
 * resident memory does not grow. Smaller requests take
 * AlignedAllocator64's path. Panels are packed once and then read by
 * every call, which is why they, and not tensors or scratch, get this.
 */
template <class T>
struct PanelAllocator
{
    using value_type = T;

    PanelAllocator() = default;
    template <class U>
    PanelAllocator(const PanelAllocator<U>&)
    {
    }

    T*
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugePageBytes) {
            return AlignedAllocator64<T>().allocate(n);
        }
        void* p = ::operator new(bytes, std::align_val_t{kHugePageBytes});
        AdviseHugePages(p, bytes);
        return static_cast<T*>(p);
    }

    void
    deallocate(T* p, std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < kHugePageBytes) {
            AlignedAllocator64<T>().deallocate(p, n);
        } else {
            ::operator delete(p, bytes, std::align_val_t{kHugePageBytes});
        }
    }

    template <class U>
    bool
    operator==(const PanelAllocator<U>&) const
    {
        return true;
    }
};

/**
 * B (k x n) packed into NR-wide column panels for one tier: panel j
 * holds rows 0..k of columns [j*nr, j*nr+nr) as k contiguous nr-float
 * groups, zero-padded to nr. The buffer is 64-byte aligned (2 MiB
 * aligned from one huge page up, see PanelAllocator) and panel strides
 * preserve that alignment.
 *
 * Quantized precisions store panels in `qdata` instead of `data`:
 *   kBf16 : the same group layout with 2-byte bf16 elements.
 *   kInt8 : k is padded to groups of 4; group g of panel j holds, for
 *           each of the nr columns, the 4 consecutive s8 values of
 *           depths [4g, 4g+4) — the operand order vpdpbusd/pmaddubsw
 *           consume directly. Per-column scales (`col_scales`) and
 *           per-k-block column sums (`col_block_sums`, for the A
 *           zero-point correction) are computed at pack time.
 */
struct PackedB
{
    int64_t k = 0;
    int64_t n = 0;
    int nr = 0;
    Isa isa = Isa::kScalar;
    Dtype dtype = Dtype::kF32;
    bool transposed_src = false;  ///< packed from an n x k (B^T) source
    std::vector<float, PanelAllocator<float>> data;  ///< kF32 panels
    /** kBf16 / kInt8 panels. */
    std::vector<unsigned char, PanelAllocator<unsigned char>> qdata;
    /** kInt8: dequant scale per padded column (panels() * nr). */
    AlignedFloatVector col_scales;
    /** kInt8: per k-block sums of the quantized column values, indexed
     * [k_block * panels() * nr + column] — the zero-point correction. */
    std::vector<int32_t> col_block_sums;

    int64_t panels() const { return nr == 0 ? 0 : (n + nr - 1) / nr; }
    int64_t panel_stride() const { return k * int64_t{nr}; }
    /** kInt8: depth groups of 4 (k zero-padded up). */
    int64_t k_groups() const { return (k + 3) / 4; }
    /** Panel stride in bytes of the active storage. */
    int64_t panel_stride_bytes() const
    {
        switch (dtype) {
            case Dtype::kF32:
                return panel_stride() * int64_t{sizeof(float)};
            case Dtype::kBf16:
                return panel_stride() * 2;
            case Dtype::kInt8:
                return k_groups() * 4 * int64_t{nr};
        }
        return 0;
    }
};

/**
 * Pack `b` for `isa` at f32. When transposed_src, `b` is an n x k
 * row-major buffer read as B^T (the GemmBT case: C = A * B^T).
 */
void PackB(const float* b, int64_t k, int64_t n, bool transposed_src,
           Isa isa, PackedB* out);

/**
 * Pack `b` for (`isa`, `dtype`). `isa` steps down to
 * EffectiveIsaFor(isa, dtype), so passing ActiveIsa() is fine and
 * out->isa names the tier that will run it; quantization parameters are
 * derived from the source values here, at pack time.
 */
void PackB(const float* b, int64_t k, int64_t n, bool transposed_src,
           Isa isa, Dtype dtype, PackedB* out);

// ---------------------------------------------------------------------------
// Dispatched GEMM
// ---------------------------------------------------------------------------

/** One C = A * B (+ epilogue) invocation against a prepacked B. */
struct GemmArgs
{
    const float* a = nullptr;  ///< m x k row-major (k x m if a_transposed)
    bool a_transposed = false;
    const PackedB* b = nullptr;
    float* c = nullptr;  ///< m x n row-major, fully overwritten
    int64_t m = 0;
    Epilogue epilogue;
    int nthreads = 1;
};

/**
 * Run the blocked, packed GEMM for args.b->isa. Parallelised over MR-row
 * tiles of C via ParallelFor (deterministic chunk boundaries). The
 * epilogue is applied in the same pass as the final k-block's stores.
 */
void GemmPacked(const GemmArgs& args);

}  // namespace secemb::kernels
