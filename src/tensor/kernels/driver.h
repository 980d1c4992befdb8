#pragma once

/**
 * @file
 * The ISA-independent half of the packed GEMM: cache-blocked MC/KC/NC
 * traversal, A/B panel packing, tile merge with the fused epilogue, and
 * ParallelFor chunking over row tiles. Each microkernel TU instantiates
 * BlockedDriver<Micro> under its own -m flags, so the merge/pack loops
 * auto-vectorize to the same ISA as the microkernel they serve.
 *
 * A Micro provides:
 *   static constexpr int kMr, kNr;          // register tile shape
 *   static void Tile(const float* pa,       // kMr-grouped A slab
 *                    const float* pb,       // kNr-grouped B slab
 *                    int64_t kc,            // depth of this k block
 *                    float* acc);           // kMr*kNr out, 64B aligned
 *
 * Tile keeps its kMr x kNr accumulators in registers. Every SIMD tile
 * follows one idiom: `c[kMr][2] = {}` zeroes them, `#pragma GCC
 * unroll kMr` unrolls the row loop inside the k loop (GCC 12 does not
 * at -O2), and one memcpy of c stores them, so no access indexes c by
 * a loop variable and c never lives on the stack (the scalar tiles
 * unroll the same row loop). tests/codegen_test.cc fails any
 * multiply-accumulate loop that loads and stores the same memory
 * operand.
 *
 * Tile computes acc = pa * pb over kc steps (overwriting acc); the
 * driver owns everything else, including C accumulation across k blocks
 * and the bias/activation/preact epilogue on the final block. Keeping
 * stores out of the microkernel costs one L1-resident round trip per
 * tile and buys uniform handling of edge tiles and epilogues. On a
 * 4-vCPU AVX-512 Xeon, MergeTile took 18-72 ns to copy or accumulate an
 * 8 x 32 tile and 36-107 ns with bias and ReLU (the spread follows C's
 * address), against 1.1-1.7 us for a 384-deep tile's multiply-adds;
 * one float at a time it took 150-210 and 400-570 ns.
 *
 * The quantized drivers use the same skeleton with a different tile
 * contract: TileBf16 takes a uint16_t B slab (widening loads), TileInt8
 * takes a u8 A slab / s8 B slab in depth-groups of 4 and fills an
 * int32 accumulator that the driver dequantizes into the float acc
 * before the shared MergeTile — so bias/activation fusion and the
 * first/last k-block logic are precision-independent.
 *
 * Parallelism is 2-D when the shape demands it: the default split is
 * over MR-row tiles of C, but when tiles_m < nthreads (skinny decoder
 * GEMMs, m = 1..8) the driver splits over (row tile x NR-aligned
 * column range) work items instead. Each C element is always owned by
 * exactly one worker and sees the same sequential k-block order, so
 * results are bit-identical at every thread count.
 */

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "tensor/aligned.h"
#include "tensor/kernels/kernels.h"
#include "tensor/parallel.h"

namespace secemb::kernels::detail {

/** Cache-blocking constants (floats): KC * NR panels stay L1-resident,
 * MC rows of C bound the working set re-walked per k block. MC is a
 * multiple of every tier's kMr (lcm(4, 6, 8) = 24). */
inline constexpr int64_t kBlockKc = 384;
inline constexpr int64_t kBlockMc = 240;
inline constexpr int64_t kBlockNc = 4096;

/**
 * Per-thread A-panel scratch, shared by every tier (a thread runs one
 * GEMM at a time). Returns a buffer resized to `need_floats`. The buffer
 * persists across calls so steady-state serving reuses one allocation,
 * but it shrinks back when the retained capacity dwarfs the current
 * request — long-lived pool workers must not pin the largest A panel
 * they ever packed (defined in kernels.cc).
 */
AlignedFloatVector& AcquireAPackScratch(std::size_t need_floats);

/** The calling thread's retained scratch capacity in floats (test hook). */
std::size_t APackScratchCapacityForTest();

/** Per-thread quantized A-panel scratch (u8 panels for the int8 tier),
 * with the same persistence/shrink policy as AcquireAPackScratch. */
AlignedByteVector& AcquireQuantAPackScratch(std::size_t need_bytes);

// ---------------------------------------------------------------------------
// Quantization parameters
// ---------------------------------------------------------------------------

/** int8 A quantization: 7-bit unsigned with a mid-range zero point.
 * a_u = round(a * 63 / amax_row) + 64 in [1, 127], so u8 x s8 products
 * stay <= 127*127 and the AVX2 pmaddubsw pair-sum cannot saturate; the
 * zero-point term is subtracted exactly via the per-column, per-k-block
 * sums PackBPanelsInt8 records. */
inline constexpr int kInt8AZero = 64;
inline constexpr int kInt8AMax = 63;
/** int8 B quantization: symmetric signed, per column. */
inline constexpr int kInt8BMax = 127;

/** Round-to-nearest-even f32 -> bf16 (top 16 bits of the f32 pattern). */
inline uint16_t
F32ToBf16(float v)
{
    uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    u += 0x7FFFu + ((u >> 16) & 1u);
    return static_cast<uint16_t>(u >> 16);
}

/** Widen bf16 back to f32 (exact: bf16 is a truncated f32). */
inline float
Bf16ToF32(uint16_t v)
{
    const uint32_t u = static_cast<uint32_t>(v) << 16;
    float f;
    std::memcpy(&f, &u, sizeof(f));
    return f;
}

#if defined(__AVX2__)
/** Packs depths [0, depths) of MR (6 or 8) rows of A, `depths` a
 * multiple of 8, into `panel`: 8 depths at a time, the 8 x 8 block
 * (rows past MR read as zero) is transposed in registers by the usual
 * unpack/shuffle/permute network, and each depth's MR values are
 * stored whole (the first 6 lanes under a mask when MR = 6). */
template <int MR>
[[gnu::always_inline]] inline void
PackRowsBy8(const float* a, int64_t k, int64_t depths, float* panel)
{
    static_assert(MR == 6 || MR == 8);
    const __m256i first_mr = _mm256_setr_epi32(-1, -1, -1, -1, -1, -1,
                                               MR == 8 ? -1 : 0,
                                               MR == 8 ? -1 : 0);
    for (int64_t p = 0; p < depths; p += 8) {
        __m256 r[8];
#pragma GCC unroll 8
        for (int i = 0; i < 8; ++i) {
            r[i] = i < MR ? _mm256_loadu_ps(a + i * k + p)
                          : _mm256_setzero_ps();
        }
        __m256 t[8], s[8];
#pragma GCC unroll 4
        for (int i = 0; i < 4; ++i) {
            t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
        }
#pragma GCC unroll 2
        for (int h = 0; h < 2; ++h) {  // rows 0-3, then rows 4-7
            const __m256* u = t + 4 * h;
            s[4 * h] = _mm256_shuffle_ps(u[0], u[2], 0x44);
            s[4 * h + 1] = _mm256_shuffle_ps(u[0], u[2], 0xEE);
            s[4 * h + 2] = _mm256_shuffle_ps(u[1], u[3], 0x44);
            s[4 * h + 3] = _mm256_shuffle_ps(u[1], u[3], 0xEE);
        }
        // s[i] holds depths i and i + 4 of rows 0-3 (or 4-7) in its two
        // 128-bit halves.
#pragma GCC unroll 8
        for (int d = 0; d < 8; ++d) {
            const __m256 col = _mm256_permute2f128_ps(
                s[d % 4], s[4 + d % 4], d < 4 ? 0x20 : 0x31);
            if constexpr (MR == 8) {
                _mm256_storeu_ps(panel + (p + d) * MR, col);
            } else {
                _mm256_maskstore_ps(panel + (p + d) * MR, first_mr, col);
            }
        }
    }
}
#endif

/** Pack A into kMr-row panels: panel t stores, for each depth p, the
 * kMr row values contiguously (zero-padded past m). `trans` reads A as
 * a k x m buffer (the GemmAT case: C = A^T * B). Full row tiles of a
 * row-major A go 8 depths at a time through PackRowsBy8 on the AVX2 and
 * AVX-512 tiers; the loops below pack the rest, one float at a time. */
template <int MR>
void
PackAPanels(const float* a, int64_t m, int64_t k, bool trans, float* out)
{
    const int64_t tiles = (m + MR - 1) / MR;
    for (int64_t t = 0; t < tiles; ++t) {
        float* panel = out + t * MR * k;
        int64_t p0 = 0;  // depths [0, p0) of the tile already packed
#if defined(__AVX2__)
        if constexpr (MR == 6 || MR == 8) {
            if (!trans && (t + 1) * MR <= m) {
                p0 = k - k % 8;
                PackRowsBy8<MR>(a + t * MR * k, k, p0, panel);
            }
        }
#endif
        for (int r = 0; r < MR; ++r) {
            const int64_t row = t * MR + r;
            if (row >= m) {
                for (int64_t p = p0; p < k; ++p) panel[p * MR + r] = 0.0f;
            } else if (trans) {
                for (int64_t p = p0; p < k; ++p) {
                    panel[p * MR + r] = a[p * m + row];
                }
            } else {
                const float* arow = a + row * k;
                for (int64_t p = p0; p < k; ++p) {
                    panel[p * MR + r] = arow[p];
                }
            }
        }
    }
}

/** Pack B into kNr-wide column panels (see PackedB); `trans` reads B as
 * an n x k buffer (the GemmBT case). */
template <int NR>
void
PackBPanels(const float* b, int64_t k, int64_t n, bool trans, float* out)
{
    const int64_t panels = (n + NR - 1) / NR;
    for (int64_t jp = 0; jp < panels; ++jp) {
        float* panel = out + jp * k * NR;
        for (int j = 0; j < NR; ++j) {
            const int64_t col = jp * NR + j;
            if (col >= n) {
                for (int64_t p = 0; p < k; ++p) panel[p * NR + j] = 0.0f;
            } else if (trans) {
                const float* bcol = b + col * k;
                for (int64_t p = 0; p < k; ++p) {
                    panel[p * NR + j] = bcol[p];
                }
            } else {
                for (int64_t p = 0; p < k; ++p) {
                    panel[p * NR + j] = b[p * n + col];
                }
            }
        }
    }
}

/** PackBPanels at bf16 storage: identical group layout, 2-byte
 * round-to-nearest-even elements. */
template <int NR>
void
PackBPanelsBf16(const float* b, int64_t k, int64_t n, bool trans,
                uint16_t* out)
{
    const int64_t panels = (n + NR - 1) / NR;
    for (int64_t jp = 0; jp < panels; ++jp) {
        uint16_t* panel = out + jp * k * NR;
        for (int j = 0; j < NR; ++j) {
            const int64_t col = jp * NR + j;
            for (int64_t p = 0; p < k; ++p) {
                const float v = col >= n ? 0.0f
                                : trans  ? b[col * k + p]
                                         : b[p * n + col];
                panel[p * NR + j] = F32ToBf16(v);
            }
        }
    }
}

/**
 * Quantize-and-pack B for the int8 tier. Depths are grouped in fours
 * (zero-padded): group g of panel jp stores, for each of its NR
 * columns, the 4 consecutive s8 values of depths [4g, 4g+4) — the
 * operand order vpdpbusd / pmaddubsw+pmaddwd consume. Per (padded)
 * column: `col_scales` receives the symmetric dequant scale
 * max|b|/127, and `col_block_sums` the sum of quantized values per
 * KC-sized k block (indexed [kb * panels * NR + jp * NR + j]) — the
 * exact zero-point correction for the u8 A operand.
 */
template <int NR>
void
PackBPanelsInt8(const float* b, int64_t k, int64_t n, bool trans,
                int8_t* out, float* col_scales, int32_t* col_block_sums)
{
    const int64_t panels = (n + NR - 1) / NR;
    const int64_t kq = (k + 3) / 4;
    const int64_t k_blocks = std::max<int64_t>(1, (k + kBlockKc - 1) / kBlockKc);
    std::fill(col_block_sums, col_block_sums + k_blocks * panels * NR, 0);
    for (int64_t jp = 0; jp < panels; ++jp) {
        int8_t* panel = out + jp * kq * 4 * NR;
        for (int j = 0; j < NR; ++j) {
            const int64_t col = jp * NR + j;
            float bmax = 0.0f;
            if (col < n) {
                for (int64_t p = 0; p < k; ++p) {
                    const float v = trans ? b[col * k + p] : b[p * n + col];
                    bmax = std::max(bmax, std::fabs(v));
                }
            }
            col_scales[jp * NR + j] =
                bmax / static_cast<float>(kInt8BMax);
            const float inv =
                bmax > 0.0f ? static_cast<float>(kInt8BMax) / bmax : 0.0f;
            for (int64_t g = 0; g < kq; ++g) {
                for (int t = 0; t < 4; ++t) {
                    const int64_t p = g * 4 + t;
                    int q = 0;
                    if (col < n && p < k) {
                        const float v =
                            trans ? b[col * k + p] : b[p * n + col];
                        q = std::clamp(
                            static_cast<int>(std::lrintf(v * inv)),
                            -kInt8BMax, kInt8BMax);
                    }
                    panel[g * 4 * NR + j * 4 + t] =
                        static_cast<int8_t>(q);
                    if (q != 0) {
                        col_block_sums[(p / kBlockKc) * panels * NR +
                                       jp * NR + j] += q;
                    }
                }
            }
        }
    }
}

/**
 * Dynamic per-row A quantization for the int8 tier: panel t stores
 * depth-groups of 4 u8 values per row (`kInt8AZero`-biased, padded
 * depths and rows at the zero point), and `row_scales[t*MR+r]` the
 * per-row dequant scale max|a|/63 (0 for all-zero and padded rows,
 * which therefore contribute exactly 0 after dequant).
 *
 * This runs on every call (A is the activation), so the contiguous-row
 * case is vectorized under __AVX2__. Bit-exactness across tiers holds
 * because _mm256_cvtps_epi32 and std::lrintf both round to nearest
 * even under the default FP environment, and the clamp/bias are
 * integer ops.
 */
template <int MR>
void
PackAPanelsInt8(const float* a, int64_t m, int64_t k, bool trans,
                uint8_t* out, float* row_scales)
{
    const int64_t tiles = (m + MR - 1) / MR;
    const int64_t kq = (k + 3) / 4;
    for (int64_t t = 0; t < tiles; ++t) {
        uint8_t* panel = out + t * kq * 4 * MR;
        for (int r = 0; r < MR; ++r) {
            const int64_t row = t * MR + r;
            if (row >= m) {
                row_scales[t * MR + r] = 0.0f;
                for (int64_t g = 0; g < kq; ++g) {
                    uint8_t* dst = panel + g * 4 * MR + r * 4;
                    dst[0] = dst[1] = dst[2] = dst[3] = kInt8AZero;
                }
                continue;
            }
            const float* arow = a + row * k;  // valid only when !trans
            float amax = 0.0f;
            if (trans) {
                for (int64_t p = 0; p < k; ++p) {
                    amax = std::max(amax, std::fabs(a[p * m + row]));
                }
            } else {
                int64_t p = 0;
#if defined(__AVX2__)
                const __m256 sign = _mm256_set1_ps(-0.0f);
                __m256 vmax = _mm256_setzero_ps();
                for (; p + 8 <= k; p += 8) {
                    vmax = _mm256_max_ps(
                        vmax, _mm256_andnot_ps(
                                  sign, _mm256_loadu_ps(arow + p)));
                }
                alignas(32) float mtmp[8];
                _mm256_store_ps(mtmp, vmax);
                for (int i = 0; i < 8; ++i) {
                    amax = std::max(amax, mtmp[i]);
                }
#endif
                for (; p < k; ++p) {
                    amax = std::max(amax, std::fabs(arow[p]));
                }
            }
            row_scales[t * MR + r] =
                amax / static_cast<float>(kInt8AMax);
            const float inv =
                amax > 0.0f ? static_cast<float>(kInt8AMax) / amax : 0.0f;
            int64_t g = 0;
#if defined(__AVX2__)
            if (!trans) {
                const __m256 vinv = _mm256_set1_ps(inv);
                const __m256i lo = _mm256_set1_epi32(-kInt8AMax);
                const __m256i hi = _mm256_set1_epi32(kInt8AMax);
                const __m256i zp = _mm256_set1_epi32(kInt8AZero);
                // 16 full depths (4 groups) per iteration; the scalar
                // tail also covers the zero-padded final group.
                for (; (g + 4) * 4 <= k; g += 4) {
                    const int64_t p = g * 4;
                    __m256i q0 = _mm256_cvtps_epi32(_mm256_mul_ps(
                        _mm256_loadu_ps(arow + p), vinv));
                    __m256i q1 = _mm256_cvtps_epi32(_mm256_mul_ps(
                        _mm256_loadu_ps(arow + p + 8), vinv));
                    q0 = _mm256_add_epi32(
                        _mm256_min_epi32(_mm256_max_epi32(q0, lo), hi),
                        zp);
                    q1 = _mm256_add_epi32(
                        _mm256_min_epi32(_mm256_max_epi32(q1, lo), hi),
                        zp);
                    // i32 -> i16 -> u8, restoring depth order across
                    // the 128-bit lane interleave of packs_epi32.
                    __m256i w16 = _mm256_packs_epi32(q0, q1);
                    w16 = _mm256_permute4x64_epi64(w16, 0xD8);
                    const __m128i bytes = _mm_packus_epi16(
                        _mm256_castsi256_si128(w16),
                        _mm256_extracti128_si256(w16, 1));
                    alignas(16) uint8_t buf[16];
                    _mm_store_si128(reinterpret_cast<__m128i*>(buf),
                                    bytes);
                    for (int i = 0; i < 4; ++i) {
                        std::memcpy(panel + (g + i) * 4 * MR + r * 4,
                                    buf + 4 * i, 4);
                    }
                }
            }
#endif
            for (; g < kq; ++g) {
                for (int t4 = 0; t4 < 4; ++t4) {
                    const int64_t p = g * 4 + t4;
                    int q = 0;
                    if (p < k) {
                        const float v =
                            trans ? a[p * m + row] : arow[p];
                        q = std::clamp(
                            static_cast<int>(std::lrintf(v * inv)),
                            -kInt8AMax, kInt8AMax);
                    }
                    panel[g * 4 * MR + r * 4 + t4] =
                        static_cast<uint8_t>(q + kInt8AZero);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared blocked traversal
// ---------------------------------------------------------------------------

/** The float vector the merge runs on: the widest the TU's -m flags
 * give, one lane in the scalar tier. Element-aligned and may_alias,
 * like the scan tiles' lanes, because rows of C are. */
#if defined(__AVX512F__)
using EpilogueLanes =
    float __attribute__((vector_size(64), aligned(4), may_alias));
#elif defined(__AVX2__)
using EpilogueLanes =
    float __attribute__((vector_size(32), aligned(4), may_alias));
#else
using EpilogueLanes =
    float __attribute__((vector_size(4), aligned(4), may_alias));
#endif

/** One float as a vector: the lane the merge's edge-tile tails run on. */
using EpilogueLane =
    float __attribute__((vector_size(4), aligned(4), may_alias));

/** The V at `p`, and a store of one. */
template <class V>
[[gnu::always_inline]] inline V
LoadLanes(const float* p)
{
    return *reinterpret_cast<const V*>(p);
}

template <class V>
[[gnu::always_inline]] inline void
StoreLanes(float* p, V v)
{
    *reinterpret_cast<V*>(p) = v;
}

/** Calls op(V{}, r, j) over an mr x nr tile: an EpilogueLanes vector at
 * a time (V = EpilogueLanes), then one lane at a time past a row's last
 * full vector (V = EpilogueLane; edge tiles only). */
template <class Op>
[[gnu::always_inline]] inline void
ForTileLanes(int mr, int nr, const Op& op)
{
    constexpr int kLanes = sizeof(EpilogueLanes) / sizeof(float);
    const int full = nr - nr % kLanes;
    for (int r = 0; r < mr; ++r) {
        for (int j = 0; j < full; j += kLanes) op(EpilogueLanes{}, r, j);
        for (int j = full; j < nr; ++j) op(EpilogueLane{}, r, j);
    }
}

/** The final k block's merge under one combination of the epilogue's
 * options, which are public properties of the call, so the loop
 * carries no branch: bit 0 adds C (every block but the first), bit 1
 * the bias, bit 2 writes the pre-activation, bits 3-4 the Activation.
 * Per element: x = acc (+ C) (+ bias), preact = x, C = act(x). ReLU is
 * x < 0 ? 0 : x, which keeps NaN and -0 where max(x, 0) would not. GELU
 * runs from a staged copy of the summed tile, so no loop that
 * multiplies both reads and writes C. */
template <int MR, int NR, int kOptions>
void
MergeFinal(const float* acc, float* c, float* preact, const float* bias,
           int64_t ldc, int mr, int nr)
{
    constexpr bool kAddC = (kOptions & 1) != 0;
    constexpr bool kBias = (kOptions & 2) != 0;
    constexpr bool kPreact = (kOptions & 4) != 0;
    constexpr auto kAct = static_cast<Activation>(kOptions >> 3);
    constexpr bool kGelu = kAct == Activation::kGelu;
    alignas(64) float staged[kGelu ? MR * NR : 1];
    ForTileLanes(mr, nr, [&](auto lanes, int r, int j) {
        using V = decltype(lanes);
        float* cj = c + r * ldc + j;
        V x = LoadLanes<V>(acc + r * NR + j);
        if constexpr (kAddC) x += LoadLanes<V>(cj);
        if constexpr (kBias) x += LoadLanes<V>(bias + j);
        if constexpr (kPreact) StoreLanes(preact + r * ldc + j, x);
        if constexpr (kAct == Activation::kRelu) x = x < V{} ? V{} : x;
        StoreLanes(kGelu ? staged + r * NR + j : cj, x);
    });
    if constexpr (kGelu) {
        ForTileLanes(mr, nr, [&](auto lanes, int r, int j) {
            using V = decltype(lanes);
            StoreLanes(c + r * ldc + j,
                       GeluLanes(LoadLanes<V>(staged + r * NR + j)));
        });
    }
}

using MergeFinalFn = void (*)(const float*, float*, float*, const float*,
                              int64_t, int, int);

template <int MR, int NR, std::size_t... kOptions>
constexpr std::array<MergeFinalFn, sizeof...(kOptions)>
MergeFinalTable(std::index_sequence<kOptions...>)
{
    return {&MergeFinal<MR, NR, static_cast<int>(kOptions)>...};
}

/**
 * Merge one computed tile into C. `first` overwrites (first k block),
 * otherwise accumulates; `last` applies the epilogue. Every loop runs a
 * whole EpilogueLanes vector at a time and carries no branch: the
 * options are hoisted out of it, and none depends on data. Kept out of
 * line so tests/codegen_test.cc can find its loops by name.
 */
template <int MR, int NR>
[[gnu::noinline]] void
MergeTile(const float* acc, float* c, int64_t ldc, int64_t i0, int64_t j0,
          int mr, int nr, bool first, bool last, const Epilogue& ep)
{
    float* c0 = c + i0 * ldc + j0;
    if (last) {
        static constexpr auto kFinal =
            MergeFinalTable<MR, NR>(std::make_index_sequence<24>{});
        const int options = (first ? 0 : 1) | (ep.bias != nullptr ? 2 : 0) |
                            (ep.preact != nullptr ? 4 : 0) |
                            static_cast<int>(ep.act) << 3;
        kFinal[options](acc, c0,
                        ep.preact == nullptr ? nullptr
                                             : ep.preact + i0 * ldc + j0,
                        ep.bias == nullptr ? nullptr : ep.bias + j0, ldc, mr,
                        nr);
    } else if (first) {
        ForTileLanes(mr, nr, [&](auto lanes, int r, int j) {
            using V = decltype(lanes);
            StoreLanes(c0 + r * ldc + j, LoadLanes<V>(acc + r * NR + j));
        });
    } else {
        ForTileLanes(mr, nr, [&](auto lanes, int r, int j) {
            using V = decltype(lanes);
            float* cj = c0 + r * ldc + j;
            StoreLanes(cj, LoadLanes<V>(cj) + LoadLanes<V>(acc + r * NR + j));
        });
    }
}

/** Column splits of the 2-D skinny-m plan: >1 only when there are too
 * few row tiles to feed the pool and more than one B panel to split. */
inline int64_t
ColSplits(int64_t tiles_m, int64_t panels, int nthreads)
{
    if (nthreads <= 1 || tiles_m >= nthreads || panels <= 1) return 1;
    return std::min<int64_t>(
        panels, std::max<int64_t>(1, int64_t{nthreads} / tiles_m));
}

/**
 * The cache-blocked traversal every precision shares. `tile` fills the
 * MR*NR float accumulator for (row tile `it`, panel `jp`, k block
 * `kb` covering depths [k0, k0+kc)); the skeleton owns the MC/KC/NC
 * loop structure, the ParallelFor plan (1-D over row tiles, or the 2-D
 * row-tile x column-range split when tiles_m < nthreads), and the
 * MergeTile stores with the fused epilogue.
 */
template <int MR, int NR, class TileFn>
void
RunBlockedLoops(int64_t m, int64_t k, int64_t n, int nthreads, float* c,
                const Epilogue& ep, const TileFn& tile,
                int64_t kc_block = kBlockKc)
{
    const int64_t tiles_m = (m + MR - 1) / MR;
    const int64_t panels = (n + NR - 1) / NR;
    // k == 0 still runs one (empty) block so the epilogue fires:
    // C = act(bias) matches the mathematical A*B for k = 0.
    const int64_t k_blocks =
        std::max<int64_t>(1, (k + kc_block - 1) / kc_block);

    const int64_t col_splits = ColSplits(tiles_m, panels, nthreads);
    if (col_splits > 1) {
        // Skinny-m 2-D split: each work item owns (row tile, disjoint
        // NR-aligned column range), so every C element is produced by
        // exactly one worker with the same sequential k-block order —
        // bit-identical to the 1-D plan at any thread count.
        ParallelFor(
            tiles_m * col_splits, nthreads,
            [&](int64_t wb, int64_t we) {
                alignas(64) float acc[MR * NR];
                for (int64_t w = wb; w < we; ++w) {
                    const int64_t it = w / col_splits;
                    const int64_t s = w % col_splits;
                    const int64_t jp_begin = panels * s / col_splits;
                    const int64_t jp_end =
                        panels * (s + 1) / col_splits;
                    const int mr = static_cast<int>(
                        std::min<int64_t>(MR, m - it * MR));
                    for (int64_t kb = 0; kb < k_blocks; ++kb) {
                        const int64_t k0 = kb * kc_block;
                        const int64_t kc =
                            std::min<int64_t>(kc_block, k - k0);
                        const bool first = kb == 0;
                        const bool last = kb == k_blocks - 1;
                        for (int64_t jp = jp_begin; jp < jp_end; ++jp) {
                            const int nr = static_cast<int>(
                                std::min<int64_t>(NR, n - jp * NR));
                            tile(acc, it, jp, kb, k0, kc);
                            MergeTile<MR, NR>(acc, c, n, it * MR,
                                              jp * NR, mr, nr, first,
                                              last, ep);
                        }
                    }
                }
            });
        return;
    }

    constexpr int64_t mc_tiles = kBlockMc / MR;
    ParallelFor(tiles_m, nthreads, [&](int64_t tb, int64_t te) {
        alignas(64) float acc[MR * NR];
        for (int64_t jc = 0; jc < n; jc += kBlockNc) {
            const int64_t jp_begin = jc / NR;
            const int64_t jp_end = std::min<int64_t>(
                panels, (jc + kBlockNc + NR - 1) / NR);
            for (int64_t ic = tb; ic < te; ic += mc_tiles) {
                const int64_t it_end = std::min(te, ic + mc_tiles);
                for (int64_t kb = 0; kb < k_blocks; ++kb) {
                    const int64_t k0 = kb * kc_block;
                    const int64_t kc = std::min<int64_t>(kc_block, k - k0);
                    const bool first = kb == 0;
                    const bool last = kb == k_blocks - 1;
                    for (int64_t jp = jp_begin; jp < jp_end; ++jp) {
                        const int nr = static_cast<int>(
                            std::min<int64_t>(NR, n - jp * NR));
                        for (int64_t it = ic; it < it_end; ++it) {
                            const int mr = static_cast<int>(
                                std::min<int64_t>(MR, m - it * MR));
                            tile(acc, it, jp, kb, k0, kc);
                            MergeTile<MR, NR>(acc, c, n, it * MR,
                                              jp * NR, mr, nr, first,
                                              last, ep);
                        }
                    }
                }
            }
        }
    });
}

template <class Micro>
struct BlockedDriver
{
    static constexpr int MR = Micro::kMr;
    static constexpr int NR = Micro::kNr;

    static void
    Run(const GemmArgs& args)
    {
        const PackedB& b = *args.b;
        assert(b.nr == NR);
        assert(b.dtype == Dtype::kF32);
        assert(IsAligned64(b.data.data()));
        const int64_t m = args.m, k = b.k, n = b.n;
        if (m == 0 || n == 0) return;

        const int64_t tiles_m = (m + MR - 1) / MR;
        // A panels are transient per call; the scratch is thread-local
        // (with a shrink policy) so steady-state serving reuses one
        // allocation. Packed on the caller before the region — workers
        // only read it.
        AlignedFloatVector& a_pack =
            AcquireAPackScratch(static_cast<size_t>(tiles_m * MR * k));
        PackAPanels<MR>(args.a, m, k, args.a_transposed, a_pack.data());
        const float* pa_base = a_pack.data();
        const float* pb_base = b.data.data();
        const int64_t panel_stride = b.panel_stride();

        RunBlockedLoops<MR, NR>(
            m, k, n, args.nthreads, args.c, args.epilogue,
            [&](float* acc, int64_t it, int64_t jp, int64_t /*kb*/,
                int64_t k0, int64_t kc) {
                Micro::Tile(pa_base + it * MR * k + k0 * MR,
                            pb_base + jp * panel_stride + k0 * NR, kc,
                            acc);
            });
    }
};

/** BlockedDriver over bf16 B panels: A stays f32, the microkernel
 * widens the 2-byte B groups on load, and accumulation/merge are the
 * f32 path exactly. */
template <class Micro>
struct Bf16BlockedDriver
{
    static constexpr int MR = Micro::kMr;
    static constexpr int NR = Micro::kNr;

    static void
    Run(const GemmArgs& args)
    {
        const PackedB& b = *args.b;
        assert(b.nr == NR);
        assert(b.dtype == Dtype::kBf16);
        assert(IsAligned64(b.qdata.data()));
        const int64_t m = args.m, k = b.k, n = b.n;
        if (m == 0 || n == 0) return;

        const int64_t tiles_m = (m + MR - 1) / MR;
        AlignedFloatVector& a_pack =
            AcquireAPackScratch(static_cast<size_t>(tiles_m * MR * k));
        PackAPanels<MR>(args.a, m, k, args.a_transposed, a_pack.data());
        const float* pa_base = a_pack.data();
        const auto* pb_base =
            reinterpret_cast<const uint16_t*>(b.qdata.data());
        const int64_t panel_stride = b.panel_stride();  // elements

        RunBlockedLoops<MR, NR>(
            m, k, n, args.nthreads, args.c, args.epilogue,
            [&](float* acc, int64_t it, int64_t jp, int64_t /*kb*/,
                int64_t k0, int64_t kc) {
                Micro::TileBf16(pa_base + it * MR * k + k0 * MR,
                                pb_base + jp * panel_stride + k0 * NR,
                                kc, acc);
            });
    }
};

/**
 * int8 driver-side k-block: the int32 tile accumulator is exact, so
 * the int8 tier blocks k far coarser than the f32 KC — dequant and the
 * C merge run once per kBlockKcInt8 depths instead of once per 384.
 * A multiple of kBlockKc so the pack-time per-block column sums
 * aggregate exactly onto driver-block boundaries; the worst-case lane
 * accumulation kBlockKcInt8 * 127 * 127 < 2^31 cannot overflow.
 */
inline constexpr int64_t kBlockKcInt8 = kBlockKc * 128;  // 49152

/**
 * BlockedDriver over quantized s8 B / u8 A panels: A is quantized
 * per row on entry (dynamic, into the thread-local byte scratch), the
 * microkernel produces exact int32 dot products per k block, and the
 * driver dequantizes into the float accumulator — including the exact
 * zero-point correction from the packed per-block column sums — before
 * the shared MergeTile. The k blocks are kBlockKcInt8-sized (usually
 * one), but accumulation across them and the fused epilogue still run
 * the f32 path's MergeTile logic.
 */
template <class Micro>
struct Int8BlockedDriver
{
    static constexpr int MR = Micro::kMr;
    static constexpr int NR = Micro::kNr;

    static void
    Run(const GemmArgs& args)
    {
        const PackedB& b = *args.b;
        assert(b.nr == NR);
        assert(b.dtype == Dtype::kInt8);
        assert(IsAligned64(b.qdata.data()));
        const int64_t m = args.m, k = b.k, n = b.n;
        if (m == 0 || n == 0) return;

        const int64_t tiles_m = (m + MR - 1) / MR;
        const int64_t panels = (n + NR - 1) / NR;
        const int64_t kq = (k + 3) / 4;
        const int64_t pa_stride = kq * 4 * MR;
        const int64_t pb_stride = kq * 4 * NR;

        AlignedFloatVector& scales = AcquireAPackScratch(
            static_cast<size_t>(tiles_m * MR));
        AlignedByteVector& a_pack = AcquireQuantAPackScratch(
            static_cast<size_t>(tiles_m * pa_stride));
        PackAPanelsInt8<MR>(args.a, m, k, args.a_transposed,
                            a_pack.data(), scales.data());
        const uint8_t* pa_base = a_pack.data();
        const auto* pb_base =
            reinterpret_cast<const int8_t*>(b.qdata.data());
        const float* sa = scales.data();
        const float* sb = b.col_scales.data();

        // Zero-point corrections per driver-side k block: the sum of
        // the pack-time per-KC-block column sums it spans.
        const int64_t pack_blocks =
            std::max<int64_t>(1, (k + kBlockKc - 1) / kBlockKc);
        const int64_t drv_blocks =
            std::max<int64_t>(1, (k + kBlockKcInt8 - 1) / kBlockKcInt8);
        constexpr int64_t kPackPerDrv = kBlockKcInt8 / kBlockKc;
        std::vector<int32_t> agg(
            static_cast<size_t>(drv_blocks * panels * NR), 0);
        for (int64_t pb = 0; pb < pack_blocks; ++pb) {
            const int32_t* src =
                b.col_block_sums.data() + pb * panels * NR;
            int32_t* dst =
                agg.data() + (pb / kPackPerDrv) * panels * NR;
            for (int64_t i = 0; i < panels * NR; ++i) dst[i] += src[i];
        }

        RunBlockedLoops<MR, NR>(
            m, k, n, args.nthreads, args.c, args.epilogue,
            [&](float* acc, int64_t it, int64_t jp, int64_t kb,
                int64_t k0, int64_t kc) {
                alignas(64) int32_t iacc[MR * NR];
                const int64_t g0 = k0 / 4;
                const int64_t groups = (kc + 3) / 4;
                Micro::TileInt8(pa_base + it * pa_stride + g0 * 4 * MR,
                                pb_base + jp * pb_stride + g0 * 4 * NR,
                                groups, iacc);
                const int32_t* bsum =
                    agg.data() + kb * panels * NR + jp * NR;
                for (int r = 0; r < MR; ++r) {
                    const float s = sa[it * MR + r];
                    for (int j = 0; j < NR; ++j) {
                        acc[r * NR + j] =
                            s * sb[jp * NR + j] *
                            static_cast<float>(iacc[r * NR + j] -
                                               kInt8AZero * bsum[j]);
                    }
                }
            },
            kBlockKcInt8);
    }
};

/** The function-pointer surface each microkernel TU exports. Quantized
 * slots are nullptr when the tier has no kernel for that precision
 * (dispatch steps down via EffectiveIsaFor). */
struct TierOps
{
    int nr = 0;
    void (*pack_b)(const float* b, int64_t k, int64_t n, bool trans,
                   float* out) = nullptr;
    void (*run)(const GemmArgs& args) = nullptr;
    void (*pack_b_bf16)(const float* b, int64_t k, int64_t n, bool trans,
                        uint16_t* out) = nullptr;
    void (*run_bf16)(const GemmArgs& args) = nullptr;
    void (*pack_b_int8)(const float* b, int64_t k, int64_t n, bool trans,
                        int8_t* out, float* col_scales,
                        int32_t* col_block_sums) = nullptr;
    void (*run_int8)(const GemmArgs& args) = nullptr;
};

const TierOps& ScalarTierOps();
const TierOps& Avx2TierOps();    // defined only when compiled in
const TierOps& Avx512TierOps();  // defined only when compiled in

// Defined in micro_int8_avx512.cc (the AVX-512 VNNI TU) when the
// compiler supports its flags; referenced by Avx512TierOps.
void Avx512VnniInt8PackB(const float* b, int64_t k, int64_t n, bool trans,
                         int8_t* out, float* col_scales,
                         int32_t* col_block_sums);
void Avx512VnniInt8Run(const GemmArgs& args);

}  // namespace secemb::kernels::detail
