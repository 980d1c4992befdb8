/**
 * @file
 * AVX2+FMA microkernels: the f32 6x16 register tile (12 ymm
 * accumulators + 2 B vectors + 1 broadcast = 15 of 16 registers), the
 * bf16 variant (same FMA pattern behind widening B loads), and the
 * 4x16 int8 tile (pmaddubsw + pmaddwd over depth-groups of 4 — the
 * 7-bit unsigned A quantization keeps the i16 pair sums below
 * saturation). All three follow the register-tile idiom of driver.h.
 * Compiled with -mavx2 -mfma on this TU only; the dispatcher never
 * selects it unless the CPU reports both features.
 */

#include <immintrin.h>

#include <cstring>

#include "tensor/kernels/driver.h"

namespace secemb::kernels::detail {

namespace {

struct MicroAvx2
{
    static constexpr int kMr = 6;
    static constexpr int kNr = 16;

    static void
    Tile(const float* pa, const float* pb, int64_t kc, float* acc)
    {
        __m256 c[kMr][2] = {};
        for (int64_t p = 0; p < kc; ++p) {
            // Panel rows are 64B groups off a 64B base: aligned loads.
            const __m256 b0 = _mm256_load_ps(pb + p * kNr);
            const __m256 b1 = _mm256_load_ps(pb + p * kNr + 8);
            const float* av = pa + p * kMr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                const __m256 a = _mm256_broadcast_ss(av + r);
                c[r][0] = _mm256_fmadd_ps(a, b0, c[r][0]);
                c[r][1] = _mm256_fmadd_ps(a, b1, c[r][1]);
            }
        }
        std::memcpy(acc, c, sizeof(c));
    }
};

/** 8 bf16 lanes at a 16B-aligned `h` widened to one f32 ymm (exact:
 * bf16 is the truncated top half of the f32 bit pattern). */
inline __m256
WidenBf16(const uint16_t* h)
{
    const __m128i v = _mm_load_si128(reinterpret_cast<const __m128i*>(h));
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(v), 16));
}

struct MicroAvx2Bf16
{
    static constexpr int kMr = 6;
    static constexpr int kNr = 16;

    static void
    TileBf16(const float* pa, const uint16_t* pb, int64_t kc, float* acc)
    {
        __m256 c[kMr][2] = {};
        for (int64_t p = 0; p < kc; ++p) {
            // Panel rows are 32B groups off a 64B base: aligned loads.
            const __m256 b0 = WidenBf16(pb + p * kNr);
            const __m256 b1 = WidenBf16(pb + p * kNr + 8);
            const float* av = pa + p * kMr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                const __m256 a = _mm256_broadcast_ss(av + r);
                c[r][0] = _mm256_fmadd_ps(a, b0, c[r][0]);
                c[r][1] = _mm256_fmadd_ps(a, b1, c[r][1]);
            }
        }
        std::memcpy(acc, c, sizeof(c));
    }
};

/** 4 rows, not the f32 tile's 6: 12 accumulators plus the two B
 * vectors, the broadcast, `ones` and a product need 17 ymm registers,
 * one more than AVX2 has, so a 6-row tile spills an accumulator. */
struct MicroAvx2Int8
{
    static constexpr int kMr = 4;
    static constexpr int kNr = 16;

    static void
    TileInt8(const uint8_t* qa, const int8_t* qb, int64_t groups,
             int32_t* acc)
    {
        // 8 i32 accumulators; each ymm covers 8 columns x 4 depths.
        __m256i c[kMr][2] = {};
        const __m256i ones = _mm256_set1_epi16(1);
        for (int64_t g = 0; g < groups; ++g) {
            // Panel groups are 64B off a 64B base: aligned loads.
            const __m256i b0 = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(qb + g * 4 * kNr));
            const __m256i b1 = _mm256_load_si256(
                reinterpret_cast<const __m256i*>(qb + g * 4 * kNr + 32));
            const uint8_t* av = qa + g * 4 * kMr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                uint32_t aw;
                std::memcpy(&aw, av + r * 4, sizeof(aw));
                const __m256i a =
                    _mm256_set1_epi32(static_cast<int>(aw));
                // u8(A) x s8(B) pair products; |pair sum| <= 2*127*127
                // < 2^15, so the i16 intermediate cannot saturate.
                const __m256i p0 = _mm256_maddubs_epi16(a, b0);
                const __m256i p1 = _mm256_maddubs_epi16(a, b1);
                c[r][0] = _mm256_add_epi32(c[r][0],
                                           _mm256_madd_epi16(p0, ones));
                c[r][1] = _mm256_add_epi32(c[r][1],
                                           _mm256_madd_epi16(p1, ones));
            }
        }
        std::memcpy(acc, c, sizeof(c));
    }
};

}  // namespace

const TierOps&
Avx2TierOps()
{
    static const TierOps ops = {
        MicroAvx2::kNr,
        &PackBPanels<MicroAvx2::kNr>,
        &BlockedDriver<MicroAvx2>::Run,
        &PackBPanelsBf16<MicroAvx2Bf16::kNr>,
        &Bf16BlockedDriver<MicroAvx2Bf16>::Run,
        &PackBPanelsInt8<MicroAvx2Int8::kNr>,
        &Int8BlockedDriver<MicroAvx2Int8>::Run,
    };
    return ops;
}

}  // namespace secemb::kernels::detail
