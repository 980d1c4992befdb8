/**
 * @file
 * AVX-512 VNNI int8 microkernel: 8x32 tile of int32 accumulators fed
 * by vpdpbusd (u8 A x s8 B, 4-deep dot products per lane — 64 MACs
 * per instruction against the f32 tier's 16). Compiled with
 * -mavx512vnni on this TU only; the dispatcher resolves int8 at the
 * AVX-512 tier only when __builtin_cpu_supports("avx512vnni") holds,
 * stepping down to the AVX2 pmaddubsw kernel otherwise.
 */

#include <immintrin.h>

#include <cstring>

#include "tensor/kernels/driver.h"

namespace secemb::kernels::detail {

namespace {

struct MicroInt8Avx512
{
    static constexpr int kMr = 8;
    static constexpr int kNr = 32;

    static void
    TileInt8(const uint8_t* qa, const int8_t* qb, int64_t groups,
             int32_t* acc)
    {
        // 16 i32 accumulators; each zmm covers 16 columns x 4 depths.
        __m512i c[kMr][2] = {};
        for (int64_t g = 0; g < groups; ++g) {
            // Panel groups are 128B off a 64B base: aligned loads.
            const __m512i b0 = _mm512_load_si512(qb + g * 4 * kNr);
            const __m512i b1 = _mm512_load_si512(qb + g * 4 * kNr + 64);
            const uint8_t* av = qa + g * 4 * kMr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                uint32_t aw;
                std::memcpy(&aw, av + r * 4, sizeof(aw));
                const __m512i a =
                    _mm512_set1_epi32(static_cast<int>(aw));
                c[r][0] = _mm512_dpbusd_epi32(c[r][0], a, b0);
                c[r][1] = _mm512_dpbusd_epi32(c[r][1], a, b1);
            }
        }
        std::memcpy(acc, c, sizeof(c));
    }
};

}  // namespace

void
Avx512VnniInt8PackB(const float* b, int64_t k, int64_t n, bool trans,
                    int8_t* out, float* col_scales,
                    int32_t* col_block_sums)
{
    PackBPanelsInt8<MicroInt8Avx512::kNr>(b, k, n, trans, out, col_scales,
                                          col_block_sums);
}

void
Avx512VnniInt8Run(const GemmArgs& args)
{
    Int8BlockedDriver<MicroInt8Avx512>::Run(args);
}

}  // namespace secemb::kernels::detail
