/**
 * @file
 * AVX-512F microkernels: the f32 8x32 register tile (16 zmm
 * accumulators + 2 B vectors + 1 broadcast of 32 registers), which
 * also prefetches its B panel, and the bf16 variant widening 2-byte B
 * groups on load (avx512f only — no avx512bf16 needed). Both follow
 * the register-tile idiom of driver.h. Compiled with -mavx512f on this
 * TU only; selected at runtime only when the CPU reports avx512f. The
 * int8 vpdpbusd tile needs -mavx512vnni and lives in
 * micro_int8_avx512.cc.
 */

#include <immintrin.h>

#include <cstring>

#include "tensor/kernels/driver.h"

namespace secemb::kernels::detail {

namespace {

struct MicroAvx512
{
    static constexpr int kMr = 8;
    static constexpr int kNr = 32;
    /** B-panel prefetch distance in k steps: 64 groups of 128 B run
     * 8 KB ahead of the loads. On the 4 x 256 x 50257 LM head, one
     * thread, with its panel on 2 MiB pages, 64 steps took 4.21 ms
     * against 4.54 ms at 16 and 4.25 ms at 32 (medians of 6 interleaved
     * runs on a Xeon of family 6, model 143; 64 beat 16 in all 6), and
     * no m = 32 dlrm-batch shape got slower. 16 steps on 4 KiB pages
     * took 5.78 ms there. */
    static constexpr int64_t kPrefetchSteps = 64;

    static void
    Tile(const float* pa, const float* pb, int64_t kc, float* acc)
    {
        __m512 c[kMr][2] = {};
        for (int64_t p = 0; p < kc; ++p) {
            // Skinny-m shapes stream B from memory, and the hardware
            // prefetcher stops at 4 KB pages: request both lines of the
            // group kPrefetchSteps ahead. The address depends only on
            // the panel base and p (public shape), never on data. It
            // may lie past the panel's end, where a prefetch cannot
            // fault, so it is formed as an integer, not a float*.
            const uintptr_t ahead =
                reinterpret_cast<uintptr_t>(pb + p * kNr) +
                kPrefetchSteps * kNr * sizeof(float);
            _mm_prefetch(reinterpret_cast<const char*>(ahead), _MM_HINT_T0);
            _mm_prefetch(reinterpret_cast<const char*>(ahead + 64),
                         _MM_HINT_T0);
            // Panel rows are 128B groups off a 64B base: aligned loads.
            const __m512 b0 = _mm512_load_ps(pb + p * kNr);
            const __m512 b1 = _mm512_load_ps(pb + p * kNr + 16);
            const float* av = pa + p * kMr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                const __m512 a = _mm512_set1_ps(av[r]);
                c[r][0] = _mm512_fmadd_ps(a, b0, c[r][0]);
                c[r][1] = _mm512_fmadd_ps(a, b1, c[r][1]);
            }
        }
        std::memcpy(acc, c, sizeof(c));
    }
};

/** 16 bf16 lanes at a 32B-aligned `h` widened to one f32 zmm (exact
 * widening). The all-ones maskz forms compute the same values as the
 * unmasked intrinsics, whose undefined pass-through operand GCC 12
 * reports as maybe-uninitialized. */
inline __m512
WidenBf16(const uint16_t* h)
{
    const __m256i v =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(h));
    return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
        0xFFFF, _mm512_maskz_cvtepu16_epi32(0xFFFF, v), 16));
}

struct MicroAvx512Bf16
{
    static constexpr int kMr = 8;
    static constexpr int kNr = 32;

    static void
    TileBf16(const float* pa, const uint16_t* pb, int64_t kc, float* acc)
    {
        __m512 c[kMr][2] = {};
        for (int64_t p = 0; p < kc; ++p) {
            // Panel rows are 64B groups off a 64B base: aligned loads.
            const __m512 b0 = WidenBf16(pb + p * kNr);
            const __m512 b1 = WidenBf16(pb + p * kNr + 16);
            const float* av = pa + p * kMr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                const __m512 a = _mm512_set1_ps(av[r]);
                c[r][0] = _mm512_fmadd_ps(a, b0, c[r][0]);
                c[r][1] = _mm512_fmadd_ps(a, b1, c[r][1]);
            }
        }
        std::memcpy(acc, c, sizeof(c));
    }
};

}  // namespace

const TierOps&
Avx512TierOps()
{
    static const TierOps ops = {
        MicroAvx512::kNr,
        &PackBPanels<MicroAvx512::kNr>,
        &BlockedDriver<MicroAvx512>::Run,
        &PackBPanelsBf16<MicroAvx512Bf16::kNr>,
        &Bf16BlockedDriver<MicroAvx512Bf16>::Run,
#if defined(SECEMB_KERNELS_AVX512VNNI)
        &Avx512VnniInt8PackB,
        &Avx512VnniInt8Run,
#else
        nullptr,
        nullptr,
#endif
    };
    return ops;
}

}  // namespace secemb::kernels::detail
