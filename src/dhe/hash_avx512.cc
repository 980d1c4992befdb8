/**
 * @file
 * AVX-512F multi-hash kernel: 16 hash lanes per iteration as two
 * 8x64-bit vectors, with masked conditional subtracts replacing the
 * AVX2 compare/and/sub sequence. Compiled with -mavx512f on this TU
 * only; hashing.cc dispatches to it only when kernels::ActiveIsa()
 * resolves the AVX-512 tier.
 */

#include <immintrin.h>

#include "dhe/hash_kernels.h"

namespace secemb::dhe::detail {

namespace {

constexpr uint64_t kPrime = (uint64_t{1} << 31) - 1;

// The all-ones maskz forms below compute the same values as the unmasked
// intrinsics, whose undefined pass-through operand GCC 12 reports as
// maybe-uninitialized.
constexpr __mmask8 kAll8 = 0xFF;
constexpr __mmask16 kAll16 = 0xFFFF;

/** (a * xr + b) mod p for 8 u64 lanes (inputs < 2^31). */
inline __m512i
MersenneMod(__m512i a, __m512i b, __m512i x, __m512i p)
{
    __m512i t = _mm512_add_epi64(_mm512_maskz_mul_epu32(kAll8, a, x), b);
    t = _mm512_add_epi64(_mm512_maskz_srli_epi64(kAll8, t, 31),
                         _mm512_and_si512(t, p));
    t = _mm512_add_epi64(_mm512_maskz_srli_epi64(kAll8, t, 31),
                         _mm512_and_si512(t, p));
    const __mmask8 ge = _mm512_cmpge_epu64_mask(t, p);
    return _mm512_mask_sub_epi64(t, ge, t, p);
}

/** y mod m for 8 u64 lanes via 32-bit Barrett (y < 2^31, m < 2^31). */
inline __m512i
BarrettMod(__m512i y, __m512i m, __m512i mu)
{
    const __m512i q = _mm512_maskz_srli_epi64(
        kAll8, _mm512_maskz_mul_epu32(kAll8, y, mu), 32);
    const __m512i rem =
        _mm512_sub_epi64(y, _mm512_maskz_mul_epu32(kAll8, q, m));
    const __mmask8 ge = _mm512_cmpge_epu64_mask(rem, m);
    return _mm512_mask_sub_epi64(rem, ge, rem, m);
}

/** 8 u32 lanes at `v` zero-extended to u64. */
inline __m512i
Widen(const uint32_t* v)
{
    return _mm512_maskz_cvtepu32_epi64(
        kAll8, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v)));
}

}  // namespace

void
HashRowAvx512(const HashRowArgs& args)
{
    const __m512i p = _mm512_set1_epi64(static_cast<int64_t>(kPrime));
    const __m512i x = _mm512_set1_epi64(static_cast<int64_t>(args.xr));
    const __m512i m = _mm512_set1_epi64(static_cast<int64_t>(args.m));
    const __m512i mu = _mm512_set1_epi64(static_cast<int64_t>(args.mu));
    const __m512 vscale = _mm512_set1_ps(args.scale);
    const __m512 vneg1 = _mm512_set1_ps(-1.0f);

    int64_t j = 0;
    for (; j + 16 <= args.k; j += 16) {
        const __m512i a0 = Widen(args.a + j);
        const __m512i a1 = Widen(args.a + j + 8);
        const __m512i b0 = Widen(args.b + j);
        const __m512i b1 = Widen(args.b + j + 8);
        __m512i y0 = MersenneMod(a0, b0, x, p);
        __m512i y1 = MersenneMod(a1, b1, x, p);
        if (!args.mod_identity) {
            y0 = BarrettMod(y0, m, mu);
            y1 = BarrettMod(y1, m, mu);
        }
        const __m512i packed = _mm512_maskz_inserti64x4(
            kAll8,
            _mm512_castsi256_si512(_mm512_maskz_cvtepi64_epi32(kAll8, y0)),
            _mm512_maskz_cvtepi64_epi32(kAll8, y1), 1);
        const __m512 f = _mm512_maskz_cvtepi32_ps(kAll16, packed);
        _mm512_storeu_ps(args.row + j,
                         _mm512_fmadd_ps(f, vscale, vneg1));
    }
    if (j < args.k) {
        HashRowArgs tail = args;
        tail.a += j;
        tail.b += j;
        tail.k = args.k - j;
        tail.row += j;
        HashRowScalar(tail);
    }
}

}  // namespace secemb::dhe::detail
