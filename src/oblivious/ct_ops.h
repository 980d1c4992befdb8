#pragma once

/**
 * @file
 * Constant-time (branchless) primitives.
 *
 * These mirror the paper's use of cmov / AVX blend instructions (Section
 * V-A): every operation here executes the same instruction sequence and
 * touches the same memory locations regardless of the secret values it
 * operates on. Portable mask arithmetic is used instead of inline assembly;
 * a compiler barrier keeps the optimiser from re-introducing branches.
 *
 * Secrets are conditions and selected values; lengths and shapes are public.
 */

#include <cstdint>
#include <cstring>
#include <span>

namespace secemb::oblivious {

/**
 * Optimisation barrier: forces the compiler to treat v as opaque so that
 * mask arithmetic is not collapsed back into a conditional branch.
 */
inline uint64_t
ValueBarrier(uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    __asm__ volatile("" : "+r"(v) : : );
#endif
    return v;
}

/** All-ones mask if c != 0, else all-zeros. c must be 0 or 1. */
inline uint64_t
BoolToMask(uint64_t c)
{
    return ~(ValueBarrier(c) - 1);
}

/** All-ones mask iff a == b. */
inline uint64_t
EqMask(uint64_t a, uint64_t b)
{
    const uint64_t x = ValueBarrier(a ^ b);
    // (x | -x) has MSB set iff x != 0.
    const uint64_t nonzero = (x | (~x + 1)) >> 63;
    return BoolToMask(nonzero ^ 1);
}

/** All-ones mask iff a < b (unsigned). */
inline uint64_t
LtMask(uint64_t a, uint64_t b)
{
    // Standard branchless unsigned comparison.
    const uint64_t r = (a ^ ((a ^ b) | ((a - b) ^ b))) >> 63;
    return BoolToMask(ValueBarrier(r));
}

/** mask ? a : b, for a full-width mask. */
inline uint64_t
Select(uint64_t mask, uint64_t a, uint64_t b)
{
    return (mask & a) | (~mask & b);
}

/** mask ? a : b for int64. */
inline int64_t
SelectI64(uint64_t mask, int64_t a, int64_t b)
{
    return static_cast<int64_t>(Select(mask, static_cast<uint64_t>(a),
                                       static_cast<uint64_t>(b)));
}

/** mask ? a : b for float, via bit-level blend. */
inline float
SelectF32(uint64_t mask, float a, float b)
{
    uint32_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    const uint32_t m32 = static_cast<uint32_t>(mask);
    const uint32_t ur = (m32 & ua) | (~m32 & ub);
    float r;
    std::memcpy(&r, &ur, sizeof(r));
    return r;
}

/**
 * Conditionally overwrite dst with src when mask is all-ones; always reads
 * and writes every element of dst (oblivious blend, the software analogue
 * of the paper's AVX blend copy).
 */
void CtCopyRow(uint64_t mask, std::span<const float> src,
               std::span<float> dst);

/** Conditional swap of a and b when mask is all-ones; always touches both. */
void CtSwapRows(uint64_t mask, std::span<float> a, std::span<float> b);

/**
 * CtCopyRow for raw 32-bit words: conditionally overwrite dst with src
 * when mask is all-ones, always touching every element. A blend of 4
 * words per vector, then one word at a time for the last n % 4; the
 * pointers need only word alignment. Path and Circuit ORAM (src/oram)
 * and the out-of-core RAW ORAM (src/store) move block payloads with it.
 */
inline void
CtCopyWords(uint64_t mask, const uint32_t* src, uint32_t* dst, int64_t n)
{
    using Words =
        uint32_t __attribute__((vector_size(16), aligned(4), may_alias));
    const uint32_t m = static_cast<uint32_t>(ValueBarrier(mask));
    const Words mv = Words{} + m;
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        Words& d = *reinterpret_cast<Words*>(dst + i);
        d = (*reinterpret_cast<const Words*>(src + i) & mv) | (d & ~mv);
    }
    for (; i < n; ++i) dst[i] = (src[i] & m) | (dst[i] & ~m);
}

/** Conditional swap of scalars. */
inline void
CtSwapU64(uint64_t mask, uint64_t& a, uint64_t& b)
{
    const uint64_t diff = mask & (a ^ b);
    a ^= diff;
    b ^= diff;
}

/**
 * Deliberately non-inlined select, used by the ZeroTrace-Original ablation
 * (Fig. 10): the original ZeroTrace called its cmov helper through a
 * non-inlined assembly stub; the optimised version inlines it.
 */
uint64_t SelectNoInline(uint64_t mask, uint64_t a, uint64_t b);

}  // namespace secemb::oblivious
