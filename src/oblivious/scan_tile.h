#pragma once

/**
 * @file
 * Internal: the slot-tiled body of oblivious::ScanRows and the
 * lane-parallel body of oblivious::ObliviousArgmax, templates
 * instantiated per ISA tier under that tier's -m flags (scan.cc for the
 * baseline, scan_avx2.cc, scan_avx512.cc) and dispatched on
 * kernels::ActiveIsa(), like dhe/hash_kernels.h.
 *
 * A tile is up to kSlots lookups and a column chunk of kVecs vectors.
 * Its output chunk lives in registers while it walks every row of the
 * block once: the row's chunk is loaded once and blended into every
 * lookup of the tile, under the lane mask `row counter == key`. The key
 * is the only place a secret enters; every load, branch and address is
 * a function of the shapes. The tile stores its chunk once at the end,
 * so no row costs a load and store of the output. Columns past the full
 * chunks take 1-vector chunks, then a scalar masked tail. The last
 * tile's lookup count is instantiated too, so short calls do no padded
 * work.
 *
 * A Tier provides:
 *   using Lanes;   // int32 vector, aligned(4) and may_alias
 *   static constexpr int kSlots, kVecs;  // the register tile
 * aligned(4) because callers hand in subspans and page buffers aligned
 * to an element only; may_alias because the lanes alias float tables
 * and outputs.
 */

#include <algorithm>
#include <bit>
#include <cstdint>

#include "oblivious/ct_ops.h"

namespace secemb::oblivious::detail {

/** One ScanRows call, its shapes checked (scan.h has the contract). */
struct ScanArgs
{
    const float* block;
    int64_t rows;  ///< rows in the block, below kNoRow
    int64_t first_row;
    int64_t dim;
    const int64_t* ids;
    int64_t b0, b1;
    float* out;
};

using ScanFn = void (*)(const ScanArgs& args);
/** ObliviousArgmax over values[0, n), 1 <= n < 2^31 - 64. */
using ArgmaxFn = int64_t (*)(const float* values, int64_t n);

void ScanRowsBaseline(const ScanArgs& args);
int64_t ArgmaxBaseline(const float* values, int64_t n);
#if defined(SECEMB_SCAN_AVX2)
void ScanRowsAvx2(const ScanArgs& args);
int64_t ArgmaxAvx2(const float* values, int64_t n);
#endif
#if defined(SECEMB_SCAN_AVX512)
void ScanRowsAvx512(const ScanArgs& args);
int64_t ArgmaxAvx512(const float* values, int64_t n);
#endif

/** The key of an id outside the block: no row counter reaches it. */
constexpr uint32_t kNoRow = 0xFFFFFFFFu;

template <class Tier>
struct TiledScan
{
    using Lanes = typename Tier::Lanes;
    static constexpr int64_t kLanes = sizeof(Lanes) / sizeof(int32_t);

    /** The block row `id` names, or kNoRow, in constant time. The
     * compare runs on all 64 bits, so an id 2^32 rows past the block
     * stays outside it. */
    static uint32_t
    Key(int64_t id, const ScanArgs& a)
    {
        const uint64_t rel =
            static_cast<uint64_t>(id) - static_cast<uint64_t>(a.first_row);
        return static_cast<uint32_t>(
            Select(LtMask(rel, static_cast<uint64_t>(a.rows)), rel, kNoRow));
    }

    /**
     * Columns [c, c + kV * kLanes) of the kN lookups whose output rows
     * start at `dst`, one row of a.dim floats per lookup: each is
     * overwritten with the matching row, a bit-exact blend.
     */
    template <int kN, int kV>
    static void
    Chunk(const ScanArgs& a, const uint32_t* keys, float* dst, int64_t c)
    {
        Lanes key[kN];
        Lanes acc[kN][kV];
#pragma GCC unroll 16
        for (int s = 0; s < kN; ++s) {
            key[s] = Lanes{} + static_cast<int32_t>(keys[s]);
#pragma GCC unroll 16
            for (int v = 0; v < kV; ++v) {
                acc[s][v] = *reinterpret_cast<const Lanes*>(
                    dst + s * a.dim + c + v * kLanes);
            }
        }
        Lanes row = {};
        const float* src = a.block + c;
        for (int64_t r = 0; r < a.rows; ++r, src += a.dim) {
            Lanes x[kV];
#pragma GCC unroll 16
            for (int v = 0; v < kV; ++v) {
                x[v] = *reinterpret_cast<const Lanes*>(src + v * kLanes);
            }
#pragma GCC unroll 16
            for (int s = 0; s < kN; ++s) {
                const auto m = row == key[s];
#pragma GCC unroll 16
                for (int v = 0; v < kV; ++v) {
                    acc[s][v] = m ? x[v] : acc[s][v];
                }
            }
            row += 1;
        }
#pragma GCC unroll 16
        for (int s = 0; s < kN; ++s) {
#pragma GCC unroll 16
            for (int v = 0; v < kV; ++v) {
                *reinterpret_cast<Lanes*>(dst + s * a.dim + c + v * kLanes) =
                    acc[s][v];
            }
        }
    }

    /** Columns [c, dim), one at a time, as Chunk does. */
    template <int kN>
    static void
    Tail(const ScanArgs& a, const uint32_t* keys, float* dst, int64_t c)
    {
        for (; c < a.dim; ++c) {
            uint32_t acc[kN];
#pragma GCC unroll 16
            for (int s = 0; s < kN; ++s) {
                acc[s] = std::bit_cast<uint32_t>(dst[s * a.dim + c]);
            }
            const float* src = a.block + c;
            for (int64_t r = 0; r < a.rows; ++r, src += a.dim) {
                const uint32_t x = std::bit_cast<uint32_t>(*src);
#pragma GCC unroll 16
                for (int s = 0; s < kN; ++s) {
                    acc[s] = static_cast<uint32_t>(
                        Select(EqMask(static_cast<uint64_t>(r), keys[s]), x,
                               acc[s]));
                }
            }
#pragma GCC unroll 16
            for (int s = 0; s < kN; ++s) {
                dst[s * a.dim + c] = std::bit_cast<float>(acc[s]);
            }
        }
    }

    template <int kN>
    static void
    Lookups(const ScanArgs& a, const uint32_t* keys, float* dst)
    {
        int64_t c = 0;
        for (; c + Tier::kVecs * kLanes <= a.dim; c += Tier::kVecs * kLanes) {
            Chunk<kN, Tier::kVecs>(a, keys, dst, c);
        }
        for (; c + kLanes <= a.dim; c += kLanes) {
            Chunk<kN, 1>(a, keys, dst, c);
        }
        Tail<kN>(a, keys, dst, c);
    }

    /** Lookups<n> for the public count n in [1, kN]. */
    template <int kN = Tier::kSlots>
    static void
    Dispatch(int n, const ScanArgs& a, const uint32_t* keys, float* dst)
    {
        if constexpr (kN > 1) {
            if (n < kN) return Dispatch<kN - 1>(n, a, keys, dst);
        }
        Lookups<kN>(a, keys, dst);
    }

    static void
    Run(const ScanArgs& a)
    {
        for (int64_t b = a.b0; b < a.b1; b += Tier::kSlots) {
            const int n =
                static_cast<int>(std::min<int64_t>(Tier::kSlots, a.b1 - b));
            uint32_t keys[Tier::kSlots];
            for (int s = 0; s < n; ++s) keys[s] = Key(a.ids[b + s], a);
            Dispatch(n, a, keys, a.out + b * a.dim);
        }
    }
};

/**
 * ObliviousArgmax at the tier's width. Floats compare under a total
 * order of their bits: the int32 pattern with the non-sign bits of
 * negatives flipped orders -NaN < -inf < ... < -0 < +0 < ... < +inf <
 * +NaN. Lane l keeps the best key and index of elements l, l + kLanes,
 * ..., under a vector compare and blend; every lane starts at element
 * 0, and the last partial vector is padded with copies of element 0,
 * which never beat a lane's best under the strict compare. A lane
 * reduction in constant time then takes the larger key, and on equal
 * keys the lower index, so ties resolve to the lowest index overall.
 * Loads, loop trips and the reduction depend on n only.
 */
template <class Tier>
struct LaneArgmax
{
    using Lanes = typename Tier::Lanes;
    static constexpr int kLanes = sizeof(Lanes) / sizeof(int32_t);

    static Lanes
    OrderKey(Lanes bits)
    {
        return bits ^ ((bits >> 31) & 0x7FFFFFFF);
    }

    static void
    Step(Lanes bits, Lanes index, Lanes& best, Lanes& best_index)
    {
        const Lanes key = OrderKey(bits);
        const auto greater = key > best;
        best = greater ? key : best;
        best_index = greater ? index : best_index;
    }

    static int64_t
    Run(const float* values, int64_t n)
    {
        const int32_t first = std::bit_cast<int32_t>(values[0]);
        Lanes best = OrderKey(Lanes{} + first);
        Lanes best_index = {};
        Lanes index = {};
        for (int l = 0; l < kLanes; ++l) index[l] = l;
        const int64_t full = n - n % kLanes;
        for (int64_t i = 0; i < full; i += kLanes) {
            Step(*reinterpret_cast<const Lanes*>(values + i), index, best,
                 best_index);
            index += kLanes;
        }
        Lanes tail = Lanes{} + first;
        for (int64_t i = full; i < n; ++i) {
            tail[i - full] = std::bit_cast<int32_t>(values[i]);
        }
        Step(tail, index, best, best_index);

        // Unsigned keys, so that LtMask orders them.
        uint64_t key = static_cast<uint32_t>(best[0]) ^ 0x80000000u;
        uint64_t at = static_cast<uint32_t>(best_index[0]);
#pragma GCC unroll 16
        for (int l = 1; l < kLanes; ++l) {
            const uint64_t k = static_cast<uint32_t>(best[l]) ^ 0x80000000u;
            const uint64_t i = static_cast<uint32_t>(best_index[l]);
            const uint64_t take =
                LtMask(key, k) | (EqMask(key, k) & LtMask(i, at));
            key = Select(take, k, key);
            at = Select(take, i, at);
        }
        return static_cast<int64_t>(at);
    }
};

}  // namespace secemb::oblivious::detail
