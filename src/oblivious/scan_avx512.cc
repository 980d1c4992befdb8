/**
 * @file
 * The AVX-512F scan tile: 4 lookups of 4 zmm vectors, so 16 accumulators
 * beside 4 keys, the row counter and the row's 4 vectors. Each row is 4
 * loads, 4 vpcmpeqd into mask registers and 16 masked moves. Compiled
 * with -mavx512f on this TU only; scan.cc dispatches to it only when
 * kernels::ActiveIsa() resolves the AVX-512 tier.
 */

#include "oblivious/scan_tile.h"

namespace secemb::oblivious::detail {

namespace {

struct Avx512Tier
{
    using Lanes =
        int32_t __attribute__((vector_size(64), aligned(4), may_alias));
    static constexpr int kSlots = 4;
    static constexpr int kVecs = 4;
};

}  // namespace

void
ScanRowsAvx512(const ScanArgs& args)
{
    TiledScan<Avx512Tier>::Run(args);
}

int64_t
ArgmaxAvx512(const float* values, int64_t n)
{
    return LaneArgmax<Avx512Tier>::Run(values, n);
}

}  // namespace secemb::oblivious::detail
