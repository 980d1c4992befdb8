/**
 * @file
 * The AVX2 scan tile: 4 lookups of 2 ymm vectors, so 8 accumulators
 * beside 4 keys, the row counter and the row's 2 vectors, blended with
 * vpblendvb. Compiled with -mavx2 on this TU only; scan.cc dispatches
 * to it only when kernels::ActiveIsa() resolves the AVX2 tier.
 */

#include "oblivious/scan_tile.h"

namespace secemb::oblivious::detail {

namespace {

struct Avx2Tier
{
    using Lanes =
        int32_t __attribute__((vector_size(32), aligned(4), may_alias));
    static constexpr int kSlots = 4;
    static constexpr int kVecs = 2;
};

}  // namespace

void
ScanRowsAvx2(const ScanArgs& args)
{
    TiledScan<Avx2Tier>::Run(args);
}

int64_t
ArgmaxAvx2(const float* values, int64_t n)
{
    return LaneArgmax<Avx2Tier>::Run(values, n);
}

}  // namespace secemb::oblivious::detail
