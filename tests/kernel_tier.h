#pragma once

/**
 * @file
 * One GEMM tier's instantiations of the driver's merge and A-panel pack,
 * for kernel_test to call directly, next to the merge as it stood
 * before its loops ran at vector width. tests/kernel_tier.cc builds once
 * per tier, with the flags src/tensor gives that tier's microkernel TU.
 */

#include <cstdint>

#include "tensor/kernels/kernels.h"

namespace secemb::kernel_tier {

using MergeFn = void (*)(const float* acc, float* c, int64_t ldc, int64_t i0,
                         int64_t j0, int mr, int nr, bool first, bool last,
                         const kernels::Epilogue& ep);

struct TierHooks
{
    int mr = 0;  ///< the tier's register tile
    int nr = 0;
    MergeFn merge = nullptr;            ///< detail::MergeTile<mr, nr>
    MergeFn merge_reference = nullptr;  ///< the one-float-at-a-time merge
    void (*pack_a)(const float* a, int64_t m, int64_t k, bool trans,
                   float* out) = nullptr;  ///< detail::PackAPanels<mr>
};

TierHooks ScalarHooks();
TierHooks Avx2Hooks();    // linked only when SECEMB_TEST_TIER_AVX2
TierHooks Avx512Hooks();  // linked only when SECEMB_TEST_TIER_AVX512

}  // namespace secemb::kernel_tier
