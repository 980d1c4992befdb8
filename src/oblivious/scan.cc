#include "oblivious/scan.h"

#include <cassert>

#include "oblivious/scan_tile.h"
#include "telemetry/telemetry.h"
#include "tensor/kernels/kernels.h"

// Obliviousness-preserving instrumentation: every probe below fires once
// per call or per public shape (rows, ids), never conditionally on the
// secret index — verified by telemetry_test.cc via ON/OFF trace equality.

namespace secemb::oblivious {

namespace detail {

namespace {

// The baseline tier: SSE2, which every x86-64 target has. 3 lookups of
// 2 xmm vectors keep 6 accumulators, 3 keys, the row counter and the
// row's 2 vectors in the 16 xmm registers.
struct BaselineTier
{
    using Lanes =
        int32_t __attribute__((vector_size(16), aligned(4), may_alias));
    static constexpr int kSlots = 3;
    static constexpr int kVecs = 2;
};

}  // namespace

void
ScanRowsBaseline(const ScanArgs& args)
{
    TiledScan<BaselineTier>::Run(args);
}

int64_t
ArgmaxBaseline(const float* values, int64_t n)
{
    return LaneArgmax<BaselineTier>::Run(values, n);
}

}  // namespace detail

namespace {

/** The scan tile and argmax of one ISA tier. */
struct TierKernels
{
    detail::ScanFn scan;
    detail::ArgmaxFn argmax;
};

/** The kernels of the active ISA tier (resolved per call, so
 *  SECEMB_ISA and SetIsaForTest take effect at once). */
TierKernels
Active()
{
    switch (kernels::ActiveIsa()) {
#if defined(SECEMB_SCAN_AVX512)
      case kernels::Isa::kAvx512:
        return {&detail::ScanRowsAvx512, &detail::ArgmaxAvx512};
#endif
#if defined(SECEMB_SCAN_AVX2)
      case kernels::Isa::kAvx2:
        return {&detail::ScanRowsAvx2, &detail::ArgmaxAvx2};
#endif
      default: return {&detail::ScanRowsBaseline, &detail::ArgmaxBaseline};
    }
}

}  // namespace

void
ScanRows(std::span<const float> block, int64_t first_row, int64_t dim,
         std::span<const int64_t> ids, int64_t b0, int64_t b1,
         std::span<float> out)
{
    assert(dim > 0 && block.size() % static_cast<size_t>(dim) == 0);
    assert(0 <= b0 && b0 <= b1 && b1 <= static_cast<int64_t>(ids.size()));
    assert(static_cast<int64_t>(out.size()) >= b1 * dim);
    const int64_t rows = static_cast<int64_t>(block.size()) / dim;
    // Row counters and keys are 32-bit lanes; the row count is public.
    assert(rows < static_cast<int64_t>(detail::kNoRow));
    // Public shapes only: block rows times the slots.
    TELEMETRY_COUNT("oblivious.vscan.rows", rows * (b1 - b0));
    if (rows == 0) return;  // nothing to read, so every slot stays as is
    Active().scan(
        {block.data(), rows, first_row, dim, ids.data(), b0, b1, out.data()});
}

int64_t
ObliviousArgmax(std::span<const float> values)
{
    assert(!values.empty() && values.size() < (size_t{1} << 31) - 64);
    TELEMETRY_SPAN("oblivious.argmax");
    TELEMETRY_COUNT("oblivious.argmax.calls", 1);
    return Active().argmax(values.data(),
                           static_cast<int64_t>(values.size()));
}

}  // namespace secemb::oblivious
