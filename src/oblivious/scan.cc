#include "oblivious/scan.h"

#include <cassert>
#include <cstring>
#include <limits>

#include "oblivious/ct_ops.h"
#include "telemetry/telemetry.h"

// Obliviousness-preserving instrumentation: every probe below fires once
// per call or per public shape (rows, k), never conditionally on the
// secret index — verified by telemetry_test.cc via ON/OFF trace equality.

namespace secemb::oblivious {

namespace {

// Element-aligned views of float storage: callers hand in subspans and
// page buffers with 4-byte alignment only. may_alias because the int32
// lanes alias float tables and outputs.
using Lanes = int32_t __attribute__((vector_size(16), aligned(4), may_alias));
using FloatLanes =
    float __attribute__((vector_size(16), aligned(4), may_alias));
constexpr int64_t kLanes = sizeof(Lanes) / sizeof(int32_t);

// The row loops are unrolled by two. On the dlrm scan shape (dim 64, a
// 4-vCPU Xeon, -O2) one blend per iteration ran 2.2 to 4.1 G lanes/s
// depending on where the linker placed the loop; two per iteration ran
// 3.1 to 4.8 G lanes/s over the same placements.

/** dst = mask ? src : dst, over one row, touching every element. */
inline void
BlendRow(uint64_t mask, const float* src, float* dst, int64_t dim)
{
    const Lanes m = Lanes{} + static_cast<int32_t>(mask);
    int64_t c = 0;
#pragma GCC unroll 2
    for (; c + kLanes <= dim; c += kLanes) {
        const Lanes s = *reinterpret_cast<const Lanes*>(src + c);
        Lanes& d = *reinterpret_cast<Lanes*>(dst + c);
        d = (s & m) | (d & ~m);
    }
    for (; c < dim; ++c) dst[c] = SelectF32(mask, src[c], dst[c]);
}

/** dst += mask ? src : 0, over one row, touching every element. */
inline void
AddRow(uint64_t mask, const float* src, float* dst, int64_t dim)
{
    const Lanes m = Lanes{} + static_cast<int32_t>(mask);
    int64_t c = 0;
#pragma GCC unroll 2
    for (; c + kLanes <= dim; c += kLanes) {
        const Lanes s = *reinterpret_cast<const Lanes*>(src + c);
        *reinterpret_cast<FloatLanes*>(dst + c) +=
            __builtin_bit_cast(FloatLanes, s & m);
    }
    for (; c < dim; ++c) dst[c] += SelectF32(mask, src[c], 0.0f);
}

}  // namespace

void
ScanRows(std::span<const float> block, int64_t first_row, int64_t dim,
         std::span<const int64_t> ids, std::span<const int64_t> offsets,
         int64_t b0, int64_t b1, std::span<float> out)
{
    assert(dim > 0 && block.size() % static_cast<size_t>(dim) == 0);
    assert(0 <= b0 && b0 <= b1);
    assert(static_cast<int64_t>(out.size()) >= b1 * dim);
    const bool pooled = !offsets.empty();
    // Slot b's ids are ids[slot_begin(b), slot_begin(b + 1)).
    auto slot_begin = [&](int64_t b) {
        return pooled ? offsets[static_cast<size_t>(b)] : b;
    };
    if (pooled) {
        assert(static_cast<int64_t>(offsets.size()) > b1);
        for (int64_t b = b0; b < b1; ++b) {
            assert(0 <= slot_begin(b) && slot_begin(b) <= slot_begin(b + 1) &&
                   slot_begin(b + 1) <= static_cast<int64_t>(ids.size()));
        }
    } else {
        assert(b1 <= static_cast<int64_t>(ids.size()));
    }
    const int64_t rows = static_cast<int64_t>(block.size()) / dim;
    // Public shapes only: block rows times the ids of the slots.
    TELEMETRY_COUNT("oblivious.vscan.rows",
                    rows * (slot_begin(b1) - slot_begin(b0)));

    for (int64_t b = b0; b < b1; ++b) {
        float* dst = out.data() + b * dim;
        for (int64_t k = slot_begin(b); k < slot_begin(b + 1); ++k) {
            const auto id =
                static_cast<uint64_t>(ids[static_cast<size_t>(k)]);
            const float* src = block.data();
            for (int64_t r = 0; r < rows; ++r, src += dim) {
                const uint64_t mask =
                    EqMask(static_cast<uint64_t>(first_row + r), id);
                if (pooled) {
                    AddRow(mask, src, dst, dim);
                } else {
                    BlendRow(mask, src, dst, dim);
                }
            }
        }
    }
}

int64_t
ObliviousArgmax(std::span<const float> values)
{
    assert(!values.empty());
    TELEMETRY_SPAN("oblivious.argmax");
    TELEMETRY_COUNT("oblivious.argmax.calls", 1);
    // Compare float bits with a total order trick: flip the sign bit for
    // non-negatives and all bits for negatives, then compare unsigned.
    auto key = [](float f) {
        uint32_t u;
        std::memcpy(&u, &f, sizeof(u));
        const uint32_t sign = u >> 31;
        return static_cast<uint64_t>(u ^ (sign ? 0xffffffffu : 0x80000000u));
    };
    uint64_t best_key = key(values[0]);
    uint64_t best_idx = 0;
    for (size_t i = 1; i < values.size(); ++i) {
        const uint64_t k = key(values[i]);
        const uint64_t greater = LtMask(best_key, k);
        best_key = Select(greater, k, best_key);
        best_idx = Select(greater, static_cast<uint64_t>(i), best_idx);
    }
    return static_cast<int64_t>(best_idx);
}

std::vector<int64_t>
ObliviousTopK(std::span<const float> values, int64_t k)
{
    assert(k >= 0 && k <= static_cast<int64_t>(values.size()));
    TELEMETRY_SPAN("oblivious.topk");
    TELEMETRY_COUNT("oblivious.topk.calls", 1);
    // Work on a masked copy: after each selection the winner is
    // obliviously overwritten with -inf (every slot is rewritten).
    std::vector<float> work(values.begin(), values.end());
    std::vector<int64_t> out;
    out.reserve(static_cast<size_t>(k));
    const float neg_inf = -std::numeric_limits<float>::infinity();
    for (int64_t round = 0; round < k; ++round) {
        const int64_t best = ObliviousArgmax(work);
        out.push_back(best);
        for (size_t i = 0; i < work.size(); ++i) {
            const uint64_t m = EqMask(static_cast<uint64_t>(i),
                                      static_cast<uint64_t>(best));
            work[i] = SelectF32(m, neg_inf, work[i]);
        }
    }
    return out;
}

}  // namespace secemb::oblivious
