/**
 * @file
 * Tests for the constant-time primitives and oblivious scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "oblivious/ct_ops.h"
#include "oblivious/scan.h"
#include "tensor/kernels/kernels.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace secemb::oblivious {
namespace {

TEST(CtOpsTest, BoolToMask)
{
    EXPECT_EQ(BoolToMask(0), 0ULL);
    EXPECT_EQ(BoolToMask(1), ~0ULL);
}

TEST(CtOpsTest, EqMaskExhaustiveSmall)
{
    for (uint64_t a = 0; a < 8; ++a) {
        for (uint64_t b = 0; b < 8; ++b) {
            EXPECT_EQ(EqMask(a, b), a == b ? ~0ULL : 0ULL);
        }
    }
}

TEST(CtOpsTest, EqMaskEdgeValues)
{
    EXPECT_EQ(EqMask(~0ULL, ~0ULL), ~0ULL);
    EXPECT_EQ(EqMask(0, ~0ULL), 0ULL);
    EXPECT_EQ(EqMask(1ULL << 63, 1ULL << 63), ~0ULL);
}

TEST(CtOpsTest, LtMaskRandomised)
{
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t a = rng.Next(), b = rng.Next();
        EXPECT_EQ(LtMask(a, b), a < b ? ~0ULL : 0ULL);
    }
    EXPECT_EQ(LtMask(3, 3), 0ULL);
    EXPECT_EQ(LtMask(0, 1), ~0ULL);
    EXPECT_EQ(LtMask(~0ULL, 0), 0ULL);
}

TEST(CtOpsTest, SelectVariants)
{
    EXPECT_EQ(Select(~0ULL, 7, 9), 7ULL);
    EXPECT_EQ(Select(0, 7, 9), 9ULL);
    EXPECT_EQ(SelectI64(~0ULL, -5, 11), -5);
    EXPECT_EQ(SelectI64(0, -5, 11), 11);
    EXPECT_FLOAT_EQ(SelectF32(~0ULL, 1.5f, -2.5f), 1.5f);
    EXPECT_FLOAT_EQ(SelectF32(0, 1.5f, -2.5f), -2.5f);
    EXPECT_EQ(SelectNoInline(~0ULL, 3, 4), 3ULL);
    EXPECT_EQ(SelectNoInline(0, 3, 4), 4ULL);
}

TEST(CtOpsTest, CtCopyRowBlends)
{
    std::vector<float> src{1, 2, 3}, dst{9, 9, 9};
    CtCopyRow(0, src, dst);
    EXPECT_EQ(dst, (std::vector<float>{9, 9, 9}));
    CtCopyRow(~0ULL, src, dst);
    EXPECT_EQ(dst, src);
}

/** CtCopyWords over word counts that are and are not multiples of its
 * 4-word vector, at pointers one word off a vector boundary: mask 0
 * keeps dst, an all-ones mask copies src, and no word outside dst moves. */
TEST(CtOpsTest, CtCopyWordsBlendsEveryLength)
{
    for (int64_t n = 0; n <= 13; ++n) {
        for (const uint64_t mask : {uint64_t{0}, ~uint64_t{0}}) {
            std::vector<uint32_t> src(static_cast<size_t>(n) + 2);
            std::vector<uint32_t> dst(src.size());
            for (size_t i = 0; i < src.size(); ++i) {
                src[i] = 0xA0000000u + static_cast<uint32_t>(i);
                dst[i] = 0x0B000000u + static_cast<uint32_t>(i);
            }
            std::vector<uint32_t> want = dst;
            if (mask != 0) {
                std::copy(src.begin() + 1, src.begin() + 1 + n,
                          want.begin() + 1);
            }
            CtCopyWords(mask, src.data() + 1, dst.data() + 1, n);
            EXPECT_EQ(dst, want) << "n " << n << " mask " << mask;
        }
    }
}

TEST(CtOpsTest, CtSwapRows)
{
    std::vector<float> a{1, 2}, b{3, 4};
    CtSwapRows(0, a, b);
    EXPECT_EQ(a, (std::vector<float>{1, 2}));
    CtSwapRows(~0ULL, a, b);
    EXPECT_EQ(a, (std::vector<float>{3, 4}));
    EXPECT_EQ(b, (std::vector<float>{1, 2}));
}

TEST(CtOpsTest, CtSwapU64)
{
    uint64_t a = 5, b = 6;
    CtSwapU64(0, a, b);
    EXPECT_EQ(a, 5u);
    CtSwapU64(~0ULL, a, b);
    EXPECT_EQ(a, 6u);
    EXPECT_EQ(b, 5u);
}

/**
 * ScanRows against a plain gather compared with memcmp, on every ISA tier
 * the build and CPU offer and on every row-width class of each tier's
 * tile (full chunks, 1-vector chunks, the scalar tail, and their mixes).
 * Table and output buffers sit 4 bytes off a vector boundary. Each case
 * scans the whole table and a sub-block starting past row 0 into slots
 * [b0, b0 + n) for every n in 0..20, so every tier sees at least two full
 * tiles and every remainder count; slots outside the range must stay
 * untouched. Ids outside the block (negative, one past it, or 2^32 past
 * a block row) must leave their slot alone.
 */
TEST(ScanTest, ScanRowsMatchesGather)
{
    struct RestoreIsa
    {
        ~RestoreIsa() { kernels::SetIsaForTest(-1); }
    } restore;
    int tiers = 0;
    for (int t = 0; t <= static_cast<int>(kernels::Isa::kAvx512); ++t) {
        const auto isa = static_cast<kernels::Isa>(t);
        if (!kernels::IsaSupported(isa)) continue;
        kernels::SetIsaForTest(t);
        ASSERT_EQ(kernels::ActiveIsa(), isa);
        ++tiers;
        Rng rng(6);
        auto bounded = [&rng](int64_t n) {
            return static_cast<int64_t>(
                rng.NextBounded(static_cast<uint64_t>(n)));
        };
        for (const int64_t dim : {1, 3, 4, 7, 8, 12, 17, 24, 64, 83}) {
            const int64_t rows = 2 + bounded(40);
            std::vector<float> table_buf(static_cast<size_t>(rows * dim) + 1);
            for (float& x : table_buf) x = rng.NextGaussian();
            const std::span<const float> table(table_buf.data() + 1,
                                               table_buf.size() - 1);
            const float* row_data = table.data();
            for (const bool whole : {true, false}) {
                const int64_t first = whole ? 0 : 1 + bounded(rows - 1);
                const int64_t count =
                    whole ? rows : 1 + bounded(rows - first);
                const auto block =
                    table.subspan(static_cast<size_t>(first * dim),
                                  static_cast<size_t>(count * dim));
                auto in_block = [&](int64_t id) {
                    return id >= first && id < first + count;
                };
                auto draw_id = [&]() -> int64_t {
                    switch (bounded(8)) {
                      case 0: return -1 - bounded(3);
                      case 1: return first + count;
                      case 2:
                        return first + bounded(count) + (int64_t{1} << 32);
                      default: return bounded(rows);
                    }
                };
                for (int64_t n = 0; n <= 20; ++n) {
                    const int64_t b0 = bounded(3);
                    const int64_t b1 = b0 + n;
                    const int64_t slots = b1 + 1 + bounded(2);
                    std::vector<float> out_buf(
                        static_cast<size_t>(slots * dim) + 1);
                    const std::span<float> out(out_buf.data() + 1,
                                               out_buf.size() - 1);
                    auto reset = [&] {
                        for (float& x : out) x = rng.NextGaussian();
                        return std::vector<float>(out.begin(), out.end());
                    };
                    const std::string where =
                        std::string(kernels::IsaName(isa)) + " dim " +
                        std::to_string(dim) +
                        (whole ? " whole" : " sub-block") + " slots " +
                        std::to_string(n);

                    std::vector<int64_t> ids(static_cast<size_t>(slots));
                    for (int64_t& id : ids) id = draw_id();
                    std::vector<float> want = reset();
                    for (int64_t b = b0; b < b1; ++b) {
                        const int64_t id = ids[static_cast<size_t>(b)];
                        if (!in_block(id)) continue;
                        std::memcpy(want.data() + b * dim,
                                    row_data + id * dim,
                                    static_cast<size_t>(dim) * sizeof(float));
                    }
                    ScanRows(block, first, dim, ids, b0, b1, out);
                    EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                          want.size() * sizeof(float)),
                              0)
                        << where;
                }
            }
        }
    }
    EXPECT_GT(tiers, 0);
}

/** The one-lane argmax the tiers replaced, kept as their reference:
 * the maximum under the total order of the float bits, first index on
 * ties. */
int64_t
ScalarArgmax(std::span<const float> values)
{
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

/**
 * ObliviousArgmax on every ISA tier against ScalarArgmax, over raw
 * 32-bit patterns: NaNs of both signs, +-0, +-inf, subnormals and
 * random bits, with half the cases drawn from a pool of 1-3 values,
 * often two of them one ulp apart, so the maximum repeats within a lane
 * and across lanes and must beat a close neighbour, at every n in
 * 1..70 (every tail length of every tier) and at the GPT-2 vocabulary,
 * 50257. Values sit one float off a vector boundary.
 */
TEST(ScanTest, ObliviousArgmaxMatchesScalarOnEveryTier)
{
    struct RestoreIsa
    {
        ~RestoreIsa() { kernels::SetIsaForTest(-1); }
    } restore;
    constexpr uint32_t kSpecial[] = {
        0x00000000u, 0x80000000u, 0x7f800000u, 0xff800000u, 0x7fc00000u,
        0xffc00000u, 0x7f800001u, 0xffffffffu, 0x7fffffffu, 0x00000001u,
        0x807fffffu, 0x7f7fffffu, 0xff7fffffu, 0x3f800000u, 0xbf800000u};
    int tiers = 0, cases = 0;
    for (int t = 0; t <= static_cast<int>(kernels::Isa::kAvx512); ++t) {
        const auto isa = static_cast<kernels::Isa>(t);
        if (!kernels::IsaSupported(isa)) continue;
        kernels::SetIsaForTest(t);
        ASSERT_EQ(kernels::ActiveIsa(), isa);
        ++tiers;
        Rng rng(9);
        auto draw = [&]() -> uint32_t {
            const uint64_t r = rng.NextBounded(4);
            if (r == 0) {
                return kSpecial[rng.NextBounded(std::size(kSpecial))];
            }
            return static_cast<uint32_t>(rng.Next());
        };
        std::vector<int64_t> sizes;
        for (int64_t n = 1; n <= 70; ++n) {
            for (int rep = 0; rep < 100; ++rep) sizes.push_back(n);
        }
        for (int rep = 0; rep < 6; ++rep) sizes.push_back(50257);
        for (const int64_t n : sizes) {
            std::vector<uint32_t> pool(1 + rng.NextBounded(3));
            for (uint32_t& p : pool) p = draw();
            // Neighbouring patterns: floats one ulp apart.
            if (pool.size() > 1 && rng.NextBounded(2) == 0) {
                pool[1] = pool[0] + 1;
            }
            const bool pooled = rng.NextBounded(2) == 0;
            std::vector<float> buf(static_cast<size_t>(n) + 1);
            for (size_t i = 1; i < buf.size(); ++i) {
                const uint32_t bits =
                    pooled ? pool[rng.NextBounded(pool.size())] : draw();
                std::memcpy(&buf[i], &bits, sizeof(bits));
            }
            const std::span<const float> values(buf.data() + 1,
                                                static_cast<size_t>(n));
            ASSERT_EQ(ObliviousArgmax(values), ScalarArgmax(values))
                << kernels::IsaName(isa) << " n " << n
                << (pooled ? " pooled" : " random");
            ++cases;
        }
    }
    EXPECT_GT(tiers, 0);
    EXPECT_GE(cases, 7006 * tiers);
}

TEST(ScanTest, ObliviousArgmaxMatchesStd)
{
    Rng rng(8);
    for (int trial = 0; trial < 200; ++trial) {
        const int64_t n = 1 + static_cast<int64_t>(rng.NextBounded(64));
        std::vector<float> v(static_cast<size_t>(n));
        for (auto& x : v) x = rng.NextGaussian();
        const auto expect =
            std::distance(v.begin(), std::max_element(v.begin(), v.end()));
        EXPECT_EQ(ObliviousArgmax(v), expect);
    }
}

TEST(ScanTest, ObliviousArgmaxNegativeValues)
{
    std::vector<float> v{-5.0f, -1.0f, -3.0f};
    EXPECT_EQ(ObliviousArgmax(v), 1);
}

TEST(ScanTest, ObliviousArgmaxFirstOnTies)
{
    std::vector<float> v{1.0f, 2.0f, 2.0f, 0.0f};
    EXPECT_EQ(ObliviousArgmax(v), 1);
}

TEST(ScanTest, ObliviousArgmaxSingleElement)
{
    std::vector<float> v{-3.5f};
    EXPECT_EQ(ObliviousArgmax(v), 0);
}

}  // namespace
}  // namespace secemb::oblivious
