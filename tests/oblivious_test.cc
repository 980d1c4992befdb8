/**
 * @file
 * Tests for the constant-time primitives and oblivious scans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "oblivious/ct_ops.h"
#include "oblivious/scan.h"
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
 * ScanRows against plain references, on every row-width class (vector
 * body only, scalar tail only, both): a gather compared with memcmp for
 * single-hot slots and an in-order sum for pooled bags. Table and output
 * buffers sit 4 bytes off a vector boundary; each case scans the whole
 * table and a sub-block starting past row 0 (ids outside it must leave
 * their slots alone), into a random slot sub-range (slots outside it must
 * stay untouched), with bags of 0 to 3 ids.
 */
TEST(ScanTest, ScanRowsMatchesGatherAndInOrderSum)
{
    Rng rng(6);
    auto bounded = [&rng](int64_t n) {
        return static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(n)));
    };
    for (const int64_t dim : {1, 3, 4, 7, 8, 12, 17, 24, 64}) {
        const int64_t rows = 2 + bounded(40);
        const int64_t slots = 1 + bounded(9);
        std::vector<float> table_buf(static_cast<size_t>(rows * dim) + 1);
        for (float& x : table_buf) x = rng.NextGaussian();
        const std::span<const float> table(table_buf.data() + 1,
                                           table_buf.size() - 1);
        const float* row_data = table.data();
        for (const bool whole : {true, false}) {
            const int64_t first = whole ? 0 : 1 + bounded(rows - 1);
            const int64_t count = whole ? rows : 1 + bounded(rows - first);
            const auto block = table.subspan(static_cast<size_t>(first * dim),
                                             static_cast<size_t>(count * dim));
            const int64_t b0 = bounded(slots);
            const int64_t b1 = b0 + bounded(slots - b0 + 1);
            auto in_block = [&](int64_t id) {
                return id >= first && id < first + count;
            };
            std::vector<float> out_buf(static_cast<size_t>(slots * dim) + 1);
            const std::span<float> out(out_buf.data() + 1,
                                       out_buf.size() - 1);
            auto reset = [&] {
                for (float& x : out) x = rng.NextGaussian();
                return std::vector<float>(out.begin(), out.end());
            };
            const std::string where = "dim " + std::to_string(dim) +
                                      (whole ? " whole" : " sub-block");

            std::vector<int64_t> ids(static_cast<size_t>(slots));
            for (int64_t& id : ids) id = bounded(rows);
            std::vector<float> want = reset();
            for (int64_t b = b0; b < b1; ++b) {
                const int64_t id = ids[static_cast<size_t>(b)];
                if (!in_block(id)) continue;
                std::memcpy(want.data() + b * dim, row_data + id * dim,
                            static_cast<size_t>(dim) * sizeof(float));
            }
            ScanRows(block, first, dim, ids, {}, b0, b1, out);
            EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << where << " single-hot";

            std::vector<int64_t> bag_ids;
            std::vector<int64_t> offsets{0};
            for (int64_t b = 0; b < slots; ++b) {
                for (int64_t j = bounded(4); j > 0; --j) {
                    bag_ids.push_back(bounded(rows));
                }
                offsets.push_back(static_cast<int64_t>(bag_ids.size()));
            }
            want = reset();
            for (int64_t b = b0; b < b1; ++b) {
                for (int64_t k = offsets[static_cast<size_t>(b)];
                     k < offsets[static_cast<size_t>(b) + 1]; ++k) {
                    const int64_t id = bag_ids[static_cast<size_t>(k)];
                    if (!in_block(id)) continue;
                    for (int64_t c = 0; c < dim; ++c) {
                        want[static_cast<size_t>(b * dim + c)] +=
                            row_data[id * dim + c];
                    }
                }
            }
            ScanRows(block, first, dim, bag_ids, offsets, b0, b1, out);
            EXPECT_EQ(std::memcmp(out.data(), want.data(),
                                  want.size() * sizeof(float)),
                      0)
                << where << " pooled";
        }
    }
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
