/**
 * @file
 * Tests for the oblivious sorting network and the Square-Root ORAM
 * baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "oblivious/sort.h"
#include "oram/sqrt_oram.h"

namespace secemb {
namespace {

TEST(ObliviousSortTest, SortsRandomKeys)
{
    Rng rng(1);
    for (const int64_t n : {1, 2, 3, 7, 8, 33, 100, 257}) {
        std::vector<uint64_t> keys(static_cast<size_t>(n));
        for (auto& k : keys) k = rng.Next() >> 1;  // avoid the pad value
        oblivious::ObliviousSortByKey(keys, {}, 0);
        EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()))
            << "n = " << n;
    }
}

TEST(ObliviousSortTest, PayloadTravelsWithKey)
{
    Rng rng(2);
    const int64_t n = 50, words = 3;
    std::vector<uint64_t> keys(static_cast<size_t>(n));
    std::vector<uint32_t> rows(static_cast<size_t>(n * words));
    for (int64_t i = 0; i < n; ++i) {
        keys[static_cast<size_t>(i)] = rng.Next() >> 1;
        for (int64_t w = 0; w < words; ++w) {
            // Payload encodes its original key so we can verify pairing.
            rows[static_cast<size_t>(i * words + w)] =
                static_cast<uint32_t>(keys[static_cast<size_t>(i)] +
                                      static_cast<uint64_t>(w));
        }
    }
    oblivious::ObliviousSortByKey(keys, rows, words);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    for (int64_t i = 0; i < n; ++i) {
        for (int64_t w = 0; w < words; ++w) {
            EXPECT_EQ(rows[static_cast<size_t>(i * words + w)],
                      static_cast<uint32_t>(keys[static_cast<size_t>(i)] +
                                            static_cast<uint64_t>(w)));
        }
    }
}

TEST(ObliviousSortTest, AlreadySortedAndReverse)
{
    std::vector<uint64_t> asc{1, 2, 3, 4, 5};
    oblivious::ObliviousSortByKey(asc, {}, 0);
    EXPECT_EQ(asc, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
    std::vector<uint64_t> desc{5, 4, 3, 2, 1};
    oblivious::ObliviousSortByKey(desc, {}, 0);
    EXPECT_EQ(desc, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

// ---------------------------------------------------------------------------
// SqrtOram
// ---------------------------------------------------------------------------

TEST(SqrtOramTest, WriteThenRead)
{
    Rng rng(5);
    oram::SqrtOram oram(64, 4, rng);
    std::vector<uint32_t> block{10, 20, 30, 40};
    oram.Write(17, block);
    std::vector<uint32_t> out(4);
    oram.Read(17, out);
    EXPECT_EQ(out, block);
}

TEST(SqrtOramTest, RepeatedAccessSameEpoch)
{
    // Reading the same id repeatedly within an epoch must keep working
    // (covered by shelter hits + dummy fetches).
    Rng rng(6);
    oram::SqrtOram oram(100, 4, rng);
    std::vector<uint32_t> block{1, 2, 3, 4};
    oram.Write(5, block);
    std::vector<uint32_t> out(4);
    for (int i = 0; i < 8; ++i) {
        oram.Read(5, out);
        EXPECT_EQ(out, block) << "repeat " << i;
    }
}

TEST(SqrtOramTest, SurvivesManyEpochs)
{
    Rng rng(7);
    const int64_t n = 64, words = 4;
    oram::SqrtOram oram(n, words, rng);
    std::map<int64_t, std::vector<uint32_t>> reference;
    Rng wl(8);
    for (int iter = 0; iter < 400; ++iter) {
        const int64_t id = static_cast<int64_t>(wl.NextBounded(n));
        if (wl.NextBounded(2) == 0) {
            std::vector<uint32_t> blk(words);
            for (auto& w : blk) w = static_cast<uint32_t>(wl.Next());
            oram.Write(id, blk);
            reference[id] = blk;
        } else {
            std::vector<uint32_t> out(words, 0);
            oram.Read(id, out);
            const auto it = reference.find(id);
            const std::vector<uint32_t> expect =
                it == reference.end() ? std::vector<uint32_t>(words, 0)
                                      : it->second;
            ASSERT_EQ(out, expect) << "iter " << iter << " id " << id;
        }
    }
    EXPECT_GT(oram.stats().reshuffles, 10);
}

TEST(SqrtOramTest, BulkLoadThenReadAll)
{
    Rng rng(9);
    const int64_t n = 81, words = 2;
    oram::SqrtOram oram(n, words, rng);
    std::vector<uint32_t> data(static_cast<size_t>(n * words));
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    oram.BulkLoad(data);
    std::vector<uint32_t> out(words);
    for (int64_t id = 0; id < n; ++id) {
        oram.Read(id, out);
        for (int64_t w = 0; w < words; ++w) {
            ASSERT_EQ(out[static_cast<size_t>(w)],
                      data[static_cast<size_t>(id * words + w)])
                << "id " << id;
        }
    }
}

TEST(SqrtOramTest, ShelterSizeIsSqrtN)
{
    Rng rng(10);
    oram::SqrtOram a(100, 4, rng);
    EXPECT_EQ(a.shelter_capacity(), 10);
    oram::SqrtOram b(101, 4, rng);
    EXPECT_EQ(b.shelter_capacity(), 11);
}

TEST(SqrtOramTest, FootprintLinearInN)
{
    Rng rng(11);
    oram::SqrtOram small(256, 8, rng);
    oram::SqrtOram big(1024, 8, rng);
    EXPECT_GT(big.MemoryFootprintBytes(),
              3 * small.MemoryFootprintBytes());
    EXPECT_LT(big.MemoryFootprintBytes(),
              6 * small.MemoryFootprintBytes());
}

}  // namespace
}  // namespace secemb
