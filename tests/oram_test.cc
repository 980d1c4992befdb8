/**
 * @file
 * Unit and property tests for the Path / Circuit ORAM controllers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "oram/footprint.h"
#include "oram/tree_oram.h"

namespace secemb::oram {
namespace {

std::vector<uint32_t>
MakeBlock(int64_t words, uint32_t seed)
{
    std::vector<uint32_t> b(static_cast<size_t>(words));
    for (size_t i = 0; i < b.size(); ++i) {
        b[i] = seed * 2654435761u + static_cast<uint32_t>(i);
    }
    return b;
}

class OramKindTest : public ::testing::TestWithParam<OramKind>
{
};

TEST_P(OramKindTest, WriteThenReadSingleBlock)
{
    Rng rng(1);
    auto oram = MakeOram(GetParam(), 16, 8, rng);
    const auto block = MakeBlock(8, 7);
    oram->Write(3, block);
    std::vector<uint32_t> out(8, 0);
    oram->Read(3, out);
    EXPECT_EQ(out, block);
}

TEST_P(OramKindTest, UnwrittenBlockReadsZero)
{
    Rng rng(2);
    auto oram = MakeOram(GetParam(), 32, 4, rng);
    std::vector<uint32_t> out(4, 99);
    oram->Read(11, out);
    EXPECT_EQ(out, std::vector<uint32_t>(4, 0));
}

TEST_P(OramKindTest, OverwriteReturnsLatestValue)
{
    Rng rng(3);
    auto oram = MakeOram(GetParam(), 16, 4, rng);
    oram->Write(5, MakeBlock(4, 1));
    oram->Write(5, MakeBlock(4, 2));
    std::vector<uint32_t> out(4);
    oram->Read(5, out);
    EXPECT_EQ(out, MakeBlock(4, 2));
}

TEST_P(OramKindTest, RandomWorkloadMatchesReferenceMap)
{
    Rng rng(4);
    const int64_t n = 64, words = 8;
    auto oram = MakeOram(GetParam(), n, words, rng);
    std::map<int64_t, std::vector<uint32_t>> reference;
    Rng wl(99);
    for (int iter = 0; iter < 500; ++iter) {
        const int64_t id = static_cast<int64_t>(wl.NextBounded(n));
        if (wl.NextBounded(2) == 0) {
            auto blk = MakeBlock(words, static_cast<uint32_t>(wl.Next()));
            oram->Write(id, blk);
            reference[id] = blk;
        } else {
            std::vector<uint32_t> out(words, 0);
            oram->Read(id, out);
            auto it = reference.find(id);
            if (it == reference.end()) {
                EXPECT_EQ(out, std::vector<uint32_t>(words, 0))
                    << "iter " << iter << " id " << id;
            } else {
                EXPECT_EQ(out, it->second) << "iter " << iter << " id "
                                           << id;
            }
        }
    }
}

TEST_P(OramKindTest, BulkLoadThenReadAll)
{
    Rng rng(5);
    const int64_t n = 128, words = 4;
    auto oram = MakeOram(GetParam(), n, words, rng);
    std::vector<uint32_t> data(static_cast<size_t>(n * words));
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint32_t>(i * 2654435761u);
    }
    oram->BulkLoad(data);
    std::vector<uint32_t> out(words);
    for (int64_t id = 0; id < n; ++id) {
        oram->Read(id, out);
        for (int64_t w = 0; w < words; ++w) {
            ASSERT_EQ(out[static_cast<size_t>(w)],
                      data[static_cast<size_t>(id * words + w)])
                << "id " << id;
        }
    }
}

TEST_P(OramKindTest, StashStaysBounded)
{
    Rng rng(6);
    const int64_t n = 256;
    auto oram = MakeOram(GetParam(), n, 4, rng);
    std::vector<uint32_t> data(static_cast<size_t>(n * 4), 1);
    oram->BulkLoad(data);
    Rng wl(123);
    int64_t max_stash = 0;
    std::vector<uint32_t> out(4);
    for (int iter = 0; iter < 2000; ++iter) {
        oram->Read(static_cast<int64_t>(wl.NextBounded(n)), out);
        max_stash = std::max(max_stash, oram->StashOccupancy());
    }
    // Post-access stash occupancy must stay well below capacity.
    const int64_t cap = GetParam() == OramKind::kPath ? 150 : 10;
    EXPECT_LT(max_stash, cap) << "stash close to overflow";
}

TEST_P(OramKindTest, RecursivePositionMapWorkload)
{
    Rng rng(7);
    OramParams p = OramParams::Defaults(GetParam());
    p.recursion_threshold = 64;  // force recursion at small scale
    auto oram = MakeOram(GetParam(), 512, 4, rng, &p);
    std::map<int64_t, std::vector<uint32_t>> reference;
    Rng wl(321);
    for (int iter = 0; iter < 300; ++iter) {
        const int64_t id = static_cast<int64_t>(wl.NextBounded(512));
        if (wl.NextBounded(2) == 0) {
            auto blk = MakeBlock(4, static_cast<uint32_t>(wl.Next()));
            oram->Write(id, blk);
            reference[id] = blk;
        } else {
            std::vector<uint32_t> out(4, 0);
            oram->Read(id, out);
            auto it = reference.find(id);
            std::vector<uint32_t> expect =
                it == reference.end() ? std::vector<uint32_t>(4, 0)
                                      : it->second;
            EXPECT_EQ(out, expect) << "iter " << iter;
        }
    }
}

TEST_P(OramKindTest, RecorderReachesRecursivePositionMap)
{
    // set_recorder reaches the recursive child ORAM through the position
    // map: one access touches the parent's and the child's tree regions.
    Rng rng(9);
    OramParams p = OramParams::Defaults(GetParam());
    p.recursion_threshold = 64;
    auto oram = MakeOram(GetParam(), 512, 4, rng, &p);
    sidechannel::TraceRecorder rec;
    oram->set_recorder(&rec);
    std::vector<uint32_t> out(4);
    oram->Read(7, out);
    const auto& space = sidechannel::ProcessAddressSpace();
    std::set<uint64_t> trees;
    for (const auto& a : rec.trace()) {
        const sidechannel::AddressRegion* region = space.Find(a.addr);
        ASSERT_NE(region, nullptr);
        if (region->name == "oram.tree") trees.insert(region->base);
    }
    EXPECT_EQ(trees.size(), 2u);

    // Detaching silences the whole recursion.
    oram->set_recorder(nullptr);
    rec.Clear();
    oram->Read(7, out);
    EXPECT_TRUE(rec.trace().empty());
}

TEST_P(OramKindTest, RmwWordReturnsOldAndWritesNew)
{
    Rng rng(8);
    auto oram = MakeOram(GetParam(), 16, 8, rng);
    auto blk = MakeBlock(8, 5);
    oram->Write(9, blk);
    const uint32_t old = oram->RmwWord(9, 3, 424242);
    EXPECT_EQ(old, blk[3]);
    std::vector<uint32_t> out(8);
    oram->Read(9, out);
    EXPECT_EQ(out[3], 424242u);
    blk[3] = 424242;
    EXPECT_EQ(out, blk);
}

TEST_P(OramKindTest, StatsAdvanceWithAccesses)
{
    Rng rng(9);
    auto oram = MakeOram(GetParam(), 64, 4, rng);
    std::vector<uint32_t> out(4);
    oram->Read(0, out);
    oram->Read(1, out);
    EXPECT_EQ(oram->stats().accesses, 2);
    EXPECT_GT(oram->stats().bucket_reads, 0);
    EXPECT_GT(oram->stats().stash_scans, 0);
}

TEST_P(OramKindTest, FootprintExceedsRawData)
{
    Rng rng(10);
    const int64_t n = 1024, words = 16;
    auto oram = MakeOram(GetParam(), n, words, rng);
    const int64_t raw = n * words * 4;
    EXPECT_GT(oram->MemoryFootprintBytes(), raw);
    // The paper reports roughly 3.3x for tree-based ORAM; ours should be
    // in the same small-multiple regime, not orders of magnitude off.
    EXPECT_LT(oram->MemoryFootprintBytes(), 16 * raw);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, OramKindTest,
                         ::testing::Values(OramKind::kPath,
                                           OramKind::kCircuit),
                         [](const auto& info) {
                             return info.param == OramKind::kPath
                                        ? "Path"
                                        : "Circuit";
                         });

TEST(FootprintTest, EstimatorMatchesLiveInstance)
{
    for (auto kind : {OramKind::kPath, OramKind::kCircuit}) {
        for (int64_t n : {16, 300, 5000}) {
            Rng rng(n);
            auto oram = MakeOram(kind, n, 8, rng);
            EXPECT_EQ(EstimateFootprintBytes(kind, n, 8),
                      oram->MemoryFootprintBytes())
                << "kind " << static_cast<int>(kind) << " n " << n;
        }
    }
}

TEST(FootprintTest, EstimatorHandlesRecursion)
{
    OramParams p = OramParams::Defaults(OramKind::kCircuit);
    p.recursion_threshold = 64;
    Rng rng(1);
    TreeOram oram(OramKind::kCircuit, 4096, 4, rng, p);
    EXPECT_EQ(EstimateFootprintBytes(OramKind::kCircuit, 4096, 4, p),
              oram.MemoryFootprintBytes());
}

TEST(OramParamsTest, DefaultsFollowPaper)
{
    const auto path = OramParams::Defaults(OramKind::kPath);
    EXPECT_EQ(path.stash_capacity, 150);
    EXPECT_EQ(path.recursion_threshold, int64_t{1} << 16);
    const auto circ = OramParams::Defaults(OramKind::kCircuit);
    EXPECT_EQ(circ.stash_capacity, 10);
    EXPECT_EQ(circ.recursion_threshold, int64_t{1} << 12);
    EXPECT_EQ(path.bucket_capacity, 4);
    EXPECT_EQ(path.posmap_fanout, 16);
}

}  // namespace
}  // namespace secemb::oram
