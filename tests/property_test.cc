/**
 * @file
 * Statistical property tests: distributional invariants that the
 * security arguments lean on — uniform ORAM leaf choice, balanced hash
 * buckets, uniform oblivious shuffles — plus randomised attack sweeps
 * across geometries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/table_generators.h"
#include "dhe/hashing.h"
#include "oblivious/ct_ops.h"
#include "oblivious/sort.h"
#include "oram/tree_oram.h"
#include "sidechannel/attacker.h"
#include "sidechannel/oblivious_check.h"

namespace secemb {
namespace {

using sidechannel::ChiSquaredUniform;

/** Loose chi-squared acceptance: mean + 6*sqrt(2k) covers df up to ~5
 * sigma without a table of critical values. */
bool
ChiSquaredAcceptable(double chi2, int64_t bins)
{
    const double df = static_cast<double>(bins - 1);
    return chi2 < df + 6.0 * std::sqrt(2.0 * df);
}

TEST(OramDistributionTest, LeafChoicesUniformAcrossAccesses)
{
    // Repeatedly access one id and histogram the *leaf-level bucket* its
    // path touches: the distribution must be uniform — this is the core
    // ORAM security property (revealed paths look random regardless of
    // the access sequence).
    Rng rng(1);
    oram::TreeOram oram(oram::OramKind::kPath, 256, 4, rng,
                        oram::OramParams::Defaults(oram::OramKind::kPath));
    sidechannel::TraceRecorder rec;
    oram.set_recorder(&rec);
    const int64_t leaves = oram.num_leaves();

    std::vector<int64_t> counts(static_cast<size_t>(leaves), 0);
    std::vector<uint32_t> block(4);
    const int kAccesses = 4000;
    const auto& space = sidechannel::ProcessAddressSpace();
    for (int i = 0; i < kAccesses; ++i) {
        rec.Clear();
        oram.Read(7, block);  // same "secret" every time
        // The deepest bucket read in the access trace identifies the
        // leaf; bucket offsets within the "oram.tree" region are
        // index * bucket_bytes (resolved via the named address region,
        // so the test is independent of where the base landed).
        uint64_t max_offset = 0;
        bool saw_tree = false;
        for (const auto& a : rec.trace()) {
            if (a.is_write) continue;
            const sidechannel::AddressRegion* region = space.Find(a.addr);
            if (region == nullptr || region->name != "oram.tree") continue;
            max_offset = std::max(max_offset, a.addr - region->base);
            saw_tree = true;
        }
        ASSERT_TRUE(saw_tree);
        // Leaf buckets occupy the top half of the bucket array.
        const uint64_t bucket_bytes = 4ull * 4ull * 4ull;
        const int64_t bucket =
            static_cast<int64_t>(max_offset / bucket_bytes);
        const int64_t leaf = bucket - (leaves - 1);
        if (leaf >= 0 && leaf < leaves) {
            ++counts[static_cast<size_t>(leaf)];
        }
    }
    int64_t observed = 0;
    for (int64_t c : counts) observed += c;
    ASSERT_GT(observed, kAccesses / 2);  // parsing sanity
    const double chi2 = ChiSquaredUniform(counts);
    EXPECT_TRUE(ChiSquaredAcceptable(chi2, leaves))
        << "chi2 = " << chi2 << " over " << leaves << " leaves";
}

TEST(HashDistributionTest, BucketOccupancyUniform)
{
    // A single universal hash over sequential ids must fill buckets
    // uniformly — the property that makes DHE's encoding informative.
    Rng rng(2);
    dhe::HashEncoder enc(1, 64, rng);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < 64000; ++i) ids.push_back(i);
    const Tensor codes = enc.Encode(ids);
    std::vector<int64_t> counts(64, 0);
    for (int64_t i = 0; i < codes.numel(); ++i) {
        // Invert the [-1, 1] scaling back to the bucket id.
        const int64_t bucket = static_cast<int64_t>(
            std::lround((codes.at(i) + 1.0f) / 2.0f * 63.0f));
        ASSERT_GE(bucket, 0);
        ASSERT_LT(bucket, 64);
        ++counts[static_cast<size_t>(bucket)];
    }
    EXPECT_TRUE(ChiSquaredAcceptable(ChiSquaredUniform(counts), 64))
        << ChiSquaredUniform(counts);
}

// --- oblivious sort: randomized-shape invariants ---------------------------

TEST(SortPropertyTest, RandomShapesAgreeWithStdSort)
{
    // Random lengths (including 0, 1, and non-powers-of-two — the bitonic
    // network's padding path) with duplicate-heavy keys: the oblivious
    // sort must agree with std::sort on every case.
    Rng rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        const int64_t n = static_cast<int64_t>(rng.NextBounded(130));
        std::vector<uint64_t> keys(static_cast<size_t>(n));
        for (auto& k : keys) k = rng.NextBounded(16);  // many duplicates
        std::vector<uint64_t> expected = keys;
        std::sort(expected.begin(), expected.end());
        oblivious::ObliviousSortByKey(keys, {}, 0);
        ASSERT_EQ(keys, expected) << "n=" << n << " trial=" << trial;
    }
}

TEST(SortPropertyTest, PayloadRowsTravelWithTheirKeys)
{
    Rng rng(42);
    for (int trial = 0; trial < 100; ++trial) {
        const int64_t n = 1 + static_cast<int64_t>(rng.NextBounded(70));
        const int64_t words = 1 + static_cast<int64_t>(rng.NextBounded(5));
        std::vector<uint64_t> keys(static_cast<size_t>(n));
        std::vector<uint32_t> rows(static_cast<size_t>(n * words));
        for (int64_t i = 0; i < n; ++i) {
            // Distinct keys so the key -> payload relation is a function.
            keys[static_cast<size_t>(i)] =
                (rng.NextBounded(1u << 20) << 10) |
                static_cast<uint64_t>(i);
            for (int64_t w = 0; w < words; ++w) {
                // Payload derives from the key, making mismatches loud.
                rows[static_cast<size_t>(i * words + w)] =
                    static_cast<uint32_t>(keys[static_cast<size_t>(i)] *
                                              31 +
                                          static_cast<uint64_t>(w));
            }
        }
        oblivious::ObliviousSortByKey(keys, rows, words);
        ASSERT_TRUE(std::is_sorted(keys.begin(), keys.end()));
        for (int64_t i = 0; i < n; ++i) {
            for (int64_t w = 0; w < words; ++w) {
                ASSERT_EQ(rows[static_cast<size_t>(i * words + w)],
                          static_cast<uint32_t>(
                              keys[static_cast<size_t>(i)] * 31 +
                              static_cast<uint64_t>(w)))
                    << "n=" << n << " words=" << words << " i=" << i;
            }
        }
    }
}

// --- constant-time primitives vs naive reference ---------------------------

TEST(CtOpsPropertyTest, AgreeWithNaiveReferenceOn1kSeededCases)
{
    Rng rng(43);
    for (int trial = 0; trial < 1000; ++trial) {
        // Mix full-range values with near-collisions and boundary values,
        // where branchless comparisons are easiest to get wrong.
        auto draw = [&rng]() -> uint64_t {
            switch (rng.NextBounded(4)) {
              case 0: return rng.Next();
              case 1: return rng.NextBounded(3);
              case 2: return ~uint64_t{0} - rng.NextBounded(3);
              default: return uint64_t{1} << rng.NextBounded(64);
            }
        };
        const uint64_t a = draw();
        const uint64_t b = rng.NextBounded(2) == 0 ? draw() : a;

        EXPECT_EQ(oblivious::EqMask(a, b),
                  a == b ? ~uint64_t{0} : uint64_t{0});
        EXPECT_EQ(oblivious::LtMask(a, b),
                  a < b ? ~uint64_t{0} : uint64_t{0});

        const uint64_t mask =
            rng.NextBounded(2) == 0 ? ~uint64_t{0} : uint64_t{0};
        EXPECT_EQ(oblivious::Select(mask, a, b), mask ? a : b);
        EXPECT_EQ(oblivious::BoolToMask(mask & 1),
                  mask ? ~uint64_t{0} : uint64_t{0});

        const int64_t sa = static_cast<int64_t>(a);
        const int64_t sb = static_cast<int64_t>(b);
        EXPECT_EQ(oblivious::SelectI64(mask, sa, sb), mask ? sa : sb);

        const float fa = rng.NextUniform(-100.0f, 100.0f);
        const float fb = rng.NextUniform(-100.0f, 100.0f);
        EXPECT_EQ(oblivious::SelectF32(mask, fa, fb), mask ? fa : fb);

        uint64_t x = a, y = b;
        oblivious::CtSwapU64(mask, x, y);
        EXPECT_EQ(x, mask ? b : a);
        EXPECT_EQ(y, mask ? a : b);
    }
}

TEST(CtOpsPropertyTest, RowBlendAndSwapMatchReference)
{
    Rng rng(44);
    for (int trial = 0; trial < 100; ++trial) {
        const size_t n = 1 + rng.NextBounded(33);
        std::vector<float> src(n), dst(n), dst0;
        for (size_t i = 0; i < n; ++i) {
            src[i] = rng.NextUniform(-1.0f, 1.0f);
            dst[i] = rng.NextUniform(-1.0f, 1.0f);
        }
        dst0 = dst;
        const uint64_t mask =
            rng.NextBounded(2) == 0 ? ~uint64_t{0} : uint64_t{0};
        oblivious::CtCopyRow(mask, src, dst);
        ASSERT_EQ(dst, mask ? src : dst0);

        std::vector<float> p = src, q = dst0;
        oblivious::CtSwapRows(mask, p, q);
        ASSERT_EQ(p, mask ? dst0 : src);
        ASSERT_EQ(q, mask ? src : dst0);
    }
}

// --- attack sweeps over geometries ----------------------------------------

struct AttackGeometry
{
    int64_t dim;
    int ways;
    int sets;
};

class AttackSweepTest : public ::testing::TestWithParam<AttackGeometry>
{
};

TEST_P(AttackSweepTest, NonSecureLeaksAcrossGeometries)
{
    const auto [dim, ways, sets] = GetParam();
    const int64_t rows = 128;
    const int monitored = 20;
    Rng rng(dim + ways);
    core::TableLookup victim(Tensor::Randn({rows, dim}, rng));
    sidechannel::TraceRecorder rec;
    victim.set_recorder(&rec);
    sidechannel::CacheConfig ccfg;
    ccfg.num_sets = sets;
    ccfg.ways = ways;
    sidechannel::CacheModel cache(ccfg);
    sidechannel::EvictionSetAttacker attacker(cache, victim.trace_base(),
                                              dim * 4, monitored);
    int correct = 0;
    for (int64_t secret = 0; secret < monitored; ++secret) {
        rec.Clear();
        Tensor out({1, dim});
        std::vector<int64_t> b{secret};
        victim.Generate(b, out);
        correct +=
            attacker.Attack(rec.trace(), 5).guessed_index == secret;
    }
    // Rows >= one cache line leak reliably (the paper's observation that
    // "an embedding table entry is always bigger than one cache line").
    if (dim * 4 >= 64) {
        EXPECT_GE(correct, monitored - 1);
    } else {
        // Sub-line rows alias within a set: the guess is only line-
        // granular, still far above chance.
        EXPECT_GE(correct, monitored / 4);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AttackSweepTest,
    ::testing::Values(AttackGeometry{16, 8, 1024},
                      AttackGeometry{64, 12, 4096},
                      AttackGeometry{64, 4, 512},
                      AttackGeometry{256, 16, 2048}),
    [](const auto& info) {
        return "dim" + std::to_string(info.param.dim) + "_w" +
               std::to_string(info.param.ways) + "_s" +
               std::to_string(info.param.sets);
    });

}  // namespace
}  // namespace secemb
