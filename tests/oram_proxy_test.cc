/**
 * @file
 * Tests for the coalescing ORAM proxy (src/oram/proxy): correctness
 * against the loaded content, coalescing + dummy-padding accounting,
 * up-front id validation, the poisoned state after a failed access, and
 * stats() read from another thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "core/table_generators.h"
#include "oram/proxy.h"
#include "oram/tree_oram.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

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

/** A proxy over a freshly written tree: block i holds MakeBlock(i + 1). */
std::unique_ptr<OramProxy>
MakeLoadedProxy(OramKind kind, int64_t blocks, int64_t words,
                const ProxyConfig& config,
                const OramParams* params = nullptr)
{
    Rng rng(1);
    auto tree = MakeOram(kind, blocks, words, rng, params);
    std::vector<uint32_t> flat(static_cast<size_t>(blocks * words));
    for (int64_t i = 0; i < blocks; ++i) {
        const auto b = MakeBlock(words, static_cast<uint32_t>(i) + 1);
        std::copy(b.begin(), b.end(), flat.begin() + i * words);
    }
    tree->BulkLoad(flat);
    return std::make_unique<OramProxy>(std::move(tree), config);
}

/** ReadBatch into a fresh buffer, split back into one block per id. */
std::vector<std::vector<uint32_t>>
ReadAll(OramProxy& proxy, const std::vector<int64_t>& ids)
{
    const size_t words = static_cast<size_t>(proxy.oram().block_words());
    std::vector<uint32_t> flat(ids.size() * words);
    proxy.ReadBatch(ids, flat);
    std::vector<std::vector<uint32_t>> blocks;
    for (size_t i = 0; i < ids.size(); ++i) {
        blocks.emplace_back(flat.begin() + i * words,
                            flat.begin() + (i + 1) * words);
    }
    return blocks;
}

void
ExpectLoadedContent(OramProxy& proxy, const std::vector<int64_t>& ids)
{
    const auto blocks = ReadAll(proxy, ids);
    for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(blocks[i], MakeBlock(proxy.oram().block_words(),
                                       static_cast<uint32_t>(ids[i]) + 1))
            << "slot " << i << " id " << ids[i];
    }
}

TEST(OramProxyTest, ReadsMatchLoadedContent)
{
    ProxyConfig config;
    config.batch_window = 4;
    auto proxy = MakeLoadedProxy(OramKind::kPath, 64, 8, config);
    for (int64_t id : {int64_t{0}, int64_t{17}, int64_t{63}, int64_t{17}}) {
        ExpectLoadedContent(*proxy, {id});
    }
}

TEST(OramProxyTest, RandomBatchMatchesLoadedContent)
{
    // Ten windows of four over a 128-block tree.
    ProxyConfig config;
    config.batch_window = 4;
    auto proxy = MakeLoadedProxy(OramKind::kPath, 128, 16, config);
    Rng mix(11);
    std::vector<int64_t> ids;
    for (int i = 0; i < 40; ++i) {
        ids.push_back(static_cast<int64_t>(mix.NextBounded(128)));
    }
    ExpectLoadedContent(*proxy, ids);
    EXPECT_EQ(proxy->stats().windows, 10u);
}

TEST(OramProxyTest, DuplicatesCoalesceAndPadToWindowSize)
{
    ProxyConfig config;
    config.batch_window = 4;
    auto proxy = MakeLoadedProxy(OramKind::kPath, 64, 4, config);
    ExpectLoadedContent(*proxy, {5, 5, 7, 5});

    const ProxyStats s = proxy->stats();
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.windows, 1u);
    // 2 distinct ids -> 2 real accesses, padded with 2 dummies: the
    // physical count must not reveal the duplicate structure.
    EXPECT_EQ(s.physical_accesses, 4u);
    EXPECT_EQ(s.real_accesses, 2u);
    EXPECT_EQ(s.dummy_accesses, 2u);
    EXPECT_EQ(s.coalesced, 2u);
    // The tree really performed one full access per physical slot.
    EXPECT_EQ(proxy->oram().stats().accesses, 4);
}

TEST(OramProxyTest, PhysicalCountAlwaysEqualsLogicalCount)
{
    ProxyConfig config;
    config.batch_window = 3;
    auto proxy = MakeLoadedProxy(OramKind::kPath, 32, 4, config);
    Rng mix(7);
    std::vector<int64_t> ids;
    const int n = 20;  // 6 full windows + a partial tail of 2
    for (int i = 0; i < n; ++i) {
        // Zipf-ish: half the traffic hits ids 0..3.
        ids.push_back(static_cast<int64_t>(
            mix.NextBounded(2) == 0 ? mix.NextBounded(4)
                                    : mix.NextBounded(32)));
    }
    ExpectLoadedContent(*proxy, ids);
    const ProxyStats s = proxy->stats();
    EXPECT_EQ(s.requests, static_cast<uint64_t>(n));
    EXPECT_EQ(s.physical_accesses, static_cast<uint64_t>(n));
    EXPECT_EQ(s.real_accesses + s.dummy_accesses, s.physical_accesses);
    EXPECT_EQ(s.windows, 7u);
    EXPECT_EQ(proxy->oram().stats().accesses, n);
    EXPECT_GT(s.coalesced, 0u);
    EXPECT_EQ(s.coalesced, s.dummy_accesses);
}

TEST(OramProxyTest, CircuitKindServesThroughSerialFallback)
{
    ProxyConfig config;
    config.batch_window = 2;
    auto proxy = MakeLoadedProxy(OramKind::kCircuit, 32, 4, config);
    ExpectLoadedContent(*proxy, {3, 3});
    const ProxyStats s = proxy->stats();
    EXPECT_EQ(s.physical_accesses, 2u);
    EXPECT_EQ(s.coalesced, 1u);
}

TEST(OramProxyTest, OutOfRangeIdIsRejectedUpFront)
{
    ProxyConfig config;
    auto proxy = MakeLoadedProxy(OramKind::kPath, 16, 4, config);
    EXPECT_THROW(ReadAll(*proxy, {-1}), std::invalid_argument);
    EXPECT_THROW(ReadAll(*proxy, {16}), std::invalid_argument);
    std::vector<uint32_t> short_out(3);
    EXPECT_THROW(proxy->ReadBatch(std::vector<int64_t>{1}, short_out),
                 std::invalid_argument);
    EXPECT_EQ(proxy->stats().requests, 0u);
    EXPECT_EQ(proxy->oram().stats().accesses, 0);
}

TEST(OramProxyTest, FailedAccessPoisonsEveryLaterCall)
{
    // A stash that cannot hold one path: the first access overflows it.
    OramParams params = OramParams::Defaults(OramKind::kPath);
    params.stash_capacity = 0;
    ProxyConfig config;
    auto proxy =
        MakeLoadedProxy(OramKind::kPath, 16, 4, config, &params);

    // An out-of-range id in the middle of a batch throws before any
    // access, and leaves the proxy usable.
    EXPECT_THROW(ReadAll(*proxy, {1, 2, 16, 3}), std::invalid_argument);
    EXPECT_EQ(proxy->oram().stats().accesses, 0);
    EXPECT_EQ(proxy->stats().requests, 0u);

    EXPECT_THROW(ReadAll(*proxy, {1, 2}), std::runtime_error);
    const int64_t accesses = proxy->oram().stats().accesses;
    EXPECT_GT(accesses, 0);

    EXPECT_THROW(ReadAll(*proxy, {3}), std::runtime_error);
    EXPECT_EQ(proxy->oram().stats().accesses, accesses);
}

TEST(OramProxyTest, StatsReadableWhileAnotherThreadReads)
{
    // A server's batcher thread serves while a monitor polls stats().
    ProxyConfig config;
    config.batch_window = 4;
    auto proxy = MakeLoadedProxy(OramKind::kPath, 32, 4, config);
    constexpr int kBatches = 20;
    std::thread server([&] {
        for (int i = 0; i < kBatches; ++i) {
            ExpectLoadedContent(*proxy, {1, 1, 2, static_cast<int64_t>(i)});
        }
    });
    uint64_t last = 0;
    for (int i = 0; i < 200; ++i) {
        const ProxyStats s = proxy->stats();
        EXPECT_GE(s.requests, last);
        last = s.requests;
    }
    server.join();
    EXPECT_EQ(proxy->stats().physical_accesses, 4u * kBatches);
}

// ---------------------------------------------------------------------------
// ProxiedOramTable (the serving-facing generator)
// ---------------------------------------------------------------------------

TEST(ProxiedOramTableTest, GenerateMatchesTableRows)
{
    Rng table_rng(5);
    Tensor table = Tensor::Randn({48, 8}, table_rng);
    Rng rng(6);
    oram::ProxyConfig config;
    config.batch_window = 4;
    core::ProxiedOramTable gen(table, OramKind::kPath, rng, config);
    gen.set_nthreads(2);
    EXPECT_EQ(gen.name(), "Path ORAM (proxy)");
    EXPECT_TRUE(gen.IsOblivious());
    EXPECT_GT(gen.MemoryFootprintBytes(), table.SizeBytes());

    const std::vector<int64_t> indices = {0, 7, 7, 33, 47, 7, 0, 12};
    Tensor out({static_cast<int64_t>(indices.size()), 8});
    gen.Generate(indices, out);
    for (size_t i = 0; i < indices.size(); ++i) {
        for (int64_t d = 0; d < 8; ++d) {
            EXPECT_EQ(out.data()[static_cast<int64_t>(i) * 8 + d],
                      table.data()[indices[i] * 8 + d])
                << "row " << i << " dim " << d;
        }
    }
    EXPECT_GT(gen.proxy().stats().coalesced, 0u);
}

TEST(ProxiedOramTableTest, FactoryBuildsProxiedKind)
{
    Rng rng(9);
    core::GeneratorOptions opt;
    opt.nthreads = 2;
    auto gen = core::MakeGenerator(core::GenKind::kProxyOram,
                                   /*table_size=*/64, /*dim=*/8, rng, opt);
    ASSERT_NE(gen, nullptr);
    EXPECT_EQ(gen->name(), "Path ORAM (proxy)");
    EXPECT_EQ(core::GenKindName(core::GenKind::kProxyOram),
              gen->name());
    EXPECT_TRUE(gen->IsOblivious());
    EXPECT_EQ(gen->num_rows(), 64);
    EXPECT_EQ(gen->dim(), 8);

    const std::vector<int64_t> indices = {3, 3, 61, 0};
    Tensor out({4, 8});
    gen->Generate(indices, out);
    // Duplicate rows must come back identical (served off one access).
    for (int64_t d = 0; d < 8; ++d) {
        EXPECT_EQ(out.data()[0 * 8 + d], out.data()[1 * 8 + d]);
    }
}

}  // namespace
}  // namespace secemb::oram
