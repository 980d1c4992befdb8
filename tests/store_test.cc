/**
 * @file
 * Out-of-core storage correctness: backend roundtrips (memory / file /
 * mmap), durable persistence and typed reopen validation, the page-packed
 * oblivious scan against its in-RAM reference, and the page-optimized RAW
 * ORAM (bulk load, reads, writes, stash bounds, the async-proxy front).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/paged_generators.h"
#include "core/table_generators.h"
#include "store/backing_store.h"
#include "store/page_cache.h"
#include "store/paged_table.h"
#include "store/raw_oram.h"
#include "tensor/rng.h"

namespace secemb::store {
namespace {

std::string
TempPath(const std::string& name)
{
    const std::string path = testing::TempDir() + "secemb_" + name;
    std::filesystem::remove(path);
    return path;
}

/** Deterministic per-page payload so reopen tests verify real content. */
std::vector<uint8_t>
PagePattern(int64_t page, int64_t page_bytes, uint64_t salt = 0)
{
    std::vector<uint8_t> data(static_cast<size_t>(page_bytes));
    Rng rng(0x9a6e0000ULL + static_cast<uint64_t>(page) * 31 + salt);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    return data;
}

StoreConfig
ConfigFor(StoreBackend backend, const std::string& path,
          int64_t page_bytes = 256, int64_t cache_pages = 4)
{
    StoreConfig config;
    config.backend = backend;
    config.path = path;
    config.page_bytes = page_bytes;
    config.cache_pages = cache_pages;
    return config;
}

class BackingStoreTest : public testing::TestWithParam<StoreBackend>
{
};

TEST_P(BackingStoreTest, RoundtripsEveryPage)
{
    const StoreConfig config =
        ConfigFor(GetParam(), TempPath("roundtrip.store"));
    std::unique_ptr<BackingStore> store;
    ASSERT_TRUE(MakeBackingStore(config, 16, &store).ok());
    EXPECT_EQ(store->num_pages(), 16);
    EXPECT_EQ(store->page_bytes(), 256);
    EXPECT_EQ(store->backend_name(), StoreBackendName(GetParam()));

    for (int64_t p = 0; p < 16; ++p) {
        const auto data = PagePattern(p, 256);
        ASSERT_TRUE(store->WritePage(p, data).ok());
    }
    // Reverse order so later reads cannot ride an earlier page's buffer.
    std::vector<uint8_t> out(256);
    for (int64_t p = 15; p >= 0; --p) {
        ASSERT_TRUE(store->ReadPage(p, out).ok());
        EXPECT_EQ(out, PagePattern(p, 256)) << "page " << p;
    }
    EXPECT_TRUE(store->Sync().ok());
}

TEST_P(BackingStoreTest, BadArgumentsAreTyped)
{
    const StoreConfig config =
        ConfigFor(GetParam(), TempPath("badargs.store"));
    std::unique_ptr<BackingStore> store;
    ASSERT_TRUE(MakeBackingStore(config, 4, &store).ok());

    std::vector<uint8_t> page(256);
    EXPECT_EQ(store->ReadPage(-1, page).code,
              serving::StatusCode::kInvalidArgument);
    EXPECT_EQ(store->ReadPage(4, page).code,
              serving::StatusCode::kInvalidArgument);
    std::vector<uint8_t> wrong(255);
    EXPECT_EQ(store->WritePage(0, wrong).code,
              serving::StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackingStoreTest,
                         testing::Values(StoreBackend::kMemory,
                                         StoreBackend::kFile,
                                         StoreBackend::kMmap),
                         [](const auto& info) {
                             return std::string(
                                 StoreBackendName(info.param));
                         });

TEST(StoreTest, FilePersistsAcrossReopenAndIntoMmap)
{
    const std::string path = TempPath("persist.store");
    StoreConfig config = ConfigFor(StoreBackend::kFile, path);
    {
        std::unique_ptr<BackingStore> store;
        ASSERT_TRUE(MakeBackingStore(config, 8, &store).ok());
        for (int64_t p = 0; p < 8; ++p) {
            ASSERT_TRUE(store->WritePage(p, PagePattern(p, 256)).ok());
        }
        ASSERT_TRUE(store->Sync().ok());
    }

    // Reopen through pread/pwrite, then through a mapping of the same
    // file: the two backends share one on-disk format.
    config.create = false;
    for (const StoreBackend backend :
         {StoreBackend::kFile, StoreBackend::kMmap}) {
        config.backend = backend;
        std::unique_ptr<BackingStore> store;
        ASSERT_TRUE(MakeBackingStore(config, 8, &store).ok())
            << StoreBackendName(backend);
        std::vector<uint8_t> out(256);
        for (int64_t p = 0; p < 8; ++p) {
            ASSERT_TRUE(store->ReadPage(p, out).ok());
            EXPECT_EQ(out, PagePattern(p, 256))
                << StoreBackendName(backend) << " page " << p;
        }
    }
}

TEST(StoreTest, ReopenGeometryMismatchIsTyped)
{
    const std::string path = TempPath("geometry.store");
    {
        std::unique_ptr<BackingStore> store;
        ASSERT_TRUE(MakeBackingStore(
                        ConfigFor(StoreBackend::kFile, path), 8, &store)
                        .ok());
        ASSERT_TRUE(store->Sync().ok());
    }
    StoreConfig config = ConfigFor(StoreBackend::kFile, path,
                                   /*page_bytes=*/512);
    config.create = false;
    std::unique_ptr<BackingStore> store;
    EXPECT_EQ(MakeBackingStore(config, 8, &store).code,
              serving::StatusCode::kInvalidArgument);

    config.page_bytes = 256;  // right page size, wrong page count
    EXPECT_EQ(MakeBackingStore(config, 9, &store).code,
              serving::StatusCode::kInvalidArgument);
}

TEST(StoreTest, PagedScanMatchesInRamScan)
{
    Rng rng(7);
    const Tensor table = Tensor::Randn({100, 8}, rng);
    core::LinearScanTable reference(table);

    // File backend, pages much smaller than the table, tight cache: every
    // lookup streams through real eviction traffic.
    core::PagedScanTable paged(
        table, ConfigFor(StoreBackend::kFile, TempPath("scan.store"),
                         /*page_bytes=*/256, /*cache_pages=*/3));
    EXPECT_EQ(paged.num_rows(), 100);
    EXPECT_EQ(paged.dim(), 8);

    for (const int nthreads : {1, 4}) {
        paged.set_nthreads(nthreads);
        const std::vector<int64_t> indices = {0, 99, 41, 41, 7, 63};
        Tensor out({static_cast<int64_t>(indices.size()), 8});
        paged.Generate(indices, out);
        EXPECT_TRUE(out.AllClose(reference.GenerateBatch(indices), 0.0f))
            << "nthreads=" << nthreads;

        const std::vector<int64_t> offsets = {0, 2, 2, 6};
        Tensor pooled({3, 8});
        paged.GeneratePooled(indices, offsets, pooled);
        Tensor pooled_ref({3, 8});
        reference.GeneratePooled(indices, offsets, pooled_ref);
        EXPECT_TRUE(pooled.AllClose(pooled_ref, 1e-5f))
            << "nthreads=" << nthreads;
    }
    const PageCacheStats stats = paged.paged().cache_stats();
    EXPECT_GT(stats.evictions, 0) << "cache never churned; test is vacuous";
    EXPECT_TRUE(paged.SyncStorage().ok());
}

TEST(StoreTest, PagedPooledRejectsMalformedOffsets)
{
    Rng rng(8);
    const Tensor table = Tensor::Randn({10, 4}, rng);
    PagedTable paged(table.data(), 10, 4,
                     ConfigFor(StoreBackend::kMemory, "", /*page_bytes=*/64));
    const std::vector<int64_t> ids = {1, 2, 3};
    std::vector<float> out(3 * 4);
    // Decreasing offsets ({0, 5, 3}: bag 0 would read ids past the span)
    // are rejected like offsets that miss 0 or ids.size().
    for (const std::vector<int64_t>& offsets :
         std::vector<std::vector<int64_t>>{
             {0, 5, 3}, {0, 2, 1, 3}, {1, 3}, {0, 2}, {}}) {
        EXPECT_EQ(paged.LookupPooled(ids, offsets, out.data(), 1).code,
                  serving::StatusCode::kInvalidArgument)
            << "offsets of size " << offsets.size();
    }
    const std::vector<int64_t> offsets = {0, 1, 1, 3};
    EXPECT_TRUE(paged.LookupPooled(ids, offsets, out.data(), 1).ok());
}

TEST(StoreTest, RawOramGeometryIsPageDerived)
{
    // 4 KiB pages, dim-16 rows: Z = 4096 / 64 = 64 blocks per bucket.
    EXPECT_EQ(RawOram::PagesNeeded(1000, 16, 4096), 2 * 32 - 1);
    // A page that cannot hold two blocks is a typed construction error.
    EXPECT_THROW(RawOram::PagesNeeded(1000, 16, 64), StoreError);
}

std::unique_ptr<RawOram>
MakeRawOram(int64_t blocks, int64_t words, const StoreConfig& config,
            Rng& rng, const RawOramConfig& oram_config = {})
{
    const int64_t pages =
        RawOram::PagesNeeded(blocks, words, config.page_bytes);
    std::unique_ptr<PageCache> cache;
    ThrowIfError(MakePageCache(config, pages, &cache));
    return std::make_unique<RawOram>(blocks, words, std::move(cache), rng,
                                     oram_config);
}

TEST(StoreTest, RawOramReadsBackEveryBlock)
{
    const int64_t kBlocks = 200, kWords = 8;
    std::vector<uint32_t> data(static_cast<size_t>(kBlocks * kWords));
    for (size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<uint32_t>(i * 2654435761u);
    }

    Rng rng(11);
    auto oram = MakeRawOram(
        kBlocks, kWords,
        ConfigFor(StoreBackend::kMemory, "", /*page_bytes=*/512,
                  /*cache_pages=*/4),
        rng);
    ASSERT_TRUE(oram->BulkLoad(data).ok());

    // Two full passes: the second rereads blocks whose first read left
    // them in the stash or moved them by eviction.
    std::vector<uint32_t> out(static_cast<size_t>(kWords));
    for (int pass = 0; pass < 2; ++pass) {
        for (int64_t id = 0; id < kBlocks; ++id) {
            ASSERT_TRUE(oram->Read(id, out).ok());
            EXPECT_EQ(0, std::memcmp(out.data(), &data[static_cast<size_t>(
                                                     id * kWords)],
                                     sizeof(uint32_t) * kWords))
                << "pass " << pass << " id " << id;
        }
        EXPECT_LE(oram->StashOccupancy(), oram->stash_capacity());
    }
    const RawOramStats& stats = oram->stats();
    EXPECT_EQ(stats.accesses, 2 * kBlocks);
    EXPECT_GT(stats.evictions, 0);
    // The RAW asymmetry: reads never write back, so page writes happen
    // only on the (amortized) eviction paths.
    EXPECT_LT(stats.page_writes, stats.page_reads);
}

TEST(StoreTest, RawOramWriteThenReadBack)
{
    const int64_t kBlocks = 64, kWords = 4;
    std::vector<uint32_t> data(static_cast<size_t>(kBlocks * kWords), 0);
    Rng rng(13);
    auto oram = MakeRawOram(
        kBlocks, kWords,
        ConfigFor(StoreBackend::kFile, TempPath("raworam.store"),
                  /*page_bytes=*/256, /*cache_pages=*/4),
        rng);
    ASSERT_TRUE(oram->BulkLoad(data).ok());

    std::vector<uint32_t> in(static_cast<size_t>(kWords));
    for (int64_t id = 0; id < kBlocks; id += 3) {
        for (int64_t w = 0; w < kWords; ++w) {
            in[static_cast<size_t>(w)] =
                static_cast<uint32_t>(id * 100 + w);
        }
        ASSERT_TRUE(oram->Write(id, in).ok());
    }
    ASSERT_TRUE(oram->Sync().ok());

    std::vector<uint32_t> out(static_cast<size_t>(kWords));
    for (int64_t id = 0; id < kBlocks; ++id) {
        ASSERT_TRUE(oram->Read(id, out).ok());
        for (int64_t w = 0; w < kWords; ++w) {
            const uint32_t want =
                id % 3 == 0 ? static_cast<uint32_t>(id * 100 + w) : 0u;
            EXPECT_EQ(out[static_cast<size_t>(w)], want)
                << "id " << id << " word " << w;
        }
    }
}

TEST(StoreTest, RawOramTableMatchesReference)
{
    Rng table_rng(17);
    const Tensor table = Tensor::Randn({80, 8}, table_rng);
    core::LinearScanTable reference(table);

    Rng rng(19);
    core::RawOramTable oram_table(
        table, rng,
        ConfigFor(StoreBackend::kMmap, TempPath("oramtable.store"),
                  /*page_bytes=*/512, /*cache_pages=*/4));
    EXPECT_EQ(oram_table.num_rows(), 80);

    const std::vector<int64_t> indices = {79, 0, 33, 33, 12, 5, 5, 5};
    Tensor out({static_cast<int64_t>(indices.size()), 8});
    oram_table.Generate(indices, out);
    EXPECT_TRUE(out.AllClose(reference.GenerateBatch(indices), 0.0f));
    EXPECT_TRUE(oram_table.SyncStorage().ok());
}

TEST(StoreTest, SyncStorageDefaultsToOkForInRamGenerators)
{
    Rng rng(31);
    core::LinearScanTable scan(Tensor::Randn({16, 4}, rng));
    core::EmbeddingGenerator& gen = scan;
    EXPECT_TRUE(gen.SyncStorage().ok());
}

}  // namespace
}  // namespace secemb::store
