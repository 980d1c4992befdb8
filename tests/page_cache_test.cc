/**
 * @file
 * Page-cache property tests (`ctest -L concurrency`): thousands of seeded
 * operations checked against a naive reference model (the store is just
 * an array; the cache must never serve anything else), dirty write-back
 * on eviction, and a TSan-facing stress case of concurrent readers,
 * writers, and a flush thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "store/page_cache.h"
#include "tensor/rng.h"

namespace secemb::store {
namespace {

constexpr int64_t kPages = 64;
constexpr int64_t kPageBytes = 64;

std::unique_ptr<PageCache>
MakeCache(int64_t cache_pages)
{
    StoreConfig config;
    config.backend = StoreBackend::kMemory;
    config.page_bytes = kPageBytes;
    config.cache_pages = cache_pages;
    std::unique_ptr<PageCache> cache;
    ThrowIfError(MakePageCache(config, kPages, &cache));
    return cache;
}

/** Reference model: the store is an array of pages, nothing more. */
struct Model
{
    std::vector<std::vector<uint8_t>> pages;

    explicit Model()
        : pages(static_cast<size_t>(kPages),
                std::vector<uint8_t>(static_cast<size_t>(kPageBytes), 0))
    {
    }
};

TEST(PageCacheTest, SeededOpsMatchReferenceModel)
{
    // 2000 operations drawn from {read, write, flush, sync} with a
    // hot-page bias so frames genuinely churn through hit / miss / evict
    // / write-back transitions.
    auto cache = MakeCache(/*cache_pages=*/8);
    Model model;
    Rng rng(0x9a6e0cacULL);

    std::vector<uint8_t> buf(static_cast<size_t>(kPageBytes));
    for (int op = 0; op < 2000; ++op) {
        // 3/4 of page draws land in an 12-page hot set.
        const int64_t page =
            rng.NextBounded(4) != 0
                ? static_cast<int64_t>(rng.NextBounded(12))
                : static_cast<int64_t>(rng.NextBounded(kPages));
        switch (rng.NextBounded(6)) {
          case 0:
          case 1:
          case 2: {  // read, verify against the model
              ASSERT_TRUE(cache->ReadPage(page, buf).ok());
              EXPECT_EQ(0, std::memcmp(buf.data(),
                                       model.pages[static_cast<size_t>(
                                                       page)]
                                           .data(),
                                       static_cast<size_t>(kPageBytes)))
                  << "op " << op << " page " << page;
              break;
          }
          case 3:
          case 4: {  // whole-page write
              for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
              model.pages[static_cast<size_t>(page)].assign(buf.begin(),
                                                            buf.end());
              ASSERT_TRUE(cache->WritePage(page, buf).ok());
              break;
          }
          default:
              ASSERT_TRUE(op % 2 == 0 ? cache->FlushDirty().ok()
                                      : cache->Sync().ok());
              break;
        }
    }

    // Drain the cache and audit the store directly: every page must hold
    // exactly the model's bytes (dirty frames written back, clean frames
    // never corrupted).
    ASSERT_TRUE(cache->FlushDirty().ok());
    for (int64_t p = 0; p < kPages; ++p) {
        ASSERT_TRUE(cache->store().ReadPage(p, buf).ok());
        EXPECT_EQ(0, std::memcmp(buf.data(),
                                 model.pages[static_cast<size_t>(p)]
                                     .data(),
                                 static_cast<size_t>(kPageBytes)))
            << "store page " << p;
    }

    const PageCacheStats stats = cache->stats();
    EXPECT_GT(stats.hits, 0);
    EXPECT_GT(stats.misses, 0);
    EXPECT_GT(stats.evictions, 0);
    EXPECT_GT(stats.writebacks, 0);
}

TEST(PageCacheTest, CapacityClampsToStoreSize)
{
    auto cache = MakeCache(/*cache_pages=*/10000);
    EXPECT_EQ(cache->capacity_pages(), kPages);
    auto tiny = MakeCache(/*cache_pages=*/0);
    EXPECT_EQ(tiny->capacity_pages(), 1);
}

TEST(PageCacheTest, DirtyPageWrittenBackOnEviction)
{
    auto cache = MakeCache(/*cache_pages=*/2);
    std::vector<uint8_t> buf(static_cast<size_t>(kPageBytes), 0x5A);
    ASSERT_TRUE(cache->WritePage(7, buf).ok());

    // Two more distinct pages force page 7's frame to be recycled; the
    // dirty payload must land in the store without any explicit flush.
    std::vector<uint8_t> out(static_cast<size_t>(kPageBytes));
    ASSERT_TRUE(cache->ReadPage(1, out).ok());
    ASSERT_TRUE(cache->ReadPage(2, out).ok());
    ASSERT_TRUE(cache->store().ReadPage(7, out).ok());
    EXPECT_EQ(out, buf);
}

TEST(PageCacheTest, ConcurrentReadersWritersAndFlusher)
{
    // Writers own disjoint page sets and stamp word 0 with the page
    // index; readers assert any page they observe is internally
    // consistent (a complete write, never a torn mix); a maintenance
    // thread flushes and syncs concurrently. Run under
    // -DSECEMB_SANITIZE=thread via `ctest -L concurrency`.
    auto cache = MakeCache(/*cache_pages=*/4);
    constexpr int kWriters = 2, kReaders = 2, kOpsPerThread = 400;

    std::vector<uint8_t> init(static_cast<size_t>(kPageBytes), 0);
    for (int64_t p = 0; p < kPages; ++p) {
        uint32_t tag = static_cast<uint32_t>(p);
        std::memcpy(init.data(), &tag, sizeof(tag));
        ASSERT_TRUE(cache->WritePage(p, init).ok());
    }

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
        threads.emplace_back([&cache, &failures, w] {
            Rng rng(1000 + static_cast<uint64_t>(w));
            std::vector<uint8_t> page(static_cast<size_t>(kPageBytes));
            for (int i = 0; i < kOpsPerThread; ++i) {
                const int64_t p = static_cast<int64_t>(
                    rng.NextBounded(kPages / kWriters) * kWriters + w);
                const uint32_t tag = static_cast<uint32_t>(p);
                const auto fill = static_cast<uint8_t>(rng.Next());
                std::fill(page.begin(), page.end(), fill);
                std::memcpy(page.data(), &tag, sizeof(tag));
                if (!cache->WritePage(p, page).ok()) failures++;
            }
        });
    }
    for (int r = 0; r < kReaders; ++r) {
        threads.emplace_back([&cache, &failures, r] {
            Rng rng(2000 + static_cast<uint64_t>(r));
            std::vector<uint8_t> page(static_cast<size_t>(kPageBytes));
            for (int i = 0; i < kOpsPerThread; ++i) {
                const auto p =
                    static_cast<int64_t>(rng.NextBounded(kPages));
                if (!cache->ReadPage(p, page).ok()) {
                    failures++;
                    continue;
                }
                uint32_t tag = 0;
                std::memcpy(&tag, page.data(), sizeof(tag));
                if (tag != static_cast<uint32_t>(p)) failures++;
                // Bytes past the tag must be one writer's fill value.
                for (size_t b = sizeof(tag) + 1; b < page.size(); ++b) {
                    if (page[b] != page[sizeof(tag)]) {
                        failures++;
                        break;
                    }
                }
            }
        });
    }
    threads.emplace_back([&cache] {
        for (int i = 0; i < kOpsPerThread; ++i) {
            (void)(i % 2 == 0 ? cache->FlushDirty() : cache->Sync());
        }
    });
    for (auto& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);

    // Post-quiescence audit: the store holds a consistent page image.
    ASSERT_TRUE(cache->FlushDirty().ok());
    std::vector<uint8_t> page(static_cast<size_t>(kPageBytes));
    for (int64_t p = 0; p < kPages; ++p) {
        ASSERT_TRUE(cache->store().ReadPage(p, page).ok());
        uint32_t tag = 0;
        std::memcpy(&tag, page.data(), sizeof(tag));
        EXPECT_EQ(tag, static_cast<uint32_t>(p));
    }
}

TEST(PageCacheTest, ReattachAfterAbandonUnderLoadSeesNoTornPages)
{
    // Crash-abandonment under concurrent load: writers keep every page
    // self-consistent (tag word + uniform fill), a flusher syncs
    // concurrently, and then the cache is dropped WITHOUT a final flush —
    // the dirty frames die with the "process". Reattaching (create=false)
    // must find every page either never-flushed (zero) or exactly one
    // self-consistent image: the CRC'd page-atomic store may lose recent
    // writes on a crash but may never expose a torn mix of two.
    const std::string path =
        testing::TempDir() + "secemb_reattach_load.store";
    std::remove(path.c_str());
    StoreConfig config;
    config.backend = StoreBackend::kFile;
    config.path = path;
    config.page_bytes = kPageBytes;
    config.cache_pages = 8;
    {
        std::unique_ptr<PageCache> cache;
        ThrowIfError(MakePageCache(config, kPages, &cache));
        std::atomic<int> failures{0};
        std::vector<std::thread> threads;
        for (int w = 0; w < 4; ++w) {
            threads.emplace_back([&cache, &failures, w] {
                Rng rng(3000 + static_cast<uint64_t>(w));
                std::vector<uint8_t> page(
                    static_cast<size_t>(kPageBytes));
                for (int i = 0; i < 300; ++i) {
                    const int64_t p = static_cast<int64_t>(
                        rng.NextBounded(kPages / 4) * 4 + w);
                    const uint32_t tag = static_cast<uint32_t>(p);
                    std::fill(page.begin(), page.end(),
                              static_cast<uint8_t>(rng.Next()));
                    std::memcpy(page.data(), &tag, sizeof(tag));
                    if (!cache->WritePage(p, page).ok()) failures++;
                }
            });
        }
        threads.emplace_back([&cache] {
            for (int i = 0; i < 100; ++i) {
                (void)(i % 2 == 0 ? cache->FlushDirty() : cache->Sync());
            }
        });
        for (auto& t : threads) t.join();
        ASSERT_EQ(failures.load(), 0);
    }  // dirty frames abandoned here

    config.create = false;
    std::unique_ptr<PageCache> reattached;
    ThrowIfError(MakePageCache(config, kPages, &reattached));
    std::vector<uint8_t> page(static_cast<size_t>(kPageBytes));
    for (int64_t p = 0; p < kPages; ++p) {
        ASSERT_TRUE(reattached->ReadPage(p, page).ok())
            << "page " << p << " failed CRC after reattach";
        uint32_t tag = 0;
        std::memcpy(&tag, page.data(), sizeof(tag));
        const bool never_flushed = tag == 0 && page[sizeof(tag)] == 0;
        bool consistent = tag == static_cast<uint32_t>(p);
        for (size_t b = sizeof(tag) + 1; consistent && b < page.size();
             ++b) {
            consistent = page[b] == page[sizeof(tag)];
        }
        EXPECT_TRUE(never_flushed || consistent) << "page " << p;
    }
    std::remove(path.c_str());
}

}  // namespace
}  // namespace secemb::store
