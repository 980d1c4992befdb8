/**
 * @file
 * Crash/fault tier for the out-of-core store (`ctest -L robustness`):
 * every IO fault class — open failure, short/failed read, write-space
 * exhaustion, torn write (CorruptFileBytes), truncation (TruncateFile) —
 * must surface as the documented typed serving::Status, replay exactly
 * from its FaultPlan seed, and map through the serving layer (StoreError
 * -> Response status, storage-sync failure counters) without crash,
 * hang, or silent corruption.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/paged_generators.h"
#include "fault/fault.h"
#include "serving/server.h"
#include "store/backing_store.h"
#include "store/durable.h"
#include "store/page_cache.h"
#include "store/raw_oram.h"
#include "tensor/rng.h"

namespace secemb::store {
namespace {

using fault::FaultPlan;
using fault::FaultSite;
using fault::ScopedFaultInjection;

std::string
TempPath(const std::string& name)
{
    const std::string path = testing::TempDir() + "secemb_" + name;
    std::filesystem::remove(path);
    return path;
}

StoreConfig
FileConfig(const std::string& path, int64_t page_bytes = 256,
           int64_t cache_pages = 4)
{
    StoreConfig config;
    config.backend = StoreBackend::kFile;
    config.path = path;
    config.page_bytes = page_bytes;
    config.cache_pages = cache_pages;
    return config;
}

/** Build a synced 8-page file store with per-page patterns; returns the
 *  payload written to `page_out` for later comparison. */
void
SeedStoreFile(const std::string& path,
              std::vector<std::vector<uint8_t>>* pages_out)
{
    std::unique_ptr<BackingStore> store;
    ASSERT_TRUE(MakeBackingStore(FileConfig(path), 8, &store).ok());
    pages_out->clear();
    for (int64_t p = 0; p < 8; ++p) {
        std::vector<uint8_t> page(256);
        Rng rng(500 + static_cast<uint64_t>(p));
        for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
        ASSERT_TRUE(store->WritePage(p, page).ok());
        pages_out->push_back(std::move(page));
    }
    ASSERT_TRUE(store->Sync().ok());
}

TEST(StoreChaosTest, OpenFaultIsInternalAndRecoverable)
{
    const std::string path = TempPath("open_fault.store");
    FaultPlan plan(201);
    plan.ArmCountdown(FaultSite::kIoOpen, /*first_hit=*/1);
    std::unique_ptr<BackingStore> store;
    {
        ScopedFaultInjection scope(&plan);
        EXPECT_EQ(MakeBackingStore(FileConfig(path), 4, &store).code,
                  serving::StatusCode::kInternal);
    }
    EXPECT_EQ(plan.fires(FaultSite::kIoOpen), 1u);
    // With the plan gone the identical call succeeds.
    EXPECT_TRUE(MakeBackingStore(FileConfig(path), 4, &store).ok());
}

TEST(StoreChaosTest, ReadFaultIsInternalPerFaultClass)
{
    const std::string path = TempPath("read_fault.store");
    std::vector<std::vector<uint8_t>> pages;
    SeedStoreFile(path, &pages);

    StoreConfig config = FileConfig(path);
    config.create = false;
    std::unique_ptr<PageCache> cache;
    ASSERT_TRUE(MakePageCache(config, 8, &cache).ok());

    FaultPlan plan(202);
    plan.ArmCountdown(FaultSite::kIoRead, /*first_hit=*/1);
    std::vector<uint8_t> out(256);
    {
        ScopedFaultInjection scope(&plan);
        EXPECT_EQ(cache->ReadPage(3, out).code,
                  serving::StatusCode::kInternal);
    }
    // The failed fetch must not have installed a poisoned frame: the
    // retry re-reads from the store and returns the real payload.
    ASSERT_TRUE(cache->ReadPage(3, out).ok());
    EXPECT_EQ(out, pages[3]);
}

TEST(StoreChaosTest, WriteFaultIsResourceExhausted)
{
    const std::string path = TempPath("write_fault.store");
    std::unique_ptr<PageCache> cache;
    ASSERT_TRUE(MakePageCache(FileConfig(path), 8, &cache).ok());

    std::vector<uint8_t> page(256, 0x11);
    ASSERT_TRUE(cache->WritePage(0, page).ok());  // dirty, cached

    FaultPlan plan(203);
    plan.ArmRate(FaultSite::kIoWrite, 1.0);
    {
        ScopedFaultInjection scope(&plan);
        EXPECT_EQ(cache->FlushDirty().code,
                  serving::StatusCode::kResourceExhausted);
    }
    EXPECT_GE(plan.fires(FaultSite::kIoWrite), 1u);
    // Space back: the same dirty frame flushes cleanly.
    EXPECT_TRUE(cache->Sync().ok());
}

TEST(StoreChaosTest, TornWriteDetectedByChecksumOnNextRead)
{
    const std::string path = TempPath("torn.store");
    std::vector<std::vector<uint8_t>> pages;
    SeedStoreFile(path, &pages);

    // Flip bytes in the data region only (past header + CRC table): the
    // modeled torn write / bit rot a crash can leave behind.
    const uint64_t data_offset = static_cast<uint64_t>(
        StoreFileDataOffset(/*page_bytes=*/256, /*num_pages=*/8));
    const uint64_t flipped =
        fault::CorruptFileBytes(path, /*seed=*/204, /*flips=*/1,
                                /*skip_prefix=*/data_offset);
    const auto bad_page =
        static_cast<int64_t>((flipped - data_offset) / 256);

    StoreConfig config = FileConfig(path);
    config.create = false;
    std::unique_ptr<BackingStore> store;
    ASSERT_TRUE(MakeBackingStore(config, 8, &store).ok());
    std::vector<uint8_t> out(256);
    const serving::Status s = store->ReadPage(bad_page, out);
    EXPECT_EQ(s.code, serving::StatusCode::kInternal);
    EXPECT_NE(s.message.find("checksum"), std::string::npos)
        << s.ToString();
    // Untouched pages still verify.
    const int64_t good_page = (bad_page + 1) % 8;
    ASSERT_TRUE(store->ReadPage(good_page, out).ok());
    EXPECT_EQ(out, pages[static_cast<size_t>(good_page)]);
}

TEST(StoreChaosTest, ClearedChecksumFlagIsRefusedNotObeyed)
{
    // The header carries no checksum of its own, so its checksum flag
    // must not be a switch: flipping bit 0 of the flags word (offset 12,
    // after the 8-byte magic and the version) beside a torn data byte
    // must not turn the torn page into a clean read.
    const std::string path = TempPath("flag_flip.store");
    std::vector<std::vector<uint8_t>> pages;
    SeedStoreFile(path, &pages);
    const uint64_t data_offset = static_cast<uint64_t>(
        StoreFileDataOffset(/*page_bytes=*/256, /*num_pages=*/8));
    fault::CorruptFileBytes(path, /*seed=*/205, /*flips=*/1,
                            /*skip_prefix=*/data_offset);
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(12);
        const char flags = static_cast<char>(f.get());
        f.seekp(12);
        f.put(static_cast<char>(flags ^ 1));
        ASSERT_TRUE(f.good());
    }

    for (StoreBackend backend : {StoreBackend::kFile, StoreBackend::kMmap}) {
        StoreConfig config = FileConfig(path);
        config.backend = backend;
        config.create = false;
        std::unique_ptr<BackingStore> store;
        EXPECT_EQ(MakeBackingStore(config, 8, &store).code,
                  serving::StatusCode::kInvalidArgument)
            << StoreBackendName(backend);
        EXPECT_EQ(store, nullptr);
    }
}

TEST(StoreChaosTest, TruncationIsShortReadOnFileAndOpenErrorOnMmap)
{
    const std::string path = TempPath("truncated.store");
    std::vector<std::vector<uint8_t>> pages;
    SeedStoreFile(path, &pages);
    fault::TruncateFile(path, 0.5);

    StoreConfig config = FileConfig(path);
    config.create = false;

    // pread backend: the open succeeds (header intact) but reading a
    // page past the cut is a short read, typed kInternal.
    std::unique_ptr<BackingStore> store;
    ASSERT_TRUE(MakeBackingStore(config, 8, &store).ok());
    std::vector<uint8_t> out(256);
    EXPECT_EQ(store->ReadPage(7, out).code,
              serving::StatusCode::kInternal);

    // mmap backend: the whole-file size check fails at open.
    config.backend = StoreBackend::kMmap;
    std::unique_ptr<BackingStore> mapped;
    EXPECT_EQ(MakeBackingStore(config, 8, &mapped).code,
              serving::StatusCode::kInternal);
}

TEST(StoreChaosTest, FaultedRunReplaysBitForBitFromSeed)
{
    // A seeded rate plan over a fixed op sequence must produce the same
    // status-code vector on every replay: failing chaos cases are regular
    // ctest cases, not coin flips.
    auto run = [](FaultPlan* plan) {
        const std::string path = TempPath("replay.store");
        std::unique_ptr<PageCache> cache;
        ThrowIfError(MakePageCache(FileConfig(path, 256, 2), 8, &cache));
        plan->ResetCounters();
        ScopedFaultInjection scope(plan);
        std::vector<int> codes;
        std::vector<uint8_t> page(256, 0x3C);
        for (int i = 0; i < 40; ++i) {
            const int64_t p = i % 8;
            const serving::Status s = i % 2 == 0
                                          ? cache->WritePage(p, page)
                                          : cache->ReadPage(p, page);
            codes.push_back(static_cast<int>(s.code));
        }
        codes.push_back(static_cast<int>(cache->FlushDirty().code));
        return codes;
    };

    FaultPlan plan(205);
    plan.ArmRate(FaultSite::kIoRead, 0.25);
    plan.ArmRate(FaultSite::kIoWrite, 0.25);
    const std::vector<int> first = run(&plan);
    const std::vector<int> second = run(&plan);
    EXPECT_EQ(first, second) << "IO faults did not replay from their seed";
    EXPECT_GE(plan.fires(FaultSite::kIoRead) +
                  plan.fires(FaultSite::kIoWrite),
              1u);
}

TEST(StoreChaosTest, ServerMapsStoreErrorToTypedResponse)
{
    // A paged generator under the serving layer: an injected read fault
    // inside Generate surfaces as the StoreError's own status code on the
    // response — not a retry loop, not a crash.
    Rng rng(206);
    auto paged = std::make_shared<core::PagedScanTable>(
        Tensor::Randn({64, 8}, rng),
        FileConfig(TempPath("served.store"), 256, 2));

    serving::ServerConfig cfg;
    cfg.default_deadline_us = 0;
    cfg.flush_deadline_us = 50;
    cfg.nthreads = 1;
    cfg.max_retries = 3;  // must NOT be consumed by storage errors
    serving::Server server({paged}, cfg);

    FaultPlan plan(207);
    plan.ArmCountdown(FaultSite::kIoRead, /*first_hit=*/1);
    {
        ScopedFaultInjection scope(&plan);
        serving::Request r;
        r.indices = {5, 9};
        const serving::Response resp = server.SubmitAndWait(std::move(r));
        EXPECT_EQ(resp.status.code, serving::StatusCode::kInternal);
        EXPECT_EQ(resp.retries, 0)
            << "storage faults are not transient; retrying re-reads the "
               "same bad page";
    }
    EXPECT_EQ(plan.fires(FaultSite::kIoRead), 1u);

    // Fault cleared: the same request serves.
    serving::Request r;
    r.indices = {5, 9};
    EXPECT_TRUE(server.SubmitAndWait(std::move(r)).status.ok());
}

TEST(StoreChaosTest, ShutdownSyncFailureIsCountedNotFatal)
{
    Rng rng(208);
    auto paged = std::make_shared<core::PagedScanTable>(
        Tensor::Randn({32, 8}, rng),
        // Cache covers the whole table, so construction leaves dirty
        // frames for shutdown's storage sync to write back.
        FileConfig(TempPath("shutdown.store"), 256, 64));

    serving::ServerConfig cfg;
    cfg.default_deadline_us = 0;
    cfg.flush_deadline_us = 50;
    cfg.nthreads = 1;
    serving::Server server({paged}, cfg);

    serving::Request r;
    r.indices = {1, 2, 3};
    ASSERT_TRUE(server.SubmitAndWait(std::move(r)).status.ok());

    FaultPlan plan(209);
    plan.ArmRate(FaultSite::kIoWrite, 1.0);
    {
        ScopedFaultInjection scope(&plan);
        server.Shutdown();
    }
    EXPECT_GE(server.GetStats().storage_sync_failures, 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint/journal fault rows: what recovery does with damaged durable
// state. (The kill-based harness in crash_harness_test proves legal crash
// states recover; these rows prove ILLEGAL states are refused, typed.)
// ---------------------------------------------------------------------------

std::string
DurableDir(const std::string& name)
{
    const std::string dir = testing::TempDir() + "secemb_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

constexpr int64_t kOramRows = 16;
constexpr int64_t kOramDim = 4;
constexpr int64_t kOramPage = 128;

RawOramConfig
OramDurableConfig(const std::string& dir, int64_t eviction_period = 8)
{
    RawOramConfig rc;
    rc.eviction_period = eviction_period;
    rc.durability.dir = dir;
    rc.posmap.enable_recursion = false;
    return rc;
}

std::unique_ptr<PageCache>
OramPageCache(const std::string& dir, bool create)
{
    StoreConfig sc = FileConfig(dir + "/pages.bin", kOramPage, 4);
    sc.create = create;
    std::unique_ptr<PageCache> cache;
    ThrowIfError(MakePageCache(
        sc, RawOram::PagesNeeded(kOramRows, kOramDim, kOramPage), &cache));
    return cache;
}

/** Durable instance + `writes` seeded writes; returns the final table. */
std::vector<uint32_t>
SeedDurableOram(const std::string& dir, int writes,
                int64_t eviction_period)
{
    Rng rng(700);
    RawOram oram(kOramRows, kOramDim, OramPageCache(dir, true), rng,
                 OramDurableConfig(dir, eviction_period));
    std::vector<uint32_t> table(
        static_cast<size_t>(kOramRows * kOramDim), 0xd1u);
    ThrowIfError(oram.BulkLoad(table));
    Rng vals(701);
    for (int i = 0; i < writes; ++i) {
        const int64_t id = i % kOramRows;
        std::vector<uint32_t> v(static_cast<size_t>(kOramDim));
        for (auto& w : v) w = static_cast<uint32_t>(vals.Next());
        ThrowIfError(oram.Write(id, v));
        std::copy(v.begin(), v.end(), table.begin() + id * kOramDim);
    }
    return table;
}

serving::Status
RecoverOram(const std::string& dir, std::unique_ptr<RawOram>* out,
            int64_t eviction_period = 8)
{
    Rng rng(702);
    return RawOram::Recover(kOramRows, kOramDim, OramPageCache(dir, false),
                            rng, OramDurableConfig(dir, eviction_period),
                            out);
}

TEST(StoreChaosTest, TornCheckpointFailsClosedAtRecovery)
{
    const std::string dir = DurableDir("torn_ckpt");
    SeedDurableOram(dir, /*writes=*/4, /*eviction_period=*/8);
    // Flip one byte past the checkpoint magic: the modeled torn write.
    fault::CorruptFileBytes(dir + "/ckpt.bin", /*seed=*/210, /*flips=*/1,
                            /*skip_prefix=*/16);
    std::unique_ptr<RawOram> oram;
    EXPECT_EQ(RecoverOram(dir, &oram).code,
              serving::StatusCode::kInternal);
    std::filesystem::remove_all(dir);
}

TEST(StoreChaosTest, TruncatedJournalTailRecoversThePrefix)
{
    const std::string dir = DurableDir("journal_cut");
    // eviction_period far beyond the op count: no eviction page writes,
    // so cutting the journal tail models a pure append-crash (the one
    // damaged-tail state recovery may legally drop).
    std::vector<uint32_t> table =
        SeedDurableOram(dir, /*writes=*/5, /*eviction_period=*/1000);
    {
        std::error_code ec;
        const auto size =
            std::filesystem::file_size(dir + "/journal.bin", ec);
        ASSERT_FALSE(ec);
        std::filesystem::resize_file(dir + "/journal.bin", size - 7, ec);
        ASSERT_FALSE(ec);
    }
    // Un-apply the torn final write (id = 4 % 16): the recovered table
    // must equal the state after the 4 intact records.
    {
        Rng vals(701);
        std::vector<uint32_t> v(static_cast<size_t>(kOramDim));
        for (int i = 0; i < 4; ++i) {
            for (auto& w : v) w = static_cast<uint32_t>(vals.Next());
        }
        std::fill(table.begin() + 4 * kOramDim,
                  table.begin() + 5 * kOramDim, 0xd1u);
    }

    auto read_all = [&](bool expect_tail_drop) {
        std::unique_ptr<RawOram> oram;
        ThrowIfError(RecoverOram(dir, &oram, /*eviction_period=*/1000));
        if (expect_tail_drop) {
            EXPECT_TRUE(oram->recovery_stats().dropped_tail);
            EXPECT_EQ(oram->recovery_stats().replayed_accesses, 4);
        }
        std::vector<uint32_t> rows;
        std::vector<uint32_t> row(static_cast<size_t>(kOramDim));
        for (int64_t r = 0; r < kOramRows; ++r) {
            ThrowIfError(oram->Read(r, row));
            rows.insert(rows.end(), row.begin(), row.end());
        }
        return rows;
    };
    const std::vector<uint32_t> first = read_all(true);
    EXPECT_EQ(first, table);
    // A second restart is clean: the first recovery truncated the torn
    // tail and re-journaled its own (read) accesses, and the content
    // still round-trips bit-for-bit.
    EXPECT_EQ(read_all(false), first);
    std::filesystem::remove_all(dir);
}

TEST(StoreChaosTest, DuplicateSequenceNumberFailsClosed)
{
    const std::string dir = DurableDir("dup_seq");
    SeedDurableOram(dir, /*writes=*/3, /*eviction_period=*/1000);

    // Overwrite record 3's bytes with record 2's (same size, valid CRC):
    // a duplicated sequence number mid-journal. Replaying it would apply
    // a delta twice; recovery must refuse, not guess.
    const int64_t rec = JournalRecordBytes(
        JournalAccessPayloadBytes(kOramDim));
    const int64_t hdr = JournalFileHeaderBytes();
    std::fstream f(dir + "/journal.bin",
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    std::vector<char> second(static_cast<size_t>(rec));
    f.seekg(hdr + rec);
    f.read(second.data(), rec);
    f.seekp(hdr + 2 * rec);
    f.write(second.data(), rec);
    f.close();

    std::unique_ptr<RawOram> oram;
    const serving::Status s = RecoverOram(dir, &oram, 1000);
    EXPECT_EQ(s.code, serving::StatusCode::kInternal);
    std::filesystem::remove_all(dir);
}

TEST(StoreChaosTest, CheckpointWriteFaultIsTypedAndNonFatal)
{
    const std::string dir = DurableDir("ckpt_fault");
    Rng rng(703);
    RawOram oram(kOramRows, kOramDim, OramPageCache(dir, true), rng,
                 OramDurableConfig(dir));
    std::vector<uint32_t> table(
        static_cast<size_t>(kOramRows * kOramDim), 0x7u);
    ThrowIfError(oram.BulkLoad(table));

    FaultPlan plan(211);
    plan.ArmRate(FaultSite::kIoWrite, 1.0);
    {
        ScopedFaultInjection scope(&plan);
        EXPECT_EQ(oram.Checkpoint().code,
                  serving::StatusCode::kResourceExhausted);
    }
    // The failed attempt went to ckpt.bin.tmp; the live checkpoint is
    // intact and the instance still serves and checkpoints.
    std::vector<uint32_t> row(static_cast<size_t>(kOramDim));
    EXPECT_TRUE(oram.Read(3, row).ok());
    EXPECT_TRUE(oram.Checkpoint().ok());
    std::unique_ptr<RawOram> rec;
    EXPECT_TRUE(RecoverOram(dir, &rec).ok());
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace secemb::store
