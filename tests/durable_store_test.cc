/**
 * @file
 * Unit tests for the durable-state formats behind the crash harness
 * (`ctest -L crash`): journal framing/replay-load semantics, atomic
 * checkpoint round-trips, the public-constant checkpoint size, the
 * sparse negative control's refusal at recovery, and the
 * fsync-on-create regression for FileStore.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "store/backing_store.h"
#include "store/durable.h"

namespace secemb::store {
namespace {

std::string
TempPath(const std::string& name)
{
    const std::string path = testing::TempDir() + "secemb_" + name;
    std::filesystem::remove_all(path);
    return path;
}

void
FlipByte(const std::string& path, int64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(offset);
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(offset);
    f.write(&b, 1);
}

void
TruncateBy(const std::string& path, int64_t bytes)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    ASSERT_FALSE(ec);
    std::filesystem::resize_file(
        path, size - static_cast<uintmax_t>(bytes), ec);
    ASSERT_FALSE(ec);
}

/** Small but non-degenerate geometry: 7 buckets, Z=4, stash of 6. */
CheckpointData
MakeState(uint64_t salt)
{
    CheckpointData d;
    d.num_blocks = 8;
    d.block_words = 4;
    d.bucket_slots = 4;
    d.levels = 2;
    d.stash_capacity = 6;
    d.eviction_period = 8;
    d.cipher_seed = 0x1234 + salt;
    d.evict_counter = 3 + salt;
    d.last_seq = 17 + salt;
    d.accesses = 29;
    d.evictions = 3;
    const int64_t nb = d.num_buckets();
    d.posmap_leaves.resize(static_cast<size_t>(d.num_blocks));
    d.slot_id.assign(static_cast<size_t>(nb * d.bucket_slots), ~uint64_t{0});
    d.slot_leaf.resize(static_cast<size_t>(nb * d.bucket_slots));
    d.stash_id.assign(static_cast<size_t>(d.stash_capacity), ~uint64_t{0});
    d.stash_leaf.resize(static_cast<size_t>(d.stash_capacity));
    d.stash_data.resize(
        static_cast<size_t>(d.stash_capacity * d.block_words));
    d.bucket_version.resize(static_cast<size_t>(nb));
    for (size_t i = 0; i < d.posmap_leaves.size(); ++i) {
        d.posmap_leaves[i] = static_cast<uint32_t>((i + salt) % 4);
    }
    for (size_t i = 0; i < d.stash_data.size(); ++i) {
        d.stash_data[i] = static_cast<uint32_t>(i * 7 + salt);
    }
    for (size_t i = 0; i < d.bucket_version.size(); ++i) {
        d.bucket_version[i] = i + salt;
    }
    d.slot_id[0] = 5;
    d.slot_leaf[0] = 2;
    return d;
}

std::vector<uint8_t>
Payload(size_t n, uint8_t base)
{
    std::vector<uint8_t> p(n);
    for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(base + i);
    return p;
}

TEST(JournalTest, AppendLoadRoundTrip)
{
    const std::string dir = TempPath("journal_roundtrip");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/journal.bin";
    const uint64_t geom = 0xfeedULL;

    Journal j;
    ASSERT_TRUE(j.Reset(path, /*base_seq=*/0, geom).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kAccess, 1, Payload(24, 1)).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kEvict, 2, Payload(40, 9)).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kAccess, 3, Payload(24, 5)).ok());
    EXPECT_EQ(j.records(), 3);

    JournalLoadResult loaded;
    ASSERT_TRUE(LoadJournal(path, geom, /*skip_through=*/0, &loaded).ok());
    ASSERT_EQ(loaded.records.size(), 3u);
    EXPECT_EQ(loaded.records[0].seq, 1u);
    EXPECT_EQ(loaded.records[0].type, JournalRecordType::kAccess);
    EXPECT_EQ(loaded.records[0].payload, Payload(24, 1));
    EXPECT_EQ(loaded.records[1].type, JournalRecordType::kEvict);
    EXPECT_EQ(loaded.records[1].payload, Payload(40, 9));
    EXPECT_EQ(loaded.skipped, 0);
    EXPECT_FALSE(loaded.dropped_tail);

    // skip_through inside the journal: pre-checkpoint records skipped,
    // continuity still enforced from skip_through+1.
    JournalLoadResult tail;
    ASSERT_TRUE(LoadJournal(path, geom, /*skip_through=*/2, &tail).ok());
    ASSERT_EQ(tail.records.size(), 1u);
    EXPECT_EQ(tail.records[0].seq, 3u);
    EXPECT_EQ(tail.skipped, 2);

    // Geometry hash mismatch fails closed: the journal must never be
    // replayed into a differently-shaped instance (typed as the config
    // error it is, distinct from kInternal corruption).
    JournalLoadResult wrong;
    EXPECT_EQ(LoadJournal(path, geom + 1, 0, &wrong).code,
              serving::StatusCode::kInvalidArgument);

    std::filesystem::remove_all(dir);
}

TEST(JournalTest, JournalAheadOfCheckpointFailsClosed)
{
    const std::string dir = TempPath("journal_ahead");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/journal.bin";

    Journal j;
    ASSERT_TRUE(j.Reset(path, /*base_seq=*/10, 1).ok());
    // A checkpoint covering only seq 5 cannot be completed by a journal
    // whose history starts after seq 10 — the gap means lost deltas.
    JournalLoadResult loaded;
    EXPECT_EQ(LoadJournal(path, 1, /*skip_through=*/5, &loaded).code,
              serving::StatusCode::kInternal);
    std::filesystem::remove_all(dir);
}

TEST(JournalTest, DamagedFinalRecordIsADroppableTail)
{
    const std::string dir = TempPath("journal_tail");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/journal.bin";
    const uint64_t geom = 7;

    Journal j;
    ASSERT_TRUE(j.Reset(path, 0, geom).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kAccess, 1, Payload(24, 1)).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kAccess, 2, Payload(24, 2)).ok());
    TruncateBy(path, 5);  // tear the last record mid-crc

    JournalLoadResult loaded;
    ASSERT_TRUE(LoadJournal(path, geom, 0, &loaded).ok());
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(loaded.records[0].seq, 1u);
    EXPECT_TRUE(loaded.dropped_tail);
    EXPECT_GT(loaded.dropped_tail_bytes, 0);
    std::filesystem::remove_all(dir);
}

TEST(JournalTest, MidJournalCorruptionFailsClosed)
{
    const std::string dir = TempPath("journal_mid");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/journal.bin";
    const uint64_t geom = 7;

    Journal j;
    ASSERT_TRUE(j.Reset(path, 0, geom).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kAccess, 1, Payload(24, 1)).ok());
    ASSERT_TRUE(
        j.Append(JournalRecordType::kAccess, 2, Payload(24, 2)).ok());
    // Flip a payload byte of record 1 (framing intact, CRC broken). A
    // valid record exists beyond it, so this is NOT a crash tail —
    // it is corruption, and recovery must refuse to guess.
    FlipByte(path, JournalFileHeaderBytes() + 26);

    JournalLoadResult loaded;
    EXPECT_EQ(LoadJournal(path, geom, 0, &loaded).code,
              serving::StatusCode::kInternal);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, AtomicRoundTripIsBitIdentical)
{
    const std::string dir = TempPath("ckpt_roundtrip");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/ckpt.bin";
    const CheckpointData d = MakeState(1);

    int64_t bytes = 0;
    ASSERT_TRUE(WriteCheckpointAtomic(path, d, false, &bytes).ok());
    EXPECT_EQ(bytes,
              CheckpointSerializedBytes(d.num_blocks, d.block_words,
                                        d.bucket_slots, d.levels,
                                        d.stash_capacity));
    EXPECT_EQ(static_cast<int64_t>(std::filesystem::file_size(path)),
              bytes);
    // No temp file left behind by the write/fsync/rename commit.
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

    CheckpointData r;
    ASSERT_TRUE(ReadCheckpoint(path, &r).ok());
    EXPECT_EQ(r.num_blocks, d.num_blocks);
    EXPECT_EQ(r.cipher_seed, d.cipher_seed);
    EXPECT_EQ(r.evict_counter, d.evict_counter);
    EXPECT_EQ(r.last_seq, d.last_seq);
    EXPECT_EQ(r.posmap_leaves, d.posmap_leaves);
    EXPECT_EQ(r.slot_id, d.slot_id);
    EXPECT_EQ(r.slot_leaf, d.slot_leaf);
    EXPECT_EQ(r.stash_id, d.stash_id);
    EXPECT_EQ(r.stash_leaf, d.stash_leaf);
    EXPECT_EQ(r.stash_data, d.stash_data);
    EXPECT_EQ(r.bucket_version, d.bucket_version);
    EXPECT_EQ(DurableGeometryHash(r), DurableGeometryHash(d));
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, SizeIsAPublicConstantOfTheGeometry)
{
    const std::string dir = TempPath("ckpt_size");
    ASSERT_TRUE(std::filesystem::create_directories(dir));

    // Dense (production) format: identical size whether the stash holds
    // 1 or 5 real blocks — occupancy must not be visible in the file.
    CheckpointData one = MakeState(2);
    one.stash_id[0] = 3;
    CheckpointData five = MakeState(2);
    for (size_t s = 0; s < 5; ++s) five.stash_id[s] = s;

    int64_t bytes_one = 0;
    int64_t bytes_five = 0;
    ASSERT_TRUE(WriteCheckpointAtomic(dir + "/a.bin", one, false,
                                      &bytes_one)
                    .ok());
    ASSERT_TRUE(WriteCheckpointAtomic(dir + "/b.bin", five, false,
                                      &bytes_five)
                    .ok());
    EXPECT_EQ(bytes_one, bytes_five);

    // The sparse negative control leaks exactly that: its size moves
    // with occupancy, which is why recovery refuses the format.
    ASSERT_TRUE(WriteCheckpointAtomic(dir + "/sa.bin", one, true,
                                      &bytes_one)
                    .ok());
    ASSERT_TRUE(WriteCheckpointAtomic(dir + "/sb.bin", five, true,
                                      &bytes_five)
                    .ok());
    EXPECT_LT(bytes_one, bytes_five);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, SparseNegativeControlRefusedAtRecovery)
{
    const std::string dir = TempPath("ckpt_sparse");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/ckpt.bin";
    ASSERT_TRUE(WriteCheckpointAtomic(path, MakeState(3), true, nullptr)
                    .ok());
    CheckpointData r;
    const serving::Status s = ReadCheckpoint(path, &r);
    EXPECT_EQ(s.code, serving::StatusCode::kInternal);
    EXPECT_NE(s.ToString().find("sparse"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(CheckpointTest, TornOrCorruptCheckpointFailsClosed)
{
    const std::string dir = TempPath("ckpt_torn");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string path = dir + "/ckpt.bin";
    const CheckpointData d = MakeState(4);
    CheckpointData r;

    ASSERT_TRUE(WriteCheckpointAtomic(path, d, false, nullptr).ok());
    FlipByte(path, 100);  // inside the payload: CRC must catch it
    EXPECT_EQ(ReadCheckpoint(path, &r).code,
              serving::StatusCode::kInternal);

    ASSERT_TRUE(WriteCheckpointAtomic(path, d, false, nullptr).ok());
    TruncateBy(path, 8);  // torn write: short file
    EXPECT_EQ(ReadCheckpoint(path, &r).code,
              serving::StatusCode::kInternal);

    EXPECT_EQ(ReadCheckpoint(dir + "/missing.bin", &r).code,
              serving::StatusCode::kInternal);
    std::filesystem::remove_all(dir);
}

TEST(FsyncTest, ParentDirSyncAndFileStoreCreation)
{
    const std::string dir = TempPath("fsync_parent");
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string file = dir + "/f.bin";
    { std::ofstream(file).put('x'); }
    EXPECT_TRUE(FsyncParentDir(file).ok());
    EXPECT_TRUE(FsyncDir(dir).ok());
    EXPECT_FALSE(FsyncDir(dir + "/nope").ok());

    // Regression: FileStore creation is durable — the store file must be
    // open-able with create=false immediately after the creating handle
    // closes (creation fsyncs the file AND its parent directory).
    StoreConfig sc;
    sc.backend = StoreBackend::kFile;
    sc.path = dir + "/pages.bin";
    sc.page_bytes = 256;
    sc.create = true;
    {
        std::unique_ptr<BackingStore> created;
        ASSERT_TRUE(MakeBackingStore(sc, 4, &created).ok());
    }
    sc.create = false;
    std::unique_ptr<BackingStore> reopened;
    EXPECT_TRUE(MakeBackingStore(sc, 4, &reopened).ok());
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace secemb::store
