#include "store/raw_oram.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "oblivious/ct_ops.h"
#include "store/io_util.h"
#include "telemetry/telemetry.h"

namespace secemb::store {

namespace {

namespace slots = oram::slots;

using oblivious::EqMask;

int64_t
SlotsPerPage(int64_t block_words, int64_t page_bytes)
{
    const int64_t z =
        page_bytes / (block_words * static_cast<int64_t>(sizeof(uint32_t)));
    if (z < 2) {
        throw StoreError(serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram: page of " + std::to_string(page_bytes) +
                " bytes holds fewer than 2 blocks of " +
                std::to_string(block_words) + " words"));
    }
    return z;
}

/** Leaf count: leaf-level capacity ~2x the block count, power of two. */
int64_t
LeavesFor(int64_t num_blocks, int64_t slots_per_page)
{
    const int64_t min_leaves =
        std::max<int64_t>(1, (2 * num_blocks + slots_per_page - 1) /
                                 slots_per_page);
    int64_t leaves = 1;
    while (leaves < min_leaves) leaves <<= 1;
    return leaves;
}

int64_t
Log2(int64_t pow2)
{
    int64_t l = 0;
    while ((int64_t{1} << l) < pow2) ++l;
    return l;
}

/** A stash insert that found no empty slot cannot be recovered from. */
void
CheckStashRoom(bool fits, int64_t stash_capacity)
{
    if (!fits) {
        throw std::runtime_error("raw oram: stash overflow (capacity " +
                                 std::to_string(stash_capacity) + ")");
    }
}

}  // namespace

int64_t
RawOram::PagesNeeded(int64_t num_blocks, int64_t block_words,
                     int64_t page_bytes)
{
    const int64_t z = SlotsPerPage(block_words, page_bytes);
    return 2 * LeavesFor(num_blocks, z) - 1;
}

RawOram::RawOram(int64_t num_blocks, int64_t block_words,
                 std::unique_ptr<PageCache> cache, Rng& rng,
                 const RawOramConfig& config)
    : num_blocks_(num_blocks),
      block_words_(block_words),
      bucket_slots_(SlotsPerPage(block_words, cache->page_bytes())),
      levels_(Log2(LeavesFor(num_blocks, bucket_slots_))),
      num_leaves_(LeavesFor(num_blocks, bucket_slots_)),
      num_buckets_(2 * num_leaves_ - 1),
      eviction_period_(std::max<int64_t>(1, config.eviction_period)),
      // The path's slots, plus a margin of 8 blocks per access between
      // evictions and 64 spare.
      stash_capacity_(bucket_slots_ * (levels_ + 1) + 8 * eviction_period_ +
                      64),
      cache_(std::move(cache)),
      rng_(rng.Next()),
      posmap_(oram::OramKind::kPath, num_blocks,
              static_cast<uint32_t>(num_leaves_), rng, config.posmap),
      cipher_seed_(rng.Next()),
      cipher_(cipher_seed_),
      durability_(config.durability)
{
    if (cache_->num_pages() < num_buckets_) {
        throw StoreError(serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram: store has " + std::to_string(cache_->num_pages()) +
                " pages, tree needs " + std::to_string(num_buckets_) +
                " (size with RawOram::PagesNeeded)"));
    }
    slot_id_.assign(
        static_cast<size_t>(num_buckets_ * bucket_slots_), kDummyId);
    slot_leaf_.assign(static_cast<size_t>(num_buckets_ * bucket_slots_),
                      0);
    stash_id_.assign(static_cast<size_t>(stash_capacity_), kDummyId);
    stash_leaf_.assign(static_cast<size_t>(stash_capacity_), 0);
    stash_data_.assign(
        static_cast<size_t>(stash_capacity_ * block_words_), 0);
    bucket_version_.assign(static_cast<size_t>(num_buckets_), 0);
    path_pages_.resize(
        static_cast<size_t>((levels_ + 1) * cache_->page_bytes()));
    path_buckets_.resize(static_cast<size_t>(levels_ + 1));

    auto& space = sidechannel::ProcessAddressSpace();
    pages_trace_base_ = space.Reserve(
        static_cast<uint64_t>(num_buckets_ * cache_->page_bytes()), 4096,
        "store.oram.pages");
    stash_trace_base_ = space.Reserve(
        static_cast<uint64_t>(stash_capacity_ *
                              (16 + 4 * block_words_)),
        64, "store.raworam.stash");
    meta_trace_base_ = space.Reserve(
        static_cast<uint64_t>(num_buckets_ * bucket_slots_ * 16), 64,
        "store.raworam.meta");

    if (durability_.enabled()) {
        if (posmap_.recursive()) {
            throw StoreError(serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                "raw oram durability requires a flat position map "
                "(set posmap.enable_recursion = false)"));
        }
        ckpt_path_ = durability_.dir + "/ckpt.bin";
        journal_path_ = durability_.dir + "/journal.bin";
        CheckpointData g;
        g.num_blocks = num_blocks_;
        g.block_words = block_words_;
        g.bucket_slots = bucket_slots_;
        g.levels = levels_;
        g.stash_capacity = stash_capacity_;
        g.eviction_period = eviction_period_;
        geometry_hash_ = DurableGeometryHash(g);
        // The durable IO schedule is part of the observable trace: the
        // checkpoint region is one fixed-size record, the journal region
        // is bounded by kJournalLimit records of the (public) per-type
        // maximum size. Offsets within the journal region are the public
        // byte cursor since the last reset.
        const int64_t ckpt_bytes = CheckpointSerializedBytes(
            num_blocks_, block_words_, bucket_slots_, levels_,
            stash_capacity_);
        const int64_t max_record = std::max(
            JournalRecordBytes(JournalAccessPayloadBytes(block_words_)),
            JournalRecordBytes(JournalEvictPayloadBytes(
                (levels_ + 1) * bucket_slots_, block_words_)));
        ckpt_trace_base_ = space.Reserve(
            static_cast<uint64_t>(ckpt_bytes), 4096, "store.ckpt.state");
        // +1: an eviction record may ride after the access record that
        // reached the limit, before the auto-checkpoint fires.
        journal_trace_base_ = space.Reserve(
            static_cast<uint64_t>(
                JournalFileHeaderBytes() +
                (kJournalLimit + 1) * max_record),
            4096, "store.ckpt.journal");
    }
}

slots::Run
RawOram::StashRun()
{
    return {stash_id_.data(), stash_leaf_.data(), stash_data_.data(),
            stash_capacity_, block_words_};
}

slots::Run
RawOram::BucketRun(int64_t b, uint32_t* words)
{
    return {slot_id_.data() + b * bucket_slots_,
            slot_leaf_.data() + b * bucket_slots_, words, bucket_slots_,
            block_words_};
}

uint32_t*
RawOram::PathWords(int64_t level)
{
    return reinterpret_cast<uint32_t*>(path_pages_.data() +
                                       level * cache_->page_bytes());
}

void
RawOram::RecordPage(int64_t bucket, bool is_write)
{
    if (recorder_ != nullptr) {
        recorder_->Record(
            pages_trace_base_ +
                static_cast<uint64_t>(bucket * cache_->page_bytes()),
            static_cast<uint32_t>(cache_->page_bytes()), is_write);
    }
}

void
RawOram::RecordStashScan(bool is_write)
{
    if (recorder_ != nullptr) {
        recorder_->Record(
            stash_trace_base_,
            static_cast<uint32_t>(stash_capacity_ *
                                  (16 + 4 * block_words_)),
            is_write);
    }
}

void
RawOram::RecordMetaScan(int64_t bucket)
{
    if (recorder_ != nullptr) {
        recorder_->Record(
            meta_trace_base_ +
                static_cast<uint64_t>(bucket * bucket_slots_ * 16),
            static_cast<uint32_t>(bucket_slots_ * 16), false);
    }
}

serving::Status
RawOram::BulkLoad(std::span<const uint32_t> data)
{
    if (loaded_) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram: already bulk-loaded");
    }
    if (data.size() !=
        static_cast<size_t>(num_blocks_ * block_words_)) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram: bulk load size mismatch");
    }
    // Greedy deepest-first placement, metadata only (RAM).
    const slots::Run tree{slot_id_.data(), slot_leaf_.data(), nullptr,
                          num_buckets_ * bucket_slots_, block_words_};
    if (!slots::PlaceDeepestFirst(posmap_.initial_leaves(), levels_,
                                  bucket_slots_, tree, StashRun())) {
        return serving::Status::Error(
            serving::StatusCode::kResourceExhausted,
            "raw oram: bulk load overflowed the stash");
    }
    slots::CopyPayloads(StashRun(), data);

    // Stream the payload pages out in bucket order.
    const int64_t page_bytes = cache_->page_bytes();
    const int64_t page_words = bucket_slots_ * block_words_;
    std::vector<uint8_t> page(static_cast<size_t>(page_bytes), 0);
    for (int64_t b = 0; b < num_buckets_; ++b) {
        std::memset(page.data(), 0, page.size());
        auto* words = reinterpret_cast<uint32_t*>(page.data());
        slots::CopyPayloads(BucketRun(b, words), data);
        bucket_version_[static_cast<size_t>(b)] = 1;
        cipher_.Apply(
            b, 1, std::span<uint32_t>(words, static_cast<size_t>(page_words)));
        if (auto s = cache_->WritePage(b, page); !s.ok()) return s;
    }
    loaded_ = true;
    // Durable instances seal checkpoint #0 now so recovery always has a
    // base state (bulk load itself is re-runnable, never journaled).
    if (durability_.enabled()) return InitDurability();
    return serving::Status::Ok();
}

serving::Status
RawOram::FetchPath(uint32_t leaf)
{
    const int64_t page_bytes = cache_->page_bytes();
    const int64_t page_words = bucket_slots_ * block_words_;
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = slots::BucketOnPath(levels_, leaf, level);
        path_buckets_[static_cast<size_t>(level)] = b;
        RecordPage(b, false);
        std::span<uint8_t> dst{
            path_pages_.data() + level * page_bytes,
            static_cast<size_t>(page_bytes)};
        if (auto s = cache_->ReadPage(b, dst); !s.ok()) return s;
        stats_.page_reads++;
        // Bulk load leaves every bucket at version 1 or later.
        cipher_.Apply(b, bucket_version_[static_cast<size_t>(b)],
                      std::span<uint32_t>(
                          reinterpret_cast<uint32_t*>(dst.data()),
                          static_cast<size_t>(page_words)));
    }
    return serving::Status::Ok();
}

serving::Status
RawOram::Access(int64_t id, Op op, std::span<uint32_t> read_out,
                std::span<const uint32_t> write_in)
{
    if (!loaded_) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "raw oram: not bulk-loaded");
    }
    if (id < 0 || id >= num_blocks_) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "block id " + std::to_string(id) + " out of range [0, " +
                std::to_string(num_blocks_) + ")");
    }
    TELEMETRY_SPAN("store.raw_oram.access");
    const auto uid = static_cast<uint64_t>(id);
    const auto new_leaf =
        static_cast<uint32_t>(rng_.NextBounded(
            static_cast<uint64_t>(num_leaves_)));
    const uint32_t old_leaf = posmap_.Update(id, new_leaf);

    // Oblivious extraction from the stash (the block may still be there
    // from an earlier access in the current eviction window).
    std::vector<uint32_t> block(static_cast<size_t>(block_words_), 0);
    RecordStashScan(false);
    uint64_t found = slots::Take(StashRun(), uid, block.data());

    // Read path: levels+1 whole-page fetches, no write-back (RAW).
    if (auto s = FetchPath(old_leaf); !s.ok()) return s;
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = path_buckets_[static_cast<size_t>(level)];
        RecordMetaScan(b);
        found |= slots::Take(BucketRun(b, PathWords(level)), uid,
                             block.data());
    }
    assert(found != 0 && "bulk-loaded block must exist");
    (void)found;

    if (op == Op::kWrite) {
        std::memcpy(block.data(), write_in.data(),
                    static_cast<size_t>(block_words_) * sizeof(uint32_t));
    }
    RecordStashScan(true);
    CheckStashRoom(slots::Insert(StashRun(), ~uint64_t{0}, uid, new_leaf,
                                 block.data()),
                   stash_capacity_);
    if (op == Op::kRead) {
        std::memcpy(read_out.data(), block.data(),
                    static_cast<size_t>(block_words_) * sizeof(uint32_t));
    }

    // The ack point: the delta is durable before the caller sees Ok.
    // (The payload is journaled for reads too — a RAW read invalidates
    // the on-disk slot and the block then lives only in the RAM stash.)
    if (durability_.enabled()) {
        if (auto s = AppendAccessRecord(uid, new_leaf, op, block.data());
            !s.ok()) {
            return s;
        }
    }

    stats_.accesses++;
    stats_.stash_peak = std::max(stats_.stash_peak, StashOccupancy());
    if (stats_.accesses % eviction_period_ == 0) {
        if (auto s = Evict(); !s.ok()) return s;
    }
    return MaybeAutoCheckpoint();
}

serving::Status
RawOram::Evict()
{
    TELEMETRY_SPAN("store.raw_oram.evict");
    const uint64_t counter_before = evict_counter_;
    const uint32_t leaf = slots::EvictionLeaf(levels_, evict_counter_++);
    if (auto s = FetchPath(leaf); !s.ok()) return s;

    // Journal the decrypted path pre-image BEFORE any mutation or page
    // write: replay re-executes phase 1 from the record and phase 2
    // deterministically, so a crash at any point mid-write-back recovers
    // by rewriting the whole path.
    if (durability_.enabled()) {
        if (auto s = AppendEvictRecord(counter_before, leaf); !s.ok()) {
            return s;
        }
        MaybeCrash(CrashSite::kEvictAfterJournal);
    }

    // Phase 1: pull every real path block into the stash (mask-gated
    // insert per slot; dummies insert nothing but cost the same scan).
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = path_buckets_[static_cast<size_t>(level)];
        RecordMetaScan(b);
        for (int64_t z = 0; z < bucket_slots_; ++z) RecordStashScan(true);
        CheckStashRoom(
            slots::Drain(BucketRun(b, PathWords(level)), StashRun()),
            stash_capacity_);
    }
    stats_.stash_peak = std::max(stats_.stash_peak, StashOccupancy());

    if (auto s = RepackAndWriteBack(leaf); !s.ok()) return s;
    stats_.evictions++;
    return serving::Status::Ok();
}

serving::Status
RawOram::RepackAndWriteBack(uint32_t leaf)
{
    const int64_t page_bytes = cache_->page_bytes();
    const int64_t page_words = bucket_slots_ * block_words_;
    // Phase 2: greedy deepest-first repack with constant-time selects,
    // then re-encrypt under a fresh version and write the page back.
    // Never reads the fetched page content (pages are rebuilt from the
    // stash), which is what lets journal replay re-run it idempotently.
    for (int64_t level = levels_; level >= 0; --level) {
        const int64_t b = path_buckets_[static_cast<size_t>(level)];
        RecordMetaScan(b);
        auto* page = path_pages_.data() + level * page_bytes;
        std::memset(page, 0, static_cast<size_t>(page_bytes));
        auto* words = reinterpret_cast<uint32_t*>(page);
        // One stash scan per slot filled.
        for (int64_t z = 0; z < bucket_slots_; ++z) RecordStashScan(false);
        slots::Fill(StashRun(), BucketRun(b, words), levels_, leaf, level);
        const uint64_t version = ++bucket_version_[static_cast<size_t>(b)];
        cipher_.Apply(
            b, version,
            std::span<uint32_t>(words, static_cast<size_t>(page_words)));
        RecordPage(b, true);
        std::span<const uint8_t> src{page,
                                     static_cast<size_t>(page_bytes)};
        if (auto s = cache_->WritePage(b, src); !s.ok()) return s;
        stats_.page_writes++;
        MaybeCrash(CrashSite::kEvictMidPages);
    }
    return serving::Status::Ok();
}

serving::Status
RawOram::Read(int64_t id, std::span<uint32_t> out)
{
    if (out.size() != static_cast<size_t>(block_words_)) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram read: bad block buffer size");
    }
    return Access(id, Op::kRead, out, {});
}

serving::Status
RawOram::Write(int64_t id, std::span<const uint32_t> in)
{
    if (in.size() != static_cast<size_t>(block_words_)) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram write: bad block buffer size");
    }
    return Access(id, Op::kWrite, {}, in);
}

// ---------------------------------------------------------------------------
// Durability: checkpoint, journal, recovery replay
// ---------------------------------------------------------------------------

serving::Status
RawOram::InitDurability()
{
    return Checkpoint();
}

void
RawOram::RecordJournalAppend(int64_t record_bytes)
{
    if (recorder_ != nullptr) {
        // journal_.bytes() already includes this record; the write
        // started at the (public) cursor before it.
        recorder_->Record(
            journal_trace_base_ +
                static_cast<uint64_t>(JournalFileHeaderBytes() +
                                      journal_.bytes() - record_bytes),
            static_cast<uint32_t>(record_bytes), true);
    }
}

void
RawOram::RecordCheckpointWrite(int64_t bytes)
{
    if (recorder_ == nullptr) return;
    // The serializer's stash sweep is modelled at slot granularity. The
    // full-sweep format serializes every slot, occupied or dummy, so the
    // trace is a geometry constant: fixed prefix + stash_capacity slot
    // records + fixed trailer. The sparse negative control gathers only
    // occupied slots — its record count and offsets follow the
    // (secret-dependent) stash occupancy, which is exactly the leak the
    // statistical engine must reject.
    const uint64_t entry_bytes =
        12 + 4 * static_cast<uint64_t>(block_words_);
    // 24-byte prologue + 11 scalar fields + posmap + slot tables.
    const uint64_t prefix_bytes =
        24 + 11 * 8 + 4 * static_cast<uint64_t>(num_blocks_) +
        12 * static_cast<uint64_t>(num_buckets_ * bucket_slots_);
    recorder_->Record(ckpt_trace_base_,
                      static_cast<uint32_t>(prefix_bytes), true);
    // The sparse serializer packs occupied entries sequentially, so the
    // write cursor (and the record count) IS the occupancy; the dense
    // sweep writes slot s at offset s regardless.
    uint64_t cursor = 0;
    for (int64_t s = 0; s < stash_capacity_; ++s) {
        if (durability_.unsafe_sparse_checkpoint &&
            stash_id_[static_cast<size_t>(s)] == kDummyId) {
            continue;
        }
        const uint64_t pos = durability_.unsafe_sparse_checkpoint
                                 ? cursor++
                                 : static_cast<uint64_t>(s);
        recorder_->Record(ckpt_trace_base_ + prefix_bytes +
                              pos * entry_bytes,
                          static_cast<uint32_t>(entry_bytes), true);
    }
    const uint64_t trailer_off =
        prefix_bytes +
        static_cast<uint64_t>(stash_capacity_) * entry_bytes;
    recorder_->Record(
        ckpt_trace_base_ + trailer_off,
        static_cast<uint32_t>(8 * static_cast<uint64_t>(num_buckets_) + 4),
        true);
    (void)bytes;
}

serving::Status
RawOram::AppendAccessRecord(uint64_t id, uint32_t new_leaf, Op op,
                            const uint32_t* block)
{
    journal_payload_.clear();
    PutU64(&journal_payload_, id);
    PutU32(&journal_payload_, new_leaf);
    PutU32(&journal_payload_, op == Op::kWrite ? 1u : 0u);
    PutBytes(&journal_payload_, block,
             static_cast<size_t>(block_words_) * sizeof(uint32_t));

    if (auto s = journal_.Append(JournalRecordType::kAccess, seq_ + 1,
                                 journal_payload_);
        !s.ok()) {
        return s;
    }
    seq_++;
    accesses_since_ckpt_++;
    stats_.journal_appends++;
    RecordJournalAppend(JournalRecordBytes(
        static_cast<int64_t>(journal_payload_.size())));
    return serving::Status::Ok();
}

serving::Status
RawOram::AppendEvictRecord(uint64_t counter_before, uint32_t leaf)
{
    // Captured after FetchPath and before phase 1: slot metadata and the
    // decrypted page content are still the pre-eviction state.
    journal_payload_.clear();
    PutU64(&journal_payload_, counter_before);
    PutU32(&journal_payload_, leaf);
    PutU32(&journal_payload_, 0);  // pad
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = path_buckets_[static_cast<size_t>(level)];
        const uint32_t* words = PathWords(level);
        for (int64_t z = 0; z < bucket_slots_; ++z) {
            const size_t slot =
                static_cast<size_t>(b * bucket_slots_ + z);
            PutU64(&journal_payload_, slot_id_[slot]);
            PutU32(&journal_payload_, slot_leaf_[slot]);
            PutBytes(&journal_payload_, words + z * block_words_,
                     static_cast<size_t>(block_words_) * sizeof(uint32_t));
        }
    }

    if (auto s = journal_.Append(JournalRecordType::kEvict, seq_ + 1,
                                 journal_payload_);
        !s.ok()) {
        return s;
    }
    seq_++;
    stats_.journal_appends++;
    RecordJournalAppend(JournalRecordBytes(
        static_cast<int64_t>(journal_payload_.size())));
    return serving::Status::Ok();
}

CheckpointData
RawOram::BuildCheckpointData() const
{
    CheckpointData d;
    d.num_blocks = num_blocks_;
    d.block_words = block_words_;
    d.bucket_slots = bucket_slots_;
    d.levels = levels_;
    d.stash_capacity = stash_capacity_;
    d.eviction_period = eviction_period_;
    d.cipher_seed = cipher_seed_;
    d.evict_counter = evict_counter_;
    d.last_seq = seq_;
    d.accesses = stats_.accesses;
    d.evictions = stats_.evictions;
    d.slot_id = slot_id_;
    d.slot_leaf = slot_leaf_;
    d.stash_id = stash_id_;
    d.stash_leaf = stash_leaf_;
    d.stash_data = stash_data_;
    d.bucket_version = bucket_version_;
    return d;
}

serving::Status
RawOram::Checkpoint()
{
    if (!durability_.enabled()) return serving::Status::Ok();
    if (!loaded_) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "raw oram: not bulk-loaded");
    }
    TELEMETRY_SPAN("store.ckpt.write");
    // Pages first: the checkpoint asserts "all page writes with seq <=
    // last_seq are on disk", which replay relies on to skip re-reading.
    if (auto s = cache_->Sync(); !s.ok()) return s;
    CheckpointData d = BuildCheckpointData();
    if (auto s = posmap_.SnapshotLeaves(&d.posmap_leaves); !s.ok()) {
        return s;
    }
    int64_t bytes = 0;
    if (auto s = WriteCheckpointAtomic(ckpt_path_, d,
                                       durability_.unsafe_sparse_checkpoint,
                                       &bytes);
        !s.ok()) {
        return s;
    }
    stats_.checkpoints++;
    stats_.checkpoint_bytes = bytes;
    RecordCheckpointWrite(bytes);
    TELEMETRY_COUNT("store.ckpt.checkpoints", 1);
    // Crash window: checkpoint renamed, journal not yet reset. Recovery
    // handles it by skipping journal records with seq <= last_seq.
    MaybeCrash(CrashSite::kCheckpointAfterRename);
    if (auto s = journal_.Reset(journal_path_, seq_, geometry_hash_);
        !s.ok()) {
        return s;
    }
    accesses_since_ckpt_ = 0;
    return serving::Status::Ok();
}

serving::Status
RawOram::MaybeAutoCheckpoint()
{
    if (!durability_.enabled()) return serving::Status::Ok();
    const bool interval_due =
        durability_.checkpoint_interval > 0 &&
        accesses_since_ckpt_ >= durability_.checkpoint_interval;
    const bool journal_full = journal_.records() >= kJournalLimit;
    if (interval_due || journal_full) return Checkpoint();
    return serving::Status::Ok();
}

serving::Status
RawOram::RestoreFromCheckpoint(const CheckpointData& d)
{
    if (d.num_blocks != num_blocks_ || d.block_words != block_words_ ||
        d.bucket_slots != bucket_slots_ || d.levels != levels_ ||
        d.stash_capacity != stash_capacity_ ||
        d.eviction_period != eviction_period_) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "checkpoint geometry does not match this construction "
            "(same num_blocks/block_words/page_bytes/stash/eviction "
            "period required)");
    }
    if (auto s = posmap_.RestoreLeaves(d.posmap_leaves); !s.ok()) {
        return s;
    }
    slot_id_ = d.slot_id;
    slot_leaf_ = d.slot_leaf;
    stash_id_ = d.stash_id;
    stash_leaf_ = d.stash_leaf;
    stash_data_ = d.stash_data;
    bucket_version_ = d.bucket_version;
    cipher_seed_ = d.cipher_seed;
    cipher_ = oram::BucketCipher(cipher_seed_);
    evict_counter_ = d.evict_counter;
    seq_ = d.last_seq;
    stats_.accesses = d.accesses;
    stats_.evictions = d.evictions;
    return serving::Status::Ok();
}

serving::Status
RawOram::ReplayAccess(const JournalRecord& rec)
{
    ByteReader r(rec.payload.data(), rec.payload.size());
    uint64_t id = 0;
    uint32_t new_leaf = 0, op = 0;
    std::vector<uint32_t> block;
    if (rec.payload.size() !=
            static_cast<size_t>(JournalAccessPayloadBytes(block_words_)) ||
        !r.GetU64(&id) || !r.GetU32(&new_leaf) || !r.GetU32(&op) ||
        !r.GetVec(&block, static_cast<size_t>(block_words_))) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "access record " + std::to_string(rec.seq) +
                " has a malformed payload");
    }
    if (id >= static_cast<uint64_t>(num_blocks_) ||
        new_leaf >= static_cast<uint32_t>(num_leaves_)) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "access record " + std::to_string(rec.seq) +
                " references out-of-range block or leaf");
    }

    // Re-execute the RAM effect of the access: the fetched path is
    // determined by the (restored) posmap, the inserted payload by the
    // record. No page IO — reads wrote nothing back.
    const uint32_t old_leaf =
        posmap_.Update(static_cast<int64_t>(id), new_leaf);
    slots::Take(StashRun(), id, nullptr);
    for (int64_t level = 0; level <= levels_; ++level) {
        slots::Take(
            BucketRun(slots::BucketOnPath(levels_, old_leaf, level), nullptr),
            id, nullptr);
    }
    CheckStashRoom(
        slots::Insert(StashRun(), ~uint64_t{0}, id, new_leaf, block.data()),
        stash_capacity_);
    stats_.accesses++;
    return serving::Status::Ok();
}

serving::Status
RawOram::ReplayEvict(const JournalRecord& rec)
{
    const int64_t path_slots = (levels_ + 1) * bucket_slots_;
    ByteReader r(rec.payload.data(), rec.payload.size());
    uint64_t counter = 0;
    uint32_t rec_leaf = 0, pad = 0;
    if (rec.payload.size() !=
            static_cast<size_t>(
                JournalEvictPayloadBytes(path_slots, block_words_)) ||
        !r.GetU64(&counter) || !r.GetU32(&rec_leaf) || !r.GetU32(&pad)) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "evict record " + std::to_string(rec.seq) +
                " has a malformed payload");
    }
    if (counter != evict_counter_) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "evict record " + std::to_string(rec.seq) +
                " is out of order: counter " + std::to_string(counter) +
                " vs expected " + std::to_string(evict_counter_));
    }
    const uint32_t leaf = slots::EvictionLeaf(levels_, evict_counter_++);
    if (rec_leaf != leaf) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "evict record " + std::to_string(rec.seq) +
                " names leaf " + std::to_string(rec_leaf) +
                ", schedule says " + std::to_string(leaf));
    }

    // Phase 1 from the journaled pre-image (the live pass read it from
    // the decrypted pages; the record captured exactly that).
    for (int64_t level = 0; level <= levels_; ++level) {
        path_buckets_[static_cast<size_t>(level)] =
            slots::BucketOnPath(levels_, leaf, level);
    }
    // The size check above covers every slot read below.
    std::vector<uint32_t> block;
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = path_buckets_[static_cast<size_t>(level)];
        for (int64_t z = 0; z < bucket_slots_; ++z) {
            uint64_t e_id = 0;
            uint32_t e_leaf = 0;
            r.GetU64(&e_id);
            r.GetU32(&e_leaf);
            r.GetVec(&block, static_cast<size_t>(block_words_));
            const uint64_t valid = ~EqMask(e_id, kDummyId);
            CheckStashRoom(slots::Insert(StashRun(), valid, e_id, e_leaf,
                                         block.data()),
                           stash_capacity_);
            slot_id_[static_cast<size_t>(b * bucket_slots_ + z)] =
                kDummyId;
        }
    }
    // Phase 2 is deterministic given the stash + metadata, and rewrites
    // every page of the path — idempotent over however many of the
    // original page writes reached disk before the crash.
    if (auto s = RepackAndWriteBack(leaf); !s.ok()) return s;
    stats_.evictions++;
    return serving::Status::Ok();
}

serving::Status
RawOram::Recover(int64_t num_blocks, int64_t block_words,
                 std::unique_ptr<PageCache> cache, Rng& rng,
                 const RawOramConfig& config, std::unique_ptr<RawOram>* out,
                 RecoveryStats* stats)
{
    if (!config.durability.enabled()) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "raw oram recovery requires durability.dir");
    }
    TELEMETRY_SPAN("store.ckpt.recover");
    std::unique_ptr<RawOram> oram;
    try {
        oram = std::make_unique<RawOram>(num_blocks, block_words,
                                         std::move(cache), rng, config);
    } catch (const StoreError& e) {
        return e.status();
    }

    CheckpointData d;
    if (auto s = ReadCheckpoint(oram->ckpt_path_, &d); !s.ok()) return s;
    if (auto s = oram->RestoreFromCheckpoint(d); !s.ok()) return s;

    JournalLoadResult load;
    if (auto s = LoadJournal(oram->journal_path_, oram->geometry_hash_,
                             oram->seq_, &load);
        !s.ok()) {
        return s;
    }
    oram->recovery_stats_ = RecoveryStats{};
    oram->recovery_stats_.checkpoint_seq = d.last_seq;
    oram->recovery_stats_.skipped_records = load.skipped;
    oram->recovery_stats_.dropped_tail = load.dropped_tail;
    oram->recovery_stats_.dropped_tail_bytes = load.dropped_tail_bytes;

    oram->loaded_ = true;
    try {
        for (const JournalRecord& rec : load.records) {
            serving::Status s;
            if (rec.type == JournalRecordType::kAccess) {
                s = oram->ReplayAccess(rec);
                oram->recovery_stats_.replayed_accesses++;
            } else {
                s = oram->ReplayEvict(rec);
                oram->recovery_stats_.replayed_evictions++;
            }
            if (!s.ok()) return s;
            oram->seq_ = rec.seq;
        }
    } catch (const std::exception& e) {
        // A CRC-valid but semantically impossible record (stash
        // overflow, ...) must fail closed, not crash the recoverer.
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            std::string("journal replay failed: ") + e.what());
    }
    oram->recovery_stats_.last_seq = oram->seq_;

    // Make the replayed page writes (and the store's CRC table) durable
    // before serving: recovery must converge, not defer.
    if (auto s = oram->cache_->Sync(); !s.ok()) return s;
    if (auto s = oram->journal_.OpenForAppend(
            oram->journal_path_,
            load.skipped + static_cast<int64_t>(load.records.size()),
            load.file_bytes - JournalFileHeaderBytes());
        !s.ok()) {
        return s;
    }
    TELEMETRY_COUNT("store.ckpt.recoveries", 1);
    if (stats != nullptr) *stats = oram->recovery_stats_;
    *out = std::move(oram);
    return serving::Status::Ok();
}

int64_t
RawOram::StashOccupancy() const
{
    int64_t n = 0;
    for (const uint64_t id : stash_id_) {
        if (id != kDummyId) ++n;
    }
    return n;
}

int64_t
RawOram::MemoryFootprintBytes() const
{
    const int64_t metadata =
        static_cast<int64_t>(slot_id_.size() * sizeof(uint64_t) +
                             slot_leaf_.size() * sizeof(uint32_t));
    const int64_t stash =
        static_cast<int64_t>(stash_id_.size() * sizeof(uint64_t) +
                             stash_leaf_.size() * sizeof(uint32_t) +
                             stash_data_.size() * sizeof(uint32_t));
    const int64_t scratch = static_cast<int64_t>(
        path_pages_.size() +
        bucket_version_.size() * sizeof(uint64_t));
    const int64_t cache_bytes =
        cache_->capacity_pages() * cache_->page_bytes();
    return metadata + stash + scratch + cache_bytes +
           posmap_.FootprintBytes();
}

}  // namespace secemb::store
