#pragma once

/**
 * @file
 * Page-optimized RAW ORAM for out-of-core embedding tables (after
 * FEDORA-OramSim's page_optimized_raw_oram; the write-aware shape LAORAM
 * argues for at this scale).
 *
 * Layout: one tree bucket = one backing-store page, so bucket capacity
 * Z = page_bytes / block_bytes is large (a 4 KiB page holds 64 dim-16
 * rows) and the tree is shallow. Block metadata (slot ids + leaves) and
 * the stash stay client-side in RAM; only payload words live out of
 * core — FEDORA's split between index structures and page data.
 *
 * RAW (read/write-asymmetric) schedule:
 *  - Read path: fetch the levels+1 pages on the secret block's (random,
 *    never-reused) leaf path, obliviously extract the block into the
 *    stash, remap its leaf — and write NOTHING back. The extracted slot
 *    is invalidated in the RAM metadata; the stale on-disk payload is
 *    harmless because metadata is authoritative. Because whole pages are
 *    fetched (not single slots), repeated touches of a bucket leak no
 *    intra-bucket state, so the Ring-ORAM reshuffle machinery is not
 *    needed.
 *  - Eviction: every A accesses (eviction_period), one path in
 *    reverse-lexicographic order is read, merged with the stash, greedily
 *    repacked deepest-first with constant-time selects, re-encrypted
 *    under a bumped version, and written back. Reads therefore cost
 *    levels+1 page fetches; writes are amortized to (levels+1)/A pages
 *    per access.
 *
 * Observable schedule (recorded trace): page fetches/writes in
 * "store.oram.pages" (leaf paths = uniform randomness + the public
 * eviction counter), whole-stash scans in "store.raworam.stash", and
 * per-bucket metadata scans in "store.raworam.meta" — certified by the
 * verify harness as subject "raw_oram".
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "oram/crypto.h"
#include "oram/params.h"
#include "oram/tree_oram.h"
#include "sidechannel/trace.h"
#include "store/durable.h"
#include "store/page_cache.h"
#include "tensor/rng.h"

namespace secemb::store {

/** Tunables for one RawOram instance. */
struct RawOramConfig
{
    /** A: accesses between eviction passes. */
    int64_t eviction_period = 8;
    /** Position-map tunables (recursion threshold, fanout). */
    oram::OramParams posmap = oram::OramParams::Defaults(
        oram::OramKind::kPath);
    /**
     * Crash consistency: checkpoint + write-ahead journal directory and
     * tunables (see store/durable.h). Requires a flat (non-recursive)
     * position map and a file-backed store to be meaningful; durability
     * is off when `durability.dir` is empty.
     */
    DurabilityConfig durability;
};

/** Cumulative counters. */
struct RawOramStats
{
    int64_t accesses = 0;
    int64_t evictions = 0;
    int64_t page_reads = 0;
    int64_t page_writes = 0;
    int64_t stash_peak = 0;  ///< high-water real blocks in the stash
    int64_t checkpoints = 0;        ///< durable checkpoints sealed
    int64_t checkpoint_bytes = 0;   ///< bytes of the last checkpoint
    int64_t journal_appends = 0;    ///< records appended since creation
};

class RawOram
{
  public:
    static constexpr uint64_t kDummyId = oram::TreeOram::kDummyId;

    /**
     * Tree geometry for a given store page size: how many pages the
     * backing store must have. Callers size the store with this before
     * construction. Throws StoreError if a page cannot hold 2 blocks.
     */
    static int64_t PagesNeeded(int64_t num_blocks, int64_t block_words,
                               int64_t page_bytes);

    /**
     * @param num_blocks logical blocks (table rows)
     * @param block_words payload words per block (embedding dim)
     * @param cache page cache over a store of PagesNeeded() pages (owned)
     * @param rng leaf randomness (a private generator is split from it)
     */
    RawOram(int64_t num_blocks, int64_t block_words,
            std::unique_ptr<PageCache> cache, Rng& rng,
            const RawOramConfig& config);

    /**
     * Non-oblivious bulk initialisation (num_blocks x block_words words);
     * model weights are public in the threat model. Must be called once
     * before Read/Write.
     */
    serving::Status BulkLoad(std::span<const uint32_t> data);

    /** Oblivious read of block `id` into out (block_words). */
    serving::Status Read(int64_t id, std::span<uint32_t> out);

    /** Oblivious write of block `id` from in (block_words). */
    serving::Status Write(int64_t id, std::span<const uint32_t> in);

    /** Flush dirty cache frames and sync the store durably. */
    serving::Status Sync() { return cache_->Sync(); }

    /**
     * Seal a durable checkpoint now: sync the page store, serialize the
     * full client state (fixed-size sweep), commit it atomically, then
     * reset the journal to the checkpointed sequence number. Ok (no-op)
     * when durability is off. Automatic checkpoints fire from Access()
     * every `durability.checkpoint_interval` accesses and whenever the
     * journal reaches kJournalLimit records.
     */
    serving::Status Checkpoint();

    /**
     * Reopen a durable RawOram from `config.durability.dir`: load +
     * CRC-verify the checkpoint, validate its geometry against this
     * construction, replay the journal with strict sequence continuity,
     * rewrite every page the journal covers, and sync. Fails closed
     * (kInternal / kInvalidArgument) on a torn checkpoint, mid-journal
     * corruption, or duplicate/reordered sequence numbers; only a
     * damaged final record with nothing valid beyond it is dropped.
     *
     * `cache` must be over the SAME backing file the crashed instance
     * used (create=false), with PagesNeeded() pages.
     */
    static serving::Status Recover(int64_t num_blocks, int64_t block_words,
                                   std::unique_ptr<PageCache> cache,
                                   Rng& rng, const RawOramConfig& config,
                                   std::unique_ptr<RawOram>* out,
                                   RecoveryStats* stats = nullptr);

    bool durable() const { return durability_.enabled(); }
    /** Journal records since the last checkpoint. */
    int64_t journal_records() const { return journal_.records(); }
    /** What the last Recover() found (zero-valued for fresh instances). */
    const RecoveryStats& recovery_stats() const { return recovery_stats_; }

    int64_t num_blocks() const { return num_blocks_; }
    int64_t block_words() const { return block_words_; }
    int64_t num_leaves() const { return num_leaves_; }
    /** Leaf level index; the tree has levels()+1 levels. */
    int64_t levels() const { return levels_; }
    /** Z: blocks per bucket (= per page). */
    int64_t bucket_slots() const { return bucket_slots_; }
    int64_t stash_capacity() const { return stash_capacity_; }
    int64_t StashOccupancy() const;

    const RawOramStats& stats() const { return stats_; }
    PageCacheStats cache_stats() const { return cache_->stats(); }

    /**
     * Attach a trace sink for page, stash, metadata, checkpoint and
     * journal accesses, position map included (nullptr detaches). Trace
     * regions are reserved at construction, so attaching never moves
     * them.
     */
    void set_recorder(sidechannel::TraceRecorder* recorder)
    {
        recorder_ = recorder;
        posmap_.set_recorder(recorder);
    }

    /** Client-side resident bytes: metadata + stash + posmap + cache. */
    int64_t MemoryFootprintBytes() const;
    /** Bytes occupied in the backing store. */
    int64_t DiskFootprintBytes() const
    {
        return num_buckets_ * cache_->page_bytes();
    }

  private:
    enum class Op { kRead, kWrite };

    serving::Status Access(int64_t id, Op op, std::span<uint32_t> read_out,
                           std::span<const uint32_t> write_in);

    /** Eviction pass on the next reverse-lexicographic path. */
    serving::Status Evict();

    /** Fetch + decrypt the path pages of `leaf` into path_pages_. */
    serving::Status FetchPath(uint32_t leaf);

    /**
     * Eviction phase 2: greedy deepest-first repack of the stash into
     * the path of `leaf` (path_buckets_ must be filled), re-encrypt
     * under bumped versions, write the pages back. Shared between the
     * live Evict() and journal replay — it never reads the fetched page
     * content, which is what makes the evict record's pre-image replay
     * idempotent.
     */
    serving::Status RepackAndWriteBack(uint32_t leaf);

    // -- Durability ------------------------------------------------------
    /** First checkpoint + journal creation, called from BulkLoad. */
    serving::Status InitDurability();
    /** Journal the post-op (id, new_leaf, op, payload) delta + fsync. */
    serving::Status AppendAccessRecord(uint64_t id, uint32_t new_leaf,
                                       Op op, const uint32_t* block);
    /** Journal the decrypted path pre-image before phase-2 writes. */
    serving::Status AppendEvictRecord(uint64_t counter_before,
                                      uint32_t leaf);
    serving::Status MaybeAutoCheckpoint();
    CheckpointData BuildCheckpointData() const;
    serving::Status ReplayAccess(const JournalRecord& rec);
    serving::Status ReplayEvict(const JournalRecord& rec);
    /** Restore client state from a validated checkpoint. */
    serving::Status RestoreFromCheckpoint(const CheckpointData& d);
    void RecordJournalAppend(int64_t record_bytes);
    void RecordCheckpointWrite(int64_t bytes);

    oram::slots::Run StashRun();
    /** Bucket b's slot metadata over its page's payload words (null:
     *  metadata only). */
    oram::slots::Run BucketRun(int64_t b, uint32_t* words);
    /** The payload words of the fetched path page at `level`. */
    uint32_t* PathWords(int64_t level);

    void RecordPage(int64_t bucket, bool is_write);
    void RecordStashScan(bool is_write);
    void RecordMetaScan(int64_t bucket);

    int64_t num_blocks_;
    int64_t block_words_;
    int64_t bucket_slots_;  ///< Z
    int64_t levels_;
    int64_t num_leaves_;
    int64_t num_buckets_;
    int64_t eviction_period_;
    int64_t stash_capacity_;
    bool loaded_ = false;

    std::unique_ptr<PageCache> cache_;
    Rng rng_;

    // Client-side (RAM) state.
    std::vector<uint64_t> slot_id_;    ///< bucket*Z + z -> id or dummy
    std::vector<uint32_t> slot_leaf_;
    std::vector<uint64_t> stash_id_;
    std::vector<uint32_t> stash_leaf_;
    std::vector<uint32_t> stash_data_;
    std::vector<uint64_t> bucket_version_;
    oram::PositionMap posmap_;
    /** Persisted so a recovered instance decrypts the surviving pages. */
    uint64_t cipher_seed_;
    oram::BucketCipher cipher_;
    uint64_t evict_counter_ = 0;

    // Durable state (inert when durability_.enabled() is false).
    DurabilityConfig durability_;
    Journal journal_;
    uint64_t seq_ = 0;  ///< last journaled sequence number
    uint64_t geometry_hash_ = 0;
    std::string ckpt_path_;
    std::string journal_path_;
    int64_t accesses_since_ckpt_ = 0;
    std::vector<uint8_t> journal_payload_;  ///< reused append scratch
    RecoveryStats recovery_stats_;

    // Reused path scratch: (levels_+1) decrypted pages + bucket indices.
    std::vector<uint8_t> path_pages_;
    std::vector<int64_t> path_buckets_;

    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t pages_trace_base_ = 0;
    uint64_t stash_trace_base_ = 0;
    uint64_t meta_trace_base_ = 0;
    uint64_t ckpt_trace_base_ = 0;
    uint64_t journal_trace_base_ = 0;

    RawOramStats stats_;
};

}  // namespace secemb::store
