#pragma once

/**
 * @file
 * Tree-based ORAM: Path ORAM [Stefanov et al.] and Circuit ORAM
 * [Wang et al.] controllers with recursive oblivious position maps,
 * re-implemented from scratch after ZeroTrace [Sasy et al.] (the paper's
 * software baseline, Section V-A1).
 *
 * Payloads are opaque 32-bit words (embedding floats are bit-cast by the
 * caller), so the same controller serves both the data ORAM and the packed
 * position-map ORAMs of the recursion.
 *
 * Client-side state (stash, flat position map) is accessed exclusively via
 * full linear scans with constant-time selects, as ZeroTrace does, so the
 * controller itself does not reintroduce a secret-dependent access pattern.
 * Tree bucket addresses depend only on (a) leaves that were assigned
 * uniformly at random and never reused after being revealed, and (b) a
 * public eviction counter (Circuit ORAM) — the standard ORAM security
 * argument.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "oram/crypto.h"
#include "oram/params.h"
#include "oram/slots.h"
#include "serving/status.h"
#include "sidechannel/trace.h"
#include "tensor/rng.h"

namespace secemb::oram {

class TreeOram;

/**
 * Position map: block id -> tree leaf.
 *
 * Small maps are a flat array scanned obliviously on every update; large
 * maps pack `posmap_fanout` leaves per block into a child TreeOram of the
 * same kind, recursively (the paper enables recursion above 2^16 blocks
 * for Path ORAM and 2^12 for Circuit ORAM).
 */
class PositionMap
{
  public:
    /**
     * @param kind algorithm used by recursive child ORAMs
     * @param num_ids number of positions tracked
     * @param leaf_bound leaves are drawn uniformly from [0, leaf_bound)
     * @param rng randomness source for initial and replacement leaves
     * @param params inherited ORAM parameters
     */
    PositionMap(OramKind kind, int64_t num_ids, uint32_t leaf_bound,
                Rng& rng, const OramParams& params);
    ~PositionMap();

    /** Returns the current leaf of `id` and replaces it with new_leaf. */
    uint32_t Update(int64_t id, uint32_t new_leaf);

    /** Initial leaf of every id, only valid before the first Update. */
    const std::vector<uint32_t>& initial_leaves() const
    {
        return initial_leaves_;
    }

    int64_t FootprintBytes() const;
    bool recursive() const { return child_ != nullptr; }
    /** Trace sink for the flat map's scans, or for every access of the
     *  recursive child ORAM (nullptr detaches). */
    void set_recorder(sidechannel::TraceRecorder* recorder);

    /**
     * Copy of the current leaf of every id, for checkpointing. Flat maps
     * only (durable configurations disable posmap recursion); a recursive
     * map returns kInvalidArgument and leaves `out` untouched.
     */
    serving::Status SnapshotLeaves(std::vector<uint32_t>* out) const;
    /** Replace the full leaf table from a checkpoint (flat maps only). */
    serving::Status RestoreLeaves(const std::vector<uint32_t>& leaves);

  private:
    int64_t num_ids_;
    int fanout_;
    bool inline_select_ = true;
    std::vector<uint32_t> flat_;            ///< flat representation
    std::unique_ptr<TreeOram> child_;       ///< recursive representation
    std::vector<uint32_t> initial_leaves_;  ///< for BulkLoad of the parent
    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t trace_base_ = 0;
};

/**
 * A Path or Circuit ORAM instance over `num_blocks` fixed-size blocks.
 *
 * Thread-compatibility: not thread-safe; accesses mutate internal state
 * (exactly why the paper notes ORAM batches are processed sequentially).
 */
class TreeOram
{
  public:
    /** Sentinel id marking an empty block slot. */
    static constexpr uint64_t kDummyId = slots::kDummyId;

    /**
     * @param kind Path or Circuit
     * @param num_blocks logical blocks stored
     * @param block_words payload words per block
     * @param rng leaf randomness (a private generator is split from it)
     * @param params tunables; see OramParams::Defaults
     */
    TreeOram(OramKind kind, int64_t num_blocks, int64_t block_words,
             Rng& rng, OramParams params);

    /** Oblivious read of block `id` into out (block_words). */
    void Read(int64_t id, std::span<uint32_t> out);

    /** Oblivious write of block `id` from in (block_words). */
    void Write(int64_t id, std::span<const uint32_t> in);

    /**
     * Oblivious read-modify-write of one word inside block `id`; returns
     * the previous word value. One ORAM access total — used by recursive
     * position maps.
     */
    uint32_t RmwWord(int64_t id, int64_t word_idx, uint32_t new_word);

    /**
     * Non-oblivious bulk initialisation from flat data
     * (num_blocks x block_words). Permissible because model weights are
     * public in the threat model — only query indices are secret.
     */
    void BulkLoad(std::span<const uint32_t> data);

    /** Total controller footprint: tree + stash + position maps. */
    int64_t MemoryFootprintBytes() const;

    /**
     * Attach a trace sink for tree, stash and position-map accesses,
     * recursive maps included (nullptr detaches). Trace regions are
     * reserved at construction, so attaching never moves them.
     */
    void set_recorder(sidechannel::TraceRecorder* recorder);

    /**
     * A new generator seeded from one draw of the private leaf generator
     * (the coalescing proxy takes its dummy ids from one).
     */
    Rng SplitRng() { return Rng(rng_.Next()); }

    const OramStats& stats() const { return stats_; }
    int64_t num_blocks() const { return num_blocks_; }
    int64_t block_words() const { return block_words_; }
    int64_t num_leaves() const { return num_leaves_; }
    /** Tree levels, root = 0 .. levels() = leaf level. */
    int64_t levels() const { return levels_; }
    /** Current number of real blocks in the stash (for overflow tests). */
    int64_t StashOccupancy() const;
    OramKind kind() const { return kind_; }

  private:
    enum class Op { kRead, kWrite, kRmw };

    OramKind kind_;
    int64_t num_blocks_;
    int64_t block_words_;
    OramParams params_;
    Rng rng_;

    int64_t levels_;      ///< leaf level index; tree has levels_+1 levels
    int64_t num_leaves_;  ///< 2^levels_
    int64_t num_buckets_;

    // Tree storage, slot-major: slot s of bucket b is index b * Z + s.
    std::vector<uint64_t> slot_id_;
    std::vector<uint32_t> slot_leaf_;
    std::vector<uint32_t> slot_data_;

    // Stash.
    std::vector<uint64_t> stash_id_;
    std::vector<uint32_t> stash_leaf_;
    std::vector<uint32_t> stash_data_;

    PositionMap posmap_;
    uint64_t evict_counter_ = 0;  ///< Circuit ORAM reverse-lex schedule

    // Payload encryption state: one version counter per bucket; version 0
    // means "still the zero-filled / bulk-loaded plaintext".
    BucketCipher cipher_;
    std::vector<uint64_t> bucket_version_;

    OramStats stats_;
    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t tree_trace_base_ = 0;
    uint64_t stash_trace_base_ = 0;

    // -- helpers -----------------------------------------------------------

    void Access(int64_t id, Op op, std::span<uint32_t> read_out,
                std::span<const uint32_t> write_in, int64_t word_idx,
                uint32_t word_val, uint32_t* old_word);

    uint32_t RandomLeaf();

    uint64_t Sel(uint64_t mask, uint64_t a, uint64_t b) const;
    /** The select flavour params_.inline_select asks for. */
    slots::Cmov cmov() const
    {
        return params_.inline_select ? slots::Cmov::kInline
                                     : slots::Cmov::kOutOfLine;
    }
    slots::Run StashRun();
    slots::Run BucketRun(int64_t bucket);

    void RecordBucket(int64_t bucket, bool is_write);
    void RecordStashScan(bool is_write);
    void PayOcall();

    /** Undo the current ciphertext of bucket b (no-op at version 0). */
    void DecryptBucket(int64_t b);
    /** Re-encrypt bucket b under a fresh version. */
    void EncryptBucket(int64_t b);

    // Path ORAM phases.
    void PathReadPathToStash(uint32_t leaf);
    void PathWriteBack(uint32_t leaf);

    // Circuit ORAM phases.
    void CircuitReadBlockFromPath(uint32_t leaf, int64_t id,
                                  std::span<uint32_t> data_out);
    void CircuitEvictOnce(uint32_t path_leaf);
};

/** Convenience factory applying per-kind default parameters. */
std::unique_ptr<TreeOram> MakeOram(OramKind kind, int64_t num_blocks,
                                   int64_t block_words, Rng& rng,
                                   const OramParams* params = nullptr);

}  // namespace secemb::oram
