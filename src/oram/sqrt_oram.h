#pragma once

/**
 * @file
 * Square-Root ORAM (Goldreich & Ostrovsky) — the classic pre-tree design,
 * provided as an additional related-work baseline (the paper's Section
 * VII surveys non-tree ORAMs with "different performance characteristics";
 * this one makes the trade-offs concrete: O(sqrt(n)) amortised accesses
 * but epoch-boundary reshuffle spikes).
 *
 * Layout: the n real blocks plus m = ceil(sqrt(n)) dummies are stored
 * sorted by a per-epoch PRF tag (Speck64 of the id under an epoch key) —
 * a pseudorandom permutation realised with the oblivious bitonic sort.
 * A shelter holds the blocks touched this epoch (scanned obliviously on
 * every access). Each access touches: the whole shelter, one binary
 * search over the public sorted tags, and one table entry; a block is
 * never fetched from the table twice per epoch (repeats are covered by
 * fetching the next unused dummy), which is the scheme's security
 * argument. After m accesses everything is reshuffled under a fresh key.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "oram/crypto.h"
#include "sidechannel/trace.h"
#include "tensor/rng.h"

namespace secemb::oram {

/** Running counters for the square-root ORAM. */
struct SqrtOramStats
{
    int64_t accesses = 0;
    int64_t reshuffles = 0;
    int64_t shelter_scans = 0;
};

/** Goldreich-Ostrovsky square-root ORAM over fixed-size blocks. */
class SqrtOram
{
  public:
    /**
     * @param num_blocks logical blocks
     * @param block_words payload words per block
     * @param rng epoch-key and shuffle randomness
     */
    SqrtOram(int64_t num_blocks, int64_t block_words, Rng& rng);

    /** Oblivious read of block id. */
    void Read(int64_t id, std::span<uint32_t> out);

    /** Oblivious write of block id. */
    void Write(int64_t id, std::span<const uint32_t> in);

    /** Non-oblivious bulk initialisation (public model weights). */
    void BulkLoad(std::span<const uint32_t> data);

    int64_t MemoryFootprintBytes() const;
    const SqrtOramStats& stats() const { return stats_; }
    int64_t num_blocks() const { return num_blocks_; }
    int64_t shelter_capacity() const { return shelter_cap_; }
    /** Attach a trace sink for table and shelter accesses (nullptr
     *  detaches). */
    void set_recorder(sidechannel::TraceRecorder* recorder)
    {
        recorder_ = recorder;
    }

  private:
    int64_t num_blocks_;
    int64_t block_words_;
    int64_t shelter_cap_;  ///< m = ceil(sqrt(n)), also dummies per epoch
    Rng rng_;
    sidechannel::TraceRecorder* recorder_ = nullptr;

    // Permuted store: entry e holds (tag_[e], id_[e], data_).
    // Sorted ascending by tag each epoch; tags are public after sorting.
    std::vector<uint64_t> tag_;
    std::vector<uint64_t> id_;       ///< real id, or n+j for dummy j
    std::vector<uint32_t> data_;     ///< slot-major payloads

    // Shelter (linear-scanned).
    std::vector<uint64_t> shelter_id_;
    std::vector<uint32_t> shelter_data_;

    uint64_t epoch_key_ = 0;
    int64_t epoch_accesses_ = 0;
    int64_t dummies_used_ = 0;

    SqrtOramStats stats_;
    uint64_t trace_base_ = 0;
    uint64_t shelter_trace_base_ = 0;

    void Access(int64_t id, bool is_write, std::span<uint32_t> read_out,
                std::span<const uint32_t> write_in);
    uint64_t PrfTag(uint64_t logical_id) const;
    /** Position of `tag` in the sorted tag array (binary search). */
    int64_t FindTagPosition(uint64_t tag) const;
    /** Re-key, fold the shelter back, and obliviously reshuffle. */
    void Reshuffle();
    void RecordEntry(int64_t pos);
    void RecordShelterScan();
};

}  // namespace secemb::oram
