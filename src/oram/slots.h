#pragma once

/**
 * @file
 * Oblivious operations on a run of block slots, shared by the tree ORAM
 * cores: Path and Circuit ORAM (oram::TreeOram) and the page-optimized
 * RAW ORAM (store::RawOram).
 *
 * A run is n slots of (id, leaf, payload words). The stash and one tree
 * bucket are both runs, so one call serves either. Each operation scans
 * the whole run with constant-time selects: which slot it touches stays
 * hidden, and only the run's place and length show. The path geometry
 * (bucket on a path, the reverse-lexicographic eviction schedule, the
 * same-prefix test) and deepest-first bulk placement sit beside them.
 * Each core keeps its own schedule, storage, trace recording and stats.
 */

#include <cstdint>
#include <span>

namespace secemb::oram::slots {

/** Id of an empty slot. */
inline constexpr uint64_t kDummyId = ~uint64_t{0};

/** What DeepestGoal returns for a run that holds no block. */
inline constexpr int64_t kNoGoal = -1;

/**
 * How a select is made. ZT-Original calls an out-of-line cmov per element
 * (OramParams::inline_select = false); everything else inlines it.
 */
enum class Cmov
{
    kInline,
    kOutOfLine,
};

/** n slots, slot-major: id[s], leaf[s] and words payload words at
 *  data + s * words (data may be null where no payload is moved). */
struct Run
{
    uint64_t* id;
    uint32_t* leaf;
    uint32_t* data;
    int64_t n;
    int64_t words;
};

// -- Path geometry for a tree of 2^levels leaves (root = level 0) ----------

/** Heap index (root 0) of the bucket at `level` on the path to `leaf`. */
inline int64_t
BucketOnPath(int64_t levels, uint32_t leaf, int64_t level)
{
    return (((int64_t{1} << levels) + static_cast<int64_t>(leaf)) >>
            (levels - level)) -
           1;
}

/** Leaf of eviction number `counter`: its low `levels` bits reversed,
 *  the public reverse-lexicographic order. */
uint32_t EvictionLeaf(int64_t levels, uint64_t counter);

// -- Slot operations -------------------------------------------------------

/**
 * Writes (id, leaf, data) into the first empty slot when `mask` is
 * all-ones; a zero mask scans alike and writes nothing. Returns false
 * only if the mask was set and no slot was empty.
 */
bool Insert(const Run& run, uint64_t mask, uint64_t id, uint32_t leaf,
            const uint32_t* data, Cmov cmov = Cmov::kInline);

/**
 * Moves every block of `from` into the first empty slots of `to` and
 * leaves `from` empty. Returns false, at once, if `to` fills up.
 */
bool Drain(const Run& from, const Run& to, Cmov cmov = Cmov::kInline);

/**
 * Empties the slot holding `id` and blends its payload into `out` (out
 * null: no payload is read). Returns all-ones iff the run held `id`.
 */
uint64_t Take(const Run& run, uint64_t id, uint32_t* out,
              Cmov cmov = Cmov::kInline);

/**
 * Fills each slot of `bucket`, in order, with the first stash block that
 * may sit at `level` of the path to `path_leaf`, and empties that stash
 * slot. A slot no block fits keeps what it held. Path ORAM's write-back
 * and RAW ORAM's repack, one bucket per call.
 */
void Fill(const Run& stash, const Run& bucket, int64_t levels,
          uint32_t path_leaf, int64_t level, Cmov cmov = Cmov::kInline);

// -- Circuit ORAM eviction -------------------------------------------------
// These keep the eviction's own compares (`real && g > best` and the
// common-level test), which may compile to branches on slot contents:
// unlike the operations above they are not yet constant-time.

/**
 * The deepest path index (tree level + 1; index 0 is the stash) that a
 * block of the run may reach on the path to `path_leaf`, or kNoGoal.
 */
int64_t DeepestGoal(const Run& run, int64_t levels, uint32_t path_leaf);

/** Moves the block with the deepest goal (the first of equals) into the
 *  one-slot run `hold`; no-op when the run holds no block. */
void TakeDeepest(const Run& run, const Run& hold, int64_t levels,
                 uint32_t path_leaf, Cmov cmov = Cmov::kInline);

/** True iff some slot of the run is empty. */
bool HasEmpty(const Run& run);

// -- Bulk load (public data, not oblivious) --------------------------------

/**
 * Deepest-first placement into an empty tree of 2^levels leaves whose
 * buckets hold `bucket_slots` slots each: block id goes to the next unused
 * slot of the deepest bucket on the path to leaves[id] that has one, else
 * to the next stash slot. Sets ids and leaves only; CopyPayloads follows.
 * Returns false when the stash fills up.
 */
bool PlaceDeepestFirst(std::span<const uint32_t> leaves, int64_t levels,
                       int64_t bucket_slots, const Run& tree,
                       const Run& stash);

/** Copies row id of `table` (run.words words per row) into every slot
 *  that holds block id. */
void CopyPayloads(const Run& run, std::span<const uint32_t> table);

}  // namespace secemb::oram::slots
