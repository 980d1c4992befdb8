#include "oram/slots.h"

#include <bit>
#include <cstring>
#include <vector>

#include "oblivious/ct_ops.h"

namespace secemb::oram::slots {

using oblivious::BoolToMask;
using oblivious::EqMask;

namespace {

template <Cmov C>
inline uint64_t
Sel(uint64_t mask, uint64_t a, uint64_t b)
{
    if constexpr (C == Cmov::kInline) {
        return oblivious::Select(mask, a, b);
    } else {
        return oblivious::SelectNoInline(mask, a, b);
    }
}

/** dst = src where mask is all-ones; every word is touched either way. */
template <Cmov C>
inline void
Blend(uint64_t mask, const uint32_t* src, uint32_t* dst, int64_t n)
{
    if constexpr (C == Cmov::kInline) {
        oblivious::CtCopyWords(mask, src, dst, n);
    } else {
        for (int64_t i = 0; i < n; ++i) {
            dst[i] = static_cast<uint32_t>(
                oblivious::SelectNoInline(mask, src[i], dst[i]));
        }
    }
}

/** All-ones iff the paths to leaves a and b share the bucket at `level`
 *  (branch-free prefix compare). */
inline uint64_t
SamePrefixMask(int64_t levels, uint32_t a, uint32_t b, int64_t level)
{
    const int64_t shift = levels - level;
    return EqMask(static_cast<uint64_t>(a) >> shift,
                  static_cast<uint64_t>(b) >> shift);
}

/** Deepest level shared by the paths to leaves a and b. */
inline int64_t
CommonLevel(int64_t levels, uint32_t a, uint32_t b)
{
    const uint32_t x = a ^ b;
    if (x == 0) return levels;
    const int64_t width = 64 - std::countl_zero(static_cast<uint64_t>(x));
    return levels - width;
}

/** Path index a block on `leaf` may reach: its tree level + 1. */
inline int64_t
Goal(int64_t levels, uint32_t leaf, uint32_t path_leaf)
{
    return CommonLevel(levels, leaf, path_leaf) + 1;
}

// The loops below take their runs by value: a store through a slot
// pointer then cannot alias the run's length or width, which stay in
// registers.

template <Cmov C>
bool
InsertWith(Run run, uint64_t mask, uint64_t id, uint32_t leaf,
           const uint32_t* data)
{
    uint64_t done = 0;
    for (int64_t s = 0; s < run.n; ++s) {
        const uint64_t take = mask & EqMask(run.id[s], kDummyId) & ~done;
        run.id[s] = Sel<C>(take, id, run.id[s]);
        run.leaf[s] = static_cast<uint32_t>(Sel<C>(take, leaf, run.leaf[s]));
        Blend<C>(take, data, run.data + s * run.words, run.words);
        done |= take;
    }
    return (done | ~mask) != 0;
}

template <Cmov C>
bool
DrainWith(Run from, Run to)
{
    for (int64_t s = 0; s < from.n; ++s) {
        const uint64_t real = ~EqMask(from.id[s], kDummyId);
        if (!InsertWith<C>(to, real, from.id[s], from.leaf[s],
                           from.data + s * from.words)) {
            return false;
        }
        from.id[s] = kDummyId;
    }
    return true;
}

template <Cmov C>
uint64_t
TakeWith(Run run, uint64_t id, uint32_t* out)
{
    uint64_t found = 0;
    for (int64_t s = 0; s < run.n; ++s) {
        const uint64_t match = EqMask(run.id[s], id);
        if (out != nullptr) {
            Blend<C>(match, run.data + s * run.words, out, run.words);
        }
        run.id[s] = Sel<C>(match, kDummyId, run.id[s]);
        found |= match;
    }
    return found;
}

template <Cmov C>
void
FillWith(Run stash, Run bucket, int64_t levels,
         uint32_t path_leaf, int64_t level)
{
    for (int64_t z = 0; z < bucket.n; ++z) {
        uint32_t* dst = bucket.data + z * bucket.words;
        uint64_t chosen = 0;
        for (int64_t s = 0; s < stash.n; ++s) {
            const uint64_t take =
                ~EqMask(stash.id[s], kDummyId) &
                SamePrefixMask(levels, stash.leaf[s], path_leaf, level) &
                ~chosen;
            Blend<C>(take, stash.data + s * stash.words, dst, bucket.words);
            bucket.id[z] = Sel<C>(take, stash.id[s], bucket.id[z]);
            bucket.leaf[z] = static_cast<uint32_t>(
                Sel<C>(take, stash.leaf[s], bucket.leaf[z]));
            stash.id[s] = Sel<C>(take, kDummyId, stash.id[s]);
            chosen |= take;
        }
    }
}

template <Cmov C>
void
TakeDeepestWith(Run run, Run hold, int64_t levels,
                uint32_t path_leaf)
{
    const uint64_t sentinel = static_cast<uint64_t>(run.n);
    uint64_t chosen = sentinel;
    int64_t best = kNoGoal;
    for (int64_t s = 0; s < run.n; ++s) {
        const bool real = run.id[s] != kDummyId;
        const int64_t g = Goal(levels, run.leaf[s], path_leaf);
        const uint64_t take = BoolToMask((real && g > best) ? 1 : 0);
        best = oblivious::SelectI64(take, g, best);
        chosen = Sel<C>(take, static_cast<uint64_t>(s), chosen);
    }
    const uint64_t have = ~EqMask(chosen, sentinel);
    for (int64_t s = 0; s < run.n; ++s) {
        const uint64_t is_chosen =
            EqMask(static_cast<uint64_t>(s), chosen) & have;
        hold.id[0] = Sel<C>(is_chosen, run.id[s], hold.id[0]);
        hold.leaf[0] = static_cast<uint32_t>(
            Sel<C>(is_chosen, run.leaf[s], hold.leaf[0]));
        Blend<C>(is_chosen, run.data + s * run.words, hold.data, run.words);
        run.id[s] = Sel<C>(is_chosen, kDummyId, run.id[s]);
    }
}

}  // namespace

uint32_t
EvictionLeaf(int64_t levels, uint64_t counter)
{
    uint32_t leaf = 0;
    for (int64_t bit = 0; bit < levels; ++bit) {
        leaf = (leaf << 1) | static_cast<uint32_t>((counter >> bit) & 1);
    }
    return leaf;
}

bool
Insert(const Run& run, uint64_t mask, uint64_t id, uint32_t leaf,
       const uint32_t* data, Cmov cmov)
{
    return cmov == Cmov::kInline
               ? InsertWith<Cmov::kInline>(run, mask, id, leaf, data)
               : InsertWith<Cmov::kOutOfLine>(run, mask, id, leaf, data);
}

bool
Drain(const Run& from, const Run& to, Cmov cmov)
{
    return cmov == Cmov::kInline ? DrainWith<Cmov::kInline>(from, to)
                                 : DrainWith<Cmov::kOutOfLine>(from, to);
}

uint64_t
Take(const Run& run, uint64_t id, uint32_t* out, Cmov cmov)
{
    return cmov == Cmov::kInline ? TakeWith<Cmov::kInline>(run, id, out)
                                 : TakeWith<Cmov::kOutOfLine>(run, id, out);
}

void
Fill(const Run& stash, const Run& bucket, int64_t levels, uint32_t path_leaf,
     int64_t level, Cmov cmov)
{
    if (cmov == Cmov::kInline) {
        FillWith<Cmov::kInline>(stash, bucket, levels, path_leaf, level);
    } else {
        FillWith<Cmov::kOutOfLine>(stash, bucket, levels, path_leaf, level);
    }
}

int64_t
DeepestGoal(const Run& run, int64_t levels, uint32_t path_leaf)
{
    int64_t best = kNoGoal;
    for (int64_t s = 0; s < run.n; ++s) {
        const bool real = run.id[s] != kDummyId;
        const int64_t g = Goal(levels, run.leaf[s], path_leaf);
        const uint64_t take = BoolToMask((real && g > best) ? 1 : 0);
        best = oblivious::SelectI64(take, g, best);
    }
    return best;
}

void
TakeDeepest(const Run& run, const Run& hold, int64_t levels,
            uint32_t path_leaf, Cmov cmov)
{
    if (cmov == Cmov::kInline) {
        TakeDeepestWith<Cmov::kInline>(run, hold, levels, path_leaf);
    } else {
        TakeDeepestWith<Cmov::kOutOfLine>(run, hold, levels, path_leaf);
    }
}

bool
HasEmpty(const Run& run)
{
    bool empty = false;
    for (int64_t s = 0; s < run.n; ++s) empty |= (run.id[s] == kDummyId);
    return empty;
}

bool
PlaceDeepestFirst(std::span<const uint32_t> leaves, int64_t levels,
                  int64_t bucket_slots, const Run& tree, const Run& stash)
{
    // Slots used per bucket, 64-bit: a page-sized bucket may hold more
    // than 65535 blocks.
    std::vector<int64_t> used(static_cast<size_t>(tree.n / bucket_slots), 0);
    int64_t spilled = 0;
    for (size_t i = 0; i < leaves.size(); ++i) {
        const uint32_t leaf = leaves[i];
        const Run* dst = &stash;
        int64_t slot = spilled;
        for (int64_t level = levels; level >= 0; --level) {
            const int64_t b = BucketOnPath(levels, leaf, level);
            int64_t& n = used[static_cast<size_t>(b)];
            if (n < bucket_slots) {
                dst = &tree;
                slot = b * bucket_slots + n++;
                break;
            }
        }
        if (dst == &stash) {
            if (spilled == stash.n) return false;
            ++spilled;
        }
        dst->id[slot] = static_cast<uint64_t>(i);
        dst->leaf[slot] = leaf;
    }
    return true;
}

void
CopyPayloads(const Run& run, std::span<const uint32_t> table)
{
    for (int64_t s = 0; s < run.n; ++s) {
        if (run.id[s] == kDummyId) continue;
        std::memcpy(run.data + s * run.words,
                    table.data() + static_cast<int64_t>(run.id[s]) * run.words,
                    static_cast<size_t>(run.words) * sizeof(uint32_t));
    }
}

}  // namespace secemb::oram::slots
