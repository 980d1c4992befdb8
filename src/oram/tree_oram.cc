#include "oram/tree_oram.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "oblivious/ct_ops.h"
#include "perfmon/perfmon.h"
#include "telemetry/telemetry.h"

namespace secemb::oram {

using oblivious::EqMask;

namespace {

/** Sentinel for "no level" in the Circuit ORAM eviction metadata. */
constexpr int64_t kNoneLevel = slots::kNoGoal;

int64_t
CeilLog2(int64_t n)
{
    int64_t l = 0;
    while ((int64_t{1} << l) < n) ++l;
    return l;
}

}  // namespace

OramParams
OramParams::Defaults(OramKind kind)
{
    OramParams p;
    if (kind == OramKind::kPath) {
        p.stash_capacity = 150;
        p.recursion_threshold = int64_t{1} << 16;
    } else {
        p.stash_capacity = 10;
        p.recursion_threshold = int64_t{1} << 12;
    }
    return p;
}

void
OramParams::ApplyTeeModel(const tee::TeeCostModel& m)
{
    ocall_ns = m.ocall_ns;
    inline_select = m.inline_select;
    enable_recursion = m.enable_recursion;
}

// ---------------------------------------------------------------------------
// PositionMap
// ---------------------------------------------------------------------------

PositionMap::PositionMap(OramKind kind, int64_t num_ids, uint32_t leaf_bound,
                         Rng& rng, const OramParams& params)
    : num_ids_(num_ids),
      fanout_(params.posmap_fanout),
      inline_select_(params.inline_select)
{
    assert(num_ids > 0 && leaf_bound > 0);
    initial_leaves_.resize(static_cast<size_t>(num_ids));
    for (auto& leaf : initial_leaves_) {
        leaf = static_cast<uint32_t>(rng.NextBounded(leaf_bound));
    }

    const bool recurse =
        params.enable_recursion && num_ids > params.recursion_threshold;
    if (!recurse) {
        flat_ = initial_leaves_;
        trace_base_ = sidechannel::ProcessAddressSpace().Reserve(
            static_cast<uint64_t>(num_ids) * 4, 64, "oram.posmap");
    } else {
        const int64_t child_blocks = (num_ids + fanout_ - 1) / fanout_;
        child_ = std::make_unique<TreeOram>(kind, child_blocks, fanout_,
                                            rng, params);
        std::vector<uint32_t> packed(
            static_cast<size_t>(child_blocks * fanout_), 0);
        std::memcpy(packed.data(), initial_leaves_.data(),
                    initial_leaves_.size() * sizeof(uint32_t));
        child_->BulkLoad(packed);
    }
}

PositionMap::~PositionMap() = default;

uint32_t
PositionMap::Update(int64_t id, uint32_t new_leaf)
{
    assert(id >= 0 && id < num_ids_);
    if (child_) {
        return child_->RmwWord(id / fanout_, id % fanout_, new_leaf);
    }
    // Flat map: full oblivious scan for both the read and the write.
    if (recorder_) {
        recorder_->Record(trace_base_,
                          static_cast<uint32_t>(flat_.size() * 4), false);
        recorder_->Record(trace_base_,
                          static_cast<uint32_t>(flat_.size() * 4), true);
    }
    uint32_t old = 0;
    if (inline_select_) {
        for (size_t i = 0; i < flat_.size(); ++i) {
            const uint64_t m = EqMask(static_cast<uint64_t>(i),
                                      static_cast<uint64_t>(id));
            old = static_cast<uint32_t>(
                oblivious::Select(m, flat_[i], old));
            flat_[i] = static_cast<uint32_t>(
                oblivious::Select(m, new_leaf, flat_[i]));
        }
    } else {
        // ZT-Original/Gramine: the cmov helper is an out-of-line call per
        // element, the overhead the GramineOpt variant removes.
        for (size_t i = 0; i < flat_.size(); ++i) {
            const uint64_t m = EqMask(static_cast<uint64_t>(i),
                                      static_cast<uint64_t>(id));
            old = static_cast<uint32_t>(
                oblivious::SelectNoInline(m, flat_[i], old));
            flat_[i] = static_cast<uint32_t>(
                oblivious::SelectNoInline(m, new_leaf, flat_[i]));
        }
    }
    return old;
}

void
PositionMap::set_recorder(sidechannel::TraceRecorder* recorder)
{
    recorder_ = recorder;
    if (child_) child_->set_recorder(recorder);
}

int64_t
PositionMap::FootprintBytes() const
{
    if (child_) return child_->MemoryFootprintBytes();
    return static_cast<int64_t>(flat_.size()) * 4;
}

serving::Status
PositionMap::SnapshotLeaves(std::vector<uint32_t>* out) const
{
    if (child_) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "posmap snapshot requires a flat map (disable recursion for "
            "durable configurations)");
    }
    *out = flat_;
    return serving::Status::Ok();
}

serving::Status
PositionMap::RestoreLeaves(const std::vector<uint32_t>& leaves)
{
    if (child_) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "posmap restore requires a flat map");
    }
    if (leaves.size() != flat_.size()) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "posmap restore: leaf table has " +
                std::to_string(leaves.size()) + " entries, map holds " +
                std::to_string(flat_.size()));
    }
    flat_ = leaves;
    return serving::Status::Ok();
}

// ---------------------------------------------------------------------------
// TreeOram: construction
// ---------------------------------------------------------------------------

TreeOram::TreeOram(OramKind kind, int64_t num_blocks, int64_t block_words,
                   Rng& rng, OramParams params)
    : kind_(kind),
      num_blocks_(num_blocks),
      block_words_(block_words),
      params_(params),
      rng_(rng.Next()),
      // Leaves >= num_blocks / 2: capacity ~4N slots with Z = 4, matching
      // the footprint regime the paper reports (~3.3x the raw table) while
      // keeping stash occupancy low (verified by tests).
      levels_(CeilLog2(std::max<int64_t>(2, (num_blocks + 1) / 2))),
      num_leaves_(int64_t{1} << levels_),
      num_buckets_(2 * num_leaves_ - 1),
      posmap_(kind, num_blocks, static_cast<uint32_t>(num_leaves_), rng,
              params),
      cipher_(rng.Next())
{
    assert(num_blocks > 0 && block_words > 0);
    const int64_t slots = num_buckets_ * params_.bucket_capacity;
    slot_id_.assign(static_cast<size_t>(slots), kDummyId);
    slot_leaf_.assign(static_cast<size_t>(slots), 0);
    slot_data_.assign(static_cast<size_t>(slots * block_words_), 0);

    stash_id_.assign(static_cast<size_t>(params_.stash_capacity), kDummyId);
    stash_leaf_.assign(static_cast<size_t>(params_.stash_capacity), 0);
    stash_data_.assign(
        static_cast<size_t>(params_.stash_capacity * block_words_), 0);
    bucket_version_.assign(static_cast<size_t>(num_buckets_), 0);

    auto& space = sidechannel::ProcessAddressSpace();
    tree_trace_base_ = space.Reserve(
        static_cast<uint64_t>(slots * block_words_) * 4, 64, "oram.tree");
    stash_trace_base_ = space.Reserve(
        static_cast<uint64_t>(params_.stash_capacity * block_words_) * 4,
        64, "oram.stash");
}

// ---------------------------------------------------------------------------
// TreeOram: small helpers
// ---------------------------------------------------------------------------

uint32_t
TreeOram::RandomLeaf()
{
    return static_cast<uint32_t>(
        rng_.NextBounded(static_cast<uint64_t>(num_leaves_)));
}

uint64_t
TreeOram::Sel(uint64_t mask, uint64_t a, uint64_t b) const
{
    return params_.inline_select ? oblivious::Select(mask, a, b)
                                 : oblivious::SelectNoInline(mask, a, b);
}

slots::Run
TreeOram::StashRun()
{
    return {stash_id_.data(), stash_leaf_.data(), stash_data_.data(),
            params_.stash_capacity, block_words_};
}

slots::Run
TreeOram::BucketRun(int64_t bucket)
{
    const int64_t z = params_.bucket_capacity;
    return {slot_id_.data() + bucket * z, slot_leaf_.data() + bucket * z,
            slot_data_.data() + bucket * z * block_words_, z, block_words_};
}

void
TreeOram::RecordBucket(int64_t bucket, bool is_write)
{
    // In the ZT-Original deployment every bucket transfer crosses the
    // enclave boundary.
    PayOcall();
    if (is_write) {
        ++stats_.bucket_writes;
    } else {
        ++stats_.bucket_reads;
    }
    if (recorder_) {
        const uint32_t bucket_bytes = static_cast<uint32_t>(
            params_.bucket_capacity * block_words_ * 4);
        recorder_->Record(
            tree_trace_base_ + static_cast<uint64_t>(bucket) * bucket_bytes,
            bucket_bytes, is_write);
    }
}

void
TreeOram::RecordStashScan(bool is_write)
{
    ++stats_.stash_scans;
    if (recorder_) {
        recorder_->Record(
            stash_trace_base_,
            static_cast<uint32_t>(params_.stash_capacity * block_words_ * 4),
            is_write);
    }
}

void
TreeOram::DecryptBucket(int64_t b)
{
    if (!params_.encrypt_payloads) return;
    const uint64_t version = bucket_version_[static_cast<size_t>(b)];
    if (version == 0) return;  // still plaintext from initialisation
    const int64_t bucket_words = params_.bucket_capacity * block_words_;
    cipher_.Apply(b, version,
                  {slot_data_.data() + b * bucket_words,
                   static_cast<size_t>(bucket_words)});
}

void
TreeOram::EncryptBucket(int64_t b)
{
    if (!params_.encrypt_payloads) return;
    const uint64_t version = ++bucket_version_[static_cast<size_t>(b)];
    const int64_t bucket_words = params_.bucket_capacity * block_words_;
    cipher_.Apply(b, version,
                  {slot_data_.data() + b * bucket_words,
                   static_cast<size_t>(bucket_words)});
}

void
TreeOram::PayOcall()
{
    if (params_.ocall_ns > 0.0) {
        ++stats_.ocalls;
        tee::Spin(params_.ocall_ns);
    }
}

// ---------------------------------------------------------------------------
// TreeOram: Path ORAM phases
// ---------------------------------------------------------------------------

void
TreeOram::PathReadPathToStash(uint32_t leaf)
{
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = slots::BucketOnPath(levels_, leaf, level);
        RecordBucket(b, /*is_write=*/false);
        DecryptBucket(b);
        // Every slot costs one stash scan; a dummy inserts nothing.
        if (!slots::Drain(BucketRun(b), StashRun(), cmov())) {
            throw std::runtime_error("TreeOram: stash overflow");
        }
        RecordStashScan(/*is_write=*/true);
    }
}

void
TreeOram::PathWriteBack(uint32_t leaf)
{
    for (int64_t level = levels_; level >= 0; --level) {
        const int64_t b = slots::BucketOnPath(levels_, leaf, level);
        RecordBucket(b, /*is_write=*/true);
        // Clear the bucket, then move the first fitting stash block into
        // each slot.
        const slots::Run bucket = BucketRun(b);
        std::fill_n(bucket.id, bucket.n, kDummyId);
        std::fill_n(bucket.leaf, bucket.n, 0u);
        std::fill_n(bucket.data, bucket.n * bucket.words, 0u);
        slots::Fill(StashRun(), bucket, levels_, leaf, level, cmov());
        EncryptBucket(b);
        RecordStashScan(/*is_write=*/true);
    }
}

// ---------------------------------------------------------------------------
// TreeOram: Circuit ORAM phases
// ---------------------------------------------------------------------------

void
TreeOram::CircuitReadBlockFromPath(uint32_t leaf, int64_t id,
                                   std::span<uint32_t> data_out)
{
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = slots::BucketOnPath(levels_, leaf, level);
        RecordBucket(b, /*is_write=*/false);
        RecordBucket(b, /*is_write=*/true);  // removal writes back
        DecryptBucket(b);
        slots::Take(BucketRun(b), static_cast<uint64_t>(id), data_out.data(),
                    cmov());
        EncryptBucket(b);
    }
}

void
TreeOram::CircuitEvictOnce(uint32_t path_leaf)
{
    // Deterministic trace preamble: an oblivious controller touches the
    // stash and every bucket on the eviction path unconditionally (the
    // functional branches below are the masked-operation equivalent).
    // Recording them here keeps the observable trace shape independent of
    // occupancy and secrets.
    RecordStashScan(/*is_write=*/false);  // PrepareDeepest stash scan
    RecordStashScan(/*is_write=*/false);  // PrepareTarget occupancy scan
    RecordStashScan(/*is_write=*/true);   // EvictOnceFast stash pass
    for (int64_t level = 0; level <= levels_; ++level) {
        const int64_t b = slots::BucketOnPath(levels_, path_leaf, level);
        RecordBucket(b, /*is_write=*/false);  // metadata scans
        RecordBucket(b, /*is_write=*/false);
        RecordBucket(b, /*is_write=*/true);   // move pass write-back
        DecryptBucket(b);
    }
    const int64_t n_idx = levels_ + 2;  // index 0 = stash, i>=1 = level i-1
    std::vector<int64_t> deepest(static_cast<size_t>(n_idx), kNoneLevel);
    std::vector<int64_t> target(static_cast<size_t>(n_idx), kNoneLevel);

    // The slots at path index i: the stash, or the bucket at level i - 1.
    auto run_at = [&](int64_t i) {
        return i == 0 ? StashRun()
                      : BucketRun(slots::BucketOnPath(levels_, path_leaf,
                                                      i - 1));
    };

    // --- PrepareDeepest ---
    int64_t src = kNoneLevel;
    int64_t goal = kNoneLevel;
    for (int64_t i = 0; i < n_idx; ++i) {
        if (goal >= i) deepest[static_cast<size_t>(i)] = src;
        const int64_t l = slots::DeepestGoal(run_at(i), levels_, path_leaf);
        if (l > goal) {
            goal = l;
            src = i;
        }
    }

    // --- PrepareTarget ---
    int64_t dest = kNoneLevel;
    src = kNoneLevel;
    for (int64_t i = n_idx - 1; i >= 0; --i) {
        if (i == src) {
            target[static_cast<size_t>(i)] = dest;
            dest = kNoneLevel;
            src = kNoneLevel;
        }
        const bool has_empty = slots::HasEmpty(run_at(i));
        if (((dest == kNoneLevel && has_empty) ||
             target[static_cast<size_t>(i)] != kNoneLevel) &&
            deepest[static_cast<size_t>(i)] != kNoneLevel) {
            src = deepest[static_cast<size_t>(i)];
            dest = i;
        }
    }

    // --- EvictOnceFast ---
    uint64_t hold_id = kDummyId;
    uint32_t hold_leaf = 0;
    std::vector<uint32_t> hold_data(static_cast<size_t>(block_words_), 0);
    const slots::Run hold{&hold_id, &hold_leaf, hold_data.data(), 1,
                          block_words_};
    std::vector<uint32_t> scratch(static_cast<size_t>(block_words_), 0);
    dest = kNoneLevel;

    for (int64_t i = 0; i < n_idx; ++i) {
        const slots::Run run = run_at(i);
        uint64_t write_id = kDummyId;
        uint32_t write_leaf = 0;
        bool do_write = false;
        if (hold_id != kDummyId && i == dest) {
            write_id = hold_id;
            write_leaf = hold_leaf;
            std::memcpy(scratch.data(), hold_data.data(),
                        scratch.size() * sizeof(uint32_t));
            do_write = true;
            hold_id = kDummyId;
            dest = kNoneLevel;
        }
        if (target[static_cast<size_t>(i)] != kNoneLevel) {
            // Read and remove the deepest-eligible block at this index.
            slots::TakeDeepest(run, hold, levels_, path_leaf, cmov());
            dest = target[static_cast<size_t>(i)];
        }
        if (do_write && !slots::Insert(run, ~uint64_t{0}, write_id,
                                       write_leaf, scratch.data(), cmov())) {
            throw std::runtime_error(
                i == 0 ? "TreeOram: stash overflow"
                       : "TreeOram: circuit eviction bucket overflow");
        }
    }
    for (int64_t level = 0; level <= levels_; ++level) {
        EncryptBucket(slots::BucketOnPath(levels_, path_leaf, level));
    }
}

// ---------------------------------------------------------------------------
// TreeOram: public operations
// ---------------------------------------------------------------------------

void
TreeOram::Access(int64_t id, Op op, std::span<uint32_t> read_out,
                 std::span<const uint32_t> write_in, int64_t word_idx,
                 uint32_t word_val, uint32_t* old_word)
{
    assert(id >= 0 && id < num_blocks_);
    ++stats_.accesses;
    // Spans/counters fire once per access whatever `id` is; recursive
    // position-map accesses nest their own oram.access spans.
    TELEMETRY_SCOPED_COUNTERS("oram.access");
    TELEMETRY_SCOPED_LATENCY("oram.access.ns");
    TELEMETRY_COUNT("oram.accesses", 1);

    const uint32_t new_leaf = RandomLeaf();
    const uint32_t old_leaf = posmap_.Update(id, new_leaf);

    std::vector<uint32_t> data(static_cast<size_t>(block_words_), 0);
    if (kind_ == OramKind::kPath) {
        PathReadPathToStash(old_leaf);
    } else {
        CircuitReadBlockFromPath(old_leaf, id, data);
    }
    // A never-written block is absent everywhere; it reads as zeros.
    RecordStashScan(/*is_write=*/true);
    slots::Take(StashRun(), static_cast<uint64_t>(id), data.data(), cmov());

    switch (op) {
      case Op::kRead:
        std::memcpy(read_out.data(), data.data(),
                    data.size() * sizeof(uint32_t));
        break;
      case Op::kWrite:
        std::memcpy(data.data(), write_in.data(),
                    data.size() * sizeof(uint32_t));
        break;
      case Op::kRmw: {
        uint32_t old = 0;
        for (int64_t w = 0; w < block_words_; ++w) {
            const uint64_t m = EqMask(static_cast<uint64_t>(w),
                                      static_cast<uint64_t>(word_idx));
            old = static_cast<uint32_t>(
                Sel(m, data[static_cast<size_t>(w)], old));
            data[static_cast<size_t>(w)] = static_cast<uint32_t>(
                Sel(m, word_val, data[static_cast<size_t>(w)]));
        }
        *old_word = old;
        break;
      }
    }

    RecordStashScan(/*is_write=*/true);
    if (!slots::Insert(StashRun(), ~uint64_t{0}, static_cast<uint64_t>(id),
                       new_leaf, data.data(), cmov())) {
        throw std::runtime_error("TreeOram: stash overflow");
    }

    if (kind_ == OramKind::kPath) {
        PathWriteBack(old_leaf);
    } else {
        CircuitEvictOnce(slots::EvictionLeaf(levels_, evict_counter_++));
        CircuitEvictOnce(slots::EvictionLeaf(levels_, evict_counter_++));
    }
}

void
TreeOram::Read(int64_t id, std::span<uint32_t> out)
{
    assert(static_cast<int64_t>(out.size()) == block_words_);
    Access(id, Op::kRead, out, {}, 0, 0, nullptr);
}

void
TreeOram::Write(int64_t id, std::span<const uint32_t> in)
{
    assert(static_cast<int64_t>(in.size()) == block_words_);
    Access(id, Op::kWrite, {}, in, 0, 0, nullptr);
}

uint32_t
TreeOram::RmwWord(int64_t id, int64_t word_idx, uint32_t new_word)
{
    assert(word_idx >= 0 && word_idx < block_words_);
    uint32_t old = 0;
    Access(id, Op::kRmw, {}, {}, word_idx, new_word, &old);
    return old;
}

void
TreeOram::BulkLoad(std::span<const uint32_t> data)
{
    if (static_cast<int64_t>(data.size()) != num_blocks_ * block_words_) {
        throw std::invalid_argument("BulkLoad: data size mismatch");
    }
    // Rare with 4N slot capacity: a block whose path is full spills to
    // the stash.
    const slots::Run tree{slot_id_.data(), slot_leaf_.data(),
                          slot_data_.data(),
                          num_buckets_ * params_.bucket_capacity,
                          block_words_};
    if (!slots::PlaceDeepestFirst(posmap_.initial_leaves(), levels_,
                                  params_.bucket_capacity, tree,
                                  StashRun())) {
        throw std::runtime_error(
            "BulkLoad: tree and stash full (tree undersized)");
    }
    slots::CopyPayloads(tree, data);
    slots::CopyPayloads(StashRun(), data);
}

void
TreeOram::set_recorder(sidechannel::TraceRecorder* recorder)
{
    recorder_ = recorder;
    posmap_.set_recorder(recorder);
}

int64_t
TreeOram::MemoryFootprintBytes() const
{
    const int64_t per_slot_meta = 8 + 4;  // id + leaf
    const int64_t slots = num_buckets_ * params_.bucket_capacity;
    const int64_t tree_bytes =
        slots * (block_words_ * 4 + per_slot_meta);
    const int64_t stash_bytes =
        params_.stash_capacity * (block_words_ * 4 + per_slot_meta);
    const int64_t version_bytes = num_buckets_ * 8;
    return tree_bytes + stash_bytes + version_bytes +
           posmap_.FootprintBytes();
}

int64_t
TreeOram::StashOccupancy() const
{
    int64_t n = 0;
    for (uint64_t id : stash_id_) n += (id != kDummyId) ? 1 : 0;
    return n;
}

std::unique_ptr<TreeOram>
MakeOram(OramKind kind, int64_t num_blocks, int64_t block_words, Rng& rng,
         const OramParams* params)
{
    OramParams p = params ? *params : OramParams::Defaults(kind);
    return std::make_unique<TreeOram>(kind, num_blocks, block_words, rng,
                                      p);
}

}  // namespace secemb::oram
