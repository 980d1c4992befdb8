#include "oram/sqrt_oram.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>

#include "oblivious/ct_ops.h"
#include "oblivious/sort.h"
#include "telemetry/telemetry.h"

namespace secemb::oram {

using oblivious::EqMask;
using oblivious::Select;

namespace {

constexpr uint64_t kEmpty = ~uint64_t{0};

void
DeriveKey(uint64_t seed, uint32_t key[4])
{
    for (int i = 0; i < 4; ++i) {
        seed += 0x9e3779b97f4a7c15ULL;
        uint64_t z = seed;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        key[i] = static_cast<uint32_t>(z ^ (z >> 31));
    }
}

}  // namespace

SqrtOram::SqrtOram(int64_t num_blocks, int64_t block_words, Rng& rng)
    : num_blocks_(num_blocks),
      block_words_(block_words),
      shelter_cap_(static_cast<int64_t>(
          std::ceil(std::sqrt(static_cast<double>(num_blocks))))),
      rng_(rng.Next())
{
    assert(num_blocks > 0 && block_words > 0);
    const int64_t entries = num_blocks_ + shelter_cap_;
    tag_.resize(static_cast<size_t>(entries));
    id_.resize(static_cast<size_t>(entries));
    data_.assign(static_cast<size_t>(entries * block_words_), 0);
    shelter_id_.assign(static_cast<size_t>(shelter_cap_), kEmpty);
    shelter_data_.assign(
        static_cast<size_t>(shelter_cap_ * block_words_), 0);

    // Real ids then dummies; initial epoch sorts them by tag.
    for (int64_t e = 0; e < entries; ++e) {
        id_[static_cast<size_t>(e)] = static_cast<uint64_t>(e);
    }
    epoch_key_ = rng_.Next();
    for (int64_t e = 0; e < entries; ++e) {
        tag_[static_cast<size_t>(e)] =
            PrfTag(id_[static_cast<size_t>(e)]);
    }
    // Initial state is public: a plain sort is fine here.
    std::vector<int64_t> order(static_cast<size_t>(entries));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return tag_[static_cast<size_t>(a)] < tag_[static_cast<size_t>(b)];
    });
    std::vector<uint64_t> t2(tag_.size()), i2(id_.size());
    for (int64_t e = 0; e < entries; ++e) {
        t2[static_cast<size_t>(e)] =
            tag_[static_cast<size_t>(order[static_cast<size_t>(e)])];
        i2[static_cast<size_t>(e)] =
            id_[static_cast<size_t>(order[static_cast<size_t>(e)])];
    }
    tag_ = std::move(t2);
    id_ = std::move(i2);

    auto& space = sidechannel::ProcessAddressSpace();
    trace_base_ = space.Reserve(
        static_cast<uint64_t>(entries * block_words_) * 4, 64,
        "sqrt_oram.store");
    shelter_trace_base_ = space.Reserve(
        static_cast<uint64_t>(shelter_cap_ * block_words_) * 4, 64,
        "sqrt_oram.shelter");
}

uint64_t
SqrtOram::PrfTag(uint64_t logical_id) const
{
    uint32_t key[4];
    DeriveKey(epoch_key_, key);
    return BucketCipher::EncryptBlock(key, logical_id);
}

int64_t
SqrtOram::FindTagPosition(uint64_t tag) const
{
    const auto it = std::lower_bound(tag_.begin(), tag_.end(), tag);
    assert(it != tag_.end() && *it == tag);
    return std::distance(tag_.begin(), it);
}

void
SqrtOram::RecordEntry(int64_t pos)
{
    if (recorder_) {
        recorder_->Record(
            trace_base_ +
                static_cast<uint64_t>(pos * block_words_ * 4),
            static_cast<uint32_t>(block_words_ * 4), false);
    }
}

void
SqrtOram::RecordShelterScan()
{
    ++stats_.shelter_scans;
    if (recorder_) {
        recorder_->Record(
            shelter_trace_base_,
            static_cast<uint32_t>(shelter_cap_ * block_words_ * 4),
            true);
    }
}

void
SqrtOram::Access(int64_t logical_id, bool is_write,
                 std::span<uint32_t> read_out,
                 std::span<const uint32_t> write_in)
{
    assert(logical_id >= 0 && logical_id < num_blocks_);
    ++stats_.accesses;
    TELEMETRY_SPAN("sqrt_oram.access");
    TELEMETRY_COUNT("sqrt_oram.accesses", 1);
    const uint64_t id = static_cast<uint64_t>(logical_id);

    // 1. Oblivious shelter scan: collect data if present.
    RecordShelterScan();
    std::vector<uint32_t> merged(static_cast<size_t>(block_words_), 0);
    uint64_t found = 0;
    for (size_t s = 0; s < shelter_id_.size(); ++s) {
        const uint64_t m = EqMask(shelter_id_[s], id);
        oblivious::CtCopyRow(
            m,
            {reinterpret_cast<const float*>(shelter_data_.data()) +
                 static_cast<int64_t>(s) * block_words_,
             static_cast<size_t>(block_words_)},
            {reinterpret_cast<float*>(merged.data()),
             static_cast<size_t>(block_words_)});
        found |= m;
    }

    // 2. Fetch from the permuted store: the real position if this is the
    //    block's first touch this epoch, else the next unused dummy.
    const uint64_t real_tag = PrfTag(id);
    const uint64_t dummy_tag = PrfTag(
        static_cast<uint64_t>(num_blocks_ + dummies_used_));
    const uint64_t target_tag = Select(found, dummy_tag, real_tag);
    if (found) ++dummies_used_;  // bounded by shelter_cap_ per epoch
    const int64_t pos = FindTagPosition(target_tag);
    RecordEntry(pos);
    // Take the entry's payload only when the shelter missed.
    oblivious::CtCopyRow(
        ~found,
        {reinterpret_cast<const float*>(data_.data()) +
             pos * block_words_,
         static_cast<size_t>(block_words_)},
        {reinterpret_cast<float*>(merged.data()),
         static_cast<size_t>(block_words_)});

    // 3. Apply the operation.
    if (is_write) {
        std::memcpy(merged.data(), write_in.data(),
                    merged.size() * sizeof(uint32_t));
    } else {
        std::memcpy(read_out.data(), merged.data(),
                    merged.size() * sizeof(uint32_t));
    }

    // 4. Upsert into the shelter: update the matching slot if present,
    //    otherwise insert into the first free slot. Both passes scan the
    //    full shelter.
    RecordShelterScan();
    uint64_t placed = found;
    for (size_t s = 0; s < shelter_id_.size(); ++s) {
        const uint64_t match = EqMask(shelter_id_[s], id);
        const uint64_t free_slot = EqMask(shelter_id_[s], kEmpty);
        const uint64_t take = match | (free_slot & ~placed);
        shelter_id_[s] = Select(take, id, shelter_id_[s]);
        oblivious::CtCopyRow(
            take,
            {reinterpret_cast<const float*>(merged.data()),
             static_cast<size_t>(block_words_)},
            {reinterpret_cast<float*>(shelter_data_.data()) +
                 static_cast<int64_t>(s) * block_words_,
             static_cast<size_t>(block_words_)});
        placed |= take;
    }
    assert(placed != 0);

    ++epoch_accesses_;
    if (epoch_accesses_ >= shelter_cap_) Reshuffle();
}

void
SqrtOram::Reshuffle()
{
    ++stats_.reshuffles;
    const int64_t entries = num_blocks_ + shelter_cap_;

    // Fold the shelter back: every (shelter, entry) pair is touched so
    // the fold itself is oblivious.
    for (size_t s = 0; s < shelter_id_.size(); ++s) {
        for (int64_t e = 0; e < entries; ++e) {
            const uint64_t m =
                EqMask(id_[static_cast<size_t>(e)], shelter_id_[s]);
            oblivious::CtCopyRow(
                m,
                {reinterpret_cast<const float*>(shelter_data_.data()) +
                     static_cast<int64_t>(s) * block_words_,
                 static_cast<size_t>(block_words_)},
                {reinterpret_cast<float*>(data_.data()) +
                     e * block_words_,
                 static_cast<size_t>(block_words_)});
        }
        shelter_id_[s] = kEmpty;
    }

    // Re-key and obliviously reshuffle (sort by the fresh PRF tags).
    epoch_key_ = rng_.Next();
    for (int64_t e = 0; e < entries; ++e) {
        tag_[static_cast<size_t>(e)] =
            PrfTag(id_[static_cast<size_t>(e)]);
    }
    // Pack (id, data) rows so they travel with their tags.
    const int64_t row_words = 2 + block_words_;
    std::vector<uint32_t> rows(static_cast<size_t>(entries * row_words));
    for (int64_t e = 0; e < entries; ++e) {
        uint32_t* row = rows.data() + e * row_words;
        row[0] = static_cast<uint32_t>(id_[static_cast<size_t>(e)]);
        row[1] =
            static_cast<uint32_t>(id_[static_cast<size_t>(e)] >> 32);
        std::memcpy(row + 2, data_.data() + e * block_words_,
                    static_cast<size_t>(block_words_) * 4);
    }
    oblivious::ObliviousSortByKey(tag_, rows, row_words);
    for (int64_t e = 0; e < entries; ++e) {
        const uint32_t* row = rows.data() + e * row_words;
        id_[static_cast<size_t>(e)] =
            static_cast<uint64_t>(row[0]) |
            (static_cast<uint64_t>(row[1]) << 32);
        std::memcpy(data_.data() + e * block_words_, row + 2,
                    static_cast<size_t>(block_words_) * 4);
    }
    if (recorder_) {
        recorder_->Record(trace_base_,
                          static_cast<uint32_t>(entries * block_words_ *
                                                4),
                          true);
    }
    epoch_accesses_ = 0;
    dummies_used_ = 0;
}

void
SqrtOram::Read(int64_t id, std::span<uint32_t> out)
{
    assert(static_cast<int64_t>(out.size()) == block_words_);
    Access(id, /*is_write=*/false, out, {});
}

void
SqrtOram::Write(int64_t id, std::span<const uint32_t> in)
{
    assert(static_cast<int64_t>(in.size()) == block_words_);
    Access(id, /*is_write=*/true, {}, in);
}

void
SqrtOram::BulkLoad(std::span<const uint32_t> data)
{
    assert(static_cast<int64_t>(data.size()) ==
           num_blocks_ * block_words_);
    const int64_t entries = num_blocks_ + shelter_cap_;
    for (int64_t e = 0; e < entries; ++e) {
        const uint64_t logical = id_[static_cast<size_t>(e)];
        if (logical < static_cast<uint64_t>(num_blocks_)) {
            std::memcpy(data_.data() + e * block_words_,
                        data.data() +
                            static_cast<int64_t>(logical) * block_words_,
                        static_cast<size_t>(block_words_) * 4);
        }
    }
}

int64_t
SqrtOram::MemoryFootprintBytes() const
{
    const int64_t entries = num_blocks_ + shelter_cap_;
    return entries * (8 + 8 + block_words_ * 4) +
           shelter_cap_ * (8 + block_words_ * 4);
}

}  // namespace secemb::oram
