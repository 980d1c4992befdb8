#include "store/page_cache.h"

#include <algorithm>
#include <cstring>

#include "telemetry/telemetry.h"

namespace secemb::store {

PageCache::PageCache(std::unique_ptr<BackingStore> store,
                     int64_t capacity_pages)
    : store_(std::move(store))
{
    const int64_t cap = std::max<int64_t>(
        1, std::min(capacity_pages, store_->num_pages()));
    frames_.resize(static_cast<size_t>(cap));
    data_.resize(static_cast<size_t>(cap * store_->page_bytes()));
    page_to_frame_.reserve(static_cast<size_t>(cap) * 2);
}

PageCache::~PageCache()
{
    // Best-effort write-back so a cleanly destroyed cache leaves the
    // store complete; errors here have nowhere to go (use Sync() to
    // observe them).
    (void)FlushDirty();
}

serving::Status
PageCache::FrameFor(int64_t page, bool load_from_store,
                    int64_t* frame_out)
{
    if (const auto it = page_to_frame_.find(page);
        it != page_to_frame_.end()) {
        frames_[static_cast<size_t>(it->second)].referenced = true;
        stats_.hits++;
        TELEMETRY_COUNT("store.cache.hit", 1);
        *frame_out = it->second;
        return serving::Status::Ok();
    }
    stats_.misses++;
    TELEMETRY_COUNT("store.cache.miss", 1);

    // Clock sweep: give referenced frames a second chance, recycle the
    // first quiet frame (one lap clears every bit, so it ends within two).
    const int64_t cap = capacity_pages();
    int64_t victim = clock_hand_;
    while (frames_[static_cast<size_t>(victim)].referenced) {
        frames_[static_cast<size_t>(victim)].referenced = false;
        victim = (victim + 1) % cap;
    }
    clock_hand_ = (victim + 1) % cap;

    Frame& f = frames_[static_cast<size_t>(victim)];
    if (f.page >= 0) {
        if (f.dirty) {
            if (auto s = WriteBackFrame(victim); !s.ok()) return s;
        }
        page_to_frame_.erase(f.page);
        stats_.evictions++;
        TELEMETRY_COUNT("store.cache.evict", 1);
    }
    f.page = -1;
    f.dirty = false;
    if (load_from_store) {
        std::span<uint8_t> dst{FrameData(victim),
                               static_cast<size_t>(page_bytes())};
        if (auto s = store_->ReadPage(page, dst); !s.ok()) return s;
    }
    f.page = page;
    f.referenced = true;
    page_to_frame_[page] = victim;
    *frame_out = victim;
    return serving::Status::Ok();
}

serving::Status
PageCache::WriteBackFrame(int64_t frame)
{
    Frame& f = frames_[static_cast<size_t>(frame)];
    std::span<const uint8_t> src{FrameData(frame),
                                 static_cast<size_t>(page_bytes())};
    if (auto s = store_->WritePage(f.page, src); !s.ok()) return s;
    f.dirty = false;
    stats_.writebacks++;
    TELEMETRY_COUNT("store.cache.writeback", 1);
    return serving::Status::Ok();
}

serving::Status
PageCache::ReadPage(int64_t page, std::span<uint8_t> out)
{
    if (page < 0 || page >= num_pages() ||
        out.size() != static_cast<size_t>(page_bytes())) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "cache read: bad page " + std::to_string(page) +
                " or buffer size");
    }
    std::lock_guard<std::mutex> lock(mu_);
    int64_t frame = -1;
    if (auto s = FrameFor(page, true, &frame); !s.ok()) return s;
    std::memcpy(out.data(), FrameData(frame),
                static_cast<size_t>(page_bytes()));
    return serving::Status::Ok();
}

serving::Status
PageCache::WritePage(int64_t page, std::span<const uint8_t> in)
{
    if (page < 0 || page >= num_pages() ||
        in.size() != static_cast<size_t>(page_bytes())) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "cache write: bad page " + std::to_string(page) +
                " or buffer size");
    }
    std::lock_guard<std::mutex> lock(mu_);
    int64_t frame = -1;
    // The whole page is replaced, so a non-resident page needs no fetch.
    if (auto s = FrameFor(page, false, &frame); !s.ok()) return s;
    std::memcpy(FrameData(frame), in.data(),
                static_cast<size_t>(page_bytes()));
    frames_[static_cast<size_t>(frame)].dirty = true;
    return serving::Status::Ok();
}

serving::Status
PageCache::FlushDirty()
{
    std::lock_guard<std::mutex> lock(mu_);
    stats_.flushes++;
    for (int64_t i = 0; i < capacity_pages(); ++i) {
        const Frame& f = frames_[static_cast<size_t>(i)];
        if (f.page >= 0 && f.dirty) {
            if (auto s = WriteBackFrame(i); !s.ok()) return s;
        }
    }
    return serving::Status::Ok();
}

serving::Status
PageCache::Sync()
{
    if (auto s = FlushDirty(); !s.ok()) return s;
    std::lock_guard<std::mutex> lock(mu_);
    return store_->Sync();
}

PageCacheStats
PageCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

serving::Status
MakePageCache(const StoreConfig& config, int64_t num_pages,
              std::unique_ptr<PageCache>* out)
{
    out->reset();
    std::unique_ptr<BackingStore> store;
    if (auto s = MakeBackingStore(config, num_pages, &store); !s.ok()) {
        return s;
    }
    *out = std::make_unique<PageCache>(std::move(store),
                                       config.cache_pages);
    return serving::Status::Ok();
}

}  // namespace secemb::store
