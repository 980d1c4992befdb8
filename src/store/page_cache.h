#pragma once

/**
 * @file
 * Bounded in-memory page cache over a BackingStore.
 *
 * Classic buffer-pool design: a fixed number of page frames, a hash map
 * from page index to frame, clock (second-chance) eviction, and dirty
 * write-back — a page modified in cache is written to the store only when
 * its frame is evicted or on FlushDirty()/Sync().
 *
 * Thread-safe: all operations take one internal mutex, so concurrent
 * readers and a write-back thread interleave safely (the TSan-certified
 * stress case).
 *
 * Obliviousness note: the cache itself records no trace — the layers
 * above record *logical* page accesses before calling in. Because clock
 * eviction is a deterministic function of the logical access sequence and
 * the (public) capacity, the physical fetch/write-back schedule is a
 * public function of the certified logical schedule (DESIGN.md
 * "Out-of-core storage").
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "store/backing_store.h"

namespace secemb::store {

/** Cumulative cache counters (monotonic since construction). */
struct PageCacheStats
{
    int64_t hits = 0;        ///< requests served from a resident frame
    int64_t misses = 0;      ///< requests that fetched from the store
    int64_t evictions = 0;   ///< frames recycled by the clock hand
    int64_t writebacks = 0;  ///< dirty pages written to the store
    int64_t flushes = 0;     ///< FlushDirty()/Sync() calls
};

class PageCache
{
  public:
    /**
     * @param store the backing store (owned)
     * @param capacity_pages frame count; clamped to [1, store pages]
     */
    PageCache(std::unique_ptr<BackingStore> store, int64_t capacity_pages);
    ~PageCache();

    int64_t page_bytes() const { return store_->page_bytes(); }
    int64_t num_pages() const { return store_->num_pages(); }
    int64_t capacity_pages() const
    {
        return static_cast<int64_t>(frames_.size());
    }

    /** Copy page `page` into out (exactly page_bytes). */
    serving::Status ReadPage(int64_t page, std::span<uint8_t> out);

    /** Replace page `page` from in; written back lazily. */
    serving::Status WritePage(int64_t page, std::span<const uint8_t> in);

    /** Write every dirty frame back to the store (frames stay resident). */
    serving::Status FlushDirty();

    /** FlushDirty() + durable store sync (checksum table, msync/fsync). */
    serving::Status Sync();

    PageCacheStats stats() const;

    BackingStore& store() { return *store_; }

  private:
    struct Frame
    {
        int64_t page = -1;  ///< resident page, -1 = free
        bool dirty = false;
        bool referenced = false;  ///< clock second-chance bit
    };

    uint8_t* FrameData(int64_t frame)
    {
        return data_.data() + frame * store_->page_bytes();
    }

    /** Locate `page` in a frame, fetching and evicting as needed.
     *  Called with mu_ held. */
    serving::Status FrameFor(int64_t page, bool load_from_store,
                             int64_t* frame_out);

    /** Write frame's dirty payload back. Called with mu_ held. */
    serving::Status WriteBackFrame(int64_t frame);

    mutable std::mutex mu_;
    std::unique_ptr<BackingStore> store_;
    std::vector<uint8_t> data_;
    std::vector<Frame> frames_;
    std::unordered_map<int64_t, int64_t> page_to_frame_;
    int64_t clock_hand_ = 0;
    PageCacheStats stats_;
};

/** Convenience: build the configured store + cache in one call. */
serving::Status MakePageCache(const StoreConfig& config, int64_t num_pages,
                              std::unique_ptr<PageCache>* out);

}  // namespace secemb::store
