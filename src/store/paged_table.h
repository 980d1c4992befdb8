#pragma once

/**
 * @file
 * Out-of-core oblivious linear scan: the paper's O(n) scan with the table
 * living in a BackingStore instead of RAM.
 *
 * Rows are packed page-granular — rows_per_page = page_bytes / row_bytes,
 * the last page zero-padded — so one scan stripe costs exactly one page.
 * A batched lookup streams every page through the bounded cache exactly
 * once and blends each page's rows into every batch slot with the same
 * constant-time selects the in-RAM scan uses. The page-fetch schedule is
 * therefore fixed: pages 0..P-1 in order, once per call, independent of
 * the (secret) indices — the out-of-core certified public schedule.
 *
 * The recorded trace is page-granular (one access per page per call in
 * the "store.scan.pages" region), matching what a controlled-channel
 * adversary observes of an out-of-core table.
 */

#include <cstdint>
#include <memory>
#include <span>

#include "sidechannel/trace.h"
#include "store/page_cache.h"

namespace secemb::store {

class PagedTable
{
  public:
    /**
     * Create the store (config geometry) and upload `rows` x `dim` floats.
     * Throws StoreError on creation/upload failure (constructors cannot
     * return Status); per-call IO errors are returned as Status.
     *
     * @param data row-major rows*dim floats (copied to the store)
     */
    PagedTable(const float* data, int64_t rows, int64_t dim,
               const StoreConfig& config);

    /**
     * Reattach to an existing on-disk table after a crash or restart:
     * opens the store with create=false (the header validates page size
     * and page count, so a geometry mismatch fails closed) and skips the
     * upload. The scan table keeps no client-side state beyond its
     * pages, so recovery is pure reattachment — the paged CRC table
     * catches torn page writes on first touch.
     */
    static serving::Status Recover(int64_t rows, int64_t dim,
                                   const StoreConfig& config,
                                   std::unique_ptr<PagedTable>* out);

    int64_t rows() const { return rows_; }
    int64_t dim() const { return dim_; }
    int64_t rows_per_page() const { return rows_per_page_; }
    int64_t num_pages() const { return num_pages_; }
    int64_t page_bytes() const { return cache_->page_bytes(); }

    /**
     * Oblivious batched lookup: out[i] = row indices[i], touching every
     * page once. out must hold indices.size()*dim floats. `nthreads`
     * parallelises the per-page blend over batch slots; the page schedule
     * and recorded trace are identical for every thread count.
     */
    serving::Status LookupBatch(std::span<const int64_t> indices,
                                float* out, int nthreads);

    /**
     * Pooled (multi-hot) lookup: out row b accumulates the sum of rows
     * indices[offsets[b]..offsets[b+1]). out must hold
     * (offsets.size()-1)*dim floats. Offsets must start at 0, end at
     * indices.size() and never decrease; others are kInvalidArgument.
     */
    serving::Status LookupPooled(std::span<const int64_t> indices,
                                 std::span<const int64_t> offsets,
                                 float* out, int nthreads);

    /** Flush dirty cache frames and sync the store durably. */
    serving::Status Sync() { return cache_->Sync(); }

    void set_recorder(sidechannel::TraceRecorder* recorder)
    {
        recorder_ = recorder;
    }

    /** Route fetch/write-back hops into a serving flight recorder. */
    void set_flight(serving::FlightRecorder* flight, int16_t feature = -1)
    {
        cache_->set_flight(flight, feature);
    }

    PageCacheStats cache_stats() const { return cache_->stats(); }
    std::string_view backend_name() const
    {
        return cache_->store().backend_name();
    }

    /** Resident bytes: cache frames (the table itself lives out of core). */
    int64_t MemoryFootprintBytes() const
    {
        return cache_->capacity_pages() * cache_->page_bytes();
    }

    /** Bytes occupied in the backing store. */
    int64_t DiskFootprintBytes() const
    {
        return num_pages_ * cache_->page_bytes();
    }

  private:
    /** For Recover(), which fills every field itself. */
    PagedTable() = default;

    /**
     * LookupBatch (offsets empty) or LookupPooled into `slots` rows of
     * out: every page is fetched once, in order, and scanned into every
     * slot.
     */
    serving::Status Scan(std::span<const int64_t> indices,
                         std::span<const int64_t> offsets, int64_t slots,
                         float* out, int nthreads);

    int64_t rows_ = 0;
    int64_t dim_ = 0;
    int64_t rows_per_page_ = 0;
    int64_t num_pages_ = 0;
    std::unique_ptr<PageCache> cache_;
    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t trace_base_ = 0;
};

}  // namespace secemb::store
