#include "store/paged_table.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "oblivious/scan.h"
#include "telemetry/telemetry.h"
#include "tensor/parallel.h"

namespace secemb::store {

PagedTable::PagedTable(const float* data, int64_t rows, int64_t dim,
                       const StoreConfig& config)
    : rows_(rows), dim_(dim)
{
    const int64_t row_bytes = dim * static_cast<int64_t>(sizeof(float));
    rows_per_page_ = config.page_bytes / row_bytes;
    if (rows <= 0 || dim <= 0 || rows_per_page_ < 1) {
        ThrowIfError(serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "paged table: page_bytes " + std::to_string(config.page_bytes) +
                " cannot hold one row of dim " + std::to_string(dim)));
    }
    num_pages_ = (rows + rows_per_page_ - 1) / rows_per_page_;
    ThrowIfError(MakePageCache(config, num_pages_, &cache_));
    trace_base_ = sidechannel::ProcessAddressSpace().Reserve(
        static_cast<uint64_t>(num_pages_ * cache_->page_bytes()), 4096,
        "store.scan.pages");

    // Upload row-major data page by page (tail page zero-padded).
    std::vector<uint8_t> page(static_cast<size_t>(cache_->page_bytes()),
                              0);
    for (int64_t p = 0; p < num_pages_; ++p) {
        std::memset(page.data(), 0, page.size());
        const int64_t first = p * rows_per_page_;
        const int64_t count = std::min(rows_per_page_, rows - first);
        std::memcpy(page.data(), data + first * dim,
                    static_cast<size_t>(count * row_bytes));
        ThrowIfError(cache_->WritePage(p, page));
    }
}

serving::Status
PagedTable::Recover(int64_t rows, int64_t dim, const StoreConfig& config,
                    std::unique_ptr<PagedTable>* out)
{
    const int64_t row_bytes = dim * static_cast<int64_t>(sizeof(float));
    if (rows <= 0 || dim <= 0 || config.page_bytes < row_bytes) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "paged table recover: page_bytes " +
                std::to_string(config.page_bytes) +
                " cannot hold one row of dim " + std::to_string(dim));
    }
    auto table = std::unique_ptr<PagedTable>(new PagedTable());
    table->rows_ = rows;
    table->dim_ = dim;
    table->rows_per_page_ = config.page_bytes / row_bytes;
    table->num_pages_ =
        (rows + table->rows_per_page_ - 1) / table->rows_per_page_;
    StoreConfig open = config;
    open.create = false;  // the store header rejects wrong geometry
    if (auto s = MakePageCache(open, table->num_pages_, &table->cache_);
        !s.ok()) {
        return s;
    }
    table->trace_base_ = sidechannel::ProcessAddressSpace().Reserve(
        static_cast<uint64_t>(table->num_pages_ *
                              table->cache_->page_bytes()),
        4096, "store.scan.pages");
    *out = std::move(table);
    return serving::Status::Ok();
}

serving::Status
PagedTable::LookupBatch(std::span<const int64_t> indices, float* out,
                        int nthreads)
{
    TELEMETRY_SPAN("store.paged_scan.batch");
    return Scan(indices, {}, static_cast<int64_t>(indices.size()), out,
                nthreads);
}

serving::Status
PagedTable::LookupPooled(std::span<const int64_t> indices,
                         std::span<const int64_t> offsets, float* out,
                         int nthreads)
{
    TELEMETRY_SPAN("store.paged_scan.pooled");
    if (offsets.empty() || offsets.front() != 0 ||
        offsets.back() != static_cast<int64_t>(indices.size()) ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "pooled lookup: bad offsets");
    }
    return Scan(indices, offsets, static_cast<int64_t>(offsets.size()) - 1,
                out, nthreads);
}

serving::Status
PagedTable::Scan(std::span<const int64_t> indices,
                 std::span<const int64_t> offsets, int64_t slots,
                 float* out, int nthreads)
{
    for (const int64_t idx : indices) {
        if (idx < 0 || idx >= rows_) {
            return serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                "index " + std::to_string(idx) + " out of range [0, " +
                    std::to_string(rows_) + ")");
        }
    }
    const std::span<float> slots_out(out,
                                     static_cast<size_t>(slots * dim_));
    std::fill(slots_out.begin(), slots_out.end(), 0.0f);
    std::vector<uint8_t> page(static_cast<size_t>(cache_->page_bytes()));
    for (int64_t p = 0; p < num_pages_; ++p) {
        if (recorder_ != nullptr) {
            recorder_->Record(
                trace_base_ +
                    static_cast<uint64_t>(p * cache_->page_bytes()),
                static_cast<uint32_t>(cache_->page_bytes()), false);
        }
        if (auto s = cache_->ReadPage(p, page); !s.ok()) return s;
        const int64_t first = p * rows_per_page_;
        const int64_t count = std::min(rows_per_page_, rows_ - first);
        const std::span<const float> block(
            reinterpret_cast<const float*>(page.data()),
            static_cast<size_t>(count * dim_));
        ParallelFor(slots, nthreads, [&](int64_t b0, int64_t b1) {
            oblivious::ScanRows(block, first, dim_, indices, offsets, b0,
                                b1, slots_out);
        });
    }
    return serving::Status::Ok();
}

}  // namespace secemb::store
