#include "core/paged_generators.h"

#include <cassert>
#include <cstring>
#include <vector>

namespace secemb::core {

PagedScanTable::PagedScanTable(const Tensor& table,
                               const store::StoreConfig& config)
    : table_(table.data(), table.size(0), table.size(1), config)
{
}

void
PagedScanTable::Generate(std::span<const int64_t> indices, Tensor& out)
{
    assert(out.size(0) == static_cast<int64_t>(indices.size()) &&
           out.size(1) == dim());
    store::ThrowIfError(
        table_.LookupBatch(indices, out.data(), nthreads_));
}

RawOramTable::RawOramTable(const Tensor& table, Rng& rng,
                           const store::StoreConfig& store_config,
                           const store::RawOramConfig& oram_config)
    : rows_(table.size(0)), dim_(table.size(1))
{
    const int64_t pages = store::RawOram::PagesNeeded(
        rows_, dim_, store_config.page_bytes);
    std::unique_ptr<store::PageCache> cache;
    store::ThrowIfError(
        store::MakePageCache(store_config, pages, &cache));
    oram_ = std::make_unique<store::RawOram>(rows_, dim_, std::move(cache),
                                             rng, oram_config);
    // Model weights are public: bit-cast the float rows to words and load
    // them through the non-oblivious bulk path.
    static_assert(sizeof(float) == sizeof(uint32_t));
    std::vector<uint32_t> words(static_cast<size_t>(rows_ * dim_));
    std::memcpy(words.data(), table.data(), words.size() * sizeof(float));
    store::ThrowIfError(oram_->BulkLoad(words));
}

serving::Status
RawOramTable::Recover(int64_t rows, int64_t dim, Rng& rng,
                      const store::StoreConfig& store_config,
                      const store::RawOramConfig& oram_config,
                      std::unique_ptr<RawOramTable>* out)
{
    int64_t pages = 0;
    try {
        pages = store::RawOram::PagesNeeded(rows, dim,
                                            store_config.page_bytes);
    } catch (const store::StoreError& e) {
        return e.status();
    }
    store::StoreConfig open = store_config;
    open.create = false;  // reattach; the header validates geometry
    std::unique_ptr<store::PageCache> cache;
    if (auto s = store::MakePageCache(open, pages, &cache); !s.ok()) {
        return s;
    }
    std::unique_ptr<store::RawOram> oram;
    if (auto s = store::RawOram::Recover(rows, dim, std::move(cache), rng,
                                         oram_config, &oram);
        !s.ok()) {
        return s;
    }
    out->reset(new RawOramTable(rows, dim, std::move(oram)));
    return serving::Status::Ok();
}

void
RawOramTable::Generate(std::span<const int64_t> indices, Tensor& out)
{
    assert(out.size(0) == static_cast<int64_t>(indices.size()) &&
           out.size(1) == dim_);
    std::vector<uint32_t> block(static_cast<size_t>(dim_));
    for (size_t i = 0; i < indices.size(); ++i) {
        store::ThrowIfError(oram_->Read(indices[i], block));
        std::memcpy(out.data() + static_cast<int64_t>(i) * dim_,
                    block.data(), block.size() * sizeof(uint32_t));
    }
}

}  // namespace secemb::core
