#pragma once

/**
 * @file
 * Out-of-core embedding generators: the oblivious techniques of
 * table_generators.h with the table living in a src/store BackingStore
 * (file, mmap, or memory) behind a bounded page cache, instead of in RAM.
 *
 * Generate() is a void interface, so per-call store IO failures surface as
 * store::StoreError — the typed bridge serving::Server unwraps back into a
 * serving::Status for the response (chaos tests assert the mapping per
 * fault class).
 */

#include <cstdint>
#include <memory>

#include "core/embedding_generator.h"
#include "store/paged_table.h"
#include "store/raw_oram.h"
#include "tensor/rng.h"

namespace secemb::core {

/**
 * Oblivious linear scan over a paged out-of-core table: every query
 * streams all pages through the bounded cache once — the certified public
 * page schedule (pages 0..P-1, in order, independent of the indices).
 */
class PagedScanTable : public EmbeddingGenerator
{
  public:
    /** Copies `table` (rows x dim) into a store built from `config`.
     *  Throws store::StoreError on store creation/upload failure. */
    PagedScanTable(const Tensor& table, const store::StoreConfig& config);

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    int64_t dim() const override { return table_.dim(); }
    int64_t num_rows() const override { return table_.rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return table_.MemoryFootprintBytes();
    }
    std::string_view name() const override { return "Paged Linear Scan"; }
    bool IsOblivious() const override { return true; }
    void set_nthreads(int nthreads) override { nthreads_ = nthreads; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        table_.set_recorder(r);
    }

    /** Flush dirty cache frames and sync the store durably. */
    serving::Status SyncStorage() override { return table_.Sync(); }
    /** The scan table's durable state IS its pages: checkpoint = sync. */
    serving::Status CheckpointStorage() override { return table_.Sync(); }

    store::PagedTable& paged() { return table_; }

  private:
    store::PagedTable table_;
    int nthreads_ = 1;
};

/**
 * Embedding table behind the page-optimized RAW ORAM (src/store/raw_oram):
 * one bucket = one store page, read paths with no write-back, eviction
 * amortized every A accesses. Batch entries are processed sequentially
 * (ORAM controller state), like OramTable.
 */
class RawOramTable : public EmbeddingGenerator
{
  public:
    /**
     * Builds the store (store_config geometry; num_pages is derived from
     * RawOram::PagesNeeded) and bulk-loads `table` (rows x dim). Throws
     * store::StoreError on failure.
     */
    RawOramTable(const Tensor& table, Rng& rng,
                 const store::StoreConfig& store_config,
                 const store::RawOramConfig& oram_config = {});

    /**
     * Reopen a crashed durable RAW ORAM table (store::RawOram::Recover):
     * `store_config.path` must hold the page file and
     * `oram_config.durability.dir` the checkpoint + journal. Fails
     * closed with the recovery path's typed errors; on success the
     * table serves exactly the acknowledged pre-crash state.
     */
    static serving::Status Recover(int64_t rows, int64_t dim, Rng& rng,
                                   const store::StoreConfig& store_config,
                                   const store::RawOramConfig& oram_config,
                                   std::unique_ptr<RawOramTable>* out);

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    int64_t dim() const override { return dim_; }
    int64_t num_rows() const override { return rows_; }
    int64_t MemoryFootprintBytes() const override
    {
        return oram_->MemoryFootprintBytes();
    }
    std::string_view name() const override { return "RAW ORAM"; }
    bool IsOblivious() const override { return true; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        oram_->set_recorder(r);
    }

    /** Flush dirty cache frames and sync the store durably. */
    serving::Status SyncStorage() override { return oram_->Sync(); }
    /** Seal a checkpoint + reset the journal (Ok no-op if not durable). */
    serving::Status CheckpointStorage() override
    {
        return oram_->Checkpoint();
    }

    store::RawOram& oram() { return *oram_; }

  private:
    /** For Recover(). */
    RawOramTable(int64_t rows, int64_t dim,
                 std::unique_ptr<store::RawOram> oram)
        : rows_(rows), dim_(dim), oram_(std::move(oram))
    {
    }

    int64_t rows_;
    int64_t dim_;
    std::unique_ptr<store::RawOram> oram_;
};

}  // namespace secemb::core
