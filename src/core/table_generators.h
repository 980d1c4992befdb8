#pragma once

/**
 * @file
 * Storage-based embedding generators: non-secure lookup, oblivious linear
 * scan, and ORAM-protected tables.
 */

#include <memory>

#include "core/embedding_generator.h"
#include "oram/proxy.h"
#include "oram/tree_oram.h"

namespace secemb::core {

/**
 * Non-secure embedding table gather — the paper's "Index Lookup" baseline
 * and the victim of the Fig. 3 attack: it touches exactly the row named by
 * each (secret) index.
 */
class TableLookup : public EmbeddingGenerator
{
  public:
    /** @param table (rows x dim) trained embedding table; copied in. */
    explicit TableLookup(Tensor table);

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    int64_t dim() const override { return table_.size(1); }
    int64_t num_rows() const override { return table_.size(0); }
    int64_t MemoryFootprintBytes() const override
    {
        return table_.SizeBytes();
    }
    std::string_view name() const override { return "Index Lookup"; }
    bool IsOblivious() const override { return false; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        recorder_ = r;
    }

    /** Virtual base address of the table (attack demos need it). */
    uint64_t trace_base() const { return trace_base_; }
    const Tensor& table() const { return table_; }

  private:
    Tensor table_;
    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t trace_base_;
};

/**
 * Oblivious linear scan: every query reads the entire table and blends out
 * the requested row branchlessly (paper Section V-A2). O(n) per query but
 * unbeatable for small tables.
 */
class LinearScanTable : public EmbeddingGenerator
{
  public:
    explicit LinearScanTable(Tensor table);

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    void GeneratePooled(std::span<const int64_t> indices,
                        std::span<const int64_t> offsets,
                        Tensor& out) override;
    int64_t dim() const override { return table_.size(1); }
    int64_t num_rows() const override { return table_.size(0); }
    int64_t MemoryFootprintBytes() const override
    {
        return table_.SizeBytes();
    }
    std::string_view name() const override { return "Linear Scan"; }
    bool IsOblivious() const override { return true; }
    void set_nthreads(int nthreads) override { nthreads_ = nthreads; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        recorder_ = r;
    }

    uint64_t trace_base() const { return trace_base_; }

  private:
    /** Generate (offsets empty) or GeneratePooled into `slots` rows. */
    void Scan(std::span<const int64_t> indices,
              std::span<const int64_t> offsets, int64_t slots, Tensor& out);

    Tensor table_;
    int nthreads_ = 1;
    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t trace_base_;
};

/**
 * Embedding table stored in a Path or Circuit ORAM (paper Section V-A1).
 * Batch entries are processed sequentially: the controller state must be
 * updated between accesses (the scaling weakness Fig. 12 exposes).
 */
class OramTable : public EmbeddingGenerator
{
  public:
    /**
     * @param table (rows x dim) trained table, bulk-loaded into the tree
     * @param kind Path or Circuit
     * @param rng leaf randomness
     * @param params optional overrides; defaults follow the paper
     */
    OramTable(const Tensor& table, oram::OramKind kind, Rng& rng,
              const oram::OramParams* params = nullptr);

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    int64_t dim() const override { return dim_; }
    int64_t num_rows() const override { return rows_; }
    int64_t MemoryFootprintBytes() const override
    {
        return oram_->MemoryFootprintBytes();
    }
    std::string_view name() const override
    {
        return oram_->kind() == oram::OramKind::kPath ? "Path ORAM"
                                                      : "Circuit ORAM";
    }
    bool IsOblivious() const override { return true; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        oram_->set_recorder(r);
    }

    oram::TreeOram& oram() { return *oram_; }

  private:
    int64_t rows_;
    int64_t dim_;
    std::unique_ptr<oram::TreeOram> oram_;
};

/**
 * Embedding table behind the asynchronous ORAM proxy (src/oram/proxy):
 * batch entries are submitted to the proxy's request queue, duplicates
 * coalesce into one physical access per window, and eviction work overlaps
 * the next access on pool threads — the concurrent answer to the
 * sequential-controller weakness OramTable documents.
 */
class ProxiedOramTable : public EmbeddingGenerator
{
  public:
    /**
     * @param table (rows x dim) trained table, bulk-loaded into the tree
     * @param kind Path or Circuit (Circuit serves via the serial fallback)
     * @param rng leaf randomness
     * @param params optional ORAM overrides; defaults follow the paper
     * @param config proxy tunables (window, threads, queue, flight sink)
     */
    ProxiedOramTable(const Tensor& table, oram::OramKind kind, Rng& rng,
                     const oram::OramParams* params = nullptr,
                     const oram::ProxyConfig& config = {});

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    int64_t dim() const override { return dim_; }
    int64_t num_rows() const override { return rows_; }
    int64_t MemoryFootprintBytes() const override
    {
        return proxy_->oram().MemoryFootprintBytes();
    }
    std::string_view name() const override
    {
        return proxy_->oram().kind() == oram::OramKind::kPath
                   ? "Path ORAM (proxy)"
                   : "Circuit ORAM (proxy)";
    }
    bool IsOblivious() const override { return true; }
    void set_nthreads(int nthreads) override
    {
        proxy_->set_nthreads(nthreads);
    }
    /** The conductor thread records: quiesce it before the swap. */
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        proxy_->Flush();
        proxy_->oram().set_recorder(r);
    }

    /** Route the proxy's lifecycle hops into a serving flight recorder. */
    void set_flight(serving::FlightRecorder* flight)
    {
        proxy_->set_flight(flight);
    }

    oram::OramProxy& proxy() { return *proxy_; }

  private:
    int64_t rows_;
    int64_t dim_;
    std::unique_ptr<oram::OramProxy> proxy_;
};

}  // namespace secemb::core
