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
 * Embedding table behind the coalescing ORAM proxy (src/oram/proxy): a
 * batch is served in fixed windows, in-window duplicates share one
 * physical access, and dummy reads pad every window back to its size, so
 * the schedule reveals only the batch size.
 */
class ProxiedOramTable : public EmbeddingGenerator
{
  public:
    /**
     * @param table (rows x dim) trained table, bulk-loaded into the tree
     * @param kind Path or Circuit
     * @param rng leaf randomness
     * @param config proxy tunables (the window size)
     */
    ProxiedOramTable(const Tensor& table, oram::OramKind kind, Rng& rng,
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
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        proxy_->oram().set_recorder(r);
    }

    oram::OramProxy& proxy() { return *proxy_; }

  private:
    int64_t rows_;
    int64_t dim_;
    std::unique_ptr<oram::OramProxy> proxy_;
};

}  // namespace secemb::core
