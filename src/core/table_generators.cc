#include "core/table_generators.h"

#include <cassert>
#include <cstring>

#include "oblivious/scan.h"
#include "oblivious/vector_scan.h"
#include "perfmon/perfmon.h"
#include "telemetry/telemetry.h"
#include "tensor/parallel.h"

namespace secemb::core {

// ---------------------------------------------------------------------------
// TableLookup
// ---------------------------------------------------------------------------

TableLookup::TableLookup(Tensor table)
    : table_(std::move(table)),
      trace_base_(sidechannel::ProcessAddressSpace().Reserve(
          static_cast<uint64_t>(table_.SizeBytes()), 64, "table.lookup"))
{
    assert(table_.dim() == 2);
}

void
TableLookup::Generate(std::span<const int64_t> indices, Tensor& out)
{
    const int64_t n = static_cast<int64_t>(indices.size());
    const int64_t d = dim();
    assert(out.size(0) == n && out.size(1) == d);
    const uint32_t row_bytes = static_cast<uint32_t>(d * 4);
    for (int64_t i = 0; i < n; ++i) {
        const int64_t idx = indices[static_cast<size_t>(i)];
        assert(idx >= 0 && idx < num_rows());
        // The secret-dependent access the attacker observes.
        if (recorder_) {
            recorder_->Record(
                trace_base_ + static_cast<uint64_t>(idx) * row_bytes,
                row_bytes, false);
        }
        std::memcpy(out.data() + i * d, table_.data() + idx * d,
                    static_cast<size_t>(d) * sizeof(float));
    }
}

// ---------------------------------------------------------------------------
// LinearScanTable
// ---------------------------------------------------------------------------

LinearScanTable::LinearScanTable(Tensor table)
    : table_(std::move(table)),
      trace_base_(sidechannel::ProcessAddressSpace().Reserve(
          static_cast<uint64_t>(table_.SizeBytes()), 64, "table.scan"))
{
    assert(table_.dim() == 2);
}

void
LinearScanTable::Generate(std::span<const int64_t> indices, Tensor& out)
{
    const int64_t n = static_cast<int64_t>(indices.size());
    const int64_t d = dim();
    const int64_t rows = num_rows();
    assert(out.size(0) == n && out.size(1) == d);
    TELEMETRY_SCOPED_COUNTERS("scan.generate");
    TELEMETRY_SCOPED_LATENCY("scan.generate.ns");

    // Every query reads the whole table whatever its index, so the trace
    // is recorded up front and the scan itself runs untraced.
    if (recorder_ != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
            recorder_->Record(trace_base_,
                              static_cast<uint32_t>(table_.SizeBytes()),
                              false);
        }
    }
    oblivious::LinearScanLookupBatch(
        table_.flat(), rows, d, indices,
        {out.data(), static_cast<size_t>(n * d)}, nthreads_);
}

void
LinearScanTable::GeneratePooled(std::span<const int64_t> indices,
                                std::span<const int64_t> offsets,
                                Tensor& out)
{
    const int64_t n = static_cast<int64_t>(offsets.size()) - 1;
    const int64_t d = dim();
    const int64_t rows = num_rows();
    assert(out.size(0) == n && out.size(1) == d);
    TELEMETRY_SCOPED_COUNTERS("scan.generate_pooled");
    TELEMETRY_SCOPED_LATENCY("scan.generate.ns");
    // One whole-table read per bag element, recorded up front as in
    // Generate (bag sizes are public; see
    // EmbeddingGenerator::GeneratePooled).
    if (recorder_ != nullptr) {
        for (int64_t e = offsets.front(); e < offsets.back(); ++e) {
            recorder_->Record(trace_base_,
                              static_cast<uint32_t>(table_.SizeBytes()),
                              false);
        }
    }
    // Accumulating scans: one pass over the table per bag element,
    // summing directly into the output row (no per-element buffer).
    out.Fill(0.0f);
    ParallelFor(n, nthreads_, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            for (int64_t e = offsets[static_cast<size_t>(i)];
                 e < offsets[static_cast<size_t>(i) + 1]; ++e) {
                oblivious::LinearScanLookupAccumulate(
                    table_.flat(), rows, d,
                    indices[static_cast<size_t>(e)],
                    {out.data() + i * d, static_cast<size_t>(d)});
            }
        }
    });
}

// ---------------------------------------------------------------------------
// OramTable
// ---------------------------------------------------------------------------

OramTable::OramTable(const Tensor& table, oram::OramKind kind, Rng& rng,
                     const oram::OramParams* params)
    : rows_(table.size(0)), dim_(table.size(1))
{
    oram_ = oram::MakeOram(kind, rows_, dim_, rng, params);
    // Embedding floats are bit-cast into the ORAM's opaque words.
    static_assert(sizeof(float) == sizeof(uint32_t));
    std::vector<uint32_t> words(static_cast<size_t>(table.numel()));
    std::memcpy(words.data(), table.data(),
                words.size() * sizeof(uint32_t));
    oram_->BulkLoad(words);
}

void
OramTable::Generate(std::span<const int64_t> indices, Tensor& out)
{
    const int64_t n = static_cast<int64_t>(indices.size());
    assert(out.size(0) == n && out.size(1) == dim_);
    std::vector<uint32_t> block(static_cast<size_t>(dim_));
    // Sequential by necessity: each access mutates the controller.
    for (int64_t i = 0; i < n; ++i) {
        oram_->Read(indices[static_cast<size_t>(i)], block);
        std::memcpy(out.data() + i * dim_, block.data(),
                    block.size() * sizeof(float));
    }
}

// ---------------------------------------------------------------------------
// ProxiedOramTable
// ---------------------------------------------------------------------------

ProxiedOramTable::ProxiedOramTable(const Tensor& table, oram::OramKind kind,
                                   Rng& rng,
                                   const oram::OramParams* params,
                                   const oram::ProxyConfig& config)
    : rows_(table.size(0)), dim_(table.size(1))
{
    auto tree = oram::MakeOram(kind, rows_, dim_, rng, params);
    static_assert(sizeof(float) == sizeof(uint32_t));
    std::vector<uint32_t> words(static_cast<size_t>(table.numel()));
    std::memcpy(words.data(), table.data(),
                words.size() * sizeof(uint32_t));
    tree->BulkLoad(words);
    proxy_ = std::make_unique<oram::OramProxy>(std::move(tree), config);
}

void
ProxiedOramTable::Generate(std::span<const int64_t> indices, Tensor& out)
{
    const int64_t n = static_cast<int64_t>(indices.size());
    assert(out.size(0) == n && out.size(1) == dim_);
    // Submit the whole batch, then collect: in-window duplicates coalesce
    // and the conductor overlaps eviction with the following accesses.
    std::vector<std::future<std::vector<uint32_t>>> futures;
    futures.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
        futures.push_back(
            proxy_->SubmitRead(indices[static_cast<size_t>(i)]));
    }
    proxy_->Flush();
    for (int64_t i = 0; i < n; ++i) {
        const std::vector<uint32_t> block =
            futures[static_cast<size_t>(i)].get();
        std::memcpy(out.data() + i * dim_, block.data(),
                    block.size() * sizeof(float));
    }
}

}  // namespace secemb::core
