#include "core/table_generators.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "oblivious/scan.h"
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
    TELEMETRY_SCOPED_COUNTERS("scan.generate");
    TELEMETRY_SCOPED_LATENCY("scan.generate.ns");
    const int64_t n = static_cast<int64_t>(indices.size());
    const int64_t d = dim();
    assert(out.size(0) == n && out.size(1) == d);
    assert(std::all_of(indices.begin(), indices.end(), [&](int64_t idx) {
        return idx >= 0 && idx < num_rows();
    }));
    // Every id reads the whole table whatever its value, so the trace is
    // recorded up front and the scan itself runs untraced.
    if (recorder_ != nullptr) {
        for (int64_t i = 0; i < n; ++i) {
            recorder_->Record(trace_base_,
                              static_cast<uint32_t>(table_.SizeBytes()),
                              false);
        }
    }
    // A full pass over the table per id; slots split across threads.
    ParallelFor(n, nthreads_, [&](int64_t b0, int64_t b1) {
        oblivious::ScanRows(table_.flat(), 0, d, indices, b0, b1,
                            out.flat());
    });
}

// ---------------------------------------------------------------------------
// OramTable
// ---------------------------------------------------------------------------

namespace {

/** A `kind` tree bulk-loaded with the rows of `table`. */
std::unique_ptr<oram::TreeOram>
LoadTree(const Tensor& table, oram::OramKind kind, Rng& rng,
         const oram::OramParams* params)
{
    auto tree =
        oram::MakeOram(kind, table.size(0), table.size(1), rng, params);
    // Embedding floats are bit-cast into the ORAM's opaque words.
    static_assert(sizeof(float) == sizeof(uint32_t));
    std::vector<uint32_t> words(static_cast<size_t>(table.numel()));
    std::memcpy(words.data(), table.data(),
                words.size() * sizeof(uint32_t));
    tree->BulkLoad(words);
    return tree;
}

}  // namespace

OramTable::OramTable(const Tensor& table, oram::OramKind kind, Rng& rng,
                     const oram::OramParams* params)
    : rows_(table.size(0)),
      dim_(table.size(1)),
      oram_(LoadTree(table, kind, rng, params))
{
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
                                   Rng& rng, const oram::ProxyConfig& config)
    : rows_(table.size(0)),
      dim_(table.size(1)),
      proxy_(std::make_unique<oram::OramProxy>(
          LoadTree(table, kind, rng, nullptr), config))
{
}

void
ProxiedOramTable::Generate(std::span<const int64_t> indices, Tensor& out)
{
    assert(out.size(0) == static_cast<int64_t>(indices.size()) &&
           out.size(1) == dim_);
    std::vector<uint32_t> words(static_cast<size_t>(out.numel()));
    proxy_->ReadBatch(indices, words);
    std::memcpy(out.data(), words.data(), words.size() * sizeof(float));
}

}  // namespace secemb::core
