#include "core/hybrid.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "perfmon/perfmon.h"
#include "telemetry/telemetry.h"

namespace secemb::core {

void
ThresholdTable::Add(const ThresholdEntry& entry)
{
    // Lookup computes log2(batch/entry.batch) and log2(threads/
    // entry.threads); a non-positive stored value makes both distances
    // NaN, and NaN never compares < best_dist, so every lookup would
    // silently fall through to the fallback. Reject at insertion.
    if (entry.batch_size <= 0 || entry.nthreads <= 0) {
        throw std::invalid_argument(
            "ThresholdTable::Add: batch_size and nthreads must be "
            "positive (got batch_size=" +
            std::to_string(entry.batch_size) +
            ", nthreads=" + std::to_string(entry.nthreads) + ")");
    }
    if (entry.table_size_threshold < 0) {
        throw std::invalid_argument(
            "ThresholdTable::Add: table_size_threshold must be "
            "non-negative (got " +
            std::to_string(entry.table_size_threshold) + ")");
    }
    entries_.push_back(entry);
}

int64_t
ThresholdTable::Lookup(int batch_size, int nthreads, int64_t fallback) const
{
    if (entries_.empty()) return fallback;
    double best_dist = std::numeric_limits<double>::infinity();
    int64_t best = fallback;
    for (const auto& e : entries_) {
        const double db = std::log2(static_cast<double>(batch_size) /
                                    static_cast<double>(e.batch_size));
        const double dt = std::log2(static_cast<double>(nthreads) /
                                    static_cast<double>(e.nthreads));
        const double dist = db * db + dt * dt;
        if (dist < best_dist) {
            best_dist = dist;
            best = e.table_size_threshold;
        }
    }
    return best;
}

Technique
ChooseTechnique(int64_t table_size, int64_t threshold)
{
    // Explicit tie-break: the profiled threshold is the smallest table
    // size where DHE is at least as fast as the scan, so a table exactly
    // at the threshold takes the DHE side (>=, not >). Pinned by the
    // HybridTest.ThresholdBoundaryTieBreak regression test.
    if (table_size >= threshold) return Technique::kDhe;
    return Technique::kLinearScan;
}

HybridGenerator::HybridGenerator(std::shared_ptr<dhe::DheEmbedding> dhe,
                                 int64_t table_size,
                                 const ThresholdTable& thresholds,
                                 int batch_size, int nthreads)
    : dhe_(std::move(dhe)), table_size_(table_size)
{
    assert(dhe_ != nullptr && table_size > 0);
    dhe_gen_ = std::make_unique<DheGenerator>(dhe_, table_size_);
    technique_ = Technique::kDhe;  // overwritten below
    Reconfigure(thresholds, batch_size, nthreads);
}

void
HybridGenerator::Reconfigure(const ThresholdTable& thresholds,
                             int batch_size, int nthreads)
{
    nthreads_ = nthreads;
    const int64_t threshold = thresholds.Lookup(batch_size, nthreads);
    technique_ = ChooseTechnique(table_size_, threshold);
    TELEMETRY_COUNT("hybrid.reconfigure", 1);
    if (technique_ == Technique::kLinearScan && !scan_) {
        // Materialise the table from the trained DHE once; later
        // reconfigurations reuse it (Algorithm 2, offline step 2).
        scan_ = std::make_unique<LinearScanTable>(
            dhe_->ToTable(table_size_));
        scan_->set_recorder(recorder_);
    }
    Active().set_nthreads(nthreads);
}

void
HybridGenerator::set_recorder(sidechannel::TraceRecorder* recorder)
{
    // Both constituents get the recorder: only the active one generates,
    // and a later Reconfigure must not silently drop the attachment.
    recorder_ = recorder;
    dhe_gen_->set_recorder(recorder);
    if (scan_) scan_->set_recorder(recorder);
}

EmbeddingGenerator&
HybridGenerator::Active()
{
    if (technique_ == Technique::kLinearScan) {
        assert(scan_ != nullptr);
        return *scan_;
    }
    return *dhe_gen_;
}

void
HybridGenerator::Generate(std::span<const int64_t> indices, Tensor& out)
{
    TELEMETRY_SCOPED_COUNTERS("hybrid.generate");
    // The dispatch count leaks only the technique choice, which is a
    // function of public quantities (table size, execution config) — the
    // same thing HybridGenerator::name() already exposes.
    if (technique_ == Technique::kLinearScan) {
        TELEMETRY_COUNT("hybrid.dispatch.scan", 1);
    } else {
        TELEMETRY_COUNT("hybrid.dispatch.dhe", 1);
    }
    Active().Generate(indices, out);
}

int64_t
HybridGenerator::dim() const
{
    return dhe_->out_dim();
}

int64_t
HybridGenerator::MemoryFootprintBytes() const
{
    // Deployment keeps only the representation in use: below-threshold
    // features ship as tables, above-threshold as DHE (paper Table VI —
    // this is why Hybrid is smaller than all-DHE).
    if (technique_ == Technique::kLinearScan && scan_) {
        return scan_->MemoryFootprintBytes();
    }
    return dhe_->ParamBytes();
}

std::string_view
HybridGenerator::name() const
{
    return technique_ == Technique::kLinearScan ? "Hybrid(LinearScan)"
                                                : "Hybrid(DHE)";
}

void
HybridGenerator::set_nthreads(int nthreads)
{
    nthreads_ = nthreads;
    Active().set_nthreads(nthreads);
}

void
HybridGenerator::set_precision(kernels::Dtype dtype)
{
    dhe_->set_dtype(dtype);
}

}  // namespace secemb::core
