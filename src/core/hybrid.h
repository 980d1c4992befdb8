#pragma once

/**
 * @file
 * The paper's hybrid scheme for DLRM (Section IV-C, Algorithms 2 & 3):
 * an offline-profiled threshold table maps each execution configuration
 * (batch size, thread count) to the table size at which DHE overtakes
 * linear scan; at deployment each sparse feature is served by whichever
 * technique its table size selects.
 *
 * Security note (Section V-B): the choice depends only on public
 * quantities — table size and execution configuration — never on input
 * values, so the hybrid scheme leaks nothing beyond its constituents.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dhe_generator.h"
#include "core/embedding_generator.h"
#include "core/table_generators.h"

namespace secemb::core {

/** The two techniques the DLRM hybrid chooses between. */
enum class Technique
{
    kLinearScan,
    kDhe,
};

/** One profiled crossover point. */
struct ThresholdEntry
{
    int batch_size;
    int nthreads;
    int64_t table_size_threshold;  ///< scan below, DHE at/above
};

/**
 * Offline-profiled thresholds indexed by execution configuration
 * (the "profiled database" of Section IV-C1).
 */
class ThresholdTable
{
  public:
    /**
     * Append a profiled entry. Throws std::invalid_argument unless
     * batch_size > 0, nthreads > 0, and table_size_threshold >= 0:
     * Lookup takes log2 of configuration ratios, and a non-positive
     * entry would yield NaN distances that never compare less-than —
     * silently disabling the whole table.
     */
    void Add(const ThresholdEntry& entry);

    /**
     * Threshold for the given configuration; picks the nearest profiled
     * configuration (log-distance in batch, absolute in threads) when the
     * exact one is missing. Returns fallback if empty.
     */
    int64_t Lookup(int batch_size, int nthreads,
                   int64_t fallback = 4096) const;

    const std::vector<ThresholdEntry>& entries() const { return entries_; }
    bool empty() const { return entries_.empty(); }

  private:
    std::vector<ThresholdEntry> entries_;
};

/**
 * Algorithm 3's online decision for one feature.
 *
 * Tie-break: a table whose size is exactly the profiled threshold is
 * served by DHE. The threshold is defined as the smallest table size at
 * which DHE is measured to be at least as fast as the scan, so the
 * boundary belongs to the DHE side (ThresholdEntry: "scan below, DHE
 * at/above").
 */
Technique ChooseTechnique(int64_t table_size, int64_t threshold);

/**
 * Hybrid per-feature generator.
 *
 * Owns the trained DHE; when the current execution configuration selects
 * linear scan, the table representation is materialised once from the DHE
 * outputs (Algorithm 2, offline step 2) and reused.
 */
class HybridGenerator : public EmbeddingGenerator
{
  public:
    /**
     * @param dhe trained DHE for this feature
     * @param table_size feature cardinality
     * @param thresholds profiled threshold database
     * @param batch_size / nthreads current execution configuration
     */
    HybridGenerator(std::shared_ptr<dhe::DheEmbedding> dhe,
                    int64_t table_size, const ThresholdTable& thresholds,
                    int batch_size, int nthreads);

    void Generate(std::span<const int64_t> indices, Tensor& out) override;
    int64_t dim() const override;
    int64_t num_rows() const override { return table_size_; }
    int64_t MemoryFootprintBytes() const override;
    std::string_view name() const override;
    bool IsOblivious() const override { return true; }
    void set_nthreads(int nthreads) override;
    /** Forwarded to both constituents (whichever is active records). */
    void set_recorder(sidechannel::TraceRecorder* recorder) override;
    /** Forwarded to the DHE decoder; the scan side has no GEMM. */
    void set_precision(kernels::Dtype dtype) override;

    /** Re-run the online decision (Algorithm 3) for a new execution
     *  configuration; the constructor runs it once. */
    void Reconfigure(const ThresholdTable& thresholds, int batch_size,
                     int nthreads);

    Technique active_technique() const { return technique_; }

  private:
    std::shared_ptr<dhe::DheEmbedding> dhe_;
    int64_t table_size_;
    Technique technique_;
    std::unique_ptr<DheGenerator> dhe_gen_;
    std::unique_ptr<LinearScanTable> scan_;  ///< lazily materialised
    int nthreads_ = 1;
    sidechannel::TraceRecorder* recorder_ = nullptr;

    EmbeddingGenerator& Active();
};

}  // namespace secemb::core
