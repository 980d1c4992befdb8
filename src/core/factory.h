#pragma once

/**
 * @file
 * Convenience factory for building any of the paper's embedding
 * generation schemes for a feature of a given size — used by benchmarks,
 * examples, and the secure-model builders.
 */

#include <memory>
#include <string_view>

#include "core/embedding_generator.h"
#include "core/hybrid.h"
#include "store/backing_store.h"
#include "tensor/rng.h"

namespace secemb::core {

/** Every scheme evaluated in the paper's tables. */
enum class GenKind
{
    kIndexLookup,   ///< non-secure baseline
    kLinearScan,
    kPathOram,
    kCircuitOram,
    kDheUniform,
    kDheVaried,
    kHybridUniform,
    kHybridVaried,
    kProxyOram,     ///< Path ORAM behind the coalescing window proxy
    kPagedScan,     ///< out-of-core linear scan (src/store paged table)
    kRawOram,       ///< page-optimized RAW ORAM over a backing store
};

/** Paper-style display name ("Index Lookup (non-secure)", ...). */
std::string_view GenKindName(GenKind kind);

/** Options for MakeGenerator. */
struct GeneratorOptions
{
    /** Execution configuration, consumed by the hybrid planner. */
    int batch_size = 32;
    int nthreads = 1;
    /** Profiled thresholds for hybrid kinds (nullptr: built-in default). */
    const ThresholdTable* thresholds = nullptr;
    /** Backing-store configuration for the out-of-core kinds (nullptr:
     *  in-memory store with StoreConfig defaults). */
    const store::StoreConfig* store = nullptr;
    /**
     * Pre-trained weights. If table is non-null it seeds the table-based
     * kinds; if dhe is non-null it seeds the DHE/hybrid kinds. When null,
     * weights are randomly initialised (sufficient for latency studies).
     */
    const Tensor* table = nullptr;
    std::shared_ptr<dhe::DheEmbedding> dhe;
};

/**
 * Build a generator of the requested kind for a feature with `table_size`
 * rows and dimension `dim`. ORAM kinds take the paper's parameters, and
 * compute kinds the process-wide GEMM precision (kernels::ActiveDtype(),
 * from SECEMB_PRECISION). Out-of-core kinds create their store; to reopen
 * a durable RAW ORAM after a crash, use RawOramTable::Recover.
 */
std::unique_ptr<EmbeddingGenerator> MakeGenerator(
    GenKind kind, int64_t table_size, int64_t dim, Rng& rng,
    const GeneratorOptions& options = {});

}  // namespace secemb::core
