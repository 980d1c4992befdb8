#pragma once

/**
 * @file
 * The library's central abstraction: embedding generation for categorical
 * features, with or without side-channel protection.
 *
 * Implementations (paper Section IV-A):
 *   - TableLookup      : non-secure gather (the vulnerable baseline)
 *   - LinearScanTable  : oblivious O(n) scan per query
 *   - OramTable        : table behind a Path / Circuit ORAM controller
 *   - DheGenerator     : Deep Hash Embedding (compute-only, oblivious)
 *   - HybridGenerator  : per-feature linear-scan/DHE choice (Section IV-C)
 * plus the proxied ORAM and the out-of-core tables (table_generators.h,
 * paged_generators.h). core::MakeGenerator builds every one of them, and
 * set_recorder attaches a trace recorder to every one of them.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "serving/status.h"
#include "sidechannel/trace.h"
#include "tensor/kernels/kernels.h"
#include "tensor/tensor.h"

namespace secemb::core {

/**
 * Generates embedding vectors for batches of categorical indices.
 *
 * The index values are the secret; the batch size, embedding dimension,
 * and table cardinality are public (paper threat model, Section III).
 */
class EmbeddingGenerator
{
  public:
    virtual ~EmbeddingGenerator() = default;

    /**
     * Fill out (indices.size() x dim()) with the embeddings of `indices`.
     * All indices must lie in [0, num_rows()).
     */
    virtual void Generate(std::span<const int64_t> indices, Tensor& out) = 0;

    /** Returning convenience wrapper. */
    Tensor
    GenerateBatch(std::span<const int64_t> indices)
    {
        Tensor out({static_cast<int64_t>(indices.size()), dim()});
        Generate(indices, out);
        return out;
    }

    /**
     * Pooled (multi-hot) generation: sample i owns the index bag
     * [offsets[i], offsets[i+1]) within `indices` and receives the sum of
     * its embeddings — the DLRM sum-pooling case where one feature holds
     * several ids per request. out is (offsets.size()-1 x dim()).
     *
     * One Generate call over every bag element, then an in-order sum of
     * each bag from +0. Bag lengths are public in the threat model (the
     * number of sparse accesses is not hidden), so the sum reveals
     * nothing; the ids stay protected by Generate's technique. Throws
     * std::invalid_argument, before generating anything, unless offsets
     * run from 0 to indices.size() without decreasing.
     */
    virtual void GeneratePooled(std::span<const int64_t> indices,
                                std::span<const int64_t> offsets,
                                Tensor& out);

    /** Embedding dimension. */
    virtual int64_t dim() const = 0;

    /** Cardinality of the categorical feature (public). */
    virtual int64_t num_rows() const = 0;

    /** Model-state bytes attributable to this generator. */
    virtual int64_t MemoryFootprintBytes() const = 0;

    /** Technique name as used in the paper's tables. */
    virtual std::string_view name() const = 0;

    /** True if the access pattern is independent of the indices. */
    virtual bool IsOblivious() const = 0;

    /** Worker threads used for a batch (default: single-threaded). */
    virtual void set_nthreads(int nthreads) { (void)nthreads; }

    /**
     * Select the GEMM weight precision for compute-based generators
     * (DHE decoder, hybrid's DHE side): f32 / bf16 / int8
     * quantize-on-pack, overriding the SECEMB_PRECISION default they
     * were built with. Table-based generators have no GEMM and ignore
     * it. Precision changes arithmetic only — the memory access pattern
     * (and hence the canonical trace) is unchanged at every setting.
     */
    virtual void set_precision(kernels::Dtype dtype) { (void)dtype; }

    /**
     * Attach/detach a memory trace recorder (nullptr to detach). Every
     * generator in src/core records through it — scans, DHE, the Path,
     * Circuit, proxied and RAW ORAMs and the paged scan — so this is the
     * one trace hook; nothing is passed at construction. Trace regions
     * are reserved when the generator is built, so attaching late does
     * not move them. The default no-op suits adapters with no memory
     * trace of their own.
     */
    virtual void set_recorder(sidechannel::TraceRecorder* recorder)
    {
        (void)recorder;
    }

    /**
     * Flush any out-of-core storage durably (dirty page write-back +
     * store sync). In-RAM generators have nothing to flush; the paged
     * generators override. serving::Server calls this on shutdown.
     */
    virtual serving::Status SyncStorage() { return serving::Status::Ok(); }

    /**
     * Seal a durable checkpoint of any crash-consistent storage this
     * generator owns (RAW ORAM checkpoint + journal reset; a paged scan
     * table syncs its pages). No-op Ok for generators without durable
     * state. A durable RAW ORAM also checkpoints on its own, on its
     * access count and journal limit.
     */
    virtual serving::Status CheckpointStorage()
    {
        return serving::Status::Ok();
    }
};

}  // namespace secemb::core
