#pragma once

/**
 * @file
 * Multi-head causal self-attention with a training path (full
 * forward/backward) and an inference path (incremental KV cache).
 *
 * Attention is data-oblivious for a given (public) sequence length: QKV
 * projections are GEMMs, masking is position- (not value-) dependent, and
 * softmax is elementwise math (paper Section V-C).
 */

#include <cstdint>
#include <vector>

#include "nn/layers.h"
#include "tensor/rng.h"

namespace secemb::llm {

/**
 * Per-layer key/value cache for autoregressive decoding. Keys are stored
 * transposed, so one query's scores read each key component along a
 * contiguous row of positions.
 */
struct KvCache
{
    Tensor k;  ///< (batch, dim, max_seq): K^T, head-major within dim
    Tensor v;  ///< (batch, max_seq, dim) packed head-major within dim
    int64_t len = 0;  ///< tokens currently cached

    KvCache() = default;
    KvCache(int64_t batch, int64_t max_seq, int64_t dim)
        : k(Tensor::Zeros({batch, dim, max_seq})),
          v(Tensor::Zeros({batch, max_seq, dim}))
    {
    }

    int64_t max_seq() const { return v.size(1); }
};

/** Causal multi-head self-attention block. */
class CausalSelfAttention
{
  public:
    CausalSelfAttention(int64_t dim, int64_t num_heads, Rng& rng,
                        int nthreads = 1);

    /**
     * Training forward over x (batch*seq, dim), caching activations.
     * Rows are sample-major: row b*seq + t is token t of sample b.
     */
    Tensor Forward(const Tensor& x, int64_t batch, int64_t seq);

    /** Backward from grad (batch*seq, dim); returns grad wrt input. */
    Tensor Backward(const Tensor& grad_out);

    /**
     * Inference forward of `new_seq` appended tokens per sample with the
     * KV cache holding `cache.len` previous tokens. x is
     * (batch*new_seq, dim); the cache is extended in place.
     */
    Tensor ForwardCached(const Tensor& x, int64_t batch, int64_t new_seq,
                         KvCache& cache);

    std::vector<nn::Parameter*> Parameters();

  private:
    int64_t dim_;
    int64_t heads_;
    nn::Linear qkv_;   ///< dim -> 3*dim
    nn::Linear proj_;  ///< dim -> dim

    // Training caches.
    int64_t batch_ = 0, seq_ = 0;
    Tensor q_, k_, v_;   ///< (batch*seq, dim) after qkv split
    Tensor probs_;       ///< (batch, heads, seq, seq) softmax weights
};

}  // namespace secemb::llm
