#pragma once

/**
 * @file
 * Deep Hash Embedding (DHE): hash-encode the categorical id, then decode
 * with a fully-connected stack into the embedding vector (paper Section
 * IV-A3). Trainable, so models can be trained end-to-end with DHE layers
 * (Table V / Fig. 14 accuracy-parity experiments), and usable at inference
 * as a secure embedding generator (its access pattern is input-free).
 */

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dhe/hashing.h"
#include "nn/layers.h"
#include "tensor/rng.h"

namespace secemb::dhe {

/** Architecture of one DHE instance. */
struct DheConfig
{
    int64_t k = 1024;                     ///< number of hash functions
    std::vector<int64_t> fc_hidden{512, 256};  ///< decoder hidden widths
    int64_t out_dim = 64;                 ///< embedding dimension
    int64_t hash_buckets = 1000000;       ///< m in Algorithm 1

    /**
     * The paper's DHE Uniform for DLRM (Table IV): k = 1024,
     * FC 512-256-dim.
     */
    static DheConfig Uniform(int64_t out_dim);

    /**
     * DHE Varied: Uniform scaled down 0.125x per order of magnitude of
     * table size below 1e7 (Section VI-A2), floored so tiny tables still
     * get a usable decoder.
     */
    static DheConfig Varied(int64_t table_size, int64_t out_dim);

    /**
     * The paper's LLM sizing (Section VI-A3): k and all internal FC widths
     * are twice the embedding dimension; 4 FC layers.
     */
    static DheConfig ForLlm(int64_t emb_dim);

    /** Total trainable decoder parameters implied by this config. */
    int64_t DecoderParams() const;
};

/** A trainable DHE embedding generator. */
class DheEmbedding
{
  public:
    DheEmbedding(const DheConfig& config, Rng& rng, int nthreads = 1);

    /** Generate embeddings (n x out_dim) for a batch of ids. */
    Tensor Forward(std::span<const int64_t> ids);

    /**
     * Backpropagate grad_out (n x out_dim) through the decoder,
     * accumulating parameter gradients. (The hash encoder has no
     * trainable parameters, so no input gradient exists.)
     */
    void Backward(const Tensor& grad_out);

    std::vector<nn::Parameter*> Parameters() { return decoder_->Parameters(); }

    const DheConfig& config() const { return config_; }
    int64_t out_dim() const { return config_.out_dim; }

    /** Model footprint: decoder weights + hash coefficients. */
    int64_t ParamBytes();

    /**
     * Materialise the DHE outputs for all ids in [0, table_size) as a
     * table — the paper's hybrid-deployment step (Algorithm 2, offline
     * step 2): below-threshold features convert their trained DHE into a
     * table for linear scan.
     */
    Tensor ToTable(int64_t table_size);

    void set_nthreads(int n);

    /**
     * Decoder weight precision for Forward (f32 / bf16 / int8
     * quantize-on-pack; each decoder Linear repacks on its next
     * Forward). Training (Backward) is unaffected — gradients always
     * run f32.
     */
    void set_dtype(kernels::Dtype dtype);

  private:
    DheConfig config_;
    HashEncoder encoder_;
    std::unique_ptr<nn::Sequential> decoder_;
    int nthreads_ = 1;  ///< shared by the encoder and decoder GEMMs
};

}  // namespace secemb::dhe
