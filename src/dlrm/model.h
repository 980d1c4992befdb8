#pragma once

/**
 * @file
 * DLRM models.
 *
 * TrainableDlrm trains end-to-end with either table embeddings or DHE
 * (Uniform / Varied) — the setup behind the paper's Table V accuracy
 * parity. SecureDlrm runs inference with an arbitrary EmbeddingGenerator
 * per sparse feature — the setup behind every latency table.
 */

#include <memory>
#include <vector>

#include "core/embedding_generator.h"
#include "dhe/dhe.h"
#include "dlrm/config.h"
#include "dlrm/dataset.h"
#include "dlrm/interaction.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"

namespace secemb::dlrm {

/** Embedding representation used during training. */
enum class EmbeddingMode
{
    kTable,
    kDheUniform,
    kDheVaried,
};

/** End-to-end trainable DLRM. */
class TrainableDlrm
{
  public:
    /**
     * @param config architecture
     * @param mode embedding representation to train
     * @param rng weight init
     * @param dhe_size_divisor divides the DHE k / FC widths (floor 16).
     *        The paper's Uniform sizing targets 1e7-row tables; studies
     *        on scaled-down tables scale the decoder consistently.
     */
    TrainableDlrm(const DlrmConfig& config, EmbeddingMode mode, Rng& rng,
                  int64_t dhe_size_divisor = 1);

    /** Forward pass to CTR logits (batch). */
    Tensor Forward(const CtrBatch& batch);

    /** Backward from dLoss/dlogits; accumulates all parameter grads. */
    void Backward(const Tensor& grad_logits);

    /** One optimiser step on a batch; returns the loss. */
    float TrainStep(const CtrBatch& batch, nn::Optimizer& opt);

    /** Mean accuracy over a batch (no grad). */
    float Evaluate(const CtrBatch& batch);

    std::vector<nn::Parameter*> Parameters();

    const DlrmConfig& config() const { return config_; }
    EmbeddingMode mode() const { return mode_; }

    /** Trained DHE of feature f (DHE modes), shared for hybrid use. */
    std::shared_ptr<dhe::DheEmbedding> dhe(int64_t f);

  private:
    DlrmConfig config_;
    EmbeddingMode mode_;
    std::unique_ptr<nn::Sequential> bot_;
    std::unique_ptr<nn::Sequential> top_;
    std::vector<std::unique_ptr<nn::EmbeddingTable>> tables_;
    std::vector<std::shared_ptr<dhe::DheEmbedding>> dhes_;

    // Forward caches for backward.
    Tensor cached_dense_out_;
    std::vector<Tensor> cached_embs_;
    const CtrBatch* cached_batch_ = nullptr;
};

/** Inference-only DLRM with pluggable (secure) embedding generation. */
class SecureDlrm
{
  public:
    /**
     * @param config architecture
     * @param generators one per sparse feature, in feature order
     * @param rng weight init for the MLPs (latency studies need no
     *        trained weights; use FromTrained to deploy a real model)
     */
    SecureDlrm(const DlrmConfig& config,
               std::vector<std::unique_ptr<core::EmbeddingGenerator>>
                   generators,
               Rng& rng);

    /**
     * End-to-end inference: returns CTR probabilities (batch).
     * Sparse features are processed sequentially, as in the paper's
     * evaluation setup.
     */
    Tensor Inference(const Tensor& dense,
                     const std::vector<std::vector<int64_t>>& sparse);

    /** Embedding-layers-only pass (Fig. 4 / Table VIII measurements). */
    void EmbeddingLayersOnly(
        const std::vector<std::vector<int64_t>>& sparse);

    void set_nthreads(int nthreads);

    core::EmbeddingGenerator& generator(int64_t f)
    {
        return *generators_[static_cast<size_t>(f)];
    }
    const DlrmConfig& config() const { return config_; }

  private:
    DlrmConfig config_;
    std::vector<std::unique_ptr<core::EmbeddingGenerator>> generators_;
    std::unique_ptr<nn::Sequential> bot_;
    std::unique_ptr<nn::Sequential> top_;
    int nthreads_ = 1;
};

}  // namespace secemb::dlrm
