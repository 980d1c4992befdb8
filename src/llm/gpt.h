#pragma once

/**
 * @file
 * GPT-2-architecture decoder models.
 *
 * GptModel trains end-to-end (next-token prediction) with either a table
 * or a DHE token-embedding layer — the Fig. 14 perplexity-parity
 * experiment. SecureGpt runs prefill/decode inference with any
 * EmbeddingGenerator supplying token embeddings and an *oblivious* greedy
 * argmax over the output logits (paper Section V-C).
 */

#include <memory>
#include <span>
#include <vector>

#include "core/embedding_generator.h"
#include "dhe/dhe.h"
#include "llm/attention.h"
#include "llm/gpt_config.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"

namespace secemb::llm {

/** Pre-norm transformer block: x += attn(ln1(x)); x += mlp(ln2(x)). */
class TransformerBlock
{
  public:
    TransformerBlock(const GptConfig& config, Rng& rng, int nthreads = 1);

    Tensor Forward(const Tensor& x, int64_t batch, int64_t seq);
    Tensor Backward(const Tensor& grad_out);
    Tensor ForwardCached(const Tensor& x, int64_t batch, int64_t new_seq,
                         KvCache& cache);

    std::vector<nn::Parameter*> Parameters();

  private:
    nn::LayerNorm ln1_;
    CausalSelfAttention attn_;
    nn::LayerNorm ln2_;
    nn::Linear fc1_;  ///< GELU fused into the GEMM epilogue
    nn::Linear fc2_;
};

/** Token-embedding representation used by a trainable GPT. */
enum class TokenEmbMode
{
    kTable,
    kDhe,
};

/** End-to-end trainable GPT (the Fig. 14 finetuning experiment). */
class GptModel
{
  public:
    GptModel(const GptConfig& config, TokenEmbMode mode, Rng& rng);

    /**
     * Forward to logits (batch*seq, vocab) for token ids laid out
     * sample-major (tokens.size() == batch * seq).
     */
    Tensor Forward(std::span<const int64_t> tokens, int64_t batch,
                   int64_t seq);

    /**
     * One optimiser step of next-token prediction: for each sample,
     * tokens[0..seq-1] predict tokens[1..seq]. `tokens` holds batch
     * sequences of length seq+1. Returns the mean cross-entropy.
     */
    float TrainStep(std::span<const int64_t> tokens, int64_t batch,
                    int64_t seq, nn::Optimizer& opt);

    /** Mean next-token cross-entropy without gradients. */
    float EvalLoss(std::span<const int64_t> tokens, int64_t batch,
                   int64_t seq);

    std::vector<nn::Parameter*> Parameters();
    const GptConfig& config() const { return config_; }
    TokenEmbMode mode() const { return mode_; }

    std::shared_ptr<dhe::DheEmbedding> token_dhe() { return dhe_; }

  private:
    GptConfig config_;
    TokenEmbMode mode_;
    std::unique_ptr<nn::EmbeddingTable> tok_table_;
    std::shared_ptr<dhe::DheEmbedding> dhe_;
    std::unique_ptr<nn::EmbeddingTable> pos_table_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<nn::LayerNorm> ln_f_;
    std::unique_ptr<nn::Linear> head_;  ///< untied output head

    // Backward caches.
    std::vector<int64_t> cached_tokens_;
    std::vector<int64_t> cached_positions_;
    int64_t cached_batch_ = 0, cached_seq_ = 0;
};

/** Inference-only GPT with pluggable secure token-embedding generation. */
class SecureGpt
{
  public:
    /**
     * @param config architecture (vocab must match the generator rows)
     * @param token_gen embedding generator for token ids
     * @param rng weight init (random weights suffice for latency studies)
     * @param nthreads inference threads (the paper fixes 16 for LLMs)
     */
    SecureGpt(const GptConfig& config,
              std::unique_ptr<core::EmbeddingGenerator> token_gen,
              Rng& rng, int nthreads = 1);

    /**
     * Prefill: process `prompts` (batch x prompt_len token ids), fill the
     * KV caches, and return the last-position logits (batch x vocab).
     */
    Tensor Prefill(const std::vector<std::vector<int64_t>>& prompts);

    /**
     * One decode step: embed one new token per sample and return the next
     * logits (batch x vocab). Prefill must have run first.
     */
    Tensor DecodeStep(std::span<const int64_t> tokens);

    /** Greedy next tokens from logits via *oblivious* argmax. */
    std::vector<int64_t> GreedyTokens(const Tensor& logits) const;

    /** Greedy next tokens via plain (non-secure) argmax, for the §V-C
     * overhead measurement. */
    std::vector<int64_t> GreedyTokensNonSecure(const Tensor& logits) const;

    void Reset(int64_t batch);

    core::EmbeddingGenerator& token_generator() { return *token_gen_; }
    const GptConfig& config() const { return config_; }

  private:
    GptConfig config_;
    std::unique_ptr<core::EmbeddingGenerator> token_gen_;
    std::unique_ptr<nn::EmbeddingTable> pos_table_;
    std::vector<std::unique_ptr<TransformerBlock>> blocks_;
    std::unique_ptr<nn::LayerNorm> ln_f_;
    std::unique_ptr<nn::Linear> head_;
    std::vector<KvCache> caches_;
    int64_t batch_ = 0;
    int nthreads_;

    Tensor Trunk(const Tensor& emb, int64_t batch, int64_t new_seq);
};

}  // namespace secemb::llm
