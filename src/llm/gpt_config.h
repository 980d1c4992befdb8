#pragma once

/**
 * @file
 * GPT model configuration.
 *
 * The paper evaluates GPT-2 medium (355M parameters, 24 layers, dim 1024,
 * vocab 50257), which is what a default-constructed GptConfig holds.
 * Absolute transformer compute is not the object of study — the
 * *embedding layer* is — so benchmarks use a scaled-down transformer
 * with the real vocabulary size.
 */

#include <cstdint>

namespace secemb::llm {

/** Decoder-only transformer architecture; defaults are GPT-2 medium. */
struct GptConfig
{
    int64_t vocab_size = 50257;
    int64_t max_seq = 1024;
    int64_t dim = 1024;
    int64_t num_heads = 16;
    int64_t num_layers = 24;
    int64_t ffn_mult = 4;  ///< FFN hidden = ffn_mult * dim

    int64_t head_dim() const { return dim / num_heads; }

    /**
     * Bench-scale model: real GPT-2 vocabulary, reduced depth/width so a
     * single-core run finishes in seconds. Vocab and dim are the knobs
     * that matter for the embedding-generation comparison.
     */
    static GptConfig BenchScale(int64_t dim = 256, int64_t vocab = 50257,
                                int64_t layers = 4);

    /** Tiny model for unit tests. */
    static GptConfig Tiny();
};

}  // namespace secemb::llm
