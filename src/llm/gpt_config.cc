#include "llm/gpt_config.h"

namespace secemb::llm {

GptConfig
GptConfig::BenchScale(int64_t dim, int64_t vocab, int64_t layers)
{
    GptConfig c;
    c.vocab_size = vocab;
    c.max_seq = 512;
    c.dim = dim;
    c.num_heads = dim >= 64 ? 8 : 2;
    c.num_layers = layers;
    return c;
}

GptConfig
GptConfig::Tiny()
{
    GptConfig c;
    c.vocab_size = 97;
    c.max_seq = 32;
    c.dim = 32;
    c.num_heads = 4;
    c.num_layers = 2;
    return c;
}

}  // namespace secemb::llm
