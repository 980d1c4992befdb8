/**
 * @file
 * Tests for the LLM module: attention gradient checks, KV-cache
 * consistency (prefill + decode == full forward), trainable GPT, secure
 * inference, oblivious greedy decoding, and the synthetic corpus.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "llm/attention.h"
#include "llm/corpus.h"
#include "llm/gpt.h"
#include "test_util.h"

namespace secemb::llm {
namespace {

TEST(AttentionTest, OutputShape)
{
    Rng rng(1);
    CausalSelfAttention attn(16, 4, rng);
    const Tensor x = Tensor::Randn({2 * 5, 16}, rng);
    const Tensor y = attn.Forward(x, 2, 5);
    EXPECT_EQ(y.shape(), (Shape{10, 16}));
}

TEST(AttentionTest, CausalityFirstTokenSeesOnlyItself)
{
    // Changing a later token must not change an earlier position's
    // output.
    Rng rng(2);
    CausalSelfAttention attn(8, 2, rng);
    Tensor x = Tensor::Randn({4, 8}, rng);  // batch 1, seq 4
    const Tensor y1 = attn.Forward(x, 1, 4);
    x.at(3, 0) += 10.0f;  // perturb the last token
    const Tensor y2 = attn.Forward(x, 1, 4);
    for (int64_t j = 0; j < 8; ++j) {
        EXPECT_NEAR(y1.at(0, j), y2.at(0, j), 1e-5f);
        EXPECT_NEAR(y1.at(2, j), y2.at(2, j), 1e-5f);
    }
    // ... while the perturbed position itself does change.
    float diff = 0;
    for (int64_t j = 0; j < 8; ++j) {
        diff += std::abs(y1.at(3, j) - y2.at(3, j));
    }
    EXPECT_GT(diff, 1e-3f);
}

TEST(AttentionTest, InputGradientCheck)
{
    Rng rng(3);
    CausalSelfAttention attn(8, 2, rng);
    const Tensor x = Tensor::Randn({6, 8}, rng);  // batch 2, seq 3

    auto loss = [&](const Tensor& t) {
        Tensor y = attn.Forward(t, 2, 3);
        return 0.5f * y.SquaredNorm();
    };
    Tensor y = attn.Forward(x, 2, 3);
    const Tensor gx = attn.Backward(y);
    test::ExpectGradientsClose(loss, x, gx, 1e-2f, 3e-2f);
}

TEST(AttentionTest, CachedMatchesUncachedPrefill)
{
    Rng rng(4);
    CausalSelfAttention attn(16, 4, rng);
    const int64_t batch = 2, seq = 6;
    const Tensor x = Tensor::Randn({batch * seq, 16}, rng);
    const Tensor full = attn.Forward(x, batch, seq);
    KvCache cache(batch, 32, 16);
    const Tensor cached = attn.ForwardCached(x, batch, seq, cache);
    EXPECT_TRUE(full.AllClose(cached, 1e-4f));
    EXPECT_EQ(cache.len, seq);
}

TEST(AttentionTest, IncrementalDecodeMatchesFullForward)
{
    Rng rng(5);
    CausalSelfAttention attn(16, 4, rng);
    const int64_t batch = 1, seq = 5;
    const Tensor x = Tensor::Randn({seq, 16}, rng);
    const Tensor full = attn.Forward(x, batch, seq);

    KvCache cache(batch, 32, 16);
    Tensor last;
    for (int64_t t = 0; t < seq; ++t) {
        Tensor xt({1, 16});
        std::copy(x.data() + t * 16, x.data() + (t + 1) * 16, xt.data());
        last = attn.ForwardCached(xt, batch, 1, cache);
    }
    for (int64_t j = 0; j < 16; ++j) {
        EXPECT_NEAR(last.at(0, j), full.at(seq - 1, j), 1e-4f);
    }
}

/**
 * Attention as one float per step, with K cached row-major: the
 * reference the shared vector core must match bit for bit. It owns
 * copies of a layer's projections and runs its own KV cache.
 */
class ReferenceAttention
{
  public:
    ReferenceAttention(CausalSelfAttention& attn, int64_t dim,
                       int64_t heads, int64_t batch, int64_t max_seq)
        : dim_(dim), heads_(heads), max_seq_(max_seq),
          qkv_(dim, 3 * dim, rng_), proj_(dim, dim, rng_),
          k_(static_cast<size_t>(batch * max_seq * dim)),
          v_(k_.size())
    {
        const std::vector<nn::Parameter*> ps = attn.Parameters();
        qkv_.weight().value = ps[0]->value;
        qkv_.bias().value = ps[1]->value;
        proj_.weight().value = ps[2]->value;
        proj_.bias().value = ps[3]->value;
    }

    Tensor
    Forward(const Tensor& x, int64_t batch, int64_t seq)
    {
        const Tensor qkv = qkv_.Forward(x);
        Tensor context({batch * seq, dim_});
        std::vector<float> scores(static_cast<size_t>(seq));
        for (int64_t b = 0; b < batch; ++b) {
            for (int64_t t = 0; t < seq; ++t) {
                Attend(qkv.data() + (b * seq + t) * 3 * dim_, t + 1,
                       [&](int64_t u) {
                           return qkv.data() + (b * seq + u) * 3 * dim_ +
                                  dim_;
                       },
                       [&](int64_t u) {
                           return qkv.data() + (b * seq + u) * 3 * dim_ +
                                  2 * dim_;
                       },
                       scores.data(),
                       context.data() + (b * seq + t) * dim_);
            }
        }
        return proj_.Forward(context);
    }

    Tensor
    ForwardCached(const Tensor& x, int64_t batch, int64_t new_seq)
    {
        const Tensor qkv = qkv_.Forward(x);
        for (int64_t b = 0; b < batch; ++b) {
            for (int64_t t = 0; t < new_seq; ++t) {
                const float* src = qkv.data() + (b * new_seq + t) * 3 * dim_;
                const int64_t row = (b * max_seq_ + len_ + t) * dim_;
                std::copy(src + dim_, src + 2 * dim_, k_.data() + row);
                std::copy(src + 2 * dim_, src + 3 * dim_, v_.data() + row);
            }
        }
        Tensor context({batch * new_seq, dim_});
        std::vector<float> scores(static_cast<size_t>(len_ + new_seq));
        for (int64_t b = 0; b < batch; ++b) {
            for (int64_t t = 0; t < new_seq; ++t) {
                Attend(qkv.data() + (b * new_seq + t) * 3 * dim_,
                       len_ + t + 1,
                       [&](int64_t u) {
                           return k_.data() + (b * max_seq_ + u) * dim_;
                       },
                       [&](int64_t u) {
                           return v_.data() + (b * max_seq_ + u) * dim_;
                       },
                       scores.data(),
                       context.data() + (b * new_seq + t) * dim_);
            }
        }
        len_ += new_seq;
        return proj_.Forward(context);
    }

  private:
    /** Every head of one token: `visible` positions, whose key and value
     * rows `key(u)` and `value(u)` return. */
    template <class KeyRow, class ValueRow>
    void
    Attend(const float* q, int64_t visible, const KeyRow& key,
           const ValueRow& value, float* scores, float* context) const
    {
        const int64_t hd = dim_ / heads_;
        const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
        for (int64_t h = 0; h < heads_; ++h) {
            const int64_t off = h * hd;
            for (int64_t u = 0; u < visible; ++u) {
                float acc = 0.0f;
                for (int64_t j = 0; j < hd; ++j) {
                    acc += q[off + j] * key(u)[off + j];
                }
                scores[u] = acc * scale;
            }
            float mx = scores[0];
            for (int64_t u = 1; u < visible; ++u) {
                mx = std::max(mx, scores[u]);
            }
            double sum = 0.0;
            for (int64_t u = 0; u < visible; ++u) {
                scores[u] = std::exp(scores[u] - mx);
                sum += scores[u];
            }
            const float inv = 1.0f / static_cast<float>(sum);
            for (int64_t u = 0; u < visible; ++u) scores[u] *= inv;
            float* crow = context + off;
            for (int64_t j = 0; j < hd; ++j) crow[j] = 0.0f;
            for (int64_t u = 0; u < visible; ++u) {
                for (int64_t j = 0; j < hd; ++j) {
                    crow[j] += scores[u] * value(u)[off + j];
                }
            }
        }
    }

    int64_t dim_, heads_, max_seq_, len_ = 0;
    Rng rng_{0};
    nn::Linear qkv_, proj_;
    std::vector<float> k_, v_;  ///< (batch, max_seq, dim)
};

bool
BitEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/**
 * Forward, and ForwardCached as a prefill followed by single- and
 * multi-token steps, equal the reference loops bit for bit at head dims
 * 2..64. Sequences of 37 tokens take every key-block class (16 and 4
 * keys, the scalar tail) and head dims every dim-block class (32 and 4
 * dims, the tail); 3, 5, 13, 17 and 35 are not multiples of 4.
 */
TEST(AttentionTest, VectorCoreBitIdenticalToScalarLoops)
{
    const int64_t batch = 2, seq = 37, max_seq = 41;
    for (const auto& [dim, heads] :
         std::vector<std::pair<int64_t, int64_t>>{{4, 2},
                                                  {12, 4},
                                                  {20, 4},
                                                  {24, 3},
                                                  {52, 4},
                                                  {48, 3},
                                                  {34, 2},
                                                  {64, 2},
                                                  {70, 2},
                                                  {128, 2}}) {
        const std::string where = "dim " + std::to_string(dim) +
                                  " head dim " +
                                  std::to_string(dim / heads);
        Rng rng(static_cast<uint64_t>(100 + dim));
        CausalSelfAttention attn(dim, heads, rng);
        attn.Parameters()[1]->value = Tensor::Randn({3 * dim}, rng);
        attn.Parameters()[3]->value = Tensor::Randn({dim}, rng);
        ReferenceAttention ref(attn, dim, heads, batch, max_seq);
        const Tensor x = Tensor::Randn({batch * seq, dim}, rng);
        EXPECT_TRUE(BitEqual(attn.Forward(x, batch, seq),
                             ref.Forward(x, batch, seq)))
            << where << " Forward";

        // The prefill's 21 tokens, then steps of 1, 3 and 1 tokens.
        KvCache cache(batch, max_seq, dim);
        int64_t done = 0;
        for (const int64_t step : {21, 1, 1, 3, 1, 1, 1, 1}) {
            Tensor xs({batch * step, dim});
            for (int64_t b = 0; b < batch; ++b) {
                std::copy(x.data() + (b * seq + done) * dim,
                          x.data() + (b * seq + done + step) * dim,
                          xs.data() + b * step * dim);
            }
            EXPECT_TRUE(BitEqual(attn.ForwardCached(xs, batch, step, cache),
                                 ref.ForwardCached(xs, batch, step)))
                << where << " ForwardCached at " << done << " + " << step;
            done += step;
        }
        EXPECT_EQ(cache.len, done);
    }
}

TEST(TransformerBlockTest, GradientCheck)
{
    Rng rng(6);
    const GptConfig cfg = GptConfig::Tiny();
    TransformerBlock block(cfg, rng);
    const Tensor x = Tensor::Randn({2 * 3, cfg.dim}, rng, 0.5f);
    auto loss = [&](const Tensor& t) {
        Tensor y = block.Forward(t, 2, 3);
        return 0.5f * y.SquaredNorm();
    };
    Tensor y = block.Forward(x, 2, 3);
    const Tensor gx = block.Backward(y);
    test::ExpectGradientsClose(loss, x, gx, 1e-2f, 5e-2f, 16);
}

class GptModeTest : public ::testing::TestWithParam<TokenEmbMode>
{
};

TEST_P(GptModeTest, ForwardShape)
{
    Rng rng(7);
    const GptConfig cfg = GptConfig::Tiny();
    GptModel model(cfg, GetParam(), rng);
    std::vector<int64_t> tokens(2 * 4, 1);
    const Tensor logits = model.Forward(tokens, 2, 4);
    EXPECT_EQ(logits.shape(), (Shape{8, cfg.vocab_size}));
}

TEST_P(GptModeTest, TrainingReducesLoss)
{
    Rng rng(8);
    const GptConfig cfg = GptConfig::Tiny();
    GptModel model(cfg, GetParam(), rng);
    SyntheticCorpus corpus(cfg.vocab_size, 9);
    nn::Adam opt(model.Parameters(), 3e-3f);
    float first = 0, last = 0;
    for (int step = 0; step < 30; ++step) {
        const auto tokens = corpus.Sample(4, 9);  // seq 8 + 1 target
        const float loss = model.TrainStep(tokens, 4, 8, opt);
        if (step == 0) first = loss;
        last = loss;
    }
    EXPECT_LT(last, first);
}

INSTANTIATE_TEST_SUITE_P(Modes, GptModeTest,
                         ::testing::Values(TokenEmbMode::kTable,
                                           TokenEmbMode::kDhe),
                         [](const auto& info) {
                             return info.param == TokenEmbMode::kTable
                                        ? "Table"
                                        : "Dhe";
                         });

class SecureGptKindTest : public ::testing::TestWithParam<core::GenKind>
{
};

TEST_P(SecureGptKindTest, PrefillDecodeGenerate)
{
    const GptConfig cfg = GptConfig::Tiny();
    Rng rng(11);
    auto gen = core::MakeGenerator(GetParam(), cfg.vocab_size, cfg.dim,
                                   rng);
    SecureGpt model(cfg, std::move(gen), rng);

    std::vector<std::vector<int64_t>> prompts{{1, 2, 3, 4},
                                              {5, 6, 7, 8}};
    const Tensor logits = model.Prefill(prompts);
    EXPECT_EQ(logits.shape(), (Shape{2, cfg.vocab_size}));

    const auto gen_tokens = test::GreedyDecode(model, prompts, 3);
    EXPECT_EQ(gen_tokens.size(), 2u);
    EXPECT_EQ(gen_tokens[0].size(), 3u);
    for (const auto& seq : gen_tokens) {
        for (int64_t t : seq) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, cfg.vocab_size);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SecureGptKindTest,
    ::testing::Values(core::GenKind::kIndexLookup,
                      core::GenKind::kLinearScan,
                      core::GenKind::kCircuitOram,
                      core::GenKind::kDheUniform),
    [](const auto& info) {
        switch (info.param) {
          case core::GenKind::kIndexLookup: return "IndexLookup";
          case core::GenKind::kLinearScan: return "LinearScan";
          case core::GenKind::kCircuitOram: return "CircuitOram";
          default: return "Dhe";
        }
    });

TEST(SecureGptTest, ObliviousArgmaxMatchesPlainArgmax)
{
    const GptConfig cfg = GptConfig::Tiny();
    Rng rng(12);
    auto gen = core::MakeGenerator(core::GenKind::kIndexLookup,
                                   cfg.vocab_size, cfg.dim, rng);
    SecureGpt model(cfg, std::move(gen), rng);
    const Tensor logits =
        model.Prefill({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
    EXPECT_EQ(model.GreedyTokens(logits),
              model.GreedyTokensNonSecure(logits));
}

TEST(SecureGptTest, DeterministicGenerationAcrossEquivalentBackends)
{
    // Same token table behind linear scan and non-secure lookup must
    // generate the same text.
    const GptConfig cfg = GptConfig::Tiny();
    Rng table_rng(13);
    const Tensor table =
        Tensor::Randn({cfg.vocab_size, cfg.dim}, table_rng);
    auto build = [&](core::GenKind kind) {
        Rng rng(14);
        core::GeneratorOptions opt;
        opt.table = &table;
        auto gen =
            core::MakeGenerator(kind, cfg.vocab_size, cfg.dim, rng, opt);
        Rng model_rng(999);
        return std::make_unique<SecureGpt>(cfg, std::move(gen),
                                           model_rng);
    };
    auto a = build(core::GenKind::kIndexLookup);
    auto b = build(core::GenKind::kLinearScan);
    const std::vector<std::vector<int64_t>> prompts{{3, 1, 4, 1, 5}};
    EXPECT_EQ(test::GreedyDecode(*a, prompts, 5),
              test::GreedyDecode(*b, prompts, 5));
}

TEST(CorpusTest, TokensInRangeAndDeterministic)
{
    SyntheticCorpus a(100, 15), b(100, 15);
    const auto ta = a.Sample(2, 50);
    const auto tb = b.Sample(2, 50);
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(ta.size(), 100u);
    for (int64_t t : ta) {
        EXPECT_GE(t, 0);
        EXPECT_LT(t, 100);
    }
}

TEST(CorpusTest, HasLearnableStructure)
{
    // Bigram successor sets are small: the same current token should
    // lead to a limited set of next tokens.
    SyntheticCorpus corpus(1000, 16, /*branching=*/4, /*noise=*/0.0);
    const auto stream = corpus.Sample(1, 5000);
    std::map<int64_t, std::set<int64_t>> successors;
    for (size_t i = 0; i + 1 < stream.size(); ++i) {
        successors[stream[i]].insert(stream[i + 1]);
    }
    int64_t total = 0, count = 0;
    for (const auto& [tok, succ] : successors) {
        if (succ.size() > 0) {
            total += static_cast<int64_t>(succ.size());
            ++count;
        }
    }
    EXPECT_LE(static_cast<double>(total) / count, 4.5);
}

TEST(GptConfigTest, Presets)
{
    // The default configuration is the paper's GPT-2 medium.
    const GptConfig medium;
    EXPECT_EQ(medium.vocab_size, 50257);
    EXPECT_EQ(medium.dim, 1024);
    EXPECT_EQ(medium.num_layers, 24);
    const GptConfig bench = GptConfig::BenchScale();
    EXPECT_EQ(bench.vocab_size, 50257);
    EXPECT_EQ(bench.dim % bench.num_heads, 0);
}

}  // namespace
}  // namespace secemb::llm
