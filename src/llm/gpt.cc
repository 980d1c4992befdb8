#include "llm/gpt.h"

#include <algorithm>
#include <cassert>

#include "oblivious/scan.h"
#include "telemetry/telemetry.h"

namespace secemb::llm {

// ---------------------------------------------------------------------------
// TransformerBlock
// ---------------------------------------------------------------------------

TransformerBlock::TransformerBlock(const GptConfig& config, Rng& rng,
                                   int nthreads)
    : ln1_(config.dim),
      attn_(config.dim, config.num_heads, rng, nthreads),
      ln2_(config.dim),
      fc1_(config.dim, config.ffn_mult * config.dim, rng, nthreads,
           nn::Activation::kGelu),
      fc2_(config.ffn_mult * config.dim, config.dim, rng, nthreads)
{
}

Tensor
TransformerBlock::Forward(const Tensor& x, int64_t batch, int64_t seq)
{
    Tensor h = x;
    h.AddInPlace(attn_.Forward(ln1_.Forward(x), batch, seq));
    Tensor ff = fc2_.Forward(fc1_.Forward(ln2_.Forward(h)));
    return h.AddInPlace(ff), h;
}

Tensor
TransformerBlock::Backward(const Tensor& grad_out)
{
    // h2 = h + ff(h): grad flows to both branches.
    Tensor gh = grad_out;
    const Tensor gff =
        ln2_.Backward(fc1_.Backward(fc2_.Backward(grad_out)));
    gh.AddInPlace(gff);
    // h = x + attn(ln1(x)).
    Tensor gx = gh;
    const Tensor gattn = ln1_.Backward(attn_.Backward(gh));
    gx.AddInPlace(gattn);
    return gx;
}

Tensor
TransformerBlock::ForwardCached(const Tensor& x, int64_t batch,
                                int64_t new_seq, KvCache& cache)
{
    Tensor h = x;
    h.AddInPlace(
        attn_.ForwardCached(ln1_.Forward(x), batch, new_seq, cache));
    Tensor ff = fc2_.Forward(fc1_.Forward(ln2_.Forward(h)));
    return h.AddInPlace(ff), h;
}

std::vector<nn::Parameter*>
TransformerBlock::Parameters()
{
    std::vector<nn::Parameter*> ps;
    for (auto* p : ln1_.Parameters()) ps.push_back(p);
    for (auto* p : attn_.Parameters()) ps.push_back(p);
    for (auto* p : ln2_.Parameters()) ps.push_back(p);
    for (auto* p : fc1_.Parameters()) ps.push_back(p);
    for (auto* p : fc2_.Parameters()) ps.push_back(p);
    return ps;
}

// ---------------------------------------------------------------------------
// GptModel (trainable)
// ---------------------------------------------------------------------------

GptModel::GptModel(const GptConfig& config, TokenEmbMode mode, Rng& rng)
    : config_(config), mode_(mode)
{
    if (mode == TokenEmbMode::kTable) {
        tok_table_ = std::make_unique<nn::EmbeddingTable>(
            config.vocab_size, config.dim, rng);
    } else {
        dhe_ = std::make_shared<dhe::DheEmbedding>(
            dhe::DheConfig::ForLlm(config.dim), rng);
    }
    pos_table_ = std::make_unique<nn::EmbeddingTable>(config.max_seq,
                                                      config.dim, rng);
    for (int64_t l = 0; l < config.num_layers; ++l) {
        blocks_.push_back(std::make_unique<TransformerBlock>(config, rng));
    }
    ln_f_ = std::make_unique<nn::LayerNorm>(config.dim);
    head_ = std::make_unique<nn::Linear>(config.dim, config.vocab_size,
                                         rng);
}

Tensor
GptModel::Forward(std::span<const int64_t> tokens, int64_t batch,
                  int64_t seq)
{
    assert(static_cast<int64_t>(tokens.size()) == batch * seq);
    TELEMETRY_SPAN("llm.forward");
    TELEMETRY_COUNT("llm.forward.tokens", batch * seq);
    cached_tokens_.assign(tokens.begin(), tokens.end());
    cached_positions_.resize(static_cast<size_t>(batch * seq));
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t t = 0; t < seq; ++t) {
            cached_positions_[static_cast<size_t>(b * seq + t)] = t;
        }
    }
    cached_batch_ = batch;
    cached_seq_ = seq;

    Tensor h = mode_ == TokenEmbMode::kTable
                   ? tok_table_->Forward(tokens)
                   : dhe_->Forward(tokens);
    h.AddInPlace(pos_table_->Forward(cached_positions_));
    for (auto& block : blocks_) h = block->Forward(h, batch, seq);
    h = ln_f_->Forward(h);
    return head_->Forward(h);
}

float
GptModel::TrainStep(std::span<const int64_t> tokens, int64_t batch,
                    int64_t seq, nn::Optimizer& opt)
{
    assert(static_cast<int64_t>(tokens.size()) ==
           batch * (seq + 1));
    // Inputs are positions 0..seq-1; targets are 1..seq, per sample.
    std::vector<int64_t> inputs(static_cast<size_t>(batch * seq));
    std::vector<int64_t> targets(static_cast<size_t>(batch * seq));
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t t = 0; t < seq; ++t) {
            inputs[static_cast<size_t>(b * seq + t)] =
                tokens[static_cast<size_t>(b * (seq + 1) + t)];
            targets[static_cast<size_t>(b * seq + t)] =
                tokens[static_cast<size_t>(b * (seq + 1) + t + 1)];
        }
    }
    opt.ZeroGrad();
    const Tensor logits = Forward(inputs, batch, seq);
    Tensor grad;
    const float loss = nn::SoftmaxCrossEntropy(logits, targets, &grad);

    Tensor gh = head_->Backward(grad);
    gh = ln_f_->Backward(gh);
    for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) {
        gh = (*it)->Backward(gh);
    }
    pos_table_->Backward(cached_positions_, gh);
    if (mode_ == TokenEmbMode::kTable) {
        tok_table_->Backward(cached_tokens_, gh);
    } else {
        dhe_->Backward(gh);
    }
    opt.Step();
    return loss;
}

float
GptModel::EvalLoss(std::span<const int64_t> tokens, int64_t batch,
                   int64_t seq)
{
    std::vector<int64_t> inputs(static_cast<size_t>(batch * seq));
    std::vector<int64_t> targets(static_cast<size_t>(batch * seq));
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t t = 0; t < seq; ++t) {
            inputs[static_cast<size_t>(b * seq + t)] =
                tokens[static_cast<size_t>(b * (seq + 1) + t)];
            targets[static_cast<size_t>(b * seq + t)] =
                tokens[static_cast<size_t>(b * (seq + 1) + t + 1)];
        }
    }
    const Tensor logits = Forward(inputs, batch, seq);
    return nn::SoftmaxCrossEntropy(logits, targets, nullptr);
}

std::vector<nn::Parameter*>
GptModel::Parameters()
{
    std::vector<nn::Parameter*> ps;
    if (tok_table_) ps.push_back(&tok_table_->weight());
    if (dhe_) {
        for (auto* p : dhe_->Parameters()) ps.push_back(p);
    }
    ps.push_back(&pos_table_->weight());
    for (auto& b : blocks_) {
        for (auto* p : b->Parameters()) ps.push_back(p);
    }
    for (auto* p : ln_f_->Parameters()) ps.push_back(p);
    for (auto* p : head_->Parameters()) ps.push_back(p);
    return ps;
}

// ---------------------------------------------------------------------------
// SecureGpt (inference)
// ---------------------------------------------------------------------------

SecureGpt::SecureGpt(const GptConfig& config,
                     std::unique_ptr<core::EmbeddingGenerator> token_gen,
                     Rng& rng, int nthreads)
    : config_(config), token_gen_(std::move(token_gen)), nthreads_(nthreads)
{
    assert(token_gen_->dim() == config.dim);
    pos_table_ = std::make_unique<nn::EmbeddingTable>(config.max_seq,
                                                      config.dim, rng);
    for (int64_t l = 0; l < config.num_layers; ++l) {
        blocks_.push_back(
            std::make_unique<TransformerBlock>(config, rng, nthreads));
    }
    ln_f_ = std::make_unique<nn::LayerNorm>(config.dim);
    head_ = std::make_unique<nn::Linear>(config.dim, config.vocab_size,
                                         rng, nthreads);
    token_gen_->set_nthreads(nthreads);
}

void
SecureGpt::Reset(int64_t batch)
{
    batch_ = batch;
    caches_.clear();
    for (int64_t l = 0; l < config_.num_layers; ++l) {
        caches_.emplace_back(batch, config_.max_seq, config_.dim);
    }
}

Tensor
SecureGpt::Trunk(const Tensor& emb, int64_t batch, int64_t new_seq)
{
    Tensor h = emb;
    for (size_t l = 0; l < blocks_.size(); ++l) {
        h = blocks_[l]->ForwardCached(h, batch, new_seq, caches_[l]);
    }
    return ln_f_->Forward(h);
}

Tensor
SecureGpt::Prefill(const std::vector<std::vector<int64_t>>& prompts)
{
    TELEMETRY_SPAN("llm.prefill");
    const int64_t batch = static_cast<int64_t>(prompts.size());
    assert(batch > 0);
    const int64_t seq = static_cast<int64_t>(prompts[0].size());
    Reset(batch);

    // Flatten tokens sample-major; the embedding-generation batch is
    // batch * seq (the paper's "scale by 256x" note under Fig. 15).
    std::vector<int64_t> flat(static_cast<size_t>(batch * seq));
    std::vector<int64_t> positions(static_cast<size_t>(batch * seq));
    for (int64_t b = 0; b < batch; ++b) {
        assert(static_cast<int64_t>(prompts[static_cast<size_t>(b)]
                                        .size()) == seq);
        for (int64_t t = 0; t < seq; ++t) {
            flat[static_cast<size_t>(b * seq + t)] =
                prompts[static_cast<size_t>(b)][static_cast<size_t>(t)];
            positions[static_cast<size_t>(b * seq + t)] = t;
        }
    }
    Tensor emb = token_gen_->GenerateBatch(flat);
    emb.AddInPlace(pos_table_->Forward(positions));
    const Tensor h = Trunk(emb, batch, seq);

    // Last-position logits per sample.
    Tensor last({batch, config_.dim});
    for (int64_t b = 0; b < batch; ++b) {
        const float* src = h.data() + (b * seq + seq - 1) * config_.dim;
        std::copy(src, src + config_.dim, last.data() + b * config_.dim);
    }
    return head_->Forward(last);
}

Tensor
SecureGpt::DecodeStep(std::span<const int64_t> tokens)
{
    TELEMETRY_SPAN("llm.decode_step");
    const int64_t batch = static_cast<int64_t>(tokens.size());
    assert(batch == batch_ && !caches_.empty());
    std::vector<int64_t> positions(static_cast<size_t>(batch),
                                   caches_[0].len);
    Tensor emb = token_gen_->GenerateBatch(tokens);
    emb.AddInPlace(pos_table_->Forward(positions));
    const Tensor h = Trunk(emb, batch, 1);
    return head_->Forward(h);
}

std::vector<int64_t>
SecureGpt::GreedyTokens(const Tensor& logits) const
{
    std::vector<int64_t> out(static_cast<size_t>(logits.size(0)));
    for (int64_t b = 0; b < logits.size(0); ++b) {
        out[static_cast<size_t>(b)] =
            oblivious::ObliviousArgmax(logits.row(b));
    }
    return out;
}

std::vector<int64_t>
SecureGpt::GreedyTokensNonSecure(const Tensor& logits) const
{
    std::vector<int64_t> out(static_cast<size_t>(logits.size(0)));
    for (int64_t b = 0; b < logits.size(0); ++b) {
        const auto row = logits.row(b);
        int64_t best = 0;
        for (size_t j = 1; j < row.size(); ++j) {
            if (row[j] > row[static_cast<size_t>(best)]) {
                best = static_cast<int64_t>(j);
            }
        }
        out[static_cast<size_t>(b)] = best;
    }
    return out;
}

}  // namespace secemb::llm
