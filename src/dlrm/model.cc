#include "dlrm/model.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "telemetry/telemetry.h"

namespace secemb::dlrm {

namespace {

std::vector<int64_t>
WithInput(int64_t input, const std::vector<int64_t>& hidden,
          int64_t output)
{
    std::vector<int64_t> sizes;
    sizes.push_back(input);
    for (int64_t h : hidden) sizes.push_back(h);
    sizes.push_back(output);
    return sizes;
}

}  // namespace

// ---------------------------------------------------------------------------
// TrainableDlrm
// ---------------------------------------------------------------------------

TrainableDlrm::TrainableDlrm(const DlrmConfig& config, EmbeddingMode mode,
                             Rng& rng, int64_t dhe_size_divisor)
    : config_(config), mode_(mode)
{
    // Bottom MLP: num_dense -> ... -> emb_dim (last bot size must match).
    assert(!config.bot_mlp.empty() &&
           config.bot_mlp.back() == config.emb_dim);
    std::vector<int64_t> bot_sizes;
    bot_sizes.push_back(config.num_dense);
    for (int64_t h : config.bot_mlp) bot_sizes.push_back(h);
    bot_ = nn::MakeMlp(bot_sizes, rng);

    // Top MLP: interaction width -> ... -> 1 logit (loss adds sigmoid).
    top_ = nn::MakeMlp(
        WithInput(config.InteractionOutputDim(), config.top_mlp, 1), rng);

    for (int64_t f = 0; f < config.num_sparse(); ++f) {
        const int64_t rows = config.table_sizes[static_cast<size_t>(f)];
        if (mode == EmbeddingMode::kTable) {
            tables_.push_back(std::make_unique<nn::EmbeddingTable>(
                rows, config.emb_dim, rng));
        } else {
            dhe::DheConfig dc =
                mode == EmbeddingMode::kDheUniform
                    ? dhe::DheConfig::Uniform(config.emb_dim)
                    : dhe::DheConfig::Varied(rows, config.emb_dim);
            if (dhe_size_divisor > 1) {
                dc.k = std::max<int64_t>(16, dc.k / dhe_size_divisor);
                for (auto& w : dc.fc_hidden) {
                    w = std::max<int64_t>(16, w / dhe_size_divisor);
                }
            }
            dhes_.push_back(
                std::make_shared<dhe::DheEmbedding>(dc, rng));
        }
    }
}

Tensor
TrainableDlrm::Forward(const CtrBatch& batch)
{
    cached_batch_ = &batch;
    cached_dense_out_ = bot_->Forward(batch.dense);
    cached_embs_.clear();
    for (int64_t f = 0; f < config_.num_sparse(); ++f) {
        const auto& ids = batch.sparse[static_cast<size_t>(f)];
        if (mode_ == EmbeddingMode::kTable) {
            cached_embs_.push_back(
                tables_[static_cast<size_t>(f)]->Forward(ids));
        } else {
            cached_embs_.push_back(
                dhes_[static_cast<size_t>(f)]->Forward(ids));
        }
    }
    const Tensor z = InteractionForward(config_.interaction,
                                        cached_dense_out_, cached_embs_);
    Tensor logits = top_->Forward(z);
    return logits.Reshape({logits.size(0)});
}

void
TrainableDlrm::Backward(const Tensor& grad_logits)
{
    assert(cached_batch_ != nullptr);
    const Tensor grad_z =
        top_->Backward(grad_logits.Reshape({grad_logits.numel(), 1}));
    Tensor grad_dense;
    std::vector<Tensor> grad_embs;
    InteractionBackward(config_.interaction, cached_dense_out_,
                        cached_embs_, grad_z, grad_dense, grad_embs);
    for (int64_t f = 0; f < config_.num_sparse(); ++f) {
        const auto& ids = cached_batch_->sparse[static_cast<size_t>(f)];
        if (mode_ == EmbeddingMode::kTable) {
            tables_[static_cast<size_t>(f)]->Backward(
                ids, grad_embs[static_cast<size_t>(f)]);
        } else {
            dhes_[static_cast<size_t>(f)]->Backward(
                grad_embs[static_cast<size_t>(f)]);
        }
    }
    bot_->Backward(grad_dense);
}

float
TrainableDlrm::TrainStep(const CtrBatch& batch, nn::Optimizer& opt)
{
    opt.ZeroGrad();
    const Tensor logits = Forward(batch);
    Tensor grad;
    const float loss = nn::BceWithLogits(logits, batch.labels, &grad);
    Backward(grad);
    opt.Step();
    return loss;
}

float
TrainableDlrm::Evaluate(const CtrBatch& batch)
{
    const Tensor logits = Forward(batch);
    return nn::BinaryAccuracy(logits, batch.labels);
}

std::vector<nn::Parameter*>
TrainableDlrm::Parameters()
{
    std::vector<nn::Parameter*> ps;
    for (auto* p : bot_->Parameters()) ps.push_back(p);
    for (auto* p : top_->Parameters()) ps.push_back(p);
    for (auto& t : tables_) ps.push_back(&t->weight());
    for (auto& d : dhes_) {
        for (auto* p : d->Parameters()) ps.push_back(p);
    }
    return ps;
}

std::shared_ptr<dhe::DheEmbedding>
TrainableDlrm::dhe(int64_t f)
{
    if (mode_ == EmbeddingMode::kTable) {
        throw std::logic_error("dhe(): model trained with tables");
    }
    return dhes_[static_cast<size_t>(f)];
}

// ---------------------------------------------------------------------------
// SecureDlrm
// ---------------------------------------------------------------------------

SecureDlrm::SecureDlrm(
    const DlrmConfig& config,
    std::vector<std::unique_ptr<core::EmbeddingGenerator>> generators,
    Rng& rng)
    : config_(config), generators_(std::move(generators))
{
    assert(static_cast<int64_t>(generators_.size()) ==
           config.num_sparse());
    std::vector<int64_t> bot_sizes;
    bot_sizes.push_back(config.num_dense);
    for (int64_t h : config.bot_mlp) bot_sizes.push_back(h);
    bot_ = nn::MakeMlp(bot_sizes, rng);
    top_ = nn::MakeMlp(
        WithInput(config.InteractionOutputDim(), config.top_mlp, 1), rng,
        /*final_sigmoid=*/true);
}

Tensor
SecureDlrm::Inference(const Tensor& dense,
                      const std::vector<std::vector<int64_t>>& sparse)
{
    TELEMETRY_SPAN("dlrm.inference");
    TELEMETRY_COUNT("dlrm.inference.requests", dense.size(0));
    const Tensor dense_out = bot_->Forward(dense);
    std::vector<Tensor> embs;
    embs.reserve(sparse.size());
    {
        TELEMETRY_SPAN("dlrm.embedding_layers");
        for (int64_t f = 0; f < config_.num_sparse(); ++f) {
            embs.push_back(
                generators_[static_cast<size_t>(f)]->GenerateBatch(
                    sparse[static_cast<size_t>(f)]));
        }
    }
    const Tensor z =
        InteractionForward(config_.interaction, dense_out, embs);
    Tensor probs = top_->Forward(z);
    return probs.Reshape({probs.size(0)});
}

void
SecureDlrm::EmbeddingLayersOnly(
    const std::vector<std::vector<int64_t>>& sparse)
{
    for (int64_t f = 0; f < config_.num_sparse(); ++f) {
        Tensor out({static_cast<int64_t>(
                        sparse[static_cast<size_t>(f)].size()),
                    config_.emb_dim});
        generators_[static_cast<size_t>(f)]->Generate(
            sparse[static_cast<size_t>(f)], out);
    }
}

void
SecureDlrm::set_nthreads(int nthreads)
{
    nthreads_ = nthreads;
    for (auto& g : generators_) g->set_nthreads(nthreads);
}

}  // namespace secemb::dlrm
