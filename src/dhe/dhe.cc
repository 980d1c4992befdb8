#include "dhe/dhe.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "perfmon/perfmon.h"
#include "telemetry/telemetry.h"

namespace secemb::dhe {

DheConfig
DheConfig::Uniform(int64_t out_dim)
{
    DheConfig c;
    c.k = 1024;
    c.fc_hidden = {512, 256};
    c.out_dim = out_dim;
    return c;
}

DheConfig
DheConfig::Varied(int64_t table_size, int64_t out_dim)
{
    DheConfig c = Uniform(out_dim);
    if (table_size >= 10000000) return c;
    // 0.125x per order of magnitude below 1e7, interpolated
    // geometrically. The floors (k = 128, FC width = 64) keep the decoder
    // expressive enough to match table accuracy — the paper sizes Varied
    // DHE "for no loss", and its Fig. 4 Varied latency corresponds to a
    // decoder of roughly this size at small tables.
    const double decades =
        std::log10(1e7 / static_cast<double>(std::max<int64_t>(
                             1, table_size)));
    const double scale = std::pow(0.125, decades);
    auto scaled = [&](int64_t v, int64_t floor_v) {
        return std::max<int64_t>(
            floor_v,
            static_cast<int64_t>(static_cast<double>(v) * scale));
    };
    c.k = scaled(c.k, 128);
    for (auto& h : c.fc_hidden) h = scaled(h, 64);
    return c;
}

DheConfig
DheConfig::ForLlm(int64_t emb_dim)
{
    DheConfig c;
    c.k = 2 * emb_dim;
    // 4 FC layers total: 3 hidden of width 2*dim plus the output layer.
    c.fc_hidden = {2 * emb_dim, 2 * emb_dim, 2 * emb_dim};
    c.out_dim = emb_dim;
    return c;
}

int64_t
DheConfig::DecoderParams() const
{
    int64_t params = 0;
    int64_t prev = k;
    for (int64_t h : fc_hidden) {
        params += prev * h + h;
        prev = h;
    }
    params += prev * out_dim + out_dim;
    return params;
}

DheEmbedding::DheEmbedding(const DheConfig& config, Rng& rng, int nthreads)
    : config_(config), encoder_(config.k, config.hash_buckets, rng),
      nthreads_(nthreads)
{
    std::vector<int64_t> sizes;
    sizes.push_back(config.k);
    for (int64_t h : config.fc_hidden) sizes.push_back(h);
    sizes.push_back(config.out_dim);
    decoder_ = nn::MakeMlp(sizes, rng, /*final_sigmoid=*/false, nthreads);
}

Tensor
DheEmbedding::Forward(std::span<const int64_t> ids)
{
    TELEMETRY_SCOPED_COUNTERS("dhe.forward");
    TELEMETRY_COUNT("dhe.forward.calls", 1);
    TELEMETRY_COUNT("dhe.forward.ids", ids.size());
    const Tensor encoded = encoder_.Encode(ids, nthreads_);
    return decoder_->Forward(encoded);
}

void
DheEmbedding::Backward(const Tensor& grad_out)
{
    decoder_->Backward(grad_out);
}

int64_t
DheEmbedding::ParamBytes()
{
    return decoder_->ParamBytes() + encoder_.ParamBytes();
}

Tensor
DheEmbedding::ToTable(int64_t table_size)
{
    std::vector<int64_t> ids(static_cast<size_t>(table_size));
    for (int64_t i = 0; i < table_size; ++i) {
        ids[static_cast<size_t>(i)] = i;
    }
    // Generate in chunks so huge tables do not allocate a huge activation.
    Tensor table({table_size, config_.out_dim});
    const int64_t chunk = 4096;
    for (int64_t begin = 0; begin < table_size; begin += chunk) {
        const int64_t end = std::min(table_size, begin + chunk);
        const Tensor part =
            Forward({ids.data() + begin, static_cast<size_t>(end - begin)});
        std::copy(part.data(), part.data() + part.numel(),
                  table.data() + begin * config_.out_dim);
    }
    return table;
}

void
DheEmbedding::set_nthreads(int n)
{
    nthreads_ = n;
    for (size_t i = 0; i < decoder_->size(); ++i) {
        if (auto* lin = dynamic_cast<nn::Linear*>(&decoder_->at(i))) {
            lin->set_nthreads(n);
        }
    }
}

void
DheEmbedding::set_dtype(kernels::Dtype dtype)
{
    for (size_t i = 0; i < decoder_->size(); ++i) {
        if (auto* lin = dynamic_cast<nn::Linear*>(&decoder_->at(i))) {
            lin->set_dtype(dtype);
        }
    }
}

}  // namespace secemb::dhe
