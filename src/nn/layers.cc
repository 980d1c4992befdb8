#include "nn/layers.h"

#include <cassert>
#include <cmath>

#include "oblivious/ct_ops.h"
#include "telemetry/telemetry.h"
#include "tensor/gemm.h"

namespace secemb::nn {

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

Linear::Linear(int64_t in, int64_t out, Rng& rng, int nthreads,
               Activation act)
    : w_(Tensor()), b_(Tensor::Zeros({out})), nthreads_(nthreads),
      act_(act)
{
    const float bound = std::sqrt(6.0f / static_cast<float>(in));
    w_ = Parameter(Tensor::Uniform({in, out}, rng, -bound, bound));
}

Tensor
Linear::Forward(const Tensor& x)
{
    assert(x.dim() == 2 && x.size(1) == in_features());
    cached_x_ = x;
    Tensor y({x.size(0), out_features()});
    // GELU's gradient needs the pre-activation, which the fused epilogue
    // saves in the same pass; ReLU's gradient only needs the output sign.
    Tensor* preact = nullptr;
    if (act_ == Activation::kGelu) {
        cached_preact_ = Tensor({x.size(0), out_features()});
        preact = &cached_preact_;
    }
    AffineActForward(x, PackedWeight(), b_.value, y, nthreads_, act_,
                     preact);
    if (act_ == Activation::kRelu) cached_y_ = y;
    return y;
}

const kernels::PackedB&
Linear::PackedWeight()
{
    const kernels::Isa isa =
        kernels::EffectiveIsaFor(kernels::ActiveIsa(), dtype_);
    const bool first = packed_w_.nr == 0;
    if (!first && packed_version_ == w_.version &&
        packed_w_.dtype == dtype_ && packed_w_.isa == isa) {
        TELEMETRY_COUNT("kernels.cache.hits", 1);
        return packed_w_;
    }
    kernels::PackB(w_.value.data(), in_features(), out_features(),
                   /*transposed_src=*/false, isa, dtype_, &packed_w_);
    packed_version_ = w_.version;
    if (first) {
        TELEMETRY_COUNT("kernels.cache.misses", 1);
    } else {
        TELEMETRY_COUNT("kernels.cache.repacks", 1);
    }
    return packed_w_;
}

Tensor
Linear::Backward(const Tensor& grad_out)
{
    assert(grad_out.size(0) == cached_x_.size(0));
    assert(grad_out.size(1) == out_features());
    const int64_t m = grad_out.size(0), n = grad_out.size(1);

    // Gradient through the fused activation (branchless: the blend
    // depends on data values, not control flow).
    Tensor g = grad_out;
    if (act_ == Activation::kRelu) {
        float* gp = g.data();
        const float* yp = cached_y_.data();
        for (int64_t i = 0; i < g.numel(); ++i) {
            const uint64_t positive =
                oblivious::BoolToMask(yp[i] > 0.0f ? 1 : 0);
            gp[i] = oblivious::SelectF32(positive, gp[i], 0.0f);
        }
    } else if (act_ == Activation::kGelu) {
        float* gp = g.data();
        const float* pre = cached_preact_.data();
        for (int64_t i = 0; i < g.numel(); ++i) {
            gp[i] *= kernels::GeluGradF(pre[i]);
        }
    }

    // dW += x^T g ; accumulate into existing grad.
    Tensor dw({in_features(), out_features()});
    GemmAT(cached_x_, g, dw, nthreads_);
    w_.grad.AddInPlace(dw);

    // db += column sums of g.
    for (int64_t i = 0; i < m; ++i) {
        const float* gi = g.data() + i * n;
        float* db = b_.grad.data();
        for (int64_t j = 0; j < n; ++j) db[j] += gi[j];
    }

    // dx = g W^T, packing W^T per call at f32: every optimizer step
    // changes W, and low precision is an inference-path optimisation.
    Tensor dx({m, in_features()});
    GemmBT(g, w_.value, dx, nthreads_);
    return dx;
}

// ---------------------------------------------------------------------------
// Sigmoid
// ---------------------------------------------------------------------------

Tensor
Sigmoid::Forward(const Tensor& x)
{
    Tensor y = x;
    float* p = y.data();
    for (int64_t i = 0; i < y.numel(); ++i) {
        p[i] = 1.0f / (1.0f + std::exp(-p[i]));
    }
    cached_y_ = y;
    return y;
}

Tensor
Sigmoid::Backward(const Tensor& grad_out)
{
    Tensor dx = grad_out;
    float* d = dx.data();
    const float* y = cached_y_.data();
    for (int64_t i = 0; i < dx.numel(); ++i) {
        d[i] *= y[i] * (1.0f - y[i]);
    }
    return dx;
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

LayerNorm::LayerNorm(int64_t dim, float eps)
    : gamma_(Tensor::Ones({dim})), beta_(Tensor::Zeros({dim})), eps_(eps)
{
}

Tensor
LayerNorm::Forward(const Tensor& x)
{
    assert(x.dim() == 2);
    const int64_t rows = x.size(0), d = x.size(1);
    assert(d == gamma_.value.numel());

    Tensor y({rows, d});
    cached_xhat_ = Tensor({rows, d});
    cached_inv_std_ = Tensor({rows});

    for (int64_t i = 0; i < rows; ++i) {
        const float* xi = x.data() + i * d;
        double mean = 0.0;
        for (int64_t j = 0; j < d; ++j) mean += xi[j];
        mean /= d;
        double var = 0.0;
        for (int64_t j = 0; j < d; ++j) {
            const double c = xi[j] - mean;
            var += c * c;
        }
        var /= d;
        const float inv_std =
            1.0f / std::sqrt(static_cast<float>(var) + eps_);
        cached_inv_std_.at(i) = inv_std;
        float* xh = cached_xhat_.data() + i * d;
        float* yi = y.data() + i * d;
        const float* g = gamma_.value.data();
        const float* b = beta_.value.data();
        for (int64_t j = 0; j < d; ++j) {
            xh[j] = (xi[j] - static_cast<float>(mean)) * inv_std;
            yi[j] = xh[j] * g[j] + b[j];
        }
    }
    return y;
}

Tensor
LayerNorm::Backward(const Tensor& grad_out)
{
    const int64_t rows = grad_out.size(0), d = grad_out.size(1);
    Tensor dx({rows, d});
    const float* g = gamma_.value.data();
    for (int64_t i = 0; i < rows; ++i) {
        const float* go = grad_out.data() + i * d;
        const float* xh = cached_xhat_.data() + i * d;
        const float inv_std = cached_inv_std_.at(i);
        float* dgi = gamma_.grad.data();
        float* dbi = beta_.grad.data();

        // dgamma/dbeta accumulation and intermediate sums.
        double sum_gxh = 0.0, sum_g = 0.0;
        for (int64_t j = 0; j < d; ++j) {
            dgi[j] += go[j] * xh[j];
            dbi[j] += go[j];
            const double gg = static_cast<double>(go[j]) * g[j];
            sum_gxh += gg * xh[j];
            sum_g += gg;
        }
        float* dxi = dx.data() + i * d;
        const float k1 = static_cast<float>(sum_g) / d;
        const float k2 = static_cast<float>(sum_gxh) / d;
        for (int64_t j = 0; j < d; ++j) {
            dxi[j] = inv_std * (go[j] * g[j] - k1 - xh[j] * k2);
        }
    }
    return dx;
}

// ---------------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------------

Tensor
Sequential::Forward(const Tensor& x)
{
    Tensor h = x;
    for (auto& m : modules_) h = m->Forward(h);
    return h;
}

Tensor
Sequential::Backward(const Tensor& grad_out)
{
    Tensor g = grad_out;
    for (auto it = modules_.rbegin(); it != modules_.rend(); ++it) {
        g = (*it)->Backward(g);
    }
    return g;
}

std::vector<Parameter*>
Sequential::Parameters()
{
    std::vector<Parameter*> ps;
    for (auto& m : modules_) {
        for (Parameter* p : m->Parameters()) ps.push_back(p);
    }
    return ps;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::unique_ptr<Sequential>
MakeMlp(const std::vector<int64_t>& sizes, Rng& rng, bool final_sigmoid,
        int nthreads)
{
    assert(sizes.size() >= 2);
    auto mlp = std::make_unique<Sequential>();
    for (size_t i = 0; i + 1 < sizes.size(); ++i) {
        const bool last = (i + 2 == sizes.size());
        const Activation act =
            last ? Activation::kIdentity : Activation::kRelu;
        mlp->Add(std::make_unique<Linear>(sizes[i], sizes[i + 1], rng,
                                          nthreads, act));
        if (last && final_sigmoid) {
            mlp->Add(std::make_unique<Sigmoid>());
        }
    }
    return mlp;
}

}  // namespace secemb::nn
