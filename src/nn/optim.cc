#include "nn/optim.h"

#include <cmath>

namespace secemb::nn {

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps)
{
    m_.reserve(params_.size());
    v_.reserve(params_.size());
    for (Parameter* p : params_) {
        m_.push_back(Tensor::Zeros(p->value.shape()));
        v_.push_back(Tensor::Zeros(p->value.shape()));
    }
}

void
Adam::Step()
{
    ++t_;
    const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
        Parameter* p = params_[i];
        float* w = p->value.data();
        const float* g = p->grad.data();
        float* m = m_[i].data();
        float* v = v_[i].data();
        for (int64_t j = 0; j < p->numel(); ++j) {
            m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
            v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
            const float mhat = m[j] / bc1;
            const float vhat = v[j] / bc2;
            w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        }
        p->BumpVersion();
    }
}

}  // namespace secemb::nn
