#pragma once

/**
 * @file
 * Optimisers: Adam behind the Optimizer interface.
 *
 * The paper trains DLRM variants with SGD and finetunes GPT-2 with Adam.
 * Every trainer here (tab05, fig14, abl03) steps with Adam: the
 * accuracy-parity experiments (Table V, Fig. 14) compare embedding
 * representations trained the same way, not optimisers.
 */

#include <cstdint>
#include <vector>

#include "nn/module.h"

namespace secemb::nn {

/** Optimiser interface over a fixed parameter set. */
class Optimizer
{
  public:
    explicit Optimizer(std::vector<Parameter*> params)
        : params_(std::move(params))
    {
    }
    virtual ~Optimizer() = default;

    /** Apply one update from the accumulated gradients; bumps each
     * parameter's version. */
    virtual void Step() = 0;

    void
    ZeroGrad()
    {
        for (Parameter* p : params_) p->ZeroGrad();
    }

  protected:
    std::vector<Parameter*> params_;
};

/** Adam (Kingma & Ba) with bias correction. */
class Adam : public Optimizer
{
  public:
    Adam(std::vector<Parameter*> params, float lr, float beta1 = 0.9f,
         float beta2 = 0.999f, float eps = 1e-8f);
    void Step() override;

  private:
    float lr_, beta1_, beta2_, eps_;
    int64_t t_ = 0;
    std::vector<Tensor> m_, v_;
};

}  // namespace secemb::nn
