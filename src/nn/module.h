#pragma once

/**
 * @file
 * Core neural-network abstractions: trainable parameters and the module
 * interface with explicit forward/backward.
 *
 * This replaces PyTorch's autograd for the subset of models the paper
 * evaluates (MLPs, DLRM, a GPT-2-architecture decoder). Each module caches
 * whatever it needs during Forward and consumes it in Backward.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.h"

namespace secemb::nn {

/**
 * A trainable tensor with its gradient accumulator.
 *
 * `version` counts writes to `value`: Adam::Step bumps it, and code
 * that writes `value` any other way must call BumpVersion(). Layers that derive state from the value (the
 * packed panels of nn::Linear) rebuild it when the version moves, so a
 * raw write without a bump is not seen once that state exists.
 */
struct Parameter
{
    Tensor value;
    Tensor grad;
    uint64_t version = 0;

    explicit Parameter(Tensor v)
        : value(std::move(v)), grad(Tensor::Zeros(value.shape()))
    {
    }

    void ZeroGrad() { grad.Fill(0.0f); }
    void BumpVersion() { ++version; }
    int64_t numel() const { return value.numel(); }
};

/**
 * A differentiable layer mapping one tensor to one tensor.
 *
 * Contract: Backward must be called after Forward with a gradient whose
 * shape matches Forward's output; it accumulates into parameter grads and
 * returns the gradient with respect to the input.
 */
class Module
{
  public:
    virtual ~Module() = default;

    virtual Tensor Forward(const Tensor& x) = 0;
    virtual Tensor Backward(const Tensor& grad_out) = 0;

    /** All trainable parameters (possibly empty). */
    virtual std::vector<Parameter*> Parameters() { return {}; }

    virtual std::string_view name() const = 0;

    void
    ZeroGrad()
    {
        for (Parameter* p : Parameters()) p->ZeroGrad();
    }

    int64_t
    NumParams()
    {
        int64_t n = 0;
        for (Parameter* p : Parameters()) n += p->numel();
        return n;
    }

    /** Payload bytes of parameters (grads excluded), for footprint tables. */
    int64_t
    ParamBytes()
    {
        return NumParams() * int64_t{sizeof(float)};
    }
};

}  // namespace secemb::nn
