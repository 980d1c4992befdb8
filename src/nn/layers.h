#pragma once

/**
 * @file
 * Standard layers: Linear (with ReLU or GELU fused into its GEMM),
 * Sigmoid, LayerNorm, Sequential.
 *
 * Control flow in every layer depends only on tensor shapes, never on
 * values — matching the paper's observation (Section V-B) that FC layers
 * and elementwise math are naturally oblivious.
 */

#include <memory>
#include <vector>

#include "nn/module.h"
#include "tensor/kernels/kernels.h"
#include "tensor/rng.h"

namespace secemb::nn {

/** Activation fused into a Linear's GEMM epilogue. */
using Activation = kernels::Activation;

/**
 * Fully-connected layer y = act(x W + b); x is (batch x in).
 *
 * The default activation is identity (a plain affine layer). With
 * kRelu/kGelu the activation runs inside the GEMM's fused epilogue —
 * one pass, no separate bias-add or activation sweep — and Backward
 * applies the matching gradient before the weight/input GEMMs (ReLU
 * from the cached output's sign, GELU from the cached pre-activation
 * that the epilogue saves in the same pass).
 *
 * The layer owns the packed panels of W for its precision and the
 * effective ISA tier. Forward packs them on first use and repacks only
 * when weight().version, dtype() or EffectiveIsaFor(ActiveIsa(), dtype())
 * has changed since; telemetry counts kernels.cache.{hits,misses,repacks}.
 * So change W through Adam::Step or weight().BumpVersion(): a raw
 * write after the first Forward is not seen. Like the cached activations, the panels make Forward a
 * single-caller operation.
 */
class Linear : public Module
{
  public:
    /**
     * @param in input features
     * @param out output features
     * @param rng weight init source (Kaiming-uniform-ish)
     * @param nthreads GEMM threads for forward/backward
     * @param act activation fused into the forward epilogue
     */
    Linear(int64_t in, int64_t out, Rng& rng, int nthreads = 1,
           Activation act = Activation::kIdentity);

    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& grad_out) override;
    std::vector<Parameter*> Parameters() override { return {&w_, &b_}; }
    std::string_view name() const override { return "Linear"; }

    int64_t in_features() const { return w_.value.size(0); }
    int64_t out_features() const { return w_.value.size(1); }
    Parameter& weight() { return w_; }
    Parameter& bias() { return b_; }
    Activation activation() const { return act_; }
    void set_nthreads(int n) { nthreads_ = n; }

    /**
     * Weight precision for Forward's packed GEMM (f32 / bf16 / int8
     * quantize-on-pack). Defaults to the process-wide ActiveDtype()
     * (SECEMB_PRECISION) at construction; a change repacks on the next
     * Forward. Backward always runs f32: low precision is an
     * inference-path optimisation and gradients keep full fidelity.
     */
    void set_dtype(kernels::Dtype dtype) { dtype_ = dtype; }
    kernels::Dtype dtype() const { return dtype_; }

  private:
    /** The panels of W, repacked first if stale (see the class doc). */
    const kernels::PackedB& PackedWeight();

    Parameter w_;  ///< (in x out)
    Parameter b_;  ///< (out)
    Tensor cached_x_;
    Tensor cached_y_;       ///< post-activation output (ReLU mask source)
    Tensor cached_preact_;  ///< pre-activation (GELU gradient source)
    int nthreads_;
    Activation act_;
    kernels::Dtype dtype_ = kernels::ActiveDtype();
    kernels::PackedB packed_w_;   ///< nr stays 0 until the first pack
    uint64_t packed_version_ = 0;  ///< w_.version packed_w_ was built from
};

/** Logistic sigmoid. */
class Sigmoid : public Module
{
  public:
    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& grad_out) override;
    std::string_view name() const override { return "Sigmoid"; }

  private:
    Tensor cached_y_;
};

/** Layer normalisation over the last dimension with learned gain/bias. */
class LayerNorm : public Module
{
  public:
    explicit LayerNorm(int64_t dim, float eps = 1e-5f);

    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& grad_out) override;
    std::vector<Parameter*> Parameters() override
    {
        return {&gamma_, &beta_};
    }
    std::string_view name() const override { return "LayerNorm"; }

  private:
    Parameter gamma_;
    Parameter beta_;
    float eps_;
    Tensor cached_xhat_;     ///< normalised input
    Tensor cached_inv_std_;  ///< per-row 1/std
};

/** Ordered container of modules applied in sequence. */
class Sequential : public Module
{
  public:
    Sequential() = default;

    void Add(std::unique_ptr<Module> m) { modules_.push_back(std::move(m)); }

    Tensor Forward(const Tensor& x) override;
    Tensor Backward(const Tensor& grad_out) override;
    std::vector<Parameter*> Parameters() override;
    std::string_view name() const override { return "Sequential"; }

    size_t size() const { return modules_.size(); }
    Module& at(size_t i) { return *modules_[i]; }

  private:
    std::vector<std::unique_ptr<Module>> modules_;
};

/**
 * Build an MLP: sizes = {in, h1, ..., out}; ReLU fused into each hidden
 * Linear's epilogue, optional sigmoid at the end (DLRM top MLP
 * convention).
 */
std::unique_ptr<Sequential> MakeMlp(const std::vector<int64_t>& sizes,
                                    Rng& rng, bool final_sigmoid = false,
                                    int nthreads = 1);

}  // namespace secemb::nn
