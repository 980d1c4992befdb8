#pragma once

/**
 * @file
 * Shared test helpers: finite-difference gradient checking against the
 * analytic backward passes, A * B through the packed GEMM path, and the
 * greedy decode loop.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "llm/gpt.h"
#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace secemb::test {

/**
 * Check dLoss/dx for a scalar loss(x) against the analytic gradient, at up
 * to `samples` randomly-chosen coordinates.
 */
inline void
ExpectGradientsClose(const std::function<float(const Tensor&)>& loss,
                     const Tensor& x, const Tensor& analytic_grad,
                     float eps = 1e-2f, float tol = 2e-2f,
                     int samples = 24, uint64_t seed = 7)
{
    ASSERT_EQ(x.numel(), analytic_grad.numel());
    Rng rng(seed);
    const int64_t n = x.numel();
    for (int s = 0; s < samples && s < n; ++s) {
        const int64_t i = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(n)));
        Tensor xp = x, xm = x;
        xp.at(i) += eps;
        xm.at(i) -= eps;
        const float numeric = (loss(xp) - loss(xm)) / (2 * eps);
        const float analytic = analytic_grad.at(i);
        const float scale =
            std::max({1.0f, std::abs(numeric), std::abs(analytic)});
        EXPECT_NEAR(numeric, analytic, tol * scale)
            << "coordinate " << i;
    }
}

/**
 * C = A * B through a transient f32 pack for the active tier, the
 * packed-B path every nn::Linear runs (no bias, no activation).
 */
inline void
PackedGemm(const Tensor& a, const Tensor& b, Tensor& c, int nthreads = 1)
{
    kernels::PackedB packed;
    kernels::PackB(b.data(), b.size(0), b.size(1), /*transposed_src=*/false,
                   kernels::ActiveIsa(), &packed);
    AffineActForward(a, packed, Tensor(), c, nthreads);
}

/**
 * Greedy decoding as examples/llm_generate.cpp runs it: prefill, then
 * `steps` oblivious argmaxes, feeding each token back through a decode
 * step. Returns the generated ids per prompt.
 */
inline std::vector<std::vector<int64_t>>
GreedyDecode(llm::SecureGpt& model,
             const std::vector<std::vector<int64_t>>& prompts, int steps)
{
    Tensor logits = model.Prefill(prompts);
    std::vector<std::vector<int64_t>> generated(prompts.size());
    for (int s = 0; s < steps; ++s) {
        const std::vector<int64_t> next = model.GreedyTokens(logits);
        for (size_t b = 0; b < generated.size(); ++b) {
            generated[b].push_back(next[b]);
        }
        if (s + 1 < steps) logits = model.DecodeStep(next);
    }
    return generated;
}

}  // namespace secemb::test
