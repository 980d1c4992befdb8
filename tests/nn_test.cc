/**
 * @file
 * Tests for the NN layers: forward values, gradient checks against finite
 * differences, losses, optimisers, and a small end-to-end training run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "test_util.h"

namespace secemb::nn {
namespace {

using test::ExpectGradientsClose;

/** Scalar loss for gradient checks: sum of squares of module output. */
float
SumSquares(Module& m, const Tensor& x)
{
    const Tensor y = m.Forward(x);
    return 0.5f * y.SquaredNorm();
}

/** Analytic input gradient of SumSquares. */
Tensor
SumSquaresBackward(Module& m, const Tensor& x)
{
    Tensor y = m.Forward(x);
    return m.Backward(y);
}

TEST(LinearTest, ForwardMatchesManual)
{
    Rng rng(1);
    Linear lin(2, 3, rng);
    lin.weight().value = Tensor::Values({1, 2, 3, 4, 5, 6}).Reshape({2, 3});
    lin.bias().value = Tensor::Values({0.5f, -0.5f, 1.0f});
    const Tensor x = Tensor::Values({1, 1, 2, 0}).Reshape({2, 2});
    const Tensor y = lin.Forward(x);
    EXPECT_NEAR(y.at(0, 0), 1 + 4 + 0.5f, 1e-5f);
    EXPECT_NEAR(y.at(0, 1), 2 + 5 - 0.5f, 1e-5f);
    EXPECT_NEAR(y.at(1, 2), 6 + 1.0f, 1e-5f);
}

TEST(LinearTest, InputGradientCheck)
{
    Rng rng(2);
    Linear lin(4, 3, rng);
    const Tensor x = Tensor::Randn({5, 4}, rng);
    const Tensor gx = SumSquaresBackward(lin, x);
    ExpectGradientsClose([&](const Tensor& t) { return SumSquares(lin, t); },
                         x, gx);
}

TEST(LinearTest, WeightGradientCheck)
{
    Rng rng(3);
    Linear lin(3, 2, rng);
    const Tensor x = Tensor::Randn({4, 3}, rng);
    lin.ZeroGrad();
    Tensor y = lin.Forward(x);
    lin.Backward(y);
    const Tensor w = lin.weight().value;
    ExpectGradientsClose(
        [&](const Tensor& wt) {
            // Raw writes after the first Forward go through the version
            // bump, or Forward keeps serving the old packed panels.
            lin.weight().value = wt;
            lin.weight().BumpVersion();
            const float loss = SumSquares(lin, x);
            lin.weight().value = w;
            lin.weight().BumpVersion();
            return loss;
        },
        w, lin.weight().grad);
}

TEST(LinearTest, BiasGradientAccumulates)
{
    Rng rng(4);
    Linear lin(2, 2, rng);
    const Tensor x = Tensor::Randn({3, 2}, rng);
    lin.ZeroGrad();
    Tensor y = lin.Forward(x);
    Tensor ones = Tensor::Ones(y.shape());
    lin.Backward(ones);
    lin.Forward(x);
    lin.Backward(ones);
    // db = column sums of ones = batch, twice.
    EXPECT_NEAR(lin.bias().grad.at(0), 6.0f, 1e-5f);
}

class ActivationGradTest : public ::testing::Test
{
  protected:
    template <typename M>
    void
    Check(uint64_t seed)
    {
        Rng rng(seed);
        M act;
        const Tensor x = Tensor::Randn({4, 5}, rng);
        const Tensor gx = SumSquaresBackward(act, x);
        ExpectGradientsClose(
            [&](const Tensor& t) { return SumSquares(act, t); }, x, gx);
    }
};

TEST_F(ActivationGradTest, Sigmoid) { Check<Sigmoid>(11); }

// GELU runs only fused into a Linear's epilogue; its gradient,
// GeluGradF of the cached pre-activation, is checked through the layer,
// at a tolerance a tenth of a term of GeluGradF would exceed.
TEST_F(ActivationGradTest, Gelu)
{
    Rng rng(13);
    Linear lin(5, 4, rng, 1, Activation::kGelu);
    lin.bias().value = Tensor::Randn({4}, rng);
    const Tensor x = Tensor::Randn({4, 5}, rng);
    const Tensor gx = SumSquaresBackward(lin, x);
    ExpectGradientsClose([&](const Tensor& t) { return SumSquares(lin, t); },
                         x, gx, 1e-2f, 4e-3f, 20);
}

TEST(GeluTest, KnownValues)
{
    // A 1 -> 1 Linear with weight 1 and bias 0 applies the fused GELU to
    // each row's value.
    Rng rng(16);
    Linear gelu(1, 1, rng, 1, Activation::kGelu);
    gelu.weight().value = Tensor::Values({1.0f}).Reshape({1, 1});
    const Tensor y = gelu.Forward(
        Tensor::Values({0.0f, 100.0f, -100.0f, 1.0f}).Reshape({4, 1}));
    EXPECT_NEAR(y.at(0, 0), 0.0f, 1e-6f);
    EXPECT_NEAR(y.at(1, 0), 100.0f, 1e-3f);
    EXPECT_NEAR(y.at(2, 0), 0.0f, 1e-3f);
    EXPECT_NEAR(y.at(3, 0), 0.8411920f, 1e-6f);  // 0.5 (1 + tanh(0.83356))
}

TEST(LayerNormTest, NormalisesRows)
{
    LayerNorm ln(4);
    const Tensor x = Tensor::Values({1, 2, 3, 4, -2, 0, 2, 4}).Reshape({2, 4});
    const Tensor y = ln.Forward(x);
    for (int64_t i = 0; i < 2; ++i) {
        double mean = 0, var = 0;
        for (int64_t j = 0; j < 4; ++j) mean += y.at(i, j);
        mean /= 4;
        for (int64_t j = 0; j < 4; ++j) {
            var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
        }
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var / 4, 1.0, 1e-2);
    }
}

TEST(LayerNormTest, InputGradientCheck)
{
    Rng rng(15);
    LayerNorm ln(6);
    // Non-trivial gain/bias so the gradient exercises them.
    ln.Parameters()[0]->value = Tensor::Randn({6}, rng);
    const Tensor x = Tensor::Randn({3, 6}, rng);
    const Tensor gx = SumSquaresBackward(ln, x);
    ExpectGradientsClose([&](const Tensor& t) { return SumSquares(ln, t); },
                         x, gx);
}

// ReLU runs only fused into a Linear's epilogue; this chain checks its
// gradient, from the cached output's sign, through the layer.
TEST(SequentialTest, ComposesAndBackpropagates)
{
    Rng rng(16);
    Sequential seq;
    seq.Add(std::make_unique<Linear>(3, 5, rng, 1, Activation::kRelu));
    seq.Add(std::make_unique<Linear>(5, 2, rng));
    const Tensor x = Tensor::Randn({4, 3}, rng);
    const Tensor gx = SumSquaresBackward(seq, x);
    ExpectGradientsClose([&](const Tensor& t) { return SumSquares(seq, t); },
                         x, gx);
    EXPECT_EQ(seq.Parameters().size(), 4u);
}

TEST(EmbeddingTest, GatherAndScatter)
{
    Rng rng(18);
    EmbeddingTable emb(10, 4, rng);
    const std::vector<int64_t> ids{3, 7, 3};
    const Tensor out = emb.Forward(ids);
    for (int64_t j = 0; j < 4; ++j) {
        EXPECT_FLOAT_EQ(out.at(0, j), emb.table().at(3, j));
        EXPECT_FLOAT_EQ(out.at(2, j), emb.table().at(3, j));
    }
    Tensor grad = Tensor::Ones({3, 4});
    emb.Backward(ids, grad);
    // Row 3 hit twice, row 7 once, others zero.
    EXPECT_FLOAT_EQ(emb.weight().grad.at(3, 0), 2.0f);
    EXPECT_FLOAT_EQ(emb.weight().grad.at(7, 0), 1.0f);
    EXPECT_FLOAT_EQ(emb.weight().grad.at(0, 0), 0.0f);
}

TEST(LossTest, BceMatchesManual)
{
    const Tensor logits = Tensor::Values({0.0f});
    const Tensor targets = Tensor::Values({1.0f});
    Tensor grad;
    const float loss = BceWithLogits(logits, targets, &grad);
    EXPECT_NEAR(loss, std::log(2.0f), 1e-5f);
    EXPECT_NEAR(grad.at(0), -0.5f, 1e-5f);  // (p - t) = 0.5 - 1
}

TEST(LossTest, BceGradientCheck)
{
    Rng rng(19);
    const Tensor logits = Tensor::Randn({16}, rng);
    Tensor targets({16});
    for (int64_t i = 0; i < 16; ++i) {
        targets.at(i) = rng.NextBounded(2) ? 1.0f : 0.0f;
    }
    Tensor grad;
    BceWithLogits(logits, targets, &grad);
    ExpectGradientsClose(
        [&](const Tensor& l) { return BceWithLogits(l, targets, nullptr); },
        logits, grad, 1e-2f, 1e-2f);
}

TEST(LossTest, CrossEntropyGradientCheck)
{
    Rng rng(20);
    const Tensor logits = Tensor::Randn({6, 5}, rng);
    const std::vector<int64_t> targets{0, 3, 2, 4, 1, 0};
    Tensor grad;
    SoftmaxCrossEntropy(logits, targets, &grad);
    ExpectGradientsClose(
        [&](const Tensor& l) {
            return SoftmaxCrossEntropy(l, targets, nullptr);
        },
        logits, grad, 1e-2f, 1e-2f);
}

TEST(LossTest, CrossEntropyPerfectPrediction)
{
    Tensor logits = Tensor::Zeros({1, 3});
    logits.at(0, 1) = 50.0f;
    const std::vector<int64_t> target{1};
    EXPECT_NEAR(SoftmaxCrossEntropy(logits, target, nullptr), 0.0f, 1e-4f);
}

TEST(LossTest, BinaryAccuracy)
{
    const Tensor logits = Tensor::Values({2.0f, -1.0f, 0.5f, -0.5f});
    const Tensor targets = Tensor::Values({1.0f, 0.0f, 0.0f, 0.0f});
    EXPECT_FLOAT_EQ(BinaryAccuracy(logits, targets), 0.75f);
}

TEST(LossTest, PerplexityIsExpOfCrossEntropy)
{
    EXPECT_NEAR(Perplexity(std::log(14.6f)), 14.6f, 1e-3f);
}

TEST(OptimTest, AdamConvergesOnQuadratic)
{
    // Minimise (w - 3)^2 from w = 0.
    Parameter p(Tensor::Values({0.0f}));
    Adam opt({&p}, 0.1f);
    for (int i = 0; i < 300; ++i) {
        p.ZeroGrad();
        p.grad.at(0) = 2.0f * (p.value.at(0) - 3.0f);
        opt.Step();
    }
    EXPECT_NEAR(p.value.at(0), 3.0f, 1e-2f);
}

TEST(TrainingTest, MlpLearnsXor)
{
    Rng rng(21);
    auto mlp = MakeMlp({2, 16, 1}, rng);
    const Tensor x = Tensor::Values({0, 0, 0, 1, 1, 0, 1, 1}).Reshape({4, 2});
    const Tensor y = Tensor::Values({0.0f, 1.0f, 1.0f, 0.0f});
    Adam opt(mlp->Parameters(), 0.05f);
    float loss = 0;
    for (int epoch = 0; epoch < 500; ++epoch) {
        opt.ZeroGrad();
        Tensor logits = mlp->Forward(x).Reshape({4});
        Tensor grad;
        loss = BceWithLogits(logits, y, &grad);
        mlp->Backward(grad.Reshape({4, 1}));
        opt.Step();
    }
    EXPECT_LT(loss, 0.05f);
    const Tensor logits = mlp->Forward(x).Reshape({4});
    EXPECT_FLOAT_EQ(BinaryAccuracy(logits, y), 1.0f);
}

TEST(ModuleTest, NumParamsAndBytes)
{
    Rng rng(22);
    Linear lin(10, 5, rng);
    EXPECT_EQ(lin.NumParams(), 10 * 5 + 5);
    EXPECT_EQ(lin.ParamBytes(), (10 * 5 + 5) * 4);
}

}  // namespace
}  // namespace secemb::nn
