/**
 * @file
 * Tests for the tensor substrate: storage, ops, RNG, GEMM, ParallelFor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

#include "tensor/gemm.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "test_util.h"

namespace secemb {
namespace {

TEST(TensorTest, ZeroInitialised)
{
    Tensor t({3, 4});
    EXPECT_EQ(t.numel(), 12);
    EXPECT_EQ(t.dim(), 2);
    for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, InitializerList)
{
    Tensor t = Tensor::Values({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(t.numel(), 3);
    EXPECT_EQ(t.at(2), 3.0f);
}

TEST(TensorTest, At2DIndexing)
{
    Tensor t({2, 3});
    t.at(1, 2) = 5.0f;
    EXPECT_EQ(t.at(5), 5.0f);  // row-major position
}

TEST(TensorTest, RowSpanAliasesStorage)
{
    Tensor t({3, 2});
    t.row(1)[0] = 9.0f;
    EXPECT_EQ(t.at(1, 0), 9.0f);
}

TEST(TensorTest, ReshapePreservesData)
{
    Tensor t = Tensor::Values({1, 2, 3, 4, 5, 6});
    const Tensor r = t.Reshape({2, 3});
    EXPECT_EQ(r.at(1, 0), 4.0f);
    EXPECT_THROW(t.Reshape({5}), std::invalid_argument);
}

TEST(TensorTest, Transpose2D)
{
    Tensor t = Tensor::Values({1, 2, 3, 4, 5, 6}).Reshape({2, 3});
    const Tensor tt = t.Transpose2D();
    EXPECT_EQ(tt.shape(), (Shape{3, 2}));
    EXPECT_EQ(tt.at(2, 1), t.at(1, 2));
}

TEST(TensorTest, ElementwiseOps)
{
    Tensor a = Tensor::Values({1, 2, 3});
    Tensor b = Tensor::Values({4, 5, 6});
    EXPECT_TRUE(b.Sub(a).AllClose(Tensor::Values({3, 3, 3})));
    EXPECT_TRUE(a.AddInPlace(b).AllClose(Tensor::Values({5, 7, 9})));
    EXPECT_TRUE(a.SubInPlace(b).AllClose(Tensor::Values({1, 2, 3})));
    EXPECT_TRUE(a.ScaleInPlace(2.0f).AllClose(Tensor::Values({2, 4, 6})));
}

TEST(TensorTest, SquaredNorm)
{
    Tensor t = Tensor::Values({-1, 3, 2, -5});
    EXPECT_FLOAT_EQ(t.SquaredNorm(), 1 + 9 + 4 + 25);
}

TEST(TensorTest, AllCloseRespectsShapeAndTolerance)
{
    Tensor a = Tensor::Values({1, 2});
    Tensor b = Tensor::Values({1, 2.000001f});
    EXPECT_TRUE(a.AllClose(b));
    EXPECT_FALSE(a.AllClose(Tensor::Values({1, 2.1f})));
    EXPECT_FALSE(a.AllClose(Tensor::Values({1, 2, 3})));
}

TEST(TensorTest, NegativeDimensionThrows)
{
    EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(RngTest, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.NextBounded(17), 17u);
    }
}

TEST(RngTest, UniformCoversRange)
{
    Rng rng(2);
    float mn = 1e9f, mx = -1e9f;
    for (int i = 0; i < 10000; ++i) {
        const float v = rng.NextUniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
    }
    EXPECT_LT(mn, -1.8f);
    EXPECT_GT(mx, 2.8f);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(3);
    double sum = 0, sum2 = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.NextGaussian();
        sum += v;
        sum2 += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BoundedZeroIsRejected)
{
    Rng rng(1);
#ifdef NDEBUG
    // Release builds take the well-defined error path instead of the UB
    // `-0 % 0` the old code executed.
    EXPECT_THROW(rng.NextBounded(0), std::invalid_argument);
#else
    EXPECT_DEATH(rng.NextBounded(0), "bound > 0");
#endif
    // The generator stays usable after a rejected call.
    EXPECT_LT(rng.NextBounded(5), 5u);
}

TEST(RngTest, BoundedIsRoughlyUniform)
{
    Rng rng(4);
    std::vector<int> counts(8, 0);
    const int n = 80000;
    for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(8)];
    for (int c : counts) EXPECT_NEAR(c, n / 8, n / 80);
}

Tensor
NaiveMatMul(const Tensor& a, const Tensor& b)
{
    const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
    Tensor c({m, n});
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0;
            for (int64_t p = 0; p < k; ++p) {
                acc += a.at(i, p) * b.at(p, j);
            }
            c.at(i, j) = acc;
        }
    }
    return c;
}

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(GemmShapeTest, MatchesNaive)
{
    const auto [m, k, n] = GetParam();
    Rng rng(10);
    const Tensor a = Tensor::Randn({m, k}, rng);
    const Tensor b = Tensor::Randn({k, n}, rng);
    Tensor c({m, n});
    test::PackedGemm(a, b, c);
    EXPECT_TRUE(c.AllClose(NaiveMatMul(a, b), 1e-3f));
    GemmBT(a, b.Transpose2D(), c);
    EXPECT_TRUE(c.AllClose(NaiveMatMul(a, b), 1e-3f));
    GemmAT(a.Transpose2D(), b, c);
    EXPECT_TRUE(c.AllClose(NaiveMatMul(a, b), 1e-3f));
}

TEST_P(GemmShapeTest, ParallelMatchesSerial)
{
    const auto [m, k, n] = GetParam();
    Rng rng(11);
    const Tensor a = Tensor::Randn({m, k}, rng);
    const Tensor b = Tensor::Randn({k, n}, rng);
    Tensor parallel({m, n}), serial({m, n});
    test::PackedGemm(a, b, parallel, 4);
    test::PackedGemm(a, b, serial, 1);
    EXPECT_TRUE(parallel.AllClose(serial, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{33, 17, 9},
                      std::tuple{2, 64, 2}));

TEST(GemmTest, GemmBTMatchesExplicitTranspose)
{
    Rng rng(12);
    const Tensor a = Tensor::Randn({5, 7}, rng);
    const Tensor b = Tensor::Randn({7, 3}, rng);
    Tensor c({5, 3});
    GemmBT(a, b.Transpose2D(), c);
    EXPECT_TRUE(c.AllClose(NaiveMatMul(a, b), 1e-3f));
}

TEST(GemmTest, GemmATMatchesExplicitTranspose)
{
    Rng rng(13);
    const Tensor a = Tensor::Randn({5, 7}, rng);
    const Tensor b = Tensor::Randn({5, 3}, rng);
    Tensor c({7, 3});
    GemmAT(a, b, c);
    EXPECT_TRUE(c.AllClose(NaiveMatMul(a.Transpose2D(), b), 1e-3f));
}

TEST(GemmTest, AffineAddsBias)
{
    Rng rng(14);
    const Tensor x = Tensor::Randn({4, 3}, rng);
    const Tensor w = Tensor::Randn({3, 2}, rng);
    const Tensor bias = Tensor::Values({10.0f, 20.0f});
    kernels::PackedB packed;
    kernels::PackB(w.data(), 3, 2, /*transposed_src=*/false,
                   kernels::ActiveIsa(), &packed);
    Tensor y({4, 2});
    AffineActForward(x, packed, bias, y, 1);
    const Tensor expect = NaiveMatMul(x, w);
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_NEAR(y.at(i, 0), expect.at(i, 0) + 10.0f, 1e-4f);
        EXPECT_NEAR(y.at(i, 1), expect.at(i, 1) + 20.0f, 1e-4f);
    }
}

TEST(GemmTest, InnerDimensionMismatchThrows)
{
    Tensor a({2, 3}), b_t({2, 4}), a_t({4, 2}), b({3, 2}), c({2, 2});
    EXPECT_THROW(GemmBT(a, b_t, c), std::invalid_argument);
    EXPECT_THROW(GemmAT(a_t, b, c), std::invalid_argument);
}

TEST(ParallelForTest, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(1000, 4, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, HandlesZeroAndSmallN)
{
    int calls = 0;
    ParallelFor(0, 4, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::atomic<int> total{0};
    ParallelFor(2, 8, [&](int64_t b, int64_t e) {
        total += static_cast<int>(e - b);
    });
    EXPECT_EQ(total.load(), 2);
}

}  // namespace
}  // namespace secemb
