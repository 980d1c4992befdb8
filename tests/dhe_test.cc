/**
 * @file
 * Tests for Deep Hash Embedding: hash encoder properties, config sizing
 * rules, decoder behaviour, training, and table materialisation.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstring>
#include <set>

#include "dhe/dhe.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "tensor/kernels/kernels.h"

namespace secemb::dhe {
namespace {

TEST(HashEncoderTest, ValuesInRange)
{
    Rng rng(1);
    HashEncoder enc(64, 1000000, rng);
    std::vector<int64_t> ids{0, 1, 42, 999999, 10000000};
    const Tensor out = enc.Encode(ids);
    EXPECT_EQ(out.shape(), (Shape{5, 64}));
    for (int64_t i = 0; i < out.numel(); ++i) {
        EXPECT_GE(out.at(i), -1.0f);
        EXPECT_LE(out.at(i), 1.0f);
    }
}

TEST(HashEncoderTest, Deterministic)
{
    Rng rng1(7), rng2(7);
    HashEncoder a(32, 1000000, rng1), b(32, 1000000, rng2);
    std::vector<int64_t> ids{5, 123456};
    EXPECT_TRUE(a.Encode(ids).AllClose(b.Encode(ids)));
}

TEST(HashEncoderTest, DistinctIdsGetDistinctCodes)
{
    Rng rng(2);
    HashEncoder enc(16, 1000000, rng);
    std::set<std::vector<float>> codes;
    for (int64_t id = 0; id < 200; ++id) {
        const Tensor c = enc.Encode(std::vector<int64_t>{id});
        codes.insert(
            std::vector<float>(c.data(), c.data() + c.numel()));
    }
    // Universal hashing with k=16 over m=1e6 collides with negligible
    // probability across 200 ids.
    EXPECT_EQ(codes.size(), 200u);
}

TEST(HashEncoderTest, MarginalRoughlyUniform)
{
    Rng rng(3);
    HashEncoder enc(1, 1000, rng);
    // With one hash function, bucket occupancy over many ids should be
    // roughly uniform: mean of encoded value ~ 0.
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < 20000; ++i) ids.push_back(i);
    const Tensor out = enc.Encode(ids);
    double sum = 0.0;
    for (int64_t i = 0; i < out.numel(); ++i) sum += out.at(i);
    EXPECT_NEAR(sum / static_cast<double>(out.numel()), 0.0, 0.05);
}

TEST(HashEncoderTest, LargeIdsDoNotOverflow)
{
    Rng rng(4);
    HashEncoder enc(8, 1000000, rng);
    std::vector<int64_t> ids{(int64_t{1} << 62), (int64_t{1} << 62) + 1};
    const Tensor out = enc.Encode(ids);
    for (int64_t i = 0; i < out.numel(); ++i) {
        EXPECT_TRUE(std::isfinite(out.at(i)));
        EXPECT_GE(out.at(i), -1.0f);
        EXPECT_LE(out.at(i), 1.0f);
    }
}

/**
 * Id-domain edge cases pinned against the kept __int128 scalar
 * reference: negatives hash via the two's-complement bit pattern (the
 * header's contract), zero and INT64_MAX are in-domain, and the
 * vectorized tiers must match the reference bit-exactly — not merely
 * within tolerance — at every thread count.
 */
TEST(HashEncoderTest, EdgeIdsMatchReferenceBitExactlyOnEveryTier)
{
    Rng rng(5);
    using kernels::Isa;
    // Odd k exercises the SIMD kernels' scalar tail; m values cover the
    // Barrett path (1e6, 2), m = p, and the identity path (m > p).
    for (int64_t m : std::vector<int64_t>{1000000, 2, HashEncoder::kPrime,
                                          int64_t{1} << 40}) {
        HashEncoder enc(67, m, rng);
        const std::vector<int64_t> ids{
            0,        1,         -1,       -42,
            LLONG_MIN, LLONG_MAX, -1000000, HashEncoder::kPrime,
            HashEncoder::kPrime + 1};
        Tensor ref({static_cast<int64_t>(ids.size()), 67});
        enc.EncodeReference(ids, ref);
        for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
            if (!kernels::IsaSupported(isa)) continue;
            kernels::SetIsaForTest(static_cast<int>(isa));
            for (int nthreads : {1, 4}) {
                const Tensor got = enc.Encode(ids, nthreads);
                EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                      sizeof(float) *
                                          static_cast<size_t>(
                                              got.numel())),
                          0)
                    << "m=" << m << " isa=" << kernels::IsaName(isa)
                    << " nthreads=" << nthreads;
            }
            kernels::SetIsaForTest(-1);
        }
    }
}

TEST(HashEncoderTest, NegativeIdsDoNotCollideWithPositives)
{
    // id -> uint64_t(id) is a bijection: -1 hashes as 2^64 - 1, not as
    // 1, so the sign bit carries hash information.
    Rng rng(6);
    HashEncoder enc(16, 1000000, rng);
    const Tensor neg = enc.Encode(std::vector<int64_t>{-1});
    const Tensor pos = enc.Encode(std::vector<int64_t>{1});
    bool any_diff = false;
    for (int64_t j = 0; j < 16; ++j) {
        if (neg.at(j) != pos.at(j)) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(DheConfigTest, UniformMatchesPaper)
{
    const DheConfig c = DheConfig::Uniform(64);
    EXPECT_EQ(c.k, 1024);
    EXPECT_EQ(c.fc_hidden, (std::vector<int64_t>{512, 256}));
    EXPECT_EQ(c.out_dim, 64);
    EXPECT_EQ(c.hash_buckets, 1000000);
}

TEST(DheConfigTest, VariedShrinksWithTableSize)
{
    const DheConfig big = DheConfig::Varied(10000000, 64);
    const DheConfig mid = DheConfig::Varied(100000, 64);
    const DheConfig small = DheConfig::Varied(100, 64);
    EXPECT_EQ(big.k, 1024);  // at/above 1e7: full size
    EXPECT_LT(mid.k, big.k);
    EXPECT_LE(small.k, mid.k);
    EXPECT_GE(small.k, 128);  // floor
    EXPECT_LT(mid.DecoderParams(), big.DecoderParams());
}

TEST(DheConfigTest, VariedScalesEighthPerDecade)
{
    const DheConfig c6 = DheConfig::Varied(1000000, 64);
    EXPECT_EQ(c6.k, 128);  // 1024 * 0.125
    const DheConfig c6h = DheConfig::Varied(3162278, 64);  // 10^6.5
    EXPECT_NEAR(static_cast<double>(c6h.k), 362.0, 3.0);  // geometric
    const DheConfig c5 = DheConfig::Varied(100000, 64);
    EXPECT_EQ(c5.k, 128);  // floored: accuracy-preserving minimum
}

TEST(DheConfigTest, ForLlmDoublesDim)
{
    const DheConfig c = DheConfig::ForLlm(1024);
    EXPECT_EQ(c.k, 2048);
    EXPECT_EQ(c.fc_hidden, (std::vector<int64_t>{2048, 2048, 2048}));
    EXPECT_EQ(c.out_dim, 1024);
}

TEST(DheConfigTest, DecoderParamsFormula)
{
    DheConfig c;
    c.k = 10;
    c.fc_hidden = {4};
    c.out_dim = 3;
    EXPECT_EQ(c.DecoderParams(), 10 * 4 + 4 + 4 * 3 + 3);
}

TEST(DheEmbeddingTest, OutputShapeAndDeterminism)
{
    Rng rng(5);
    DheConfig cfg;
    cfg.k = 32;
    cfg.fc_hidden = {16};
    cfg.out_dim = 8;
    DheEmbedding dhe(cfg, rng);
    std::vector<int64_t> ids{1, 2, 3};
    const Tensor a = dhe.Forward(ids);
    const Tensor b = dhe.Forward(ids);
    EXPECT_EQ(a.shape(), (Shape{3, 8}));
    EXPECT_TRUE(a.AllClose(b));
}

TEST(DheEmbeddingTest, DifferentIdsDifferentEmbeddings)
{
    Rng rng(6);
    DheConfig cfg;
    cfg.k = 32;
    cfg.fc_hidden = {16};
    cfg.out_dim = 8;
    DheEmbedding dhe(cfg, rng);
    const Tensor a = dhe.Forward(std::vector<int64_t>{10});
    const Tensor b = dhe.Forward(std::vector<int64_t>{11});
    EXPECT_FALSE(a.AllClose(b));
}

TEST(DheEmbeddingTest, ToTableMatchesForward)
{
    Rng rng(7);
    DheConfig cfg;
    cfg.k = 16;
    cfg.fc_hidden = {8};
    cfg.out_dim = 4;
    DheEmbedding dhe(cfg, rng);
    const Tensor table = dhe.ToTable(20);
    EXPECT_EQ(table.shape(), (Shape{20, 4}));
    for (int64_t id : {0, 7, 19}) {
        const Tensor row = dhe.Forward(std::vector<int64_t>{id});
        for (int64_t j = 0; j < 4; ++j) {
            EXPECT_NEAR(table.at(id, j), row.at(0, j), 1e-5f)
                << "id " << id;
        }
    }
}

TEST(DheEmbeddingTest, ParamBytesCountsDecoderAndHashes)
{
    Rng rng(8);
    DheConfig cfg;
    cfg.k = 16;
    cfg.fc_hidden = {8};
    cfg.out_dim = 4;
    DheEmbedding dhe(cfg, rng);
    EXPECT_EQ(dhe.ParamBytes(),
              cfg.DecoderParams() * 4 + cfg.k * 16);
}

TEST(DheEmbeddingTest, TrainsToFitTargets)
{
    // DHE should be able to memorise a small table of target embeddings,
    // the mechanism behind the paper's "sized for no loss" claim.
    Rng rng(9);
    DheConfig cfg;
    cfg.k = 64;
    cfg.fc_hidden = {64};
    cfg.out_dim = 4;
    DheEmbedding dhe(cfg, rng);
    const Tensor targets = Tensor::Randn({16, 4}, rng);
    std::vector<int64_t> ids;
    for (int64_t i = 0; i < 16; ++i) ids.push_back(i);

    nn::Adam opt(dhe.Parameters(), 0.01f);
    float mse = 0.0f;
    for (int step = 0; step < 400; ++step) {
        opt.ZeroGrad();
        Tensor out = dhe.Forward(ids);
        Tensor grad = out.Sub(targets);
        mse = grad.SquaredNorm() / grad.numel();
        grad.ScaleInPlace(2.0f / grad.numel());
        dhe.Backward(grad);
        opt.Step();
    }
    EXPECT_LT(mse, 0.02f);
}

TEST(DheEmbeddingTest, FootprintIndependentOfTableSize)
{
    // The core memory claim: DHE footprint does not grow with the
    // feature cardinality it serves.
    Rng rng(10);
    DheEmbedding dhe(DheConfig::Uniform(16), rng);
    const int64_t bytes = dhe.ParamBytes();
    // A 1e7-row table at dim 16 would be 640 MB; the uniform DHE is
    // under 4 MB.
    EXPECT_LT(bytes, int64_t{4} * 1024 * 1024);
    EXPECT_GT(bytes, 0);
}

}  // namespace
}  // namespace secemb::dhe
