/**
 * @file
 * Tests for the DLRM module: dataset presets, synthetic data, feature
 * interaction (values + gradient checks), trainable model, and the
 * secure inference model with every generator kind.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/factory.h"
#include "dlrm/config.h"
#include "dlrm/dataset.h"
#include "dlrm/interaction.h"
#include "dlrm/model.h"
#include "test_util.h"

namespace secemb::dlrm {
namespace {

DlrmConfig
TinyConfig()
{
    DlrmConfig c;
    c.num_dense = 4;
    c.table_sizes = {16, 8, 32};
    c.emb_dim = 6;
    c.bot_mlp = {8, 6};
    c.top_mlp = {16};
    c.interaction = Interaction::kDot;
    return c;
}

TEST(DlrmConfigTest, CriteoPresetsMatchPaper)
{
    const DlrmConfig kaggle = DlrmConfig::CriteoKaggle();
    EXPECT_EQ(kaggle.num_sparse(), 26);
    EXPECT_EQ(kaggle.emb_dim, 16);
    EXPECT_EQ(kaggle.bot_mlp.back(), 16);
    const DlrmConfig tb = DlrmConfig::CriteoTerabyte();
    EXPECT_EQ(tb.num_sparse(), 26);
    EXPECT_EQ(tb.emb_dim, 64);
    // Terabyte tables are capped at 1e7 (Section VI-C).
    for (int64_t s : tb.table_sizes) EXPECT_LE(s, 10000000);
    EXPECT_GT(*std::max_element(tb.table_sizes.begin(),
                                tb.table_sizes.end()),
              9000000);
}

TEST(DlrmConfigTest, InteractionOutputDims)
{
    DlrmConfig c = TinyConfig();
    // dot: emb_dim + f(f-1)/2 with f = 3 embs + 1 dense = 4.
    EXPECT_EQ(c.InteractionOutputDim(), 6 + 4 * 3 / 2);
    c.interaction = Interaction::kConcat;
    EXPECT_EQ(c.InteractionOutputDim(), 6 * 4);
}

TEST(DlrmConfigTest, ScaledDividesAndFloors)
{
    const DlrmConfig c = DlrmConfig::CriteoKaggle().Scaled(1000);
    EXPECT_EQ(c.table_sizes[2], 10131227 / 1000);
    for (int64_t s : c.table_sizes) EXPECT_GE(s, 4);
}

TEST(DlrmConfigTest, MetaDatasetShape)
{
    const auto sizes = MetaDatasetTableSizes();
    EXPECT_EQ(sizes.size(), 788u);
    EXPECT_EQ(sizes.front(), 40000000);  // max 4e7
    EXPECT_GE(sizes.back(), 1);
    // Sorted descending, heavy-tailed: beyond-Criteo sizes exist.
    EXPECT_GT(sizes[5], 5000000);
}

TEST(DatasetTest, BatchShapesAndLabelRange)
{
    SyntheticCtrDataset ds(TinyConfig(), 1);
    const CtrBatch b = ds.NextBatch(10);
    EXPECT_EQ(b.dense.shape(), (Shape{10, 4}));
    EXPECT_EQ(b.sparse.size(), 3u);
    EXPECT_EQ(b.labels.numel(), 10);
    for (int64_t i = 0; i < 10; ++i) {
        const float l = b.labels.at(i);
        EXPECT_TRUE(l == 0.0f || l == 1.0f);
    }
    for (size_t f = 0; f < 3; ++f) {
        for (int64_t idx : b.sparse[f]) {
            EXPECT_GE(idx, 0);
            EXPECT_LT(idx, TinyConfig().table_sizes[f]);
        }
    }
}

TEST(DatasetTest, IndicesAreSkewed)
{
    SyntheticCtrDataset ds(TinyConfig(), 2);
    int64_t low = 0, total = 0;
    for (int round = 0; round < 50; ++round) {
        const CtrBatch b = ds.NextBatch(32);
        for (int64_t idx : b.sparse[2]) {  // table of 32 rows
            low += idx < 8 ? 1 : 0;
            ++total;
        }
    }
    // Power-law skew: the bottom quarter of ids gets most of the mass.
    EXPECT_GT(static_cast<double>(low) / total, 0.5);
}

TEST(DatasetTest, DeterministicGivenSeed)
{
    SyntheticCtrDataset a(TinyConfig(), 3), b(TinyConfig(), 3);
    const CtrBatch ba = a.NextBatch(8), bb = b.NextBatch(8);
    EXPECT_TRUE(ba.dense.AllClose(bb.dense));
    EXPECT_EQ(ba.sparse, bb.sparse);
}

TEST(InteractionTest, ConcatLayout)
{
    Rng rng(4);
    const Tensor dense = Tensor::Randn({2, 3}, rng);
    std::vector<Tensor> embs{Tensor::Randn({2, 3}, rng)};
    const Tensor out =
        InteractionForward(Interaction::kConcat, dense, embs);
    EXPECT_EQ(out.shape(), (Shape{2, 6}));
    EXPECT_FLOAT_EQ(out.at(1, 0), dense.at(1, 0));
    EXPECT_FLOAT_EQ(out.at(1, 3), embs[0].at(1, 0));
}

TEST(InteractionTest, DotValues)
{
    Rng rng(5);
    const Tensor dense = Tensor::Values({1, 2}).Reshape({1, 2});
    std::vector<Tensor> embs{Tensor::Values({3, 4}).Reshape({1, 2}),
                             Tensor::Values({5, 6}).Reshape({1, 2})};
    const Tensor out = InteractionForward(Interaction::kDot, dense, embs);
    // Layout: dense copy then pairs (d,e0), (d,e1), (e0,e1).
    EXPECT_EQ(out.shape(), (Shape{1, 2 + 3}));
    EXPECT_FLOAT_EQ(out.at(0, 2), 1 * 3 + 2 * 4);
    EXPECT_FLOAT_EQ(out.at(0, 3), 1 * 5 + 2 * 6);
    EXPECT_FLOAT_EQ(out.at(0, 4), 3 * 5 + 4 * 6);
}

/** The dot interaction as a loop over samples and pairs, one float per
 * step: the loop InteractionForward(kDot) replaced. */
Tensor
DotInteractionReference(const Tensor& dense, const std::vector<Tensor>& embs)
{
    const int64_t batch = dense.size(0), d = dense.size(1);
    const int64_t f = static_cast<int64_t>(embs.size()) + 1;
    const int64_t pairs = f * (f - 1) / 2;
    Tensor out({batch, d + pairs});
    for (int64_t i = 0; i < batch; ++i) {
        std::vector<const float*> vs{dense.data() + i * d};
        for (const auto& e : embs) vs.push_back(e.data() + i * d);
        float* o = out.data() + i * (d + pairs);
        std::memcpy(o, vs[0], static_cast<size_t>(d) * sizeof(float));
        int64_t p = d;
        for (int64_t a = 0; a < f; ++a) {
            for (int64_t b = a + 1; b < f; ++b) {
                float acc = 0.0f;
                for (int64_t j = 0; j < d; ++j) {
                    acc += vs[static_cast<size_t>(a)][j] *
                           vs[static_cast<size_t>(b)][j];
                }
                o[p++] = acc;
            }
        }
    }
    return out;
}

/** A batch x d tensor of normal values with zeros of both signs,
 * subnormals and large values mixed in, one element in 32 (products
 * with subnormals run slowly, so a denser mix slows the test tenfold). */
Tensor
InteractionInput(int64_t batch, int64_t d, Rng& rng)
{
    const float kSpecials[] = {0.0f, -0.0f,
                               std::numeric_limits<float>::denorm_min(),
                               -3.0f * std::numeric_limits<float>::min(),
                               1e19f, -3e20f};
    constexpr uint64_t kCount = sizeof(kSpecials) / sizeof(kSpecials[0]);
    Tensor t = Tensor::Randn({batch, d}, rng);
    for (int64_t i = 0; i < t.numel(); ++i) {
        const uint64_t pick = rng.NextBounded(32 * kCount);
        if (pick < kCount) t.at(i) = kSpecials[pick];
    }
    return t;
}

/**
 * InteractionForward(kDot) against the loop it replaced, bit for bit:
 * batch 1..65 (whole and partial vectors of samples), d in {1, 3, 16,
 * 64} and 0..26 embeddings, with specials in every input. One process
 * runs every shape, so the scratch kept across calls is reused at
 * growing and shrinking sizes.
 */
TEST(InteractionTest, DotMatchesScalarLoopBitForBit)
{
    Rng rng(7);
    for (const int64_t d : {1, 3, 16, 64}) {
        std::vector<Tensor> pool;  // 65 samples of each of 27 vectors
        for (int v = 0; v < 27; ++v) {
            pool.push_back(InteractionInput(65, d, rng));
        }
        for (int64_t n_embs = 0; n_embs <= 26; ++n_embs) {
            for (int64_t batch = 1; batch <= 65; ++batch) {
                // The largest shapes run at every fourth batch and at
                // the batch sizes of a partial vector past 4 x 16.
                if (d * n_embs > 256 && batch % 4 != 1 && batch < 62) {
                    continue;
                }
                const auto first_rows = [&](const Tensor& t) {
                    Tensor out({batch, d});
                    std::memcpy(out.data(), t.data(),
                                static_cast<size_t>(batch * d) * sizeof(float));
                    return out;
                };
                const Tensor dense = first_rows(pool[0]);
                std::vector<Tensor> embs;
                for (int64_t e = 1; e <= n_embs; ++e) {
                    embs.push_back(first_rows(pool[static_cast<size_t>(e)]));
                }
                const Tensor got =
                    InteractionForward(Interaction::kDot, dense, embs);
                const Tensor want = DotInteractionReference(dense, embs);
                ASSERT_EQ(got.shape(), want.shape());
                ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                      static_cast<size_t>(want.numel()) *
                                          sizeof(float)),
                          0)
                    << "batch " << batch << " d " << d << " embs " << n_embs;
            }
        }
    }
}

class InteractionGradTest : public ::testing::TestWithParam<Interaction>
{
};

TEST_P(InteractionGradTest, GradientCheck)
{
    Rng rng(6);
    const int64_t batch = 3, d = 4;
    Tensor dense = Tensor::Randn({batch, d}, rng);
    std::vector<Tensor> embs{Tensor::Randn({batch, d}, rng),
                             Tensor::Randn({batch, d}, rng)};

    auto loss_fn = [&](const Tensor& dn, const std::vector<Tensor>& es) {
        const Tensor out = InteractionForward(GetParam(), dn, es);
        return 0.5f * out.SquaredNorm();
    };

    const Tensor out = InteractionForward(GetParam(), dense, embs);
    Tensor grad_dense;
    std::vector<Tensor> grad_embs;
    InteractionBackward(GetParam(), dense, embs, out, grad_dense,
                        grad_embs);

    test::ExpectGradientsClose(
        [&](const Tensor& dn) { return loss_fn(dn, embs); }, dense,
        grad_dense);
    test::ExpectGradientsClose(
        [&](const Tensor& e0) {
            std::vector<Tensor> es{e0, embs[1]};
            return loss_fn(dense, es);
        },
        embs[0], grad_embs[0]);
}

INSTANTIATE_TEST_SUITE_P(Kinds, InteractionGradTest,
                         ::testing::Values(Interaction::kDot,
                                           Interaction::kConcat),
                         [](const auto& info) {
                             return info.param == Interaction::kDot
                                        ? "Dot"
                                        : "Concat";
                         });

class TrainableDlrmTest : public ::testing::TestWithParam<EmbeddingMode>
{
};

TEST_P(TrainableDlrmTest, ForwardShapeAndDeterminism)
{
    Rng rng(7);
    TrainableDlrm model(TinyConfig(), GetParam(), rng);
    SyntheticCtrDataset ds(TinyConfig(), 8);
    const CtrBatch b = ds.NextBatch(5);
    const Tensor l1 = model.Forward(b);
    const Tensor l2 = model.Forward(b);
    EXPECT_EQ(l1.shape(), (Shape{5}));
    EXPECT_TRUE(l1.AllClose(l2));
}

TEST_P(TrainableDlrmTest, LossDecreasesWithTraining)
{
    Rng rng(9);
    TrainableDlrm model(TinyConfig(), GetParam(), rng);
    SyntheticCtrDataset ds(TinyConfig(), 10);
    nn::Adam opt(model.Parameters(), 3e-3f);
    // Average early vs late loss: single steps are noisy on a synthetic
    // stream.
    float early = 0, late = 0;
    const int steps = 40;
    for (int step = 0; step < steps; ++step) {
        const CtrBatch b = ds.NextBatch(16);
        const float loss = model.TrainStep(b, opt);
        if (step < 5) early += loss / 5;
        if (step >= steps - 5) late += loss / 5;
    }
    EXPECT_LT(late, early);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, TrainableDlrmTest,
    ::testing::Values(EmbeddingMode::kTable, EmbeddingMode::kDheUniform,
                      EmbeddingMode::kDheVaried),
    [](const auto& info) {
        switch (info.param) {
          case EmbeddingMode::kTable: return "Table";
          case EmbeddingMode::kDheUniform: return "DheUniform";
          default: return "DheVaried";
        }
    });

TEST(TrainableDlrmTest, AccessorsGuardMode)
{
    Rng rng(12);
    TrainableDlrm table_model(TinyConfig(), EmbeddingMode::kTable, rng);
    EXPECT_THROW(table_model.dhe(0), std::logic_error);
    TrainableDlrm dhe_model(TinyConfig(), EmbeddingMode::kDheUniform, rng);
    EXPECT_NO_THROW(dhe_model.dhe(0));
}

class SecureDlrmTest : public ::testing::TestWithParam<core::GenKind>
{
};

TEST_P(SecureDlrmTest, InferenceRunsAndOutputsProbabilities)
{
    const DlrmConfig cfg = TinyConfig();
    Rng rng(13);
    std::vector<std::unique_ptr<core::EmbeddingGenerator>> gens;
    for (int64_t s : cfg.table_sizes) {
        gens.push_back(
            core::MakeGenerator(GetParam(), s, cfg.emb_dim, rng));
    }
    SecureDlrm model(cfg, std::move(gens), rng);
    SyntheticCtrDataset ds(cfg, 14);
    const CtrBatch b = ds.NextBatch(4);
    const Tensor probs = model.Inference(b.dense, b.sparse);
    EXPECT_EQ(probs.shape(), (Shape{4}));
    for (int64_t i = 0; i < 4; ++i) {
        EXPECT_GE(probs.at(i), 0.0f);
        EXPECT_LE(probs.at(i), 1.0f);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SecureDlrmTest,
    ::testing::Values(core::GenKind::kIndexLookup,
                      core::GenKind::kLinearScan,
                      core::GenKind::kCircuitOram,
                      core::GenKind::kDheVaried,
                      core::GenKind::kHybridVaried),
    [](const auto& info) {
        switch (info.param) {
          case core::GenKind::kIndexLookup: return "IndexLookup";
          case core::GenKind::kLinearScan: return "LinearScan";
          case core::GenKind::kCircuitOram: return "CircuitOram";
          case core::GenKind::kDheVaried: return "DheVaried";
          default: return "HybridVaried";
        }
    });

TEST(SecureDlrmTest, SecureMatchesNonSecureWithSameTables)
{
    // Linear scan and ORAM must produce the same model output as the
    // non-secure lookup when seeded with identical tables.
    const DlrmConfig cfg = TinyConfig();
    Rng table_rng(15);
    std::vector<Tensor> tables;
    for (int64_t s : cfg.table_sizes) {
        tables.push_back(Tensor::Randn({s, cfg.emb_dim}, table_rng));
    }
    auto build = [&](core::GenKind kind, uint64_t seed) {
        Rng rng(seed);
        std::vector<std::unique_ptr<core::EmbeddingGenerator>> gens;
        for (size_t f = 0; f < tables.size(); ++f) {
            core::GeneratorOptions opt;
            opt.table = &tables[f];
            gens.push_back(core::MakeGenerator(
                kind, cfg.table_sizes[f], cfg.emb_dim, rng, opt));
        }
        Rng mlp_rng(777);  // identical MLP weights across models
        return SecureDlrm(cfg, std::move(gens), mlp_rng);
    };
    SecureDlrm base = build(core::GenKind::kIndexLookup, 16);
    SecureDlrm scan = build(core::GenKind::kLinearScan, 17);
    SecureDlrm oram = build(core::GenKind::kPathOram, 18);

    SyntheticCtrDataset ds(cfg, 19);
    const CtrBatch b = ds.NextBatch(6);
    const Tensor pb = base.Inference(b.dense, b.sparse);
    EXPECT_TRUE(scan.Inference(b.dense, b.sparse).AllClose(pb, 1e-4f));
    EXPECT_TRUE(oram.Inference(b.dense, b.sparse).AllClose(pb, 1e-4f));
}

}  // namespace
}  // namespace secemb::dlrm
