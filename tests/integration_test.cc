/**
 * @file
 * Cross-module integration tests: the full paper pipeline — train with
 * DHE, profile, deploy hybrid, serve obliviously — plus end-to-end
 * security checks that tie the attack substrate to the real generators.
 */

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/hybrid.h"
#include "dlrm/dataset.h"
#include "dlrm/model.h"
#include "llm/corpus.h"
#include "llm/gpt.h"
#include "profile/profiler.h"
#include "sidechannel/attacker.h"
#include "sidechannel/oblivious_check.h"
#include "test_util.h"

namespace secemb {
namespace {

TEST(IntegrationTest, TrainProfileDeployServe)
{
    // Miniature version of the paper's full DLRM pipeline.
    dlrm::DlrmConfig cfg;
    cfg.num_dense = 4;
    cfg.table_sizes = {8, 2000};  // one scan-side, one DHE-side feature
    cfg.emb_dim = 8;
    cfg.bot_mlp = {16, 8};
    cfg.top_mlp = {16};

    // 1. Train all-DHE.
    Rng rng(1);
    dlrm::TrainableDlrm model(cfg, dlrm::EmbeddingMode::kDheVaried, rng,
                              /*dhe_size_divisor=*/8);
    dlrm::SyntheticCtrDataset train(cfg, 2);
    nn::Adam opt(model.Parameters(), 3e-3f);
    for (int step = 0; step < 30; ++step) {
        model.TrainStep(train.NextBatch(16), opt);
    }

    // 2. Profile thresholds (forced so the split is deterministic here).
    core::ThresholdTable thresholds;
    thresholds.Add({16, 1, 100});

    // 3. Deploy hybrids from the *trained* DHEs.
    std::vector<std::unique_ptr<core::EmbeddingGenerator>> gens;
    for (int64_t f = 0; f < cfg.num_sparse(); ++f) {
        gens.push_back(std::make_unique<core::HybridGenerator>(
            model.dhe(f), cfg.table_sizes[static_cast<size_t>(f)],
            thresholds, 16, 1));
    }
    auto* g0 = dynamic_cast<core::HybridGenerator*>(gens[0].get());
    auto* g1 = dynamic_cast<core::HybridGenerator*>(gens[1].get());
    EXPECT_EQ(g0->active_technique(), core::Technique::kLinearScan);
    EXPECT_EQ(g1->active_technique(), core::Technique::kDhe);

    // 4. The deployed hybrid must reproduce the trained DHE outputs:
    //    the served model is *the same model*, just protected.
    const std::vector<int64_t> ids{0, 5, 7};
    const Tensor deployed = gens[0]->GenerateBatch(ids);
    const Tensor trained = model.dhe(0)->Forward(ids);
    EXPECT_TRUE(deployed.AllClose(trained, 1e-5f));

    Rng mlp_rng(3);
    dlrm::SecureDlrm serving(cfg, std::move(gens), mlp_rng);
    const dlrm::CtrBatch batch = train.NextBatch(5);
    const Tensor probs = serving.Inference(batch.dense, batch.sparse);
    EXPECT_EQ(probs.numel(), 5);
    for (int64_t i = 0; i < 5; ++i) {
        EXPECT_GE(probs.at(i), 0.0f);
        EXPECT_LE(probs.at(i), 1.0f);
    }
}

TEST(IntegrationTest, AttackerBeatenByEveryProtectedGenerator)
{
    constexpr int64_t kRows = 64, kDim = 16;
    constexpr int kMonitored = 16;
    Rng table_rng(4);
    const Tensor table = Tensor::Randn({kRows, kDim}, table_rng);

    for (auto kind : {core::GenKind::kIndexLookup,
                      core::GenKind::kLinearScan,
                      core::GenKind::kCircuitOram}) {
        Rng rng(5);
        core::GeneratorOptions opt;
        opt.table = &table;
        auto gen = core::MakeGenerator(kind, kRows, kDim, rng, opt);

        sidechannel::TraceRecorder rec;
        gen->set_recorder(&rec);

        // The attacker monitors the region the victim's trace touches;
        // for ORAM that is the tree area, for tables the table base.
        std::vector<int64_t> secrets, guesses;
        sidechannel::CacheConfig ccfg;
        ccfg.num_sets = 1024;
        ccfg.ways = 8;
        uint64_t region_base = 0;
        for (int64_t secret = 0; secret < kMonitored; ++secret) {
            rec.Clear();
            Tensor out({1, kDim});
            std::vector<int64_t> b{secret};
            gen->Generate(b, out);
            ASSERT_FALSE(rec.trace().empty());
            if (secret == 0) {
                // Fix the monitored region once: secret 0's first touch
                // starts at the victim region base for every generator.
                region_base = rec.trace().front().addr;
            }
            sidechannel::CacheModel cache(ccfg);
            sidechannel::EvictionSetAttacker attacker(
                cache, region_base, kDim * 4, kMonitored);
            secrets.push_back(secret);
            guesses.push_back(
                attacker.Attack(rec.trace(), 5).guessed_index);
        }
        const double mi = sidechannel::EmpiricalMutualInformation(
            secrets, guesses, kMonitored);
        if (kind == core::GenKind::kIndexLookup) {
            EXPECT_GT(mi, 3.0) << "non-secure lookup should leak";
        } else {
            EXPECT_LT(mi, 0.6)
                << "protected generator leaked, kind "
                << std::string(core::GenKindName(kind));
        }
    }
}

TEST(IntegrationTest, DheTraceHasNoRowGranularAccesses)
{
    // DHE's security argument in its simplest form: there is no
    // per-row table access to record. The generator reports exactly one
    // whole-parameter-region read per batch element — the same region,
    // the same size, whatever the secret id is.
    Rng rng(6);
    auto gen = core::MakeGenerator(core::GenKind::kDheVaried, 100000, 16,
                                   rng);
    sidechannel::TraceRecorder rec;
    gen->set_recorder(&rec);
    Tensor out({1, 16});
    std::vector<int64_t> ids{12345};
    gen->Generate(ids, out);
    ASSERT_EQ(rec.trace().size(), 1u);
    const sidechannel::MemoryAccess whole_params = rec.trace()[0];
    EXPECT_GE(whole_params.size,
              static_cast<uint32_t>(out.size(1) * sizeof(float)));

    // A different secret produces the identical trace.
    rec.Clear();
    std::vector<int64_t> other{7};
    gen->Generate(other, out);
    ASSERT_EQ(rec.trace().size(), 1u);
    EXPECT_EQ(rec.trace()[0], whole_params);
}

TEST(IntegrationTest, LlmSecureGenerationMatchesAcrossProtections)
{
    // Same trained trunk + same token table behind lookup / scan / ORAM
    // must generate the same tokens — protection changes the trace, not
    // the model.
    const llm::GptConfig cfg = llm::GptConfig::Tiny();
    Rng table_rng(7);
    const Tensor table =
        Tensor::Randn({cfg.vocab_size, cfg.dim}, table_rng);
    auto build = [&](core::GenKind kind) {
        Rng rng(8);
        core::GeneratorOptions opt;
        opt.table = &table;
        auto gen =
            core::MakeGenerator(kind, cfg.vocab_size, cfg.dim, rng, opt);
        Rng model_rng(555);
        return std::make_unique<llm::SecureGpt>(cfg, std::move(gen),
                                                model_rng);
    };
    const std::vector<std::vector<int64_t>> prompts{{9, 8, 7},
                                                    {1, 2, 3}};
    const auto base =
        test::GreedyDecode(*build(core::GenKind::kIndexLookup), prompts, 4);
    EXPECT_EQ(
        test::GreedyDecode(*build(core::GenKind::kLinearScan), prompts, 4),
        base);
    EXPECT_EQ(
        test::GreedyDecode(*build(core::GenKind::kCircuitOram), prompts, 4),
        base);
}

TEST(IntegrationTest, ProfiledHybridNeverSlowerThanWorstPure)
{
    // Sanity economics: with profiled thresholds, the hybrid's embedding
    // pass should not be slower than both pure techniques.
    const int batch = 16;
    Rng prof_rng(9);
    const core::ThresholdTable thresholds =
        profile::QuickThresholds(batch, 1, 16, /*varied_dhe=*/true,
                                 prof_rng);
    const int64_t size = 512;
    Rng rng(10);
    core::GeneratorOptions opt;
    opt.batch_size = batch;
    opt.thresholds = &thresholds;
    auto hybrid = core::MakeGenerator(core::GenKind::kHybridVaried, size,
                                      16, rng, opt);
    auto scan =
        core::MakeGenerator(core::GenKind::kLinearScan, size, 16, rng);
    auto dhe =
        core::MakeGenerator(core::GenKind::kDheVaried, size, 16, rng);
    Rng idx(11);
    const double h =
        profile::MeasureGeneratorLatencyNs(*hybrid, batch, idx, 3);
    const double s =
        profile::MeasureGeneratorLatencyNs(*scan, batch, idx, 3);
    const double d =
        profile::MeasureGeneratorLatencyNs(*dhe, batch, idx, 3);
    EXPECT_LT(h, 1.5 * std::max(s, d));
}

}  // namespace
}  // namespace secemb
