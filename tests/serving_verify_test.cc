/**
 * @file
 * Obliviousness certification of the serving path.
 *
 * The secemb-verify differential and statistical engines run against an
 * EmbeddingGenerator adapter that routes every query through a full
 * Server (queue, batcher, retry, degradation) — with fault injection
 * armed, replayed identically per run via FaultPlan::ResetCounters in the
 * generator factory. The certified properties:
 *
 *  - serving traces are bit-identical across secret index sets even when
 *    every request suffers an injected generation fault and a worker
 *    exception before succeeding (failed attempts record into a scratch
 *    buffer that is discarded, so retries leave no scheduling-dependent
 *    residue);
 *  - pooled requests served at degrade level 2 (a quartered batch
 *    ceiling) stay bit-identical across secret index sets;
 *  - a served proxied Path ORAM certifies through Server::set_recorder:
 *    the batcher thread hands the recorder to the proxy's tree, which
 *    records on the batcher thread, and the trace is non-empty and
 *    secret-independent;
 *  - a planted value-dependent fallback — a generator that switches
 *    technique (linear scan vs DHE) on the parity of a secret index — is
 *    rejected by the differential engine when served through the same
 *    pipeline (negative control: the engine still has teeth here).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/dhe_generator.h"
#include "core/factory.h"
#include "core/table_generators.h"
#include "dhe/dhe.h"
#include "fault/fault.h"
#include "serving/clock.h"
#include "serving/server.h"
#include "tensor/rng.h"
#include "verify/canonical.h"
#include "verify/harness.h"

namespace secemb::verify {
namespace {

using fault::FaultPlan;
using fault::FaultSite;
using fault::ScopedFaultInjection;
using fault::ScopedWorkerFaults;

uint64_t
Mix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::shared_ptr<core::LinearScanTable>
MakeScan(int64_t rows, int64_t dim, uint64_t construction_seed)
{
    Rng rng(Mix(construction_seed, 0x7ab1eULL));
    return std::make_shared<core::LinearScanTable>(
        Tensor::Randn({rows, dim}, rng));
}

std::shared_ptr<core::DheGenerator>
MakeDhe(int64_t rows, int64_t dim, uint64_t construction_seed)
{
    dhe::DheConfig cfg;
    cfg.k = 8;
    cfg.fc_hidden = {8};
    cfg.out_dim = dim;
    cfg.hash_buckets = 1 << 16;
    Rng rng(Mix(construction_seed, 0xd4eULL));
    auto model = std::make_shared<dhe::DheEmbedding>(cfg, rng, 1);
    return std::make_shared<core::DheGenerator>(std::move(model), rows);
}

/**
 * Routes Generate/GeneratePooled through a Server so the harness
 * certifies the full pipeline: admission, batching, retry, degradation.
 * Uses a FaultSkewedClock (transparent while no skew is armed) and no
 * request deadlines, so fault-induced retries can never time a request
 * out mid-certification.
 */
class ServingAdapter : public core::EmbeddingGenerator
{
  public:
    ServingAdapter(std::shared_ptr<core::EmbeddingGenerator> inner,
                   sidechannel::TraceRecorder* recorder,
                   int min_degrade_level)
        : inner_(std::move(inner))
    {
        serving::ServerConfig cfg;
        cfg.queue_capacity = 8;
        cfg.max_batch = 4;
        cfg.flush_deadline_us = 20;
        cfg.default_deadline_us = 0;
        cfg.max_retries = 3;
        cfg.retry_backoff_us = 1;
        cfg.min_degrade_level = min_degrade_level;
        cfg.nthreads = 1;
        cfg.clock = &clock_;
        server_ = std::make_unique<serving::Server>(
            std::vector<std::shared_ptr<core::EmbeddingGenerator>>{inner_},
            cfg);
        server_->set_recorder(0, recorder);
    }

    void
    Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        serving::Request req;
        req.indices.assign(indices.begin(), indices.end());
        out = Roundtrip(std::move(req));
    }

    void
    GeneratePooled(std::span<const int64_t> indices,
                   std::span<const int64_t> offsets, Tensor& out) override
    {
        serving::Request req;
        req.indices.assign(indices.begin(), indices.end());
        req.pooled_offsets.assign(offsets.begin(), offsets.end());
        out = Roundtrip(std::move(req));
    }

    int64_t dim() const override { return inner_->dim(); }
    int64_t num_rows() const override { return inner_->num_rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return inner_->MemoryFootprintBytes();
    }
    std::string_view name() const override { return "ServingAdapter"; }
    bool IsOblivious() const override { return inner_->IsOblivious(); }

  private:
    Tensor
    Roundtrip(serving::Request req)
    {
        serving::Response resp = server_->SubmitAndWait(std::move(req));
        if (!resp.status.ok()) {
            throw std::runtime_error("serving adapter: " +
                                     resp.status.ToString());
        }
        return std::move(resp.embeddings);
    }

    std::shared_ptr<core::EmbeddingGenerator> inner_;
    serving::FaultSkewedClock clock_;
    std::unique_ptr<serving::Server> server_;
};

/**
 * The planted leak: picks the generation *technique* from a secret value
 * (scan for even first index, DHE for odd). The two techniques touch
 * different regions ("table.scan" vs "dhe.params"), so any secret set
 * pair with differing parity diverges at the first canonical access —
 * exactly the class of value-dependent fallback the serving layer is
 * forbidden from implementing.
 */
class TechniqueSwitchGenerator : public core::EmbeddingGenerator
{
  public:
    TechniqueSwitchGenerator(int64_t rows, int64_t dim, uint64_t cseed)
        : scan_(MakeScan(rows, dim, cseed)), dhe_(MakeDhe(rows, dim, cseed))
    {
    }

    void
    Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        Pick(indices).Generate(indices, out);
    }

    void
    GeneratePooled(std::span<const int64_t> indices,
                   std::span<const int64_t> offsets, Tensor& out) override
    {
        Pick(indices).GeneratePooled(indices, offsets, out);
    }

    void
    set_recorder(sidechannel::TraceRecorder* recorder) override
    {
        scan_->set_recorder(recorder);
        dhe_->set_recorder(recorder);
    }

    int64_t dim() const override { return scan_->dim(); }
    int64_t num_rows() const override { return scan_->num_rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return scan_->MemoryFootprintBytes();
    }
    std::string_view name() const override { return "TechniqueSwitch"; }
    bool IsOblivious() const override { return false; }

  private:
    core::EmbeddingGenerator&
    Pick(std::span<const int64_t> indices)
    {
        const bool even = !indices.empty() && indices[0] % 2 == 0;
        return even ? static_cast<core::EmbeddingGenerator&>(*scan_)
                    : static_cast<core::EmbeddingGenerator&>(*dhe_);
    }

    std::shared_ptr<core::LinearScanTable> scan_;
    std::shared_ptr<core::DheGenerator> dhe_;
};

VerifyConfig
ServingConfig(bool pooled)
{
    VerifyConfig config;
    config.rows = 32;
    config.dim = 4;
    config.batch = 8;
    config.nthreads = 1;
    config.pooled = pooled;
    config.secret_sets = 4;
    config.seed = 7;
    return config;
}

/** Factory serving `inner(cseed)` through a Server, with the plan's
 *  counters reset so every run replays the identical fault schedule. */
template <typename MakeInner>
GeneratorFactory
ServingFactory(FaultPlan* plan, int min_degrade_level, MakeInner make_inner)
{
    return [plan, min_degrade_level, make_inner](
               uint64_t cseed, sidechannel::TraceRecorder* rec)
               -> std::unique_ptr<core::EmbeddingGenerator> {
        if (plan != nullptr) plan->ResetCounters();
        return std::make_unique<ServingAdapter>(make_inner(cseed), rec,
                                                min_degrade_level);
    };
}

TEST(ServingVerifyTest, DifferentialPassesUnderInjectedFaults)
{
    // Every run: attempt 1 dies at the generation gate, attempt 2 dies to
    // a worker exception mid-region, attempt 3 succeeds. The appended
    // trace must still be bit-identical across secret sets.
    FaultPlan plan(201);
    plan.ArmCountdown(FaultSite::kGenerate, 1, 0, /*max_fires=*/1);
    plan.ArmCountdown(FaultSite::kWorkerException, 1, 0, /*max_fires=*/1);
    ScopedFaultInjection scope(&plan);
    ScopedWorkerFaults worker_faults;

    const VerifyConfig config = ServingConfig(/*pooled=*/false);
    const DifferentialResult r = RunDifferentialWith(
        config,
        ServingFactory(&plan, /*min_degrade_level=*/0,
                       [&config](uint64_t cseed) {
                           return MakeScan(config.rows, config.dim, cseed);
                       }),
        /*expect_bit_identical=*/true);
    EXPECT_TRUE(r.passed) << r.detail;
    EXPECT_GT(r.trace_len, 0u);
    EXPECT_GE(plan.fires(FaultSite::kGenerate), 1u);
    EXPECT_GE(plan.fires(FaultSite::kWorkerException), 1u);
}

TEST(ServingVerifyTest, DifferentialPassesOnDegradedPooledPath)
{
    // min_degrade_level = 2 pins the quartered batch ceiling; injected
    // faults ride along. Degraded pooled serving must stay oblivious.
    FaultPlan plan(202);
    plan.ArmCountdown(FaultSite::kGenerate, 1, 0, /*max_fires=*/1);
    ScopedFaultInjection scope(&plan);

    const VerifyConfig config = ServingConfig(/*pooled=*/true);
    const DifferentialResult r = RunDifferentialWith(
        config,
        ServingFactory(&plan, /*min_degrade_level=*/2,
                       [&config](uint64_t cseed) {
                           return MakeScan(config.rows, config.dim, cseed);
                       }),
        /*expect_bit_identical=*/true);
    EXPECT_TRUE(r.passed) << r.detail;
}

TEST(ServingVerifyTest, DifferentialPassesForDheThroughServer)
{
    const VerifyConfig config = ServingConfig(/*pooled=*/false);
    const DifferentialResult r = RunDifferentialWith(
        config,
        ServingFactory(nullptr, /*min_degrade_level=*/0,
                       [&config](uint64_t cseed) {
                           return MakeDhe(config.rows, config.dim, cseed);
                       }),
        /*expect_bit_identical=*/true);
    EXPECT_TRUE(r.passed) << r.detail;
}

TEST(ServingVerifyTest, StatisticalPassesOnServingPathWithFaults)
{
    FaultPlan plan(203);
    plan.ArmCountdown(FaultSite::kGenerate, 1, 0, /*max_fires=*/1);
    ScopedFaultInjection scope(&plan);

    VerifyConfig config = ServingConfig(/*pooled=*/false);
    config.secret_sets = 4;  // 12 runs per group
    const StatisticalResult r = RunStatisticalWith(
        config, ServingFactory(&plan, /*min_degrade_level=*/0,
                               [&config](uint64_t cseed) {
                                   return MakeScan(config.rows, config.dim,
                                                   cseed);
                               }));
    EXPECT_TRUE(r.passed) << r.detail;
}

TEST(ServingVerifyTest, ServedProxyOramCertifiesThroughServer)
{
    // The recorder travels Server::set_recorder -> batcher thread ->
    // ProxiedOramTable::set_recorder -> the proxy's tree, which records
    // on the batcher thread. ORAM traces are randomised, so the
    // differential engine compares shapes and the statistical engine
    // certifies the rest.
    const VerifyConfig config = ServingConfig(/*pooled=*/false);
    const GeneratorFactory factory = ServingFactory(
        nullptr, /*min_degrade_level=*/0, [&config](uint64_t cseed) {
            Rng rng(Mix(cseed, 0x9c0aULL));
            return core::MakeGenerator(core::GenKind::kProxyOram,
                                       config.rows, config.dim, rng);
        });
    const DifferentialResult d = RunDifferentialWith(
        config, factory, /*expect_bit_identical=*/false);
    EXPECT_TRUE(d.passed) << d.detail;
    EXPECT_GT(d.trace_len, 0u);

    const StatisticalResult s = RunStatisticalWith(config, factory);
    EXPECT_TRUE(s.passed) << s.detail;
}

TEST(ServingVerifyTest, ValueDependentFallbackThroughServerIsRejected)
{
    // Precondition: the engine only sees the leak if secret sets disagree
    // on the parity of their first index. Pick a corpus seed where they
    // do (deterministically — MakeSecretSet is a pure function of seed).
    VerifyConfig config = ServingConfig(/*pooled=*/false);
    bool found = false;
    for (uint64_t seed = 1; seed <= 32 && !found; ++seed) {
        config.seed = seed;
        const int64_t base = MakeSecretSet(config, 0)[0] % 2;
        for (int s = 1; s < config.secret_sets; ++s) {
            if (MakeSecretSet(config, s)[0] % 2 != base) {
                found = true;
                break;
            }
        }
    }
    ASSERT_TRUE(found) << "no corpus seed with mixed first-index parity";

    const DifferentialResult r = RunDifferentialWith(
        config,
        ServingFactory(nullptr, /*min_degrade_level=*/0,
                       [&config](uint64_t cseed) {
                           return std::make_shared<
                               TechniqueSwitchGenerator>(
                               config.rows, config.dim, cseed);
                       }),
        /*expect_bit_identical=*/true);
    EXPECT_FALSE(r.passed)
        << "a technique switch keyed on a secret index must be caught";
    EXPECT_FALSE(r.detail.empty());
}

}  // namespace
}  // namespace secemb::verify
