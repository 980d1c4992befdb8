/**
 * @file
 * Deterministic chaos matrix for the serving pipeline: every fault class
 * (allocation failure, worker stall, worker exception, generation fault,
 * deadline overrun via clock skew, queue overflow) is forced from a seeded FaultPlan and must resolve to a typed
 * outcome — error, shed, retry-then-success, or degraded-success — with no
 * crash, hang, or leak. A replay test re-runs a faulted workload from the
 * same seed and asserts the outcome vector is bit-identical.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/table_generators.h"
#include "fault/fault.h"
#include "serving/clock.h"
#include "serving/queue.h"
#include "serving/server.h"
#include "tensor/rng.h"

namespace secemb::serving {
namespace {

using fault::FaultPlan;
using fault::FaultSite;
using fault::ScopedFaultInjection;
using fault::ScopedWorkerFaults;

std::shared_ptr<core::LinearScanTable>
MakeScan(int64_t rows, int64_t dim, uint64_t seed)
{
    Rng rng(seed);
    return std::make_shared<core::LinearScanTable>(
        Tensor::Randn({rows, dim}, rng));
}

ServerConfig
QuietConfig()
{
    ServerConfig cfg;
    cfg.default_deadline_us = 0;  // no wall-clock deadlines in unit tests
    cfg.flush_deadline_us = 50;
    cfg.nthreads = 1;  // inline ParallelFor: one chunk-hook hit per region
    return cfg;
}

/** Spin until `pred` holds; fails the test after `ms` milliseconds. */
template <typename Pred>
void
AwaitOrFail(Pred pred, int ms, const char* what)
{
    for (int i = 0; i < ms * 10; ++i) {
        if (pred()) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    FAIL() << "timed out waiting for: " << what;
}

// --- fault class: allocation failure --------------------------------------

TEST(ChaosTest, AllocFailureInQueueReplaysFromSeed)
{
    // Push ints through a FaultAllocator-backed queue until the armed
    // allocation fault fires; the failing push index must replay exactly.
    FaultPlan plan(101);
    plan.ArmCountdown(FaultSite::kAlloc, /*first_hit=*/2, /*period=*/0,
                      /*max_fires=*/1);

    auto run = [&plan]() -> int {
        BoundedQueue<int, fault::FaultAllocator<int>> q(100000);
        plan.ResetCounters();
        ScopedFaultInjection scope(&plan);
        for (int i = 0; i < 3000; ++i) {
            const StatusCode code = q.TryPush(int{i});
            if (code == StatusCode::kResourceExhausted) return i;
            EXPECT_EQ(code, StatusCode::kOk);
        }
        return -1;
    };

    const int first = run();
    ASSERT_GE(first, 0) << "armed allocation fault never fired";
    EXPECT_EQ(run(), first) << "alloc fault did not replay from its seed";
    EXPECT_EQ(plan.fires(FaultSite::kAlloc), 1u);
}

TEST(ChaosTest, AllocFailureAtAdmissionIsTypedNotFatal)
{
    auto scan = MakeScan(32, 4, 1);
    ServerConfig cfg = QuietConfig();
    Server server({scan}, cfg);  // construct before faults are live

    FaultPlan plan(102);
    plan.ArmRate(FaultSite::kAlloc, 1.0);  // every queue allocation fails
    int exhausted = 0, ok = 0;
    {
        ScopedFaultInjection scope(&plan);
        for (int i = 0; i < 8; ++i) {
            Request r;
            r.indices = {i % 32};
            const Response resp = server.SubmitAndWait(std::move(r));
            if (resp.status.code == StatusCode::kResourceExhausted) {
                ++exhausted;
            } else if (resp.status.ok()) {
                ++ok;
            } else {
                ADD_FAILURE() << "unexpected status "
                              << resp.status.ToString();
            }
        }
    }
    // A deque node fills within a handful of pushes, so at least one
    // admission had to allocate — and got the typed error, not an abort.
    EXPECT_GE(exhausted, 1);
    EXPECT_EQ(server.GetStats().submitted, 8u);

    // With faults gone the server serves normally again.
    Request r;
    r.indices = {3};
    EXPECT_TRUE(server.SubmitAndWait(std::move(r)).status.ok());
}

// --- fault class: worker stall / worker exception -------------------------

TEST(ChaosTest, WorkerStallSlowsButSucceeds)
{
    auto scan = MakeScan(64, 8, 2);
    Server server({scan}, QuietConfig());

    FaultPlan plan(103);
    plan.ArmRate(FaultSite::kWorkerStall, 1.0, /*max_fires=*/8);
    ScopedFaultInjection scope(&plan);
    ScopedWorkerFaults worker_faults(/*stall_us=*/200);

    Request r;
    r.indices = {5, 6, 7};
    const Response resp = server.SubmitAndWait(std::move(r));
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_GE(plan.fires(FaultSite::kWorkerStall), 1u);
    EXPECT_TRUE(resp.embeddings.AllClose(
        scan->GenerateBatch(std::vector<int64_t>{5, 6, 7}), 0.0f));
}

TEST(ChaosTest, WorkerExceptionRetriesThenSucceeds)
{
    auto scan = MakeScan(64, 8, 3);
    ServerConfig cfg = QuietConfig();
    cfg.max_retries = 2;
    cfg.retry_backoff_us = 1;
    Server server({scan}, cfg);

    FaultPlan plan(104);
    // Exactly the first chunk of the first attempt throws; the retry runs
    // clean. Typed outcome: retry-then-success.
    plan.ArmCountdown(FaultSite::kWorkerException, 1, 0, /*max_fires=*/1);
    ScopedFaultInjection scope(&plan);
    ScopedWorkerFaults worker_faults;

    Request r;
    r.indices = {1, 2, 3, 4};
    const Response resp = server.SubmitAndWait(std::move(r));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_GE(resp.retries, 1);
    EXPECT_EQ(plan.fires(FaultSite::kWorkerException), 1u);
    EXPECT_GE(server.GetStats().retries, 1u);
    EXPECT_TRUE(resp.embeddings.AllClose(
        scan->GenerateBatch(std::vector<int64_t>{1, 2, 3, 4}), 0.0f));
}

TEST(ChaosTest, WorkerExceptionExhaustingRetriesFailsTyped)
{
    auto scan = MakeScan(64, 8, 4);
    ServerConfig cfg = QuietConfig();
    cfg.max_retries = 1;
    cfg.retry_backoff_us = 1;
    Server server({scan}, cfg);

    FaultPlan plan(105);
    plan.ArmRate(FaultSite::kWorkerException, 1.0);  // every chunk throws
    ScopedFaultInjection scope(&plan);
    ScopedWorkerFaults worker_faults;

    Request r;
    r.indices = {1};
    const Response resp = server.SubmitAndWait(std::move(r));
    EXPECT_EQ(resp.status.code, StatusCode::kInternal)
        << resp.status.ToString();
    EXPECT_EQ(resp.retries, 1);
    EXPECT_EQ(server.GetStats().failed, 1u);
}

// --- fault class: generation fault + degrade controller -------------------

TEST(ChaosTest, GenerationFaultRetriesThenSucceeds)
{
    auto scan = MakeScan(32, 4, 5);
    ServerConfig cfg = QuietConfig();
    cfg.max_retries = 2;
    cfg.retry_backoff_us = 1;
    Server server({scan}, cfg);

    FaultPlan plan(106);
    plan.ArmCountdown(FaultSite::kGenerate, 1, 0, /*max_fires=*/1);
    ScopedFaultInjection scope(&plan);

    Request r;
    r.indices = {9, 10};
    const Response resp = server.SubmitAndWait(std::move(r));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.retries, 1);
}

TEST(ChaosTest, FaultStreakEscalatesDegradeThenRecovers)
{
    auto scan = MakeScan(32, 4, 6);
    ServerConfig cfg = QuietConfig();
    cfg.max_retries = 2;
    cfg.retry_backoff_us = 1;
    cfg.fault_streak_escalate = 1;   // one faulted batch escalates
    cfg.recover_after_batches = 2;   // two calm batches recover
    Server server({scan}, cfg);

    FaultPlan plan(107);
    plan.ArmCountdown(FaultSite::kGenerate, 1, 0, /*max_fires=*/1);
    ScopedFaultInjection scope(&plan);

    // Batch 0 faults (retry-success) -> level escalates to 1 after it.
    // Batches 1 and 2 are calm and served degraded (typed outcome:
    // degraded-success); after the second calm batch the level recovers.
    std::vector<int> served_at;
    for (int i = 0; i < 4; ++i) {
        Request r;
        r.indices = {i};
        const Response resp = server.SubmitAndWait(std::move(r));
        ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
        served_at.push_back(resp.degrade_level);
    }
    EXPECT_EQ(served_at, (std::vector<int>{0, 1, 1, 0}));
    const ServerStats s = server.GetStats();
    EXPECT_GE(s.degraded_batches, 2u);
    EXPECT_EQ(s.degrade_level, 0);
}

// --- fault class: deadline overrun via clock skew -------------------------

TEST(ChaosTest, ClockSkewForcesDeadlineOverrunTyped)
{
    auto scan = MakeScan(32, 4, 10);
    FaultSkewedClock skewed_clock;
    ServerConfig cfg = QuietConfig();
    cfg.clock = &skewed_clock;
    Server server({scan}, cfg);

    // Sanity: with no plan installed the skewed clock is transparent.
    Request fine;
    fine.indices = {1};
    fine.deadline_ns = DefaultClock().NowNs() + 5'000'000'000ull;
    EXPECT_TRUE(server.SubmitAndWait(std::move(fine)).status.ok());

    FaultPlan plan(108);
    plan.set_clock_skew_ns(3'600'000'000'000);  // batcher sees +1 hour
    ScopedFaultInjection scope(&plan);

    Request r;
    r.indices = {2};
    r.deadline_ns = DefaultClock().NowNs() + 5'000'000'000ull;  // +5s real
    const Response resp = server.SubmitAndWait(std::move(r));
    EXPECT_EQ(resp.status.code, StatusCode::kDeadlineExceeded)
        << resp.status.ToString();
    EXPECT_EQ(server.GetStats().deadline_exceeded, 1u);
}

// --- fault class: queue overflow ------------------------------------------

TEST(ChaosTest, StalledBatcherOverflowsQueueIntoTypedShed)
{
    auto scan = MakeScan(32, 4, 11);
    ServerConfig cfg = QuietConfig();
    cfg.queue_capacity = 2;
    cfg.max_batch = 1;
    Server server({scan}, cfg);

    FaultPlan plan(109);
    plan.ArmRate(FaultSite::kWorkerStall, 1.0);  // every chunk stalls
    ScopedFaultInjection scope(&plan);
    ScopedWorkerFaults worker_faults(/*stall_us=*/20000);

    Request r0;
    r0.indices = {0};
    auto f0 = server.Submit(std::move(r0));
    // Wait until the batcher has popped r0 and is stalled inside it.
    AwaitOrFail([&] { return server.queue_depth() == 0; }, 2000,
                "batcher to pick up the stalled request");

    std::vector<std::future<Response>> queued;
    for (int i = 0; i < 2; ++i) {
        Request r;
        r.indices = {1 + i};
        queued.push_back(server.Submit(std::move(r)));
    }
    Request overflow;
    overflow.indices = {9};
    const Response shed = server.SubmitAndWait(std::move(overflow));
    EXPECT_EQ(shed.status.code, StatusCode::kShed);
    EXPECT_EQ(server.GetStats().shed, 1u);

    EXPECT_TRUE(f0.get().status.ok());
    for (auto& f : queued) EXPECT_TRUE(f.get().status.ok());
}

// --- replay determinism ----------------------------------------------------

TEST(ChaosTest, FaultedWorkloadOutcomeVectorReplaysFromSeed)
{
    // A mixed workload against a 30% generation-fault rate with retries
    // disabled: each request's fate is a pure function of (seed, hit
    // ordinal), so two runs from the same seed must produce the identical
    // typed-outcome vector.
    FaultPlan plan(110);
    plan.ArmRate(FaultSite::kGenerate, 0.3);

    auto run = [&plan]() -> std::vector<StatusCode> {
        auto scan = MakeScan(32, 4, 12);
        ServerConfig cfg = QuietConfig();
        cfg.max_retries = 0;
        Server server({scan}, cfg);
        plan.ResetCounters();
        ScopedFaultInjection scope(&plan);
        std::vector<StatusCode> outcomes;
        for (int i = 0; i < 24; ++i) {
            Request r;
            r.indices = {i % 32};
            outcomes.push_back(
                server.SubmitAndWait(std::move(r)).status.code);
        }
        return outcomes;
    };

    const std::vector<StatusCode> first = run();
    const std::vector<StatusCode> second = run();
    EXPECT_EQ(first, second) << "chaos outcomes must replay from the seed";

    int ok = 0, internal = 0;
    for (const StatusCode c : first) {
        ok += c == StatusCode::kOk;
        internal += c == StatusCode::kInternal;
    }
    EXPECT_EQ(ok + internal, 24);
    EXPECT_GT(ok, 0) << "rate 0.3 should let some requests through";
    EXPECT_GT(internal, 0) << "rate 0.3 should fail some requests";
}

}  // namespace
}  // namespace secemb::serving
