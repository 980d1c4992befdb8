/**
 * @file
 * Tests for the persistent-thread-pool ParallelFor: worker reuse across
 * regions, exception propagation (the pre-pool implementation called
 * std::terminate on a throwing worker), oversubscription, the
 * single-thread inline path, nested regions, and pool telemetry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"
#include "tensor/parallel.h"

namespace secemb {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(10000);
    ParallelFor(10000, 4, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WorkersPersistAcrossRegions)
{
    // Warm the pool, then check that repeated regions neither spawn nor
    // leak threads — the whole point of parking workers between calls.
    std::atomic<int64_t> total{0};
    ParallelFor(512, 4, [&](int64_t b, int64_t e) { total += e - b; });
    const ThreadPoolStats before = GetThreadPoolStats();
    EXPECT_GE(before.threads, 1);

    for (int r = 0; r < 20; ++r) {
        ParallelFor(512, 4, [&](int64_t b, int64_t e) { total += e - b; });
    }
    const ThreadPoolStats after = GetThreadPoolStats();
    EXPECT_EQ(after.threads, before.threads);
    EXPECT_EQ(after.regions, before.regions + 20);
    EXPECT_EQ(total.load(), 512 * 21);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToCaller)
{
    // The chunk starting at 0 may land on the caller or on any pool
    // worker; either way the exception must surface on the caller, with
    // its message intact, and the process must not terminate.
    std::atomic<int64_t> ran{0};
    try {
        ParallelFor(1000, 4, [&](int64_t b, int64_t e) {
            if (b == 0) throw std::runtime_error("worker boom");
            ran += e - b;
        });
        FAIL() << "expected the worker exception to propagate";
    } catch (const std::runtime_error& err) {
        EXPECT_EQ(std::string(err.what()), "worker boom");
    }
    // Failed regions may skip unstarted chunks but never run one twice.
    EXPECT_LE(ran.load(), 1000);
}

TEST(ThreadPoolTest, PoolSurvivesWorkerException)
{
    const ThreadPoolStats before = GetThreadPoolStats();
    for (int round = 0; round < 5; ++round) {
        EXPECT_THROW(ParallelFor(100, 4,
                                 [](int64_t, int64_t) {
                                     throw std::runtime_error("boom");
                                 }),
                     std::runtime_error);
        // Every worker was quiesced (not terminated/detached) and the
        // next region runs to completion on the same pool.
        std::vector<std::atomic<int>> hits(1000);
        ParallelFor(1000, 4, [&](int64_t b, int64_t e) {
            for (int64_t i = b; i < e; ++i) {
                ++hits[static_cast<size_t>(i)];
            }
        });
        for (auto& h : hits) EXPECT_EQ(h.load(), 1);
    }
    EXPECT_EQ(GetThreadPoolStats().threads, before.threads);
}

TEST(ThreadPoolTest, HundredThrowingRegionsLeakNoWorkers)
{
    // Fault-resilience regression: a worker exception (including injected
    // ones) must leave the pool fully reusable. Warm the pool, run 100
    // throwing regions, then a clean region — stats must stay consistent
    // and the thread count must not drift (no leaked or terminated
    // workers).
    std::atomic<int64_t> warm{0};
    ParallelFor(256, 4, [&](int64_t b, int64_t e) { warm += e - b; });
    const ThreadPoolStats before = GetThreadPoolStats();

    constexpr int kRounds = 100;
    for (int round = 0; round < kRounds; ++round) {
        EXPECT_THROW(
            ParallelFor(256, 4,
                        [&](int64_t b, int64_t) {
                            if (b == 0) {
                                throw std::runtime_error("injected");
                            }
                        }),
            std::runtime_error);
    }

    std::vector<std::atomic<int>> hits(2048);
    ParallelFor(2048, 4, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);

    const ThreadPoolStats after = GetThreadPoolStats();
    EXPECT_EQ(after.threads, before.threads);
    EXPECT_EQ(after.regions, before.regions + kRounds + 1);
    EXPECT_GE(after.helper_joins, before.helper_joins);
}

TEST(ThreadPoolTest, ChunkFaultHookThrowsLikeWorkerException)
{
    // The fault-injection hook fires per chunk and must propagate exactly
    // like an exception from the region body, on both the pool and the
    // inline path.
    SetChunkFaultHookForTest([](int64_t begin, int64_t) {
        if (begin == 0) throw std::runtime_error("hook boom");
    });
    EXPECT_THROW(ParallelFor(1000, 4, [](int64_t, int64_t) {}),
                 std::runtime_error);
    EXPECT_THROW(ParallelFor(1000, 1, [](int64_t, int64_t) {}),
                 std::runtime_error);
    SetChunkFaultHookForTest(nullptr);

    std::atomic<int64_t> total{0};
    ParallelFor(1000, 4, [&](int64_t b, int64_t e) { total += e - b; });
    EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, OversubscriptionBeyondHardwareCompletes)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int nthreads = static_cast<int>(hw) * 4 + 3;
    std::vector<std::atomic<int>> hits(4096);
    ParallelFor(4096, nthreads, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadRunsInlineOnCaller)
{
    const std::thread::id caller = std::this_thread::get_id();
    int calls = 0;
    ParallelFor(100, 1, [&](int64_t b, int64_t e) {
        ++calls;
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(b, 0);
        EXPECT_EQ(e, 100);
    });
    EXPECT_EQ(calls, 1);

    // n == 1 also runs inline regardless of the requested thread count.
    ParallelFor(1, 8, [&](int64_t, int64_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock)
{
    EXPECT_FALSE(InParallelRegion());
    constexpr int64_t kOuter = 64, kInner = 16;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    ParallelFor(kOuter, 4, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            EXPECT_TRUE(InParallelRegion());
            const std::thread::id outer_tid = std::this_thread::get_id();
            ParallelFor(kInner, 4, [&](int64_t ib, int64_t ie) {
                // Nested regions run inline on the same thread.
                EXPECT_EQ(std::this_thread::get_id(), outer_tid);
                for (int64_t j = ib; j < ie; ++j) {
                    ++hits[static_cast<size_t>(i * kInner + j)];
                }
            });
        }
    });
    EXPECT_FALSE(InParallelRegion());
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, HandlesZeroAndNegativeInputs)
{
    int calls = 0;
    ParallelFor(0, 4, [&](int64_t, int64_t) { ++calls; });
    ParallelFor(-5, 4, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    // Non-positive nthreads clamps to the inline single-thread path.
    std::atomic<int64_t> total{0};
    ParallelFor(10, 0, [&](int64_t b, int64_t e) { total += e - b; });
    ParallelFor(10, -3, [&](int64_t b, int64_t e) { total += e - b; });
    EXPECT_EQ(total.load(), 20);
}

#if SECEMB_TELEMETRY_ENABLED

TEST(ThreadPoolTest, TelemetryCountsRegionsAndChunks)
{
    telemetry::SetEnabled(true);
    auto& reg = telemetry::Registry::Instance();
    reg.ResetAll();
    const ThreadPoolStats before = GetThreadPoolStats();

    // Four items over four participants: one chunk each.
    for (int r = 0; r < 5; ++r) {
        ParallelFor(4, 4, [](int64_t, int64_t) {});
    }

    EXPECT_EQ(reg.GetCounter("pool.regions").Value(), 5u);
    EXPECT_EQ(reg.GetCounter("pool.chunks").Value(), 20u);
    EXPECT_EQ(GetThreadPoolStats().regions - before.regions, 5u);
    reg.ResetAll();
}

#endif  // SECEMB_TELEMETRY_ENABLED

}  // namespace
}  // namespace secemb
