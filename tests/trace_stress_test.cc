/**
 * @file
 * Concurrency stress for trace recording: proves the linear scan's trace
 * (its whole-table reads, recorded up front on the calling thread before
 * the parallel scan runs) is byte-identical to the serial execution's,
 * for every thread count up to heavy oversubscription, across 50 repeats,
 * and under deliberately fuzzed chunk-claim schedules
 * (SetScheduleJitterForTest) — and that the parallel outputs match.
 *
 * If traces ever depended on scheduler timing, the certification
 * harness's bit-identity comparisons would flake; this test is why they
 * cannot. Runs under `ctest -L concurrency` (and the sanitizer builds).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/table_generators.h"
#include "sidechannel/trace.h"
#include "tensor/parallel.h"
#include "verify/canonical.h"

namespace secemb {
namespace {

constexpr int64_t kRows = 96;
constexpr int64_t kDim = 16;
constexpr int kRepeats = 50;

std::vector<int64_t>
WorkloadIndices(int64_t batch, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> ids(static_cast<size_t>(batch));
    for (auto& id : ids) {
        id = static_cast<int64_t>(rng.NextBounded(kRows));
    }
    return ids;
}

/// Thread counts under test: serial, moderate, and oversubscribed far
/// beyond this machine's cores — plus whatever SECEMB_THREADS asks for,
/// so CI can push the sweep further without a rebuild.
std::vector<int>
ThreadCounts()
{
    std::vector<int> counts{1, 2, 4, 13, 32};
    if (const char* env = std::getenv("SECEMB_THREADS")) {
        const int v = std::atoi(env);
        if (v > 0) counts.push_back(v);
    }
    return counts;
}

class TraceStressTest : public ::testing::Test
{
  protected:
    void TearDown() override { SetScheduleJitterForTest(0, 0); }
};

TEST_F(TraceStressTest, MergedTraceMatchesSerialUnderOversubscription)
{
    Rng rng(11);
    const Tensor table = Tensor::Randn({kRows, kDim}, rng);
    core::LinearScanTable gen(table);

    // Serial reference trace for a fixed batch.
    const auto ids = WorkloadIndices(/*batch=*/24, 17);
    sidechannel::TraceRecorder ref;
    gen.set_recorder(&ref);
    gen.set_nthreads(1);
    Tensor out({static_cast<int64_t>(ids.size()), kDim});
    gen.Generate(ids, out);
    ASSERT_GT(ref.size(), 0u);
    const Tensor ref_out = out;

    for (const int nthreads : ThreadCounts()) {
        for (int repeat = 0; repeat < kRepeats; ++repeat) {
            // Fuzz the chunk-claim schedule differently every repeat.
            SetScheduleJitterForTest(
                /*max_spin=*/512,
                /*seed=*/static_cast<uint64_t>(repeat * 131 + nthreads));
            sidechannel::TraceRecorder rec;
            gen.set_recorder(&rec);
            gen.set_nthreads(nthreads);
            gen.Generate(ids, out);
            ASSERT_EQ(rec.trace(), ref.trace())
                << "nthreads=" << nthreads << " repeat=" << repeat
                << ": trace depends on scheduling";
            ASSERT_TRUE(out.AllClose(ref_out));
        }
    }
}

TEST_F(TraceStressTest, PooledMergeStableAcrossSchedules)
{
    Rng rng(12);
    const Tensor table = Tensor::Randn({kRows, kDim}, rng);
    core::LinearScanTable gen(table);

    const auto ids = WorkloadIndices(/*batch=*/18, 23);
    const std::vector<int64_t> offsets{0, 3, 3, 7, 12, 18};
    Tensor out({static_cast<int64_t>(offsets.size()) - 1, kDim});

    sidechannel::TraceRecorder ref;
    gen.set_recorder(&ref);
    gen.set_nthreads(1);
    gen.GeneratePooled(ids, offsets, out);
    // One whole-table read per bag element; the empty bag reads nothing.
    ASSERT_EQ(ref.size(), ids.size());
    const Tensor ref_out = out;

    for (const int nthreads : {4, 16}) {
        for (int repeat = 0; repeat < kRepeats; ++repeat) {
            SetScheduleJitterForTest(
                256, static_cast<uint64_t>(repeat * 977 + nthreads));
            sidechannel::TraceRecorder rec;
            gen.set_recorder(&rec);
            gen.set_nthreads(nthreads);
            gen.GeneratePooled(ids, offsets, out);
            ASSERT_EQ(rec.trace(), ref.trace())
                << "nthreads=" << nthreads << " repeat=" << repeat;
            ASSERT_TRUE(out.AllClose(ref_out));
        }
    }
}

TEST_F(TraceStressTest, CanonicalFormInvariantAcrossFreshInstances)
{
    // Build a fresh generator per thread count (distinct trace bases) and
    // compare *canonical* traces — the exact cross-run comparison the
    // certification harness performs, here under schedule fuzzing.
    const auto ids = WorkloadIndices(/*batch=*/16, 31);
    verify::CanonicalTrace reference;
    bool have_reference = false;

    for (const int nthreads : ThreadCounts()) {
        SetScheduleJitterForTest(128,
                                 static_cast<uint64_t>(nthreads) * 7919);
        Rng rng(13);  // same weights every instance
        core::LinearScanTable gen(Tensor::Randn({kRows, kDim}, rng));
        sidechannel::TraceRecorder rec;
        gen.set_recorder(&rec);
        gen.set_nthreads(nthreads);
        Tensor out({static_cast<int64_t>(ids.size()), kDim});
        gen.Generate(ids, out);

        verify::CanonicalTrace canonical = verify::Canonicalize(rec.trace());
        if (!have_reference) {
            reference = std::move(canonical);
            have_reference = true;
            continue;
        }
        const verify::TraceDivergence d =
            verify::CompareCanonical(reference, canonical);
        EXPECT_FALSE(d.diverged) << "nthreads=" << nthreads << ": "
                                 << d.detail;
    }
}

}  // namespace
}  // namespace secemb
