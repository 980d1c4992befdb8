/**
 * @file
 * perf_event_open counter-sampling tests.
 *
 * Two concerns:
 *   1. Robustness — CounterGroup construction and reads never fail, no
 *      matter what the kernel refuses (perf_event_paranoid, hidden PMU,
 *      compiled-out syscall layer). Events degrade independently and
 *      Sample::Delta only reports events available on both sides.
 *   2. Obliviousness (leakage label) — TELEMETRY_SCOPED_COUNTERS reads
 *      counters only at span boundaries, so a victim's recorded memory
 *      trace must be bit-identical with perfmon ON vs OFF, and identical
 *      across secret index sets exactly as it is without instrumentation.
 *
 * Hardware events are typically unavailable inside containers; every
 * value assertion on real counters is guarded on availability so the
 * suite passes (and still exercises the fallback paths) everywhere.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/table_generators.h"
#include "perfmon/perfmon.h"
#include "sidechannel/trace.h"
#include "telemetry/telemetry.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "verify/canonical.h"

namespace secemb::perfmon {
namespace {

/** Restore the perfmon/telemetry runtime switches on scope exit. */
class SwitchGuard
{
  public:
    SwitchGuard() : perfmon_(Enabled()), telemetry_(telemetry::Enabled()) {}
    ~SwitchGuard()
    {
        SetEnabled(perfmon_);
        telemetry::SetEnabled(telemetry_);
    }

  private:
    bool perfmon_;
    bool telemetry_;
};

/** Touch enough memory to make task-clock / instructions visibly tick. */
uint64_t
BusyWork()
{
    std::vector<uint64_t> buf(1 << 16);
    uint64_t acc = 0;
    for (int rep = 0; rep < 8; ++rep) {
        for (size_t i = 0; i < buf.size(); ++i) {
            buf[i] = buf[i] * 2654435761u + i;
            acc += buf[i];
        }
    }
    return acc;
}

// --- event metadata --------------------------------------------------------

TEST(PerfmonTest, EventNamesAreStable)
{
    EXPECT_STREQ(EventName(Event::kCycles), "cycles");
    EXPECT_STREQ(EventName(Event::kInstructions), "instructions");
    EXPECT_STREQ(EventName(Event::kLlcMisses), "llc_misses");
    EXPECT_STREQ(EventName(Event::kDtlbMisses), "dtlb_misses");
    EXPECT_STREQ(EventName(Event::kTaskClockNs), "task_clock_ns");
    EXPECT_STREQ(EventName(Event::kPageFaults), "page_faults");
    EXPECT_STREQ(EventName(Event::kContextSwitches), "context_switches");
}

TEST(PerfmonTest, AvailabilitySummaryListsEveryEvent)
{
    const std::string summary = AvailabilitySummary();
    for (int i = 0; i < kNumEvents; ++i) {
        EXPECT_NE(summary.find(EventName(static_cast<Event>(i))),
                  std::string::npos)
            << summary;
    }
}

// --- Sample::Delta ---------------------------------------------------------

TEST(PerfmonTest, DeltaSubtractsAndIntersectsAvailability)
{
    Sample begin, end;
    begin.value[0] = 100;
    begin.available[0] = true;
    end.value[0] = 250;
    end.available[0] = true;
    // Event 1 available only at the end (e.g. fd opened mid-flight in a
    // hypothetical future): must not report a bogus delta.
    end.value[1] = 999;
    end.available[1] = true;

    const Sample d = Sample::Delta(begin, end);
    EXPECT_TRUE(d.has(Event::kCycles));
    EXPECT_EQ(d[Event::kCycles], 150u);
    EXPECT_FALSE(d.has(Event::kInstructions));
    EXPECT_EQ(d[Event::kInstructions], 0u);
}

TEST(PerfmonTest, DeltaClampsBackwardsCounters)
{
    Sample begin, end;
    begin.value[0] = 500;
    begin.available[0] = true;
    end.value[0] = 100;  // counter reset between reads
    end.available[0] = true;
    const Sample d = Sample::Delta(begin, end);
    EXPECT_EQ(d[Event::kCycles], 0u);
}

// --- CounterGroup robustness -----------------------------------------------

TEST(PerfmonTest, CounterGroupConstructionNeverFails)
{
    // Whatever the host refuses, construction and reads must be safe.
    CounterGroup group;
    const Sample s = group.Read();
    for (int i = 0; i < kNumEvents; ++i) {
        const auto e = static_cast<Event>(i);
        EXPECT_EQ(s.has(e), group.Available(e));
        if (!group.Available(e)) {
            EXPECT_EQ(s[e], 0u);
        }
    }
    group.Reset();  // must be a no-op on unavailable events
    SUCCEED();
}

TEST(PerfmonTest, AvailableCountersAreMonotonic)
{
    CounterGroup group;
    const Sample a = group.Read();
    volatile uint64_t sink = BusyWork();
    (void)sink;
    const Sample b = group.Read();
    for (int i = 0; i < kNumEvents; ++i) {
        const auto e = static_cast<Event>(i);
        if (a.has(e) && b.has(e)) {
            EXPECT_GE(b[e], a[e]) << EventName(e);
        }
    }
}

TEST(PerfmonTest, SoftwareEventsTickWhenAvailable)
{
    // Software events (task-clock at minimum) survive hidden PMUs; when
    // the kernel grants them, a busy region must advance them.
    CounterGroup group;
    if (!group.Available(Event::kTaskClockNs)) {
        GTEST_SKIP() << "no perf events on this host: "
                     << AvailabilitySummary();
    }
    const Sample begin = group.Read();
    volatile uint64_t sink = BusyWork();
    (void)sink;
    const Sample delta = Sample::Delta(begin, group.Read());
    EXPECT_GT(delta[Event::kTaskClockNs], 0u);
}

TEST(PerfmonTest, ResetZeroesAvailableCounters)
{
    CounterGroup group;
    if (!group.AnyAvailable()) {
        GTEST_SKIP() << "no perf events on this host";
    }
    volatile uint64_t sink = BusyWork();
    (void)sink;
    group.Reset();
    const Sample after = group.Read();
    // Immediately after a reset every available counter is near zero —
    // allow the cost of the read itself (well under a millisecond /
    // a million events).
    for (int i = 0; i < kNumEvents; ++i) {
        const auto e = static_cast<Event>(i);
        if (after.has(e)) {
            EXPECT_LT(after[e], 100000000u) << EventName(e);
        }
    }
}

// --- runtime switch + macro ------------------------------------------------

TEST(PerfmonTest, SetEnabledRoundTrips)
{
    SwitchGuard guard;
    SetEnabled(true);
    EXPECT_TRUE(Enabled());
    SetEnabled(false);
    EXPECT_FALSE(Enabled());
}

TEST(PerfmonTest, RegisterSiteIsStableAndNamespaced)
{
    SiteCounters& a = RegisterSite("perfmon_test.site");
    SiteCounters& b = RegisterSite("perfmon_test.site");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.spans,
              &telemetry::Registry::Instance().GetCounter(
                  "perf.perfmon_test.site.spans"));
    EXPECT_EQ(a.events[static_cast<size_t>(Event::kLlcMisses)],
              &telemetry::Registry::Instance().GetCounter(
                  "perf.perfmon_test.site.llc_misses"));
}

#if SECEMB_TELEMETRY_ENABLED

/** A function instrumented exactly like the production generators. */
void
InstrumentedRegion()
{
    TELEMETRY_SCOPED_COUNTERS("perfmon_test.region");
    volatile uint64_t sink = BusyWork();
    (void)sink;
}

TEST(PerfmonTest, MacroCountsSpansWhenEnabled)
{
    SwitchGuard guard;
    telemetry::SetEnabled(true);
    SetEnabled(true);
    auto& spans = telemetry::Registry::Instance().GetCounter(
        "perf.perfmon_test.region.spans");
    const uint64_t before = spans.Value();
    InstrumentedRegion();
    InstrumentedRegion();
#if SECEMB_PERFMON_ENABLED
    EXPECT_EQ(spans.Value(), before + 2);
#else
    EXPECT_EQ(spans.Value(), before);  // macro fell back to TELEMETRY_SPAN
#endif
}

TEST(PerfmonTest, MacroIsInertWhenPerfmonDisabled)
{
    SwitchGuard guard;
    telemetry::SetEnabled(true);
    SetEnabled(false);
    auto& spans = telemetry::Registry::Instance().GetCounter(
        "perf.perfmon_test.region.spans");
    const uint64_t before = spans.Value();
    InstrumentedRegion();
    EXPECT_EQ(spans.Value(), before);
}

TEST(PerfmonTest, MacroAccumulatesEventDeltasWhenCountersExist)
{
    SwitchGuard guard;
    telemetry::SetEnabled(true);
    SetEnabled(true);
    if (!ThreadCounterGroup().Available(Event::kTaskClockNs)) {
        GTEST_SKIP() << "no perf events on this host";
    }
    auto& task_clock = telemetry::Registry::Instance().GetCounter(
        "perf.perfmon_test.region.task_clock_ns");
    const uint64_t before = task_clock.Value();
    InstrumentedRegion();
    EXPECT_GT(task_clock.Value(), before);
}

#endif  // SECEMB_TELEMETRY_ENABLED

// --- obliviousness: counter reads must not perturb victim traces -----------

/**
 * Record the linear-scan generator's memory trace with perfmon sampling
 * ON and OFF (telemetry enabled throughout, so spans fire both times)
 * and require bit-identical traces: a counter read is ~one syscall into
 * a stack buffer and must never add, remove, or reorder a data access.
 */
TEST(PerfmonLeakageTest, TraceIdenticalWithPerfmonOnVsOff)
{
    SwitchGuard guard;
    telemetry::SetEnabled(true);

    Rng rng(77);
    core::LinearScanTable gen(Tensor::Randn({64, 8}, rng));
    const std::vector<int64_t> ids{5, 41, 0, 63};
    Tensor out({4, 8});

    sidechannel::TraceRecorder rec_on, rec_off;
    SetEnabled(true);
    gen.set_recorder(&rec_on);
    gen.Generate(ids, out);

    SetEnabled(false);
    gen.set_recorder(&rec_off);
    gen.Generate(ids, out);
    gen.set_recorder(nullptr);

    const verify::TraceDivergence report =
        verify::CompareCanonical(verify::Canonicalize(rec_on.trace()),
                                 verify::Canonicalize(rec_off.trace()));
    EXPECT_FALSE(rec_on.trace().empty());
    EXPECT_FALSE(report.diverged) << report.detail;
}

/**
 * With perfmon sampling ON, the oblivious generator's trace must stay
 * identical across different secret index sets — i.e. instrumentation
 * preserves the obliviousness certificate, not just determinism.
 */
TEST(PerfmonLeakageTest, TraceIdenticalAcrossSecretsWithPerfmonOn)
{
    SwitchGuard guard;
    telemetry::SetEnabled(true);
    SetEnabled(true);

    Rng rng(78);
    core::LinearScanTable gen(Tensor::Randn({64, 8}, rng));
    Tensor out({4, 8});

    const std::vector<int64_t> secrets_a{1, 2, 3, 4};
    const std::vector<int64_t> secrets_b{63, 0, 17, 42};
    sidechannel::TraceRecorder rec_a, rec_b;
    gen.set_recorder(&rec_a);
    gen.Generate(secrets_a, out);
    gen.set_recorder(&rec_b);
    gen.Generate(secrets_b, out);
    gen.set_recorder(nullptr);

    const verify::TraceDivergence report =
        verify::CompareCanonical(verify::Canonicalize(rec_a.trace()),
                                 verify::Canonicalize(rec_b.trace()));
    EXPECT_FALSE(rec_a.trace().empty());
    EXPECT_FALSE(report.diverged) << report.detail;
}

}  // namespace
}  // namespace secemb::perfmon
