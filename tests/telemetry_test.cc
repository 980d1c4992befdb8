/**
 * @file
 * Telemetry subsystem tests: histogram percentile accuracy against sorted
 * references, counter/gauge/registry behaviour, span recording and
 * chrome://tracing export, the disabled-telemetry no-op guarantees, and —
 * most importantly — proof that instrumentation preserves obliviousness:
 * the memory traces of the oblivious scan and DHE forward are bit-identical
 * with telemetry ON vs OFF (and across different secret inputs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util/json.h"
#include "core/dhe_generator.h"
#include "core/table_generators.h"
#include "sidechannel/trace.h"
#include "telemetry/telemetry.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "verify/canonical.h"

namespace secemb {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Registry;

/** Exact percentile from raw samples: rank = ceil(p/100 * n). */
double
ReferencePercentile(std::vector<uint64_t> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    const size_t rank = static_cast<size_t>(std::max(
        1.0, std::ceil(p / 100.0 * static_cast<double>(samples.size()))));
    return static_cast<double>(samples[std::min(rank, samples.size()) - 1]);
}

void
ExpectPercentileClose(const Histogram& hist,
                      const std::vector<uint64_t>& samples, double p,
                      double rel_tol)
{
    const double ref = ReferencePercentile(samples, p);
    const double got = hist.Percentile(p);
    EXPECT_NEAR(got, ref, std::max(1.0, ref * rel_tol))
        << "p" << p << ": histogram=" << got << " reference=" << ref;
}

// --- histogram bucketing ---------------------------------------------------

TEST(HistogramTest, BucketIndexExactBelowSubBucketCount)
{
    for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
        EXPECT_EQ(Histogram::BucketIndex(v), static_cast<size_t>(v));
        uint64_t lo = 0, hi = 0;
        Histogram::BucketRange(static_cast<size_t>(v), &lo, &hi);
        EXPECT_EQ(lo, v);
        EXPECT_EQ(hi, v);
    }
}

TEST(HistogramTest, BucketIndexMonotonicAndRangeConsistent)
{
    size_t prev = 0;
    const std::vector<uint64_t> probes{
        1, 15, 16, 17, 31, 32, 1000, 123456, 1ull << 40, UINT64_MAX};
    for (const uint64_t v : probes) {
        const size_t idx = Histogram::BucketIndex(v);
        EXPECT_GE(idx, prev) << "v=" << v;
        EXPECT_LT(idx, Histogram::kNumBuckets);
        prev = idx;
        uint64_t lo = 0, hi = 0;
        Histogram::BucketRange(idx, &lo, &hi);
        EXPECT_LE(lo, v);
        EXPECT_GE(hi, v);
        // Relative bucket width bounds the percentile error: 2^-4.
        if (lo >= Histogram::kSubBuckets) {
            EXPECT_LE(static_cast<double>(hi - lo),
                      static_cast<double>(lo) / 16.0 + 1.0)
                << "bucket " << idx;
        }
    }
}

// --- percentiles vs sorted reference ---------------------------------------

TEST(HistogramTest, PercentilesOnUniformSamples)
{
    Rng rng(41);
    Histogram hist;
    std::vector<uint64_t> samples;
    samples.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t v = 1 + rng.NextBounded(1000000);
        samples.push_back(v);
        hist.Record(v);
    }
    EXPECT_EQ(hist.Count(), samples.size());
    for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
        ExpectPercentileClose(hist, samples, p, 0.10);
    }
}

TEST(HistogramTest, PercentilesOnHeavyTailedSamples)
{
    // Pareto-like tail: v = 100 / u^2 spans [100, ~1e10); the log-linear
    // buckets must stay within relative tolerance across the whole range.
    Rng rng(42);
    Histogram hist;
    std::vector<uint64_t> samples;
    samples.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        const double u = std::max(1e-4, rng.NextDouble());
        const uint64_t v = static_cast<uint64_t>(100.0 / (u * u));
        samples.push_back(v);
        hist.Record(v);
    }
    for (const double p : {50.0, 90.0, 95.0, 99.0}) {
        ExpectPercentileClose(hist, samples, p, 0.10);
    }
}

TEST(HistogramTest, EmptyHistogram)
{
    // An empty histogram has no sample to report: percentiles are NaN,
    // not 0 — a 0 would read as "the p99 latency was 0ns", which is a
    // real (excellent) measurement, not an absent one. JsonWriter
    // serialises NaN as null, so empty series stay visibly empty in
    // bench reports too.
    Histogram hist;
    EXPECT_EQ(hist.Count(), 0u);
    EXPECT_EQ(hist.Sum(), 0u);
    EXPECT_TRUE(std::isnan(hist.Percentile(50.0)));
    EXPECT_TRUE(std::isnan(hist.Percentile(0.0)));
    EXPECT_TRUE(std::isnan(hist.Percentile(100.0)));
    const Histogram::Snapshot snap = hist.TakeSnapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 0u);
    EXPECT_TRUE(std::isnan(snap.mean));
    EXPECT_TRUE(std::isnan(snap.p50));
    EXPECT_TRUE(std::isnan(snap.p95));
    EXPECT_TRUE(std::isnan(snap.p99));
}

TEST(HistogramTest, SingleSample)
{
    Histogram hist;
    hist.Record(777);
    EXPECT_EQ(hist.Count(), 1u);
    EXPECT_EQ(hist.Sum(), 777u);
    // One sample: every percentile collapses onto it (the min/max clamp
    // makes this exact even though 777 lands mid-bucket).
    for (const double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
        EXPECT_EQ(hist.Percentile(p), 777.0) << "p" << p;
    }
    const Histogram::Snapshot snap = hist.TakeSnapshot();
    EXPECT_EQ(snap.min, 777u);
    EXPECT_EQ(snap.max, 777u);
    EXPECT_EQ(snap.mean, 777.0);
}

TEST(HistogramTest, PercentileEdgesReportMinAndMax)
{
    Histogram hist;
    for (uint64_t v : {10ull, 20ull, 30ull, 40ull, 1000ull}) {
        hist.Record(v);
    }
    EXPECT_EQ(hist.Percentile(0.0), 10.0);
    EXPECT_EQ(hist.Percentile(-5.0), 10.0);
    EXPECT_EQ(hist.Percentile(100.0), 1000.0);
    EXPECT_EQ(hist.Percentile(150.0), 1000.0);
}

TEST(HistogramTest, ResetClears)
{
    Histogram hist;
    hist.Record(5);
    hist.Record(50);
    hist.Reset();
    EXPECT_EQ(hist.Count(), 0u);
    EXPECT_TRUE(std::isnan(hist.Percentile(50.0)));
    hist.Record(9);
    EXPECT_EQ(hist.Percentile(50.0), 9.0);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing)
{
    Histogram hist;
    constexpr int kThreads = 4, kPerThread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&hist, t] {
            for (int i = 0; i < kPerThread; ++i) {
                hist.Record(static_cast<uint64_t>(t * kPerThread + i));
            }
        });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(hist.Count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, SnapshotHammerWhileRecording)
{
    // One thread takes registry snapshots continuously while 8 writers
    // record into the same histogram/counter: every intermediate snapshot
    // must be internally sane (no torn counts), and once the writers
    // quiesce the final snapshot is exact. Run under TSan via
    // `ctest -L concurrency`.
    auto& reg = Registry::Instance();
    Histogram& hist = reg.GetHistogram("test.hammer.hist");
    Counter& ctr = reg.GetCounter("test.hammer.counter");
    hist.Reset();
    ctr.Reset();

    constexpr int kThreads = 8, kPerThread = 5000;
    std::atomic<bool> stop{false};
    std::thread snapshotter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto snap = reg.TakeSnapshot();
            for (const auto& [name, h] : snap.histograms) {
                if (name != "test.hammer.hist") continue;
                ASSERT_LE(h.count,
                          static_cast<uint64_t>(kThreads) * kPerThread);
                if (h.count > 0) {
                    ASSERT_FALSE(std::isnan(h.p50));
                    ASSERT_GE(h.max, h.min);
                }
            }
        }
    });

    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
        writers.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                hist.Record(static_cast<uint64_t>(i % 1000) + 1);
                ctr.Add(1);
            }
        });
    }
    for (auto& w : writers) w.join();
    stop.store(true, std::memory_order_relaxed);
    snapshotter.join();

    EXPECT_EQ(hist.Count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(ctr.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- counters / gauges / registry ------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics)
{
    Counter c;
    EXPECT_EQ(c.Value(), 0u);
    c.Add();
    c.Add(41);
    EXPECT_EQ(c.Value(), 42u);
    c.Reset();
    EXPECT_EQ(c.Value(), 0u);

    Gauge g;
    g.Set(-7);
    EXPECT_EQ(g.Value(), -7);
    g.Add(10);
    EXPECT_EQ(g.Value(), 3);
}

TEST(MetricsTest, RegistryReturnsStableReferences)
{
    auto& reg = Registry::Instance();
    Counter& a = reg.GetCounter("test.registry.counter");
    Counter& b = reg.GetCounter("test.registry.counter");
    EXPECT_EQ(&a, &b);
    a.Add(3);
    EXPECT_EQ(b.Value(), 3u);

    Histogram& h = reg.GetHistogram("test.registry.hist");
    h.Record(11);

    const auto snap = reg.TakeSnapshot();
    bool found_counter = false, found_hist = false;
    for (const auto& [name, value] : snap.counters) {
        if (name == "test.registry.counter") {
            found_counter = true;
            EXPECT_EQ(value, 3u);
        }
    }
    for (const auto& [name, hs] : snap.histograms) {
        if (name == "test.registry.hist") {
            found_hist = true;
            EXPECT_EQ(hs.count, 1u);
        }
    }
    EXPECT_TRUE(found_counter);
    EXPECT_TRUE(found_hist);

    reg.ResetAll();
    EXPECT_EQ(b.Value(), 0u);
    EXPECT_EQ(h.Count(), 0u);
}

// --- tracer ----------------------------------------------------------------

#if SECEMB_TELEMETRY_ENABLED

TEST(TracerTest, SpansAreRecordedWithNamesAndNesting)
{
    telemetry::SetEnabled(true);
    telemetry::ClearSpans();
    {
        TELEMETRY_SPAN("outer");
        {
            TELEMETRY_SPAN("inner");
        }
    }
    const std::vector<telemetry::SpanEvent> spans =
        telemetry::CollectSpans();
    ASSERT_EQ(spans.size(), 2u);
    // Sorted by start time: outer opened first.
    EXPECT_STREQ(spans[0].name, "outer");
    EXPECT_STREQ(spans[1].name, "inner");
    EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
    // The inner span closes before the outer one.
    EXPECT_LE(spans[1].start_ns + spans[1].dur_ns,
              spans[0].start_ns + spans[0].dur_ns);
    EXPECT_EQ(spans[0].tid, spans[1].tid);

    telemetry::ClearSpans();
    EXPECT_TRUE(telemetry::CollectSpans().empty());
}

TEST(TracerTest, SpansFromExitedThreadsAreRetained)
{
    telemetry::SetEnabled(true);
    telemetry::ClearSpans();
    uint32_t main_tid = 0;
    {
        TELEMETRY_SPAN("main_thread");
    }
    {
        const auto spans = telemetry::CollectSpans();
        ASSERT_EQ(spans.size(), 1u);
        main_tid = spans[0].tid;
    }
    std::thread([] { TELEMETRY_SPAN("worker_thread"); }).join();
    const auto spans = telemetry::CollectSpans();
    ASSERT_EQ(spans.size(), 2u);
    bool saw_worker = false;
    for (const auto& s : spans) {
        if (std::string_view(s.name) == "worker_thread") {
            saw_worker = true;
            EXPECT_NE(s.tid, main_tid);
        }
    }
    EXPECT_TRUE(saw_worker);
    telemetry::ClearSpans();
}

TEST(TracerTest, ChromeTraceExportIsValidJson)
{
    telemetry::SetEnabled(true);
    telemetry::ClearSpans();
    {
        TELEMETRY_SPAN("export_me");
    }
    const std::string path =
        ::testing::TempDir() + "/telemetry_trace_test.json";
    ASSERT_TRUE(telemetry::WriteChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();

    bench::JsonValue doc;
    std::string error;
    ASSERT_TRUE(bench::JsonParse(buf.str(), &doc, &error)) << error;
    const bench::JsonValue* events = doc.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->IsArray());
    ASSERT_EQ(events->array_v.size(), 1u);
    const bench::JsonValue& ev = events->array_v[0];
    const bench::JsonValue* name = ev.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->str_v, "export_me");
    const bench::JsonValue* ph = ev.Find("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str_v, "X");
    for (const char* key : {"pid", "tid", "ts", "dur"}) {
        const bench::JsonValue* v = ev.Find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_TRUE(v->IsNumber()) << key;
        EXPECT_GE(v->num_v, 0.0) << key;
    }
    telemetry::ClearSpans();
    std::remove(path.c_str());
}

// --- disabled telemetry is a no-op -----------------------------------------

TEST(DisabledTelemetryTest, RuntimeDisableRecordsNothing)
{
    auto& reg = Registry::Instance();
    telemetry::ClearSpans();
    reg.ResetAll();

    telemetry::SetEnabled(false);
    {
        TELEMETRY_SPAN("should_not_appear");
        TELEMETRY_COUNT("test.disabled.counter", 5);
        TELEMETRY_HIST("test.disabled.hist", 123);
        TELEMETRY_SCOPED_LATENCY("test.disabled.latency");
    }
    telemetry::SetEnabled(true);

    EXPECT_TRUE(telemetry::CollectSpans().empty());
    EXPECT_EQ(reg.GetCounter("test.disabled.counter").Value(), 0u);
    EXPECT_EQ(reg.GetHistogram("test.disabled.hist").Count(), 0u);
    EXPECT_EQ(reg.GetHistogram("test.disabled.latency").Count(), 0u);

    // Re-enabled: the same sites record again.
    {
        TELEMETRY_SPAN("appears");
        TELEMETRY_COUNT("test.disabled.counter", 5);
    }
    EXPECT_EQ(telemetry::CollectSpans().size(), 1u);
    EXPECT_EQ(reg.GetCounter("test.disabled.counter").Value(), 5u);
    telemetry::ClearSpans();
    reg.ResetAll();
}

#else  // !SECEMB_TELEMETRY_ENABLED

// Compile-out proof: with SECEMB_TELEMETRY=OFF every instrumentation macro
// must literally expand to ((void)0) — zero code, zero data, zero deps.
#define SECEMB_TELEMETRY_TEST_STR2(x) #x
#define SECEMB_TELEMETRY_TEST_STR(x) SECEMB_TELEMETRY_TEST_STR2(x)
static_assert(std::string_view(SECEMB_TELEMETRY_TEST_STR(
                  TELEMETRY_SPAN("gemm"))) == "((void)0)",
              "TELEMETRY_SPAN must compile out to a no-op");
static_assert(std::string_view(SECEMB_TELEMETRY_TEST_STR(
                  TELEMETRY_COUNT("c", 1))) == "((void)0)",
              "TELEMETRY_COUNT must compile out to a no-op");
static_assert(std::string_view(SECEMB_TELEMETRY_TEST_STR(
                  TELEMETRY_HIST("h", 1))) == "((void)0)",
              "TELEMETRY_HIST must compile out to a no-op");
static_assert(std::string_view(SECEMB_TELEMETRY_TEST_STR(
                  TELEMETRY_GAUGE_SET("g", 1))) == "((void)0)",
              "TELEMETRY_GAUGE_SET must compile out to a no-op");
static_assert(std::string_view(SECEMB_TELEMETRY_TEST_STR(
                  TELEMETRY_SCOPED_LATENCY("l"))) == "((void)0)",
              "TELEMETRY_SCOPED_LATENCY must compile out to a no-op");

TEST(DisabledTelemetryTest, MacrosAreNoOpsWhenCompiledOut)
{
    TELEMETRY_SPAN("never");
    TELEMETRY_COUNT("never", 1);
    SUCCEED();
}

#endif  // SECEMB_TELEMETRY_ENABLED

// --- obliviousness: instrumentation must not perturb memory traces ---------

/**
 * Run `fn` once with telemetry enabled and once disabled, recording the
 * generator's memory trace each time, and require the traces to be
 * bit-identical: instrumentation must never add, remove, or reorder a
 * data access.
 */
template <typename Fn>
void
ExpectTraceUnaffectedByTelemetry(core::EmbeddingGenerator& gen, Fn&& fn)
{
    sidechannel::TraceRecorder rec_on, rec_off;

    telemetry::SetEnabled(true);
    gen.set_recorder(&rec_on);
    fn();

    telemetry::SetEnabled(false);
    gen.set_recorder(&rec_off);
    fn();

    telemetry::SetEnabled(true);
    gen.set_recorder(nullptr);

    const verify::TraceDivergence report =
        verify::CompareCanonical(verify::Canonicalize(rec_on.trace()),
                                 verify::Canonicalize(rec_off.trace()));
    EXPECT_FALSE(rec_on.trace().empty());
    EXPECT_FALSE(report.diverged) << report.detail;
}

TEST(ObliviousInstrumentationTest, LinearScanTraceIdenticalOnOffTelemetry)
{
    Rng rng(51);
    core::LinearScanTable gen(Tensor::Randn({64, 8}, rng));
    const std::vector<int64_t> ids{3, 9, 33, 63};
    Tensor out({4, 8});
    ExpectTraceUnaffectedByTelemetry(gen,
                                     [&] { gen.Generate(ids, out); });
}

TEST(ObliviousInstrumentationTest, LinearScanTraceIdenticalAcrossSecrets)
{
    // The scan must also be oblivious in the first place: two different
    // secret index sets yield identical traces (telemetry enabled).
    Rng rng(52);
    core::LinearScanTable gen(Tensor::Randn({64, 8}, rng));
    telemetry::SetEnabled(true);
    Tensor out({4, 8});

    sidechannel::TraceRecorder rec_a, rec_b;
    gen.set_recorder(&rec_a);
    const std::vector<int64_t> ids_a{0, 1, 2, 3};
    gen.Generate(ids_a, out);
    gen.set_recorder(&rec_b);
    const std::vector<int64_t> ids_b{63, 47, 5, 21};
    gen.Generate(ids_b, out);
    gen.set_recorder(nullptr);

    const auto report =
        verify::CompareCanonical(verify::Canonicalize(rec_a.trace()),
                                 verify::Canonicalize(rec_b.trace()));
    EXPECT_FALSE(report.diverged) << report.detail;
}

TEST(ObliviousInstrumentationTest,
     ParallelScanTraceIdenticalOnOffTelemetry)
{
    // Multi-threaded batch scan: the whole-table reads are recorded up
    // front on the calling thread, so the recorded trace must match the
    // serial one bit-for-bit — with telemetry on or off.
    Rng rng(55);
    core::LinearScanTable gen(Tensor::Randn({128, 8}, rng));
    gen.set_nthreads(4);
    const std::vector<int64_t> ids{5, 90, 17, 64, 3, 127, 44, 71};
    Tensor out({8, 8});
    ExpectTraceUnaffectedByTelemetry(gen,
                                     [&] { gen.Generate(ids, out); });
}

TEST(ObliviousInstrumentationTest,
     ParallelScanTraceIdenticalAcrossSecretsAndSchedules)
{
    // Input-independence under parallelism: two distinct secret index
    // sets, generated with different thread counts, must still produce
    // bit-identical traces (and match the single-threaded trace).
    Rng rng(56);
    core::LinearScanTable gen(Tensor::Randn({128, 8}, rng));
    telemetry::SetEnabled(true);
    Tensor out({8, 8});

    sidechannel::TraceRecorder rec_serial, rec_a, rec_b;
    const std::vector<int64_t> ids_a{0, 1, 2, 3, 4, 5, 6, 7};
    const std::vector<int64_t> ids_b{127, 64, 3, 99, 21, 58, 110, 14};

    gen.set_nthreads(1);
    gen.set_recorder(&rec_serial);
    gen.Generate(ids_a, out);

    gen.set_nthreads(4);
    gen.set_recorder(&rec_a);
    gen.Generate(ids_a, out);
    gen.set_recorder(&rec_b);
    gen.Generate(ids_b, out);
    gen.set_recorder(nullptr);

    const auto across_secrets =
        verify::CompareCanonical(verify::Canonicalize(rec_a.trace()),
                                 verify::Canonicalize(rec_b.trace()));
    EXPECT_FALSE(across_secrets.diverged) << across_secrets.detail;
    const auto across_schedules =
        verify::CompareCanonical(verify::Canonicalize(rec_serial.trace()),
                                 verify::Canonicalize(rec_a.trace()));
    EXPECT_FALSE(across_schedules.diverged) << across_schedules.detail;
}

TEST(ObliviousInstrumentationTest,
     ParallelPooledScanTraceIdenticalAcrossSecrets)
{
    Rng rng(57);
    core::LinearScanTable gen(Tensor::Randn({64, 8}, rng));
    gen.set_nthreads(4);
    telemetry::SetEnabled(true);
    Tensor out({3, 8});
    const std::vector<int64_t> offsets{0, 2, 5, 8};

    sidechannel::TraceRecorder rec_a, rec_b;
    gen.set_recorder(&rec_a);
    const std::vector<int64_t> ids_a{0, 1, 2, 3, 4, 5, 6, 7};
    gen.GeneratePooled(ids_a, offsets, out);
    gen.set_recorder(&rec_b);
    const std::vector<int64_t> ids_b{63, 47, 5, 21, 9, 33, 60, 2};
    gen.GeneratePooled(ids_b, offsets, out);
    gen.set_recorder(nullptr);

    const auto report =
        verify::CompareCanonical(verify::Canonicalize(rec_a.trace()),
                                 verify::Canonicalize(rec_b.trace()));
    EXPECT_FALSE(report.diverged) << report.detail;
}

TEST(ObliviousInstrumentationTest, DheForwardTraceIdenticalOnOffTelemetry)
{
    Rng rng(53);
    dhe::DheConfig cfg;
    cfg.k = 16;
    cfg.fc_hidden = {8};
    cfg.out_dim = 4;
    auto dhe = std::make_shared<dhe::DheEmbedding>(cfg, rng);
    core::DheGenerator gen(dhe, /*num_rows=*/100);
    const std::vector<int64_t> ids{7, 19, 80};
    Tensor out({3, 4});
    ExpectTraceUnaffectedByTelemetry(gen,
                                     [&] { gen.Generate(ids, out); });
}

TEST(ObliviousInstrumentationTest, DheForwardTraceIdenticalAcrossSecrets)
{
    Rng rng(54);
    dhe::DheConfig cfg;
    cfg.k = 16;
    cfg.fc_hidden = {8};
    cfg.out_dim = 4;
    auto dhe = std::make_shared<dhe::DheEmbedding>(cfg, rng);
    core::DheGenerator gen(dhe, 100);
    telemetry::SetEnabled(true);
    Tensor out({3, 4});

    sidechannel::TraceRecorder rec_a, rec_b;
    gen.set_recorder(&rec_a);
    const std::vector<int64_t> ids_a{0, 1, 2};
    gen.Generate(ids_a, out);
    gen.set_recorder(&rec_b);
    const std::vector<int64_t> ids_b{99, 55, 13};
    gen.Generate(ids_b, out);
    gen.set_recorder(nullptr);

    const auto report =
        verify::CompareCanonical(verify::Canonicalize(rec_a.trace()),
                                 verify::Canonicalize(rec_b.trace()));
    EXPECT_FALSE(report.diverged) << report.detail;
}

}  // namespace
}  // namespace secemb
