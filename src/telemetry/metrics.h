#pragma once

/**
 * @file
 * Metrics registry: branchless counters and log-bucketed histograms
 * (p50/p95/p99).
 *
 * All mutation paths are wait-free atomic updates whose control flow never
 * depends on secret data: a counter increment happens for every call of an
 * instrumented function regardless of the index values it was given, which
 * is the repo's obliviousness-preserving instrumentation rule (see
 * DESIGN.md "Observability").
 */

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/tracer.h"

namespace secemb::telemetry {

/** Monotonic event counter. Add() is a single relaxed fetch_add. */
class Counter
{
  public:
    void
    Add(uint64_t n = 1) noexcept
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t
    Value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void Reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Log-linear bucketed histogram for non-negative integer samples
 * (latencies in ns). Values below 2^kSubBucketLog2 get exact buckets;
 * above, each power of two is split into 2^kSubBucketLog2 sub-buckets, so
 * the relative bucket width — and hence the worst-case percentile error —
 * is 2^-kSubBucketLog2 (6.25%). Recording is two relaxed atomic adds plus
 * bounded min/max CAS loops; no allocation after construction.
 */
class Histogram
{
  public:
    static constexpr int kSubBucketLog2 = 4;
    static constexpr uint64_t kSubBuckets = 1ull << kSubBucketLog2;
    /** Exact buckets [0, kSubBuckets) + 16 sub-buckets per exponent. */
    static constexpr size_t kNumBuckets =
        kSubBuckets + (64 - kSubBucketLog2) * kSubBuckets;

    /** Point-in-time summary. With count == 0 there is no data to
     *  summarise, so mean/p50/p95/p99 are NaN (serialised as null by
     *  JsonWriter) rather than a misleading 0.0. */
    struct Snapshot
    {
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t min = 0;
        uint64_t max = 0;
        double mean = std::numeric_limits<double>::quiet_NaN();
        double p50 = std::numeric_limits<double>::quiet_NaN();
        double p95 = std::numeric_limits<double>::quiet_NaN();
        double p99 = std::numeric_limits<double>::quiet_NaN();
    };

    Histogram() = default;

    void Record(uint64_t value) noexcept;

    /**
     * Approximate value at percentile p in [0, 100]; returns NaN for an
     * empty histogram (there is no sample to report — 0 would be
     * indistinguishable from a real 0ns latency). p <= 0 reports the
     * minimum, p >= 100 the maximum.
     */
    double Percentile(double p) const;

    uint64_t Count() const;
    uint64_t Sum() const;
    Snapshot TakeSnapshot() const;
    void Reset();

    /** Bucket index for a sample value (exposed for tests). */
    static size_t BucketIndex(uint64_t value);
    /** Inclusive [lo, hi] value range covered by bucket `idx`. */
    static void BucketRange(size_t idx, uint64_t* lo, uint64_t* hi);

  private:
    std::atomic<uint64_t> buckets_[kNumBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> min_{UINT64_MAX};
    std::atomic<uint64_t> max_{0};
};

/**
 * Process-wide metric registry. Get* registers on first use and returns a
 * reference that stays valid for the process lifetime; lookups take a
 * mutex, so instrumentation sites cache the reference in a function-local
 * static (what the TELEMETRY_* macros below do).
 */
class Registry
{
  public:
    static Registry& Instance();

    Counter& GetCounter(std::string_view name);
    Histogram& GetHistogram(std::string_view name);

    struct MetricsSnapshot
    {
        std::vector<std::pair<std::string, uint64_t>> counters;
        std::vector<std::pair<std::string, Histogram::Snapshot>>
            histograms;
    };

    /** Name-sorted snapshot of every registered metric. */
    MetricsSnapshot TakeSnapshot() const;

    /** Zero every metric (registrations are kept). Test/bench helper. */
    void ResetAll();

  private:
    Registry() = default;
    struct Impl;
    Impl& impl() const;
};

#if SECEMB_TELEMETRY_ENABLED
/** Add `n` to process counter `name` (string literal). */
#define TELEMETRY_COUNT(name, n)                                          \
    do {                                                                  \
        if (::secemb::telemetry::Enabled()) {                             \
            static ::secemb::telemetry::Counter& secemb_telemetry_c =     \
                ::secemb::telemetry::Registry::Instance().GetCounter(     \
                    name);                                                \
            secemb_telemetry_c.Add(static_cast<uint64_t>(n));             \
        }                                                                 \
    } while (0)

/** Record a sample into histogram `name` (string literal). A name that
 *  no production binary's source reads fails scripts/reachability.sh. */
#define TELEMETRY_HIST(name, v)                                           \
    do {                                                                  \
        if (::secemb::telemetry::Enabled()) {                             \
            static ::secemb::telemetry::Histogram& secemb_telemetry_h =   \
                ::secemb::telemetry::Registry::Instance().GetHistogram(   \
                    name);                                                \
            secemb_telemetry_h.Record(static_cast<uint64_t>(v));          \
        }                                                                 \
    } while (0)
#else
#define TELEMETRY_COUNT(name, n) ((void)0)
#define TELEMETRY_HIST(name, v) ((void)0)
#endif

}  // namespace secemb::telemetry
