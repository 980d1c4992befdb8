#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

namespace secemb::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

size_t
Histogram::BucketIndex(uint64_t value)
{
    if (value < kSubBuckets) return static_cast<size_t>(value);
    const int exp = 63 - std::countl_zero(value);
    const uint64_t sub = (value >> (exp - kSubBucketLog2)) - kSubBuckets;
    return kSubBuckets +
           static_cast<size_t>(exp - kSubBucketLog2) * kSubBuckets +
           static_cast<size_t>(sub);
}

void
Histogram::BucketRange(size_t idx, uint64_t* lo, uint64_t* hi)
{
    if (idx < kSubBuckets) {
        *lo = *hi = idx;
        return;
    }
    const size_t rel = idx - kSubBuckets;
    const int exp = kSubBucketLog2 + static_cast<int>(rel / kSubBuckets);
    const uint64_t sub = rel % kSubBuckets;
    *lo = (kSubBuckets + sub) << (exp - kSubBucketLog2);
    *hi = *lo + (1ull << (exp - kSubBucketLog2)) - 1;
}

void
Histogram::Record(uint64_t value) noexcept
{
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
    // Publish last: a reader that acquires a count of c sees the bucket,
    // sum, min and max updates of those c records, so a snapshot never
    // reports count > 0 with an empty range.
    count_.fetch_add(1, std::memory_order_release);
}

uint64_t
Histogram::Count() const
{
    return count_.load(std::memory_order_acquire);
}

uint64_t
Histogram::Sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::Percentile(double p) const
{
    const uint64_t count = Count();
    if (count == 0) return std::numeric_limits<double>::quiet_NaN();
    const uint64_t observed_min = min_.load(std::memory_order_relaxed);
    const uint64_t observed_max = max_.load(std::memory_order_relaxed);
    if (p <= 0.0) return static_cast<double>(observed_min);
    if (p >= 100.0) return static_cast<double>(observed_max);
    const uint64_t rank = std::clamp<uint64_t>(
        static_cast<uint64_t>(
            std::ceil(p / 100.0 * static_cast<double>(count))),
        1, count);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
        const uint64_t in_bucket =
            buckets_[i].load(std::memory_order_relaxed);
        cumulative += in_bucket;
        if (cumulative >= rank) {
            uint64_t lo = 0, hi = 0;
            BucketRange(i, &lo, &hi);
            // Bucket midpoint, clamped to the observed range so the first
            // and last buckets do not over/under-shoot min and max.
            const double mid =
                (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
            return std::clamp(mid, static_cast<double>(observed_min),
                              static_cast<double>(observed_max));
        }
    }
    return static_cast<double>(observed_max);  // unreachable
}

Histogram::Snapshot
Histogram::TakeSnapshot() const
{
    Snapshot s;
    s.count = Count();
    s.sum = Sum();
    if (s.count > 0) {
        s.min = min_.load(std::memory_order_relaxed);
        s.max = max_.load(std::memory_order_relaxed);
        s.mean = static_cast<double>(s.sum) / static_cast<double>(s.count);
        s.p50 = Percentile(50.0);
        s.p95 = Percentile(95.0);
        s.p99 = Percentile(99.0);
    }
    return s;
}

void
Histogram::Reset()
{
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(UINT64_MAX, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry::Impl
{
    mutable std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms;
};

Registry::Impl&
Registry::impl() const
{
    // Leaked so instrumented code in static destructors stays safe.
    static Impl* impl = new Impl();
    return *impl;
}

Registry&
Registry::Instance()
{
    static Registry registry;
    return registry;
}

Counter&
Registry::GetCounter(std::string_view name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.counters.find(name);
    if (it == im.counters.end()) {
        it = im.counters
                 .emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Histogram&
Registry::GetHistogram(std::string_view name)
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.histograms.find(name);
    if (it == im.histograms.end()) {
        it = im.histograms
                 .emplace(std::string(name),
                          std::make_unique<Histogram>())
                 .first;
    }
    return *it->second;
}

Registry::MetricsSnapshot
Registry::TakeSnapshot() const
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    MetricsSnapshot snap;
    for (const auto& [name, c] : im.counters) {
        snap.counters.emplace_back(name, c->Value());
    }
    for (const auto& [name, h] : im.histograms) {
        snap.histograms.emplace_back(name, h->TakeSnapshot());
    }
    return snap;
}

void
Registry::ResetAll()
{
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& [name, c] : im.counters) c->Reset();
    for (auto& [name, h] : im.histograms) h->Reset();
}

}  // namespace secemb::telemetry
