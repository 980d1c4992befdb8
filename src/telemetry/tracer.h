#pragma once

/**
 * @file
 * Low-overhead scoped-span tracer.
 *
 * Spans are recorded into fixed-capacity thread-local ring buffers (no
 * allocation, no locking on the hot path beyond one uncontended per-thread
 * mutex) and can be exported as chrome://tracing JSON. The whole facility
 * compiles out to nothing when the build sets SECEMB_TELEMETRY_ENABLED=0
 * (CMake option SECEMB_TELEMETRY=OFF) and is runtime-gated by
 * telemetry::SetEnabled otherwise.
 *
 * Security note (DESIGN.md "Observability"): span begin/end points depend
 * only on public control flow (which function ran, with what public
 * shapes), never on secret index values, so tracing an oblivious path does
 * not perturb its memory access pattern.
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace secemb::telemetry {

#if !defined(SECEMB_TELEMETRY_ENABLED)
#define SECEMB_TELEMETRY_ENABLED 1
#endif

/** One completed span. `name` must be a string literal (not owned). */
struct SpanEvent
{
    const char* name;
    uint64_t start_ns;  ///< relative to the process trace epoch
    uint64_t dur_ns;
    uint32_t tid;  ///< small dense thread id assigned at first span
};

/** Runtime master switch (compile-time switch is SECEMB_TELEMETRY). */
void SetEnabled(bool enabled);
bool Enabled();

/** Nanoseconds since the process trace epoch (steady clock). */
uint64_t NowNs();

/** Append one completed span to the calling thread's ring buffer. */
void RecordSpan(const char* name, uint64_t start_ns, uint64_t dur_ns);

/**
 * Snapshot of every span recorded so far (live thread rings plus rings of
 * already-exited threads), sorted by start time. Rings overwrite their
 * oldest entries when full.
 */
std::vector<SpanEvent> CollectSpans();

/** Discard all recorded spans (live and retired). */
void ClearSpans();

/**
 * Write all recorded spans as a chrome://tracing / Perfetto JSON document
 * ({"traceEvents": [...]}, "X" phase events, microsecond timestamps).
 * Returns false if the file cannot be written.
 */
bool WriteChromeTrace(const std::string& path);

/**
 * Escape a string for embedding in a JSON document (no quotes added):
 * quote, backslash, \n, \r and \t get their short escapes, other bytes
 * below 0x20 become \u00XX, and every other byte passes through. The
 * one escaper for every JSON this library writes: chrome traces, flight
 * recordings and bench reports.
 */
std::string JsonEscape(std::string_view s);

/** RAII span: records [construction, destruction) under `name`. */
class SpanGuard
{
  public:
    explicit SpanGuard(const char* name)
    {
        if (Enabled()) {
            name_ = name;
            start_ns_ = NowNs();
        }
    }

    ~SpanGuard()
    {
        if (name_ != nullptr) {
            RecordSpan(name_, start_ns_, NowNs() - start_ns_);
        }
    }

    SpanGuard(const SpanGuard&) = delete;
    SpanGuard& operator=(const SpanGuard&) = delete;

  private:
    const char* name_ = nullptr;  ///< nullptr = disabled at entry
    uint64_t start_ns_ = 0;
};

#define SECEMB_TELEMETRY_CONCAT2(a, b) a##b
#define SECEMB_TELEMETRY_CONCAT(a, b) SECEMB_TELEMETRY_CONCAT2(a, b)

#if SECEMB_TELEMETRY_ENABLED
/**
 * Open a scoped span named by a string literal:
 *   TELEMETRY_SPAN("gemm");
 * Compiles to ((void)0) when SECEMB_TELEMETRY=OFF.
 */
#define TELEMETRY_SPAN(name)                             \
    ::secemb::telemetry::SpanGuard SECEMB_TELEMETRY_CONCAT( \
        secemb_telemetry_span_, __LINE__)(name)
#else
#define TELEMETRY_SPAN(name) ((void)0)
#endif

}  // namespace secemb::telemetry
