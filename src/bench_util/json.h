#pragma once

/**
 * @file
 * Minimal JSON support for machine-readable benchmark output: a streaming
 * writer (escaping, object/array nesting), a small recursive-descent
 * parser (used by the bench_smoke schema validator and tests), and the
 * schema-stable BenchReport emitter every bench binary shares via
 * --json <path>.
 *
 * Schema "secemb-bench-v1":
 * {
 *   "schema": "secemb-bench-v1",
 *   "bench": "<binary name>",
 *   "results": [
 *     { "name": "...",
 *       "params": { "<key>": <number|string>, ... },
 *       "latency_ns": { "count": N, "mean": ..., "min": ..., "max": ...,
 *                       "p50": ..., "p95": ..., "p99": ... },
 *       "counters": { "<telemetry counter>": N, ... } },
 *     ...
 *   ]
 * }
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace secemb::bench {

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/**
 * Streaming JSON writer. Keys and values must be emitted in a valid
 * order (Key before a value inside objects); commas are inserted
 * automatically.
 */
class JsonWriter
{
  public:
    JsonWriter& BeginObject();
    JsonWriter& EndObject();
    JsonWriter& BeginArray();
    JsonWriter& EndArray();
    JsonWriter& Key(std::string_view k);
    JsonWriter& Value(std::string_view v);
    JsonWriter& Value(const char* v) { return Value(std::string_view(v)); }
    JsonWriter& Value(double v);
    JsonWriter& Value(int64_t v);
    JsonWriter& Value(uint64_t v);
    JsonWriter& Value(bool v);
    /** Splice pre-serialised JSON verbatim (caller guarantees validity). */
    JsonWriter& Raw(std::string_view json);

    const std::string& str() const { return out_; }

  private:
    void MaybeComma();

    std::string out_;
    std::vector<bool> needs_comma_;  ///< one per open scope
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/** Parsed JSON value (numbers are doubles, objects are name-sorted maps). */
struct JsonValue
{
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind = Kind::kNull;
    bool bool_v = false;
    double num_v = 0.0;
    std::string str_v;
    std::vector<JsonValue> array_v;
    std::map<std::string, JsonValue> object_v;

    bool IsNumber() const { return kind == Kind::kNumber; }
    bool IsString() const { return kind == Kind::kString; }
    bool IsArray() const { return kind == Kind::kArray; }
    bool IsObject() const { return kind == Kind::kObject; }

    /** Member lookup; returns nullptr if not an object or key missing. */
    const JsonValue* Find(const std::string& key) const;
};

/**
 * Parse a complete JSON document. Returns false (and fills *error with a
 * position-annotated message) on malformed input or trailing garbage.
 */
bool JsonParse(std::string_view text, JsonValue* out, std::string* error);

// ---------------------------------------------------------------------------
// BenchReport
// ---------------------------------------------------------------------------

/** Latency summary computed exactly from raw samples (sorted reference). */
struct LatencyStats
{
    uint64_t count = 0;
    double mean_ns = 0.0;
    double min_ns = 0.0;
    double max_ns = 0.0;
    double p50_ns = 0.0;
    double p95_ns = 0.0;
    double p99_ns = 0.0;

    /**
     * Exact stats from raw samples: percentile p is the value at rank
     * ceil(p/100 * n) of the sorted samples (the same definition the
     * telemetry histogram approximates).
     */
    static LatencyStats FromSamples(std::vector<double> samples_ns);

    /** Degenerate stats from a single aggregate mean (gbench adapters). */
    static LatencyStats FromMean(double mean_ns, uint64_t count);
};

/**
 * Accumulates benchmark results and writes the secemb-bench-v1 document.
 * One instance per bench binary; AddResult once per measured
 * configuration.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name);

    struct Result
    {
        std::string name;
        std::vector<std::pair<std::string, double>> num_params;
        std::vector<std::pair<std::string, std::string>> str_params;
        LatencyStats latency;
        std::vector<std::pair<std::string, uint64_t>> counters;
    };

    Result& AddResult(std::string name);

    /**
     * Copy the current telemetry registry counter values into `result`
     * (sorted by name, skipping zero-valued counters).
     */
    static void AttachTelemetryCounters(Result& result);

    /** Serialise the report. */
    std::string ToJson() const;

    /** Write ToJson() to `path`; returns false on IO failure. */
    bool WriteTo(const std::string& path) const;

  private:
    std::string bench_name_;
    std::vector<std::unique_ptr<Result>> results_;  ///< stable refs
};

}  // namespace secemb::bench
