#pragma once

/**
 * @file
 * Shared pieces of the end-to-end benchmark harness: run options, the
 * result record every workload fills, latency statistics, the in-memory
 * span log of the traced run, and the forwarding generator that records
 * one span per call into a layer below `core`.
 *
 * Everything here sits outside the library: spans are taken around
 * public API calls, and counts come only from public stats and the
 * telemetry registry.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/embedding_generator.h"

namespace e2ebench {

/** Command-line options of one harness process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test sizes: small tables and models, same code paths. */
    bool tiny = false;
    /** Spans file written at exit by a traced run. */
    std::string spans_path;
    /** Scratch directory for the file-backed store (serve). */
    std::string scratch_dir = ".bench_out";
    /** Planted delay: spin this long inside every call of the wrapper
     *  whose layer is `plant_layer` (traced runs only). */
    std::string plant_layer;
    int64_t plant_ns = 0;
};

/**
 * CPU-timed samples every process yields at least: the timed loops run past
 * --seconds until they have this many, so a process's p95 always has ten
 * samples beyond it (linear interpolation puts the p95 of n samples at
 * rank 0.95 (n - 1)).
 */
inline constexpr size_t kMinLatencySamples = 200;

/**
 * Compute threads of every workload (set_nthreads, GeneratorOptions,
 * ServerConfig). One, so that CPU time per operation is the operation's
 * own work: with two, a batch's process CPU time depended on whether the
 * helper thread found a free CPU (dlrm: 21 ms with it, 16 ms without).
 */
inline constexpr int kThreads = 1;

/** Steady-clock nanoseconds. */
int64_t NowNs();

/**
 * CPU time the live threads of this process have used so far, in
 * nanoseconds. The guest kernel leaves out the time the hypervisor gave
 * our CPUs to other guests (steal time), which wall time includes. Each
 * thread's own clock is read: the process clock skips what the other
 * running threads used since their last tick (up to 4 ms at HZ=250).
 * Every workload's threads live for the whole run.
 */
int64_t CpuNs();

/** Busy-wait for `ns` nanoseconds (planted delays). */
void SpinNs(int64_t ns);

/** Peak resident set of this process so far, in MB. */
double PeakRssMb();

/** Linear-interpolated percentile (q in [0,100]) of unsorted samples. */
double Percentile(std::vector<double> samples, double q);

/**
 * What a workload reports: every metric by name with its unit (a null
 * value means the signal could not be measured, never zero), the raw
 * latencies behind the end-to-end percentiles, and the operation and
 * output-check tallies.
 */
struct Result
{
    struct Metric
    {
        std::optional<double> value;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    /** Per-operation times in ms, in time order: wall ("latency_ms",
     *  "first_ms") and CPU ("cpu_ms", "first_cpu_ms"). run.py pools them
     *  across processes. */
    std::map<std::string, std::vector<double>> samples;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages

    void Set(const std::string& name, std::optional<double> value,
             const std::string& unit);
    /** Count one operation; `ok` false marks it failed with `why`. */
    void Check(bool ok, const std::string& why);
};

/**
 * Memory probe of the host, run between timed operations: one sweep over
 * a 32 MB buffer (a load per cache line) and 20000 steps of a dependent
 * random walk through an 8 MB one, each timed in CPU time. Their times
 * follow how much of the shared last-level cache and memory bandwidth
 * the other tenants leave this guest, which moved every workload's CPU
 * time by up to 1.7x within minutes. run.py rescales each process's CPU
 * times by a nominal probe time over the process's median probe time.
 */
class MemoryProbe
{
  public:
    /** Resident size of the probe's buffers, left out of peak_rss_mb. */
    static constexpr double kMb = 40.0;

    MemoryProbe();
    /** Run the probe if a quarter second passed since its last run; its
     *  CPU times go to res.samples["probe_sweep_ms"] and
     *  ["probe_chase_ms"]. */
    void MaybeRun(Result& res);

  private:
    static constexpr int64_t kEveryNs = 250000000;
    std::vector<float> sweep_;
    std::vector<uint32_t> chain_;
    int64_t next_ns_ = 0;
};

/**
 * Telemetry counter values, or differences of them, read by name from
 * the registry. Get() is null when telemetry is compiled out; a counter
 * the registry does not list never fired (counters register on first
 * use) and reads 0.
 */
class Counters
{
  public:
    static Counters Take();
    /** Per-name this - before, over the names this holds. */
    Counters Minus(const Counters& before) const;
    Counters& operator+=(const Counters& other);
    std::optional<double> Get(const std::string& name) const;
    bool Has(const std::string& name) const
    {
        return values_.count(name) != 0;
    }

  private:
    std::map<std::string, double> values_;
};

/** One recorded span. Times are steady-clock ns. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t group = 0;   ///< batch / request / query id
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::string_view name;       ///< a string literal
    std::string_view technique;  ///< generator name(); empty otherwise
    std::string_view layer;      ///< layer metric prefix; empty otherwise
    int feature = -1;
    int64_t ids = 0;
};

/**
 * In-memory span store of the traced run, shared by the caller threads
 * and the server's batcher thread; written to a file once at exit.
 */
class SpanLog
{
  public:
    uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
    void Add(const Span& span);
    /** Stable copy of `s` for the span technique views. */
    std::string_view Intern(std::string_view s);
    /** Drop every span recorded so far (end of warm-up). */
    void Clear();
    std::vector<Span> Snapshot() const;

  private:
    std::atomic<uint64_t> next_id_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::deque<std::string> strings_;
};

/** Write spans as JSON ({"format": ..., "spans": [...]}); false if the
 *  file cannot be written. */
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

/**
 * RAII span around a call on the current thread; nested ScopedSpans on
 * one thread become parent and child, and a child opened with group 0
 * joins its parent's group. A null log records nothing.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog* log, std::string_view name, uint64_t group);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    Span& span() { return span_; }

  private:
    SpanLog* log_;
    Span span_;
    uint64_t saved_parent_ = 0;
    uint64_t saved_group_ = 0;
};

/**
 * Map a generator's technique name to the layer metric prefix its time
 * is charged to: oblivious.scan, dhe, oram.circuit, oram.path,
 * oram.proxy or store.raw_oram.
 */
std::string_view LayerOf(std::string_view technique);

/**
 * Benchmark-side forwarding generator for the traced run: forwards every
 * virtual to the wrapped generator and records one span per generation
 * call with the feature, technique and id count. With a planted delay it
 * spins inside the span first, charging the time to this layer alone.
 */
class TracedGenerator final : public secemb::core::EmbeddingGenerator
{
  public:
    TracedGenerator(std::unique_ptr<secemb::core::EmbeddingGenerator> inner,
                    SpanLog& log, int feature, int64_t plant_ns);

    void Generate(std::span<const int64_t> indices,
                  secemb::Tensor& out) override;
    void GeneratePooled(std::span<const int64_t> indices,
                        std::span<const int64_t> offsets,
                        secemb::Tensor& out) override;
    int64_t dim() const override { return inner_->dim(); }
    int64_t num_rows() const override { return inner_->num_rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return inner_->MemoryFootprintBytes();
    }
    std::string_view name() const override { return inner_->name(); }
    bool IsOblivious() const override { return inner_->IsOblivious(); }
    void set_nthreads(int nthreads) override
    {
        inner_->set_nthreads(nthreads);
    }
    void set_precision(secemb::kernels::Dtype dtype) override
    {
        inner_->set_precision(dtype);
    }
    void set_recorder(secemb::sidechannel::TraceRecorder* recorder) override
    {
        inner_->set_recorder(recorder);
    }
    secemb::serving::Status SyncStorage() override
    {
        return inner_->SyncStorage();
    }
    secemb::serving::Status CheckpointStorage() override
    {
        return inner_->CheckpointStorage();
    }

  private:
    std::unique_ptr<secemb::core::EmbeddingGenerator> inner_;
    SpanLog& log_;
    int feature_;
    int64_t plant_ns_;
    std::string_view technique_;
    std::string_view layer_;
};

/**
 * Wrap `gen` in a TracedGenerator when `log` is non-null (traced run);
 * otherwise return it untouched, so untraced runs never see the wrapper.
 */
std::unique_ptr<secemb::core::EmbeddingGenerator> MaybeTrace(
    std::unique_ptr<secemb::core::EmbeddingGenerator> gen, SpanLog* log,
    int feature, const Options& opt);

/**
 * Per-layer metrics and how each reads on a workload that never calls
 * its layer: shares and counts are measured zeros; per-unit times and
 * ratios have no denominator and read null.
 */
enum class Kind
{
    kShare,  ///< % of the traced unit time
    kCount,  ///< per workload unit, or a run total
    kTime,   ///< ms per workload unit
    kRatio,  ///< ratio of two counts
};

struct LayerMetric
{
    std::string_view name;
    std::string_view unit;
    Kind kind;
};

inline constexpr LayerMetric kLayerMetrics[] = {
    {"bench.unit_ms", "ms", Kind::kTime},
    {"bench.send_lag_p95_ms", "ms", Kind::kTime},
    {"dlrm.mlp_pct", "%", Kind::kShare},
    {"dlrm.mlp_ms", "ms", Kind::kTime},
    {"llm.trunk_prefill_pct", "%", Kind::kShare},
    {"llm.trunk_prefill_ms", "ms", Kind::kTime},
    {"llm.trunk_decode_pct", "%", Kind::kShare},
    {"llm.trunk_decode_ms", "ms", Kind::kTime},
    {"oblivious.scan_pct", "%", Kind::kShare},
    {"oblivious.scan_ms", "ms", Kind::kTime},
    {"oblivious.scan_calls", "count", Kind::kCount},
    {"oblivious.scan_ids", "count", Kind::kCount},
    {"oblivious.scan_ids_per_call", "count", Kind::kRatio},
    {"oblivious.scan_mlanes", "count", Kind::kCount},
    {"oblivious.argmax_pct", "%", Kind::kShare},
    {"oblivious.argmax_ms", "ms", Kind::kTime},
    {"dhe.generate_pct", "%", Kind::kShare},
    {"dhe.generate_ms", "ms", Kind::kTime},
    {"dhe.prefill_pct", "%", Kind::kShare},
    {"dhe.prefill_ms", "ms", Kind::kTime},
    {"dhe.decode_pct", "%", Kind::kShare},
    {"dhe.decode_ms", "ms", Kind::kTime},
    {"tensor.gemm_gflop", "count", Kind::kCount},
    {"tensor.weight_mb", "MB", Kind::kCount},
    {"tensor.gemm_gflops", "GFLOP/s", Kind::kCount},
    {"tensor.weight_packs", "count", Kind::kCount},
    {"tensor.weight_cache_hits", "count", Kind::kCount},
    {"tensor.weight_cache_hit_ratio", "ratio", Kind::kRatio},
    {"tensor.pool_regions", "count", Kind::kCount},
    {"oram.circuit_pct", "%", Kind::kShare},
    {"oram.circuit_ms", "ms", Kind::kTime},
    {"oram.path_pct", "%", Kind::kShare},
    {"oram.path_ms", "ms", Kind::kTime},
    {"oram.proxy_pct", "%", Kind::kShare},
    {"oram.proxy_ms", "ms", Kind::kTime},
    {"oram.bucket_accesses", "count", Kind::kCount},
    {"oram.buckets_per_access", "count", Kind::kRatio},
    {"oram.proxy_coalesced", "count", Kind::kCount},
    {"oram.proxy_coalesced_frac", "ratio", Kind::kRatio},
    {"oram.proxy_dummy", "count", Kind::kCount},
    {"oram.proxy_dummy_frac", "ratio", Kind::kRatio},
    {"store.raw_oram_pct", "%", Kind::kShare},
    {"store.raw_oram_ms", "ms", Kind::kTime},
    {"store.page_reads", "count", Kind::kCount},
    {"store.page_writes", "count", Kind::kCount},
    {"store.cache_misses", "count", Kind::kCount},
    {"store.cache_hit_ratio", "ratio", Kind::kRatio},
    {"store.pages_read_per_access", "count", Kind::kRatio},
    {"store.pages_written_per_access", "count", Kind::kRatio},
    {"serving.self_pct", "%", Kind::kShare},
    {"serving.self_ms", "ms", Kind::kTime},
    {"serving.busy_pct", "%", Kind::kShare},
    {"serving.batches_open", "count", Kind::kCount},
    {"serving.batches_closed", "count", Kind::kCount},
    {"serving.requests_per_batch_open", "count", Kind::kRatio},
    {"serving.requests_per_batch_closed", "count", Kind::kRatio},
    {"serving.shed", "count", Kind::kCount},
    {"serving.deadline_exceeded", "count", Kind::kCount},
    {"serving.degraded_batches", "count", Kind::kCount},
    {"serving.retries", "count", Kind::kCount},
};

/** Set every per-layer metric the workload left unset by its Kind rule;
 *  throws if a workload set a name missing from kLayerMetrics. */
void FinishLayerMetrics(Result& res);

/** Set `<layer>_ms` and `<layer>_pct` from a layer's total traced time:
 *  per unit, and as a share of the total traced unit time. A layer with
 *  no calls keeps the Kind defaults. */
void SetLayerTime(Result& res, std::string_view layer, double layer_ns,
                  int64_t calls, double units, double unit_total_ns);

/** Traced time, calls and ids of one generator layer. */
struct LayerTotals
{
    double ns = 0.0;
    int64_t calls = 0;
    int64_t ids = 0;
};

/**
 * Sum the generator spans (those with a layer) of `spans` per layer, and
 * set every generator layer's time (DHE as dhe.generate) and the scan
 * counts per unit; the scanned lanes come from the telemetry counters in
 * `delta`. Returns the totals.
 */
std::map<std::string_view, LayerTotals> SetGeneratorLayers(
    Result& res, const std::vector<Span>& spans, double units,
    double unit_total_ns, const Counters& delta, int64_t dim);

/**
 * The tensor-layer counts every workload reports, per workload unit:
 * GEMM GFLOP, weight-cache hits and packs, pool regions, plus the weight
 * bytes the GEMMs read (computed from parameter shapes by the caller) and
 * the GEMM rate over `gemm_seconds` of traced time per unit.
 */
void SetTensorCounts(Result& res, const Counters& delta, double units,
                     double weight_bytes_per_unit,
                     double gemm_seconds_per_unit);

Result RunDlrm(const Options& opt);
Result RunLlm(const Options& opt);
Result RunServe(const Options& opt);

}  // namespace e2ebench
