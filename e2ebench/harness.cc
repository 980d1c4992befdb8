#include "harness.h"

#include <dirent.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench_util/json.h"
#include "telemetry/metrics.h"

namespace e2ebench {

int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

int64_t
CpuNs()
{
    auto read = [](clockid_t clock) -> int64_t {
        timespec ts{};
        if (clock_gettime(clock, &ts) != 0) return 0;
        return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
    };
    DIR* tasks = opendir("/proc/self/task");
    if (tasks == nullptr) return read(CLOCK_PROCESS_CPUTIME_ID);
    int64_t total = 0;
    while (const dirent* e = readdir(tasks)) {
        if (e->d_name[0] == '.') continue;
        // The CPU clock of one thread, as the kernel numbers it
        // (MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)).
        const clockid_t tid = std::atoi(e->d_name);
        total += read(~tid * 8 + 6);
    }
    closedir(tasks);
    return total;
}

MemoryProbe::MemoryProbe() : sweep_(size_t{32} << 18, 1.0f)
{
    // One link per 64-byte line of an 8 MB buffer, in a fixed random
    // cycle, so every step of the walk waits for the previous load.
    const uint32_t lines = (8u << 20) / 64;
    std::vector<uint32_t> order(lines);
    for (uint32_t i = 0; i < lines; ++i) order[i] = i;
    uint64_t z = 12345;
    for (uint32_t i = lines - 1; i > 0; --i) {
        z = z * 6364136223846793005ull + 1442695040888963407ull;
        std::swap(order[i], order[(z >> 33) % (i + 1)]);
    }
    chain_.assign(size_t{lines} * 16, 0);
    for (uint32_t i = 0; i < lines; ++i) {
        chain_[size_t{order[i]} * 16] = order[(i + 1) % lines] * 16;
    }
}

void
MemoryProbe::MaybeRun(Result& res)
{
    const int64_t now = NowNs();
    if (now < next_ns_) return;
    next_ns_ = now + kEveryNs;
    const int64_t c0 = CpuNs();
    float acc[16] = {};
    for (size_t i = 0; i < sweep_.size(); i += 16) {
        acc[(i >> 4) & 15] += sweep_[i];
    }
    asm volatile("" : : "r"(acc) : "memory");
    const int64_t c1 = CpuNs();
    uint32_t at = 0;
    for (int i = 0; i < 20000; ++i) at = chain_[at];
    asm volatile("" : : "r"(at) : "memory");
    res.samples["probe_sweep_ms"].push_back((c1 - c0) * 1e-6);
    res.samples["probe_chase_ms"].push_back((CpuNs() - c1) * 1e-6);
}

void
SpinNs(int64_t ns)
{
    const int64_t until = NowNs() + ns;
    while (NowNs() < until) {
    }
}

double
PeakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double
Percentile(std::vector<double> samples, double q)
{
    if (samples.empty()) return NAN;
    std::sort(samples.begin(), samples.end());
    const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

void
Result::Set(const std::string& name, std::optional<double> value,
            const std::string& unit)
{
    if (value && !std::isfinite(*value)) value.reset();
    metrics[name] = Metric{value, unit};
}

void
Result::Check(bool ok, const std::string& why)
{
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(why);
}

Counters
Counters::Take()
{
    Counters c;
    for (const auto& [name, value] :
         secemb::telemetry::Registry::Instance().TakeSnapshot().counters) {
        c.values_[name] = static_cast<double>(value);
    }
    return c;
}

Counters
Counters::Minus(const Counters& before) const
{
    Counters d;
    for (const auto& [name, value] : values_) {
        const auto then = before.values_.find(name);
        d.values_[name] =
            value - (then == before.values_.end() ? 0.0 : then->second);
    }
    return d;
}

Counters&
Counters::operator+=(const Counters& other)
{
    for (const auto& [name, value] : other.values_) values_[name] += value;
    return *this;
}

std::optional<double>
Counters::Get(const std::string& name) const
{
    if (!SECEMB_TELEMETRY_ENABLED) return std::nullopt;
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void
SpanLog::Add(const Span& span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::string_view
SpanLog::Intern(std::string_view s)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& have : strings_) {
        if (have == s) return have;
    }
    return strings_.emplace_back(s);
}

void
SpanLog::Clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

std::vector<Span>
SpanLog::Snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

namespace {

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_group = 0;

}  // namespace

bool
WriteSpans(const std::string& path, const std::vector<Span>& spans)
{
    secemb::bench::JsonWriter w;
    w.BeginObject();
    w.Key("format").Value("e2ebench-spans-v1");
    w.Key("spans").BeginArray();
    for (const Span& s : spans) {
        w.BeginObject();
        w.Key("id").Value(s.id);
        w.Key("parent").Value(s.parent);
        w.Key("group").Value(s.group);
        w.Key("name").Value(s.name);
        w.Key("start_ns").Value(s.start_ns);
        w.Key("end_ns").Value(s.end_ns);
        w.Key("feature").Value(int64_t{s.feature});
        w.Key("technique").Value(s.technique);
        w.Key("layer").Value(s.layer);
        w.Key("ids").Value(s.ids);
        w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    std::ofstream os(path);
    os << w.str() << '\n';
    return static_cast<bool>(os);
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string_view name, uint64_t group)
    : log_(log)
{
    if (log_ == nullptr) return;
    span_.id = log_->NextId();
    span_.parent = t_current_span;
    span_.group = group != 0 ? group : t_group;
    span_.name = name;
    saved_parent_ = t_current_span;
    saved_group_ = t_group;
    t_current_span = span_.id;
    t_group = span_.group;
    span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (log_ == nullptr) return;
    span_.end_ns = NowNs();
    t_current_span = saved_parent_;
    t_group = saved_group_;
    log_->Add(span_);
}

std::string_view
LayerOf(std::string_view technique)
{
    if (technique.find("LinearScan") != std::string_view::npos ||
        technique.find("Linear Scan") != std::string_view::npos) {
        return "oblivious.scan";
    }
    if (technique.find("DHE") != std::string_view::npos) return "dhe";
    if (technique.find("RAW ORAM") != std::string_view::npos) {
        return "store.raw_oram";
    }
    if (technique.find("(proxy)") != std::string_view::npos) {
        return "oram.proxy";
    }
    if (technique.find("Circuit ORAM") != std::string_view::npos) {
        return "oram.circuit";
    }
    if (technique.find("Path ORAM") != std::string_view::npos) {
        return "oram.path";
    }
    return "other";
}

TracedGenerator::TracedGenerator(
    std::unique_ptr<secemb::core::EmbeddingGenerator> inner, SpanLog& log,
    int feature, int64_t plant_ns)
    : inner_(std::move(inner)), log_(log), feature_(feature),
      plant_ns_(plant_ns), technique_(log.Intern(inner_->name())),
      layer_(LayerOf(technique_))
{
}

void
TracedGenerator::Generate(std::span<const int64_t> indices,
                          secemb::Tensor& out)
{
    ScopedSpan s(&log_, "generate", 0);
    s.span().technique = technique_;
    s.span().layer = layer_;
    s.span().feature = feature_;
    s.span().ids = static_cast<int64_t>(indices.size());
    if (plant_ns_ > 0) SpinNs(plant_ns_);
    inner_->Generate(indices, out);
}

void
TracedGenerator::GeneratePooled(std::span<const int64_t> indices,
                                std::span<const int64_t> offsets,
                                secemb::Tensor& out)
{
    ScopedSpan s(&log_, "generate_pooled", 0);
    s.span().technique = technique_;
    s.span().layer = layer_;
    s.span().feature = feature_;
    s.span().ids = static_cast<int64_t>(indices.size());
    if (plant_ns_ > 0) SpinNs(plant_ns_);
    inner_->GeneratePooled(indices, offsets, out);
}

std::unique_ptr<secemb::core::EmbeddingGenerator>
MaybeTrace(std::unique_ptr<secemb::core::EmbeddingGenerator> gen,
           SpanLog* log, int feature, const Options& opt)
{
    if (log == nullptr) return gen;
    const int64_t plant =
        opt.plant_layer == LayerOf(gen->name()) ? opt.plant_ns : 0;
    return std::make_unique<TracedGenerator>(std::move(gen), *log, feature,
                                             plant);
}

void
FinishLayerMetrics(Result& res)
{
    for (const auto& [name, metric] : res.metrics) {
        (void)metric;
        if (name.find('.') == std::string::npos) continue;  // end to end
        bool known = false;
        for (const LayerMetric& m : kLayerMetrics) known |= m.name == name;
        if (!known) throw std::logic_error("unlisted metric " + name);
    }
    for (const LayerMetric& m : kLayerMetrics) {
        const std::string name(m.name);
        if (res.metrics.count(name) != 0) continue;
        const bool zero = m.kind == Kind::kShare || m.kind == Kind::kCount;
        res.Set(name, zero ? std::optional<double>(0.0) : std::nullopt,
                std::string(m.unit));
    }
}

void
SetLayerTime(Result& res, std::string_view layer, double layer_ns,
             int64_t calls, double units, double unit_total_ns)
{
    if (calls == 0) return;
    const std::string l(layer);
    res.Set(l + "_ms", layer_ns / units * 1e-6, "ms");
    res.Set(l + "_pct", 100.0 * layer_ns / unit_total_ns, "%");
}

std::map<std::string_view, LayerTotals>
SetGeneratorLayers(Result& res, const std::vector<Span>& spans, double units,
                   double unit_total_ns, const Counters& delta, int64_t dim)
{
    std::map<std::string_view, LayerTotals> totals;
    for (const Span& s : spans) {
        if (s.layer.empty()) continue;
        LayerTotals& t = totals[s.layer];
        t.ns += static_cast<double>(s.end_ns - s.start_ns);
        t.calls += 1;
        t.ids += s.ids;
    }
    for (const std::string_view layer :
         {"oblivious.scan", "dhe", "oram.circuit", "oram.path", "oram.proxy",
          "store.raw_oram"}) {
        const LayerTotals& t = totals[layer];
        SetLayerTime(res, layer == "dhe" ? "dhe.generate" : layer, t.ns,
                     t.calls, units, unit_total_ns);
    }
    const LayerTotals& scan = totals["oblivious.scan"];
    res.Set("oblivious.scan_calls", scan.calls / units, "count");
    res.Set("oblivious.scan_ids", scan.ids / units, "count");
    if (scan.calls > 0) {
        res.Set("oblivious.scan_ids_per_call",
                static_cast<double>(scan.ids) / scan.calls, "count");
    }
    std::optional<double> rows = delta.Get("oblivious.vscan.rows");
    const std::optional<double> scalar_rows = delta.Get("oblivious.scan.rows");
    if (rows && scalar_rows) *rows += *scalar_rows;
    res.Set("oblivious.scan_mlanes",
            rows ? std::optional<double>(*rows * dim / units * 1e-6)
                 : std::nullopt,
            "count");
    return totals;
}

void
SetTensorCounts(Result& res, const Counters& delta, double units,
                double weight_bytes_per_unit, double gemm_seconds_per_unit)
{
    auto per_unit = [&](const char* counter) -> std::optional<double> {
        const std::optional<double> v = delta.Get(counter);
        if (!v) return std::nullopt;
        return *v / units;
    };
    const std::optional<double> flops = per_unit("tensor.gemm.flops");
    const std::optional<double> gflop =
        flops ? std::optional<double>(*flops * 1e-9) : std::nullopt;
    res.Set("tensor.gemm_gflop", gflop, "count");
    res.Set("tensor.weight_mb", weight_bytes_per_unit * 1e-6, "MB");
    std::optional<double> rate;
    if (gflop) {
        rate = *gflop == 0.0 ? 0.0 : *gflop / gemm_seconds_per_unit;
    }
    res.Set("tensor.gemm_gflops", rate, "GFLOP/s");

    // Cached GEMMs bump exactly one of hits / misses / repacks. GEMMs
    // that ran with none of them registered mean the cache is gone: no
    // hit ratio to report, rather than a zero one.
    std::optional<double> hits = per_unit("kernels.cache.hits");
    std::optional<double> packs = per_unit("kernels.cache.misses");
    const std::optional<double> repacks = per_unit("kernels.cache.repacks");
    if (flops && *flops > 0 && !delta.Has("kernels.cache.hits") &&
        !delta.Has("kernels.cache.misses")) {
        hits.reset();
        packs.reset();
    }
    if (packs && repacks) *packs += *repacks;
    res.Set("tensor.weight_packs", packs, "count");
    res.Set("tensor.weight_cache_hits", hits, "count");
    if (hits && packs && *hits + *packs > 0) {
        res.Set("tensor.weight_cache_hit_ratio", *hits / (*hits + *packs),
                "ratio");
    }
    res.Set("tensor.pool_regions", per_unit("pool.regions"), "count");
}

}  // namespace e2ebench
