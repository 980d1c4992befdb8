/**
 * @file
 * `serve` workload: online serving of exact tables through
 * serving::Server. The server hosts the Criteo-Terabyte spectrum scaled
 * 1/2000 (dim 64, random tables kept here for reference), with the
 * technique a public function of table size: linear scan for small
 * tables, Circuit, Path and proxied Path ORAM for the large ones, and
 * RAW ORAM on a file-backed store for the largest. A query is one
 * impression: 26 single-id requests, one per feature, complete when the
 * last response arrives.
 *
 * Three phases: an open loop of Poisson arrivals at a fixed 25 queries/s
 * (about a quarter of capacity, so queueing does not amplify service-time
 * drift) for 35% of the run's length in expected arrivals, each query
 * timed from its due time; one query at a time for 35%, each timed in
 * CPU time; then a closed loop with 4 queries outstanding for
 * the rest of the run, for capacity. The only workload with serving, ORAM
 * and store, and it runs no GEMM: the control for kernel changes, and the
 * one that calls the scan with a few ids instead of 32.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/factory.h"
#include "core/paged_generators.h"
#include "core/table_generators.h"
#include "dlrm/config.h"
#include "dlrm/dataset.h"
#include "harness.h"
#include "serving/server.h"

namespace e2ebench {

using namespace secemb;

namespace {

constexpr int64_t kDim = 64;
constexpr uint64_t kTableSeed = 0x7ab1e;  // tables + ORAM randomness
constexpr double kOpenRate = 25.0;        // queries per second
constexpr double kOpenShare = 0.35;       // of the run: open loop
constexpr double kSequentialShare = 0.35; // one query in flight; then closed
constexpr int kOutstanding = 4;           // closed-loop queries in flight
constexpr int kWarmupQueries = 16;
constexpr int kInputQueries = 1024;       // distinct queries, cycled

/**
 * Table-size scale: 1/2000 of Terabyte (1/10000 for the self-test). At
 * 1/200 the ORAM trees kept ~380 MB resident, which competes with other
 * tenants for the host's shared last-level cache: runs of one seed moved
 * query p50 by up to 2x. At 1/2000 every feature keeps its technique.
 */
int64_t
Scale(const Options& opt)
{
    return opt.tiny ? 10000 : 2000;
}

/**
 * The technique is a public function of table size, stated on the
 * feature's unscaled cardinality (rows x scale). The bounds sit between
 * the Terabyte sizes: the 20 features below 819200 are scanned; 1333352
 * and 7267859 get Circuit ORAM, 9758201 Path ORAM, 9946608 and 9980333
 * the proxied Path ORAM, and 9994222 RAW ORAM.
 */
core::GenKind
TechniqueFor(int64_t rows, int64_t scale)
{
    const int64_t full = rows * scale;
    if (full < 819200) return core::GenKind::kLinearScan;
    if (full < 8000000) return core::GenKind::kCircuitOram;
    if (full < 9800000) return core::GenKind::kPathOram;
    if (full < 9990000) return core::GenKind::kProxyOram;
    return core::GenKind::kRawOram;
}

/** Public stats of the generators that keep them, summed per layer. */
struct Stats
{
    double oram_accesses = 0, buckets = 0;
    double proxy_requests = 0, proxy_physical = 0, proxy_coalesced = 0,
           proxy_dummy = 0;
    double raw_accesses = 0, page_reads = 0, page_writes = 0,
           cache_hits = 0, cache_misses = 0;
    double batches = 0, completed = 0;  ///< ServerStats

    Stats Minus(const Stats& o) const
    {
        Stats d = *this;
        d.oram_accesses -= o.oram_accesses;
        d.buckets -= o.buckets;
        d.proxy_requests -= o.proxy_requests;
        d.proxy_physical -= o.proxy_physical;
        d.proxy_coalesced -= o.proxy_coalesced;
        d.proxy_dummy -= o.proxy_dummy;
        d.raw_accesses -= o.raw_accesses;
        d.page_reads -= o.page_reads;
        d.page_writes -= o.page_writes;
        d.cache_hits -= o.cache_hits;
        d.cache_misses -= o.cache_misses;
        d.batches -= o.batches;
        d.completed -= o.completed;
        return d;
    }
};

struct Deployment
{
    Deployment() = default;
    Deployment(const Deployment&) = delete;
    Deployment& operator=(const Deployment&) = delete;

    std::vector<Tensor> tables;  ///< the reference rows
    std::vector<oram::TreeOram*> trees;
    std::vector<oram::OramProxy*> proxies;
    std::vector<store::RawOram*> raws;
    std::unique_ptr<serving::Server> server;
    std::filesystem::path dir;

    ~Deployment()
    {
        server.reset();
        if (!dir.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }

    Stats Read() const
    {
        Stats s;
        for (const oram::TreeOram* t : trees) {
            s.oram_accesses += static_cast<double>(t->stats().accesses);
            s.buckets += static_cast<double>(t->stats().bucket_reads +
                                             t->stats().bucket_writes);
        }
        for (const oram::OramProxy* p : proxies) {
            const oram::ProxyStats ps = p->stats();
            s.proxy_requests += static_cast<double>(ps.requests);
            s.proxy_physical += static_cast<double>(ps.physical_accesses);
            s.proxy_coalesced += static_cast<double>(ps.coalesced);
            s.proxy_dummy += static_cast<double>(ps.dummy_accesses);
        }
        for (const store::RawOram* r : raws) {
            s.raw_accesses += static_cast<double>(r->stats().accesses);
            s.page_reads += static_cast<double>(r->stats().page_reads);
            s.page_writes += static_cast<double>(r->stats().page_writes);
            const store::PageCacheStats cs = r->cache_stats();
            s.cache_hits += static_cast<double>(cs.hits);
            s.cache_misses += static_cast<double>(cs.misses);
        }
        const serving::ServerStats ss = server->GetStats();
        s.batches = static_cast<double>(ss.batches);
        s.completed = static_cast<double>(ss.completed);
        return s;
    }
};

using Query = std::vector<int64_t>;  ///< one id per feature

struct Outcome
{
    int64_t first_end_ns = 0;  ///< first response
    int64_t last_end_ns = 0;   ///< last response: the query completes
    std::vector<int64_t> end_ns;  ///< per request
};

/** Submit one query's 26 requests; `submit_ns` gets each submit time. */
std::vector<std::future<serving::Response>>
Submit(serving::Server& server, const Query& q,
       std::vector<int64_t>* submit_ns)
{
    std::vector<std::future<serving::Response>> futures;
    futures.reserve(q.size());
    submit_ns->clear();
    for (size_t f = 0; f < q.size(); ++f) {
        serving::Request req;
        req.feature = static_cast<int>(f);
        req.indices = {q[f]};
        submit_ns->push_back(NowNs());
        futures.push_back(server.Submit(std::move(req)));
    }
    return futures;
}

/** Wait for every response of one query. */
std::vector<serving::Response>
Wait(std::vector<std::future<serving::Response>>& futures)
{
    std::vector<serving::Response> responses;
    responses.reserve(futures.size());
    for (auto& f : futures) responses.push_back(f.get());
    return responses;
}

/** Check each response row against the reference table. Ends are submit
 *  time + the server's submit-to-fulfil latency. */
Outcome
Collect(Deployment& d, const Query& q,
        const std::vector<serving::Response>& responses,
        const std::vector<int64_t>& submit_ns, Result& res)
{
    Outcome out{INT64_MAX, 0, {}};
    for (size_t f = 0; f < responses.size(); ++f) {
        const serving::Response& r = responses[f];
        const int64_t end =
            submit_ns[f] + static_cast<int64_t>(r.e2e_ns);
        out.end_ns.push_back(end);
        out.first_end_ns = std::min(out.first_end_ns, end);
        out.last_end_ns = std::max(out.last_end_ns, end);
        const bool ok =
            r.status.ok() && r.embeddings.numel() == kDim &&
            std::memcmp(r.embeddings.data(),
                        d.tables[f].row(q[f]).data(),
                        kDim * sizeof(float)) == 0;
        res.Check(ok, "serve: feature " + std::to_string(f) + " id " +
                          std::to_string(q[f]) + ": " +
                          (r.status.ok() ? "row differs from the table"
                                         : r.status.ToString()));
    }
    return out;
}

std::unique_ptr<Deployment>
SetUp(const Options& opt, SpanLog* log, const std::vector<Query>& warm)
{
    auto d = std::make_unique<Deployment>();
    const int64_t scale = Scale(opt);
    const dlrm::DlrmConfig cfg =
        dlrm::DlrmConfig::CriteoTerabyte().Scaled(scale);
    d->dir = std::filesystem::path(opt.scratch_dir) /
             ("serve-" + std::to_string(getpid()) + "-" +
              std::to_string(NowNs()));
    std::filesystem::create_directories(d->dir);
    store::StoreConfig sc;
    sc.backend = store::StoreBackend::kFile;
    sc.path = (d->dir / "raw_oram.store").string();

    Rng rng(kTableSeed);
    core::GeneratorOptions gopt;
    gopt.nthreads = kThreads;
    gopt.store = &sc;
    std::vector<std::shared_ptr<core::EmbeddingGenerator>> features;
    for (int64_t f = 0; f < cfg.num_sparse(); ++f) {
        const int64_t rows = cfg.table_sizes[static_cast<size_t>(f)];
        d->tables.push_back(Tensor::Randn(
            {rows, kDim}, rng, 1.0f / std::sqrt(static_cast<float>(kDim))));
        gopt.table = &d->tables.back();
        std::unique_ptr<core::EmbeddingGenerator> gen = core::MakeGenerator(
            TechniqueFor(rows, scale), rows, kDim, rng, gopt);
        if (auto* t = dynamic_cast<core::OramTable*>(gen.get())) {
            d->trees.push_back(&t->oram());
        } else if (auto* p = dynamic_cast<core::ProxiedOramTable*>(gen.get())) {
            d->trees.push_back(&p->proxy().oram());
            d->proxies.push_back(&p->proxy());
        } else if (auto* r = dynamic_cast<core::RawOramTable*>(gen.get())) {
            d->raws.push_back(&r->oram());
        }
        features.push_back(
            MaybeTrace(std::move(gen), log, static_cast<int>(f), opt));
    }
    serving::ServerConfig cfg_srv;
    cfg_srv.queue_capacity = 256;
    cfg_srv.max_batch = 128;
    cfg_srv.flush_deadline_us = 200;
    // The 100 ms default deadline is shorter than a hypervisor stall on
    // top of four queued queries; a deadline here only catches a wedged
    // server, the latency metrics measure the rest.
    cfg_srv.default_deadline_us = 1000000;
    cfg_srv.nthreads = kThreads;
    d->server = std::make_unique<serving::Server>(std::move(features),
                                                  cfg_srv);
    Result scratch;
    std::vector<int64_t> submit_ns;
    for (const Query& q : warm) {
        auto futures = Submit(*d->server, q, &submit_ns);
        Collect(*d, q, Wait(futures), submit_ns, scratch);
    }
    return d;
}

}  // namespace

Result
RunServe(const Options& opt)
{
    const int64_t process_start_ns = NowNs();
    Result res;

    // Queries and the arrival schedule depend on the workload seed only;
    // ids follow the power-law popularity of the CTR dataset.
    const dlrm::DlrmConfig cfg =
        dlrm::DlrmConfig::CriteoTerabyte().Scaled(Scale(opt));
    dlrm::SyntheticCtrDataset data(cfg, opt.seed);
    std::vector<Query> queries(kInputQueries);
    for (Query& q : queries) {
        for (const int64_t rows : cfg.table_sizes) {
            q.push_back(data.SampleIndex(rows));
        }
    }
    const std::vector<Query> warm(queries.end() - kWarmupQueries,
                                  queries.end());
    // The open loop is sized by count, not by time: its share of the run
    // times the rate. run.py pools the open-loop samples of a run's
    // processes for their percentiles.
    const size_t n_open = static_cast<size_t>(
        std::ceil(opt.seconds * kOpenShare * kOpenRate));
    std::vector<int64_t> due_offset_ns;
    {
        Rng arrivals(opt.seed ^ 0xa5a5a5a5ull);
        double t = 0.0;
        while (due_offset_ns.size() < n_open) {
            t += -std::log(1.0 - arrivals.NextDouble()) / kOpenRate;
            due_offset_ns.push_back(static_cast<int64_t>(t * 1e9));
        }
    }

    std::unique_ptr<SpanLog> log =
        opt.trace ? std::make_unique<SpanLog>() : nullptr;
    std::unique_ptr<Deployment> d = SetUp(opt, log.get(), warm);
    res.Set("setup_cpu_s", CpuNs() * 1e-9, "s");
    res.Set("setup_wall_s", (NowNs() - process_start_ns) * 1e-9, "s");
    serving::Server& server = *d->server;

    // Open loop: submit on schedule, never waiting for responses.
    if (log) log->Clear();
    const Counters before = Counters::Take();
    const Stats open_before = d->Read();
    std::vector<std::vector<std::future<serving::Response>>> futures(n_open);
    std::vector<std::vector<int64_t>> submit_ns(n_open);
    std::vector<double> lag_ns;
    const int64_t open_start = NowNs();
    for (size_t k = 0; k < n_open; ++k) {
        const int64_t due = open_start + due_offset_ns[k];
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        futures[k] = Submit(server, queries[k % queries.size()],
                            &submit_ns[k]);
        lag_ns.push_back(static_cast<double>(submit_ns[k][0] - due));
    }
    std::vector<double> query_ns, first_ns;
    std::vector<std::pair<int64_t, int64_t>> query_spans;
    std::vector<Span> spans;
    for (size_t k = 0; k < n_open; ++k) {
        const int64_t due = open_start + due_offset_ns[k];
        const Outcome o = Collect(*d, queries[k % queries.size()],
                                  Wait(futures[k]), submit_ns[k], res);
        query_ns.push_back(static_cast<double>(o.last_end_ns - due));
        first_ns.push_back(static_cast<double>(o.first_end_ns - due));
        query_spans.emplace_back(due, o.last_end_ns);
        if (log) {
            // Query (due -> last response) and request (submit ->
            // response) spans, from the measured times.
            Span qs;
            qs.id = log->NextId();
            qs.group = k + 1;
            qs.name = "query";
            qs.start_ns = due;
            qs.end_ns = o.last_end_ns;
            spans.push_back(qs);
            for (size_t f = 0; f < o.end_ns.size(); ++f) {
                Span rs = qs;
                rs.id = log->NextId();
                rs.parent = qs.id;
                rs.name = "request";
                rs.feature = static_cast<int>(f);
                rs.ids = 1;
                rs.start_ns = submit_ns[k][f];
                rs.end_ns = o.end_ns[f];
                spans.push_back(rs);
            }
        }
    }
    const int64_t open_end = NowNs();
    const Counters delta = Counters::Take().Minus(before);
    const Stats open = d->Read().Minus(open_before);
    const std::vector<Span> generator_spans =
        log ? log->Snapshot() : std::vector<Span>();
    spans.insert(spans.end(), generator_spans.begin(),
                 generator_spans.end());

    // One query at a time, each timed in CPU time (all threads: this
    // caller, the batcher and the proxies' conductors), without its
    // output check.
    size_t next = n_open;
    MemoryProbe host_probe;
    std::vector<double> seq_cpu_ns;
    const int64_t seq_end =
        NowNs() + static_cast<int64_t>(opt.seconds * kSequentialShare * 1e9);
    while (NowNs() < seq_end || seq_cpu_ns.size() < kMinLatencySamples) {
        const Query& q = queries[next++ % queries.size()];
        std::vector<int64_t> submits;
        const int64_t c0 = CpuNs();
        auto pending = Submit(server, q, &submits);
        const std::vector<serving::Response> responses = Wait(pending);
        seq_cpu_ns.push_back(static_cast<double>(CpuNs() - c0));
        host_probe.MaybeRun(res);
        Collect(*d, q, responses, submits, res);
    }

    // Closed loop: kOutstanding queries in flight; the oldest completes
    // first (one FIFO batcher), then its slot is refilled.
    const Stats closed_before = d->Read();
    struct InFlight
    {
        size_t query;
        std::vector<std::future<serving::Response>> futures;
        std::vector<int64_t> submit_ns;
    };
    std::deque<InFlight> in_flight;
    const size_t closed_first = next;
    const int64_t closed_start = NowNs();
    const int64_t closed_cpu_start = CpuNs();
    const double closed_s =
        opt.seconds * (1.0 - kOpenShare - kSequentialShare);
    const int64_t closed_end =
        closed_start + static_cast<int64_t>(closed_s * 1e9);
    int64_t last_done = closed_start;
    int64_t last_done_cpu = closed_cpu_start;
    int64_t closed_queries = 0;
    auto launch = [&] {
        InFlight f{next % queries.size(), {}, {}};
        f.futures = Submit(server, queries[f.query], &f.submit_ns);
        in_flight.push_back(std::move(f));
        ++next;
    };
    for (int i = 0; i < kOutstanding; ++i) launch();
    while (!in_flight.empty()) {
        InFlight f = std::move(in_flight.front());
        in_flight.pop_front();
        const std::vector<serving::Response> responses = Wait(f.futures);
        const int64_t now = NowNs();
        if (now < closed_end) {
            ++closed_queries;
            last_done = now;
            last_done_cpu = CpuNs();
            launch();
        }
        Collect(*d, queries[f.query], responses, f.submit_ns, res);
    }
    const Stats closed = d->Read().Minus(closed_before);
    res.Set("peak_rss_mb", PeakRssMb() - MemoryProbe::kMb, "MB");

    for (const double ns : query_ns) {
        res.samples["latency_ms"].push_back(ns * 1e-6);
    }
    for (const double ns : first_ns) {
        res.samples["first_ms"].push_back(ns * 1e-6);
    }
    for (const double ns : seq_cpu_ns) {
        res.samples["cpu_ms"].push_back(ns * 1e-6);
    }
    // All of a query's responses come from one batch.
    res.samples["first_cpu_ms"] = res.samples["cpu_ms"];
    res.Set("throughput_per_s",
            closed_queries / ((last_done - closed_start) * 1e-9), "1/s");
    res.Set("units_per_cpu_s",
            closed_queries / ((last_done_cpu - closed_cpu_start) * 1e-9),
            "1/s");

    const double nq = static_cast<double>(n_open);
    if (log) {
        double query_total = 0.0;
        for (const double ns : query_ns) query_total += ns;
        res.Set("bench.unit_ms", query_total / nq * 1e-6, "ms");
        res.Set("bench.send_lag_p95_ms", Percentile(lag_ns, 95) * 1e-6,
                "ms");

        SetGeneratorLayers(res, generator_spans, nq, query_total, delta,
                           kDim);
        double generator_total = 0.0;
        std::vector<std::pair<int64_t, int64_t>> gen;
        for (const Span& s : generator_spans) {
            generator_total += static_cast<double>(s.end_ns - s.start_ns);
            gen.emplace_back(s.start_ns, s.end_ns);
        }
        // Serving self time: each query span minus the generator time
        // inside it. Generator spans last far less than a second, so the
        // search for overlaps starts one second before the query.
        std::sort(gen.begin(), gen.end());
        double self_total = 0.0;
        for (const auto& [qs, qe] : query_spans) {
            double inside = 0.0;
            for (auto it = std::lower_bound(
                     gen.begin(), gen.end(),
                     std::make_pair(qs - int64_t{1000000000}, int64_t{0}));
                 it != gen.end() && it->first < qe; ++it) {
                const int64_t lo = std::max(qs, it->first);
                const int64_t hi = std::min(qe, it->second);
                if (hi > lo) inside += static_cast<double>(hi - lo);
            }
            self_total += static_cast<double>(qe - qs) - inside;
        }
        res.Set("serving.self_ms", self_total / nq * 1e-6, "ms");
        res.Set("serving.self_pct", 100.0 * self_total / query_total, "%");
        res.Set("serving.busy_pct",
                100.0 * generator_total /
                    static_cast<double>(open_end - open_start),
                "%");

        SetTensorCounts(res, delta, nq, 0.0, 0.0);

        res.Set("oram.bucket_accesses", open.buckets / nq, "count");
        if (open.oram_accesses > 0) {
            res.Set("oram.buckets_per_access",
                    open.buckets / open.oram_accesses, "count");
        }
        res.Set("oram.proxy_coalesced", open.proxy_coalesced / nq, "count");
        res.Set("oram.proxy_dummy", open.proxy_dummy / nq, "count");
        if (open.proxy_requests > 0) {
            res.Set("oram.proxy_coalesced_frac",
                    open.proxy_coalesced / open.proxy_requests, "ratio");
        }
        if (open.proxy_physical > 0) {
            res.Set("oram.proxy_dummy_frac",
                    open.proxy_dummy / open.proxy_physical, "ratio");
        }
        res.Set("store.page_reads", open.page_reads / nq, "count");
        res.Set("store.page_writes", open.page_writes / nq, "count");
        res.Set("store.cache_misses", open.cache_misses / nq, "count");
        if (open.cache_hits + open.cache_misses > 0) {
            res.Set("store.cache_hit_ratio",
                    open.cache_hits / (open.cache_hits + open.cache_misses),
                    "ratio");
        }
        if (open.raw_accesses > 0) {
            res.Set("store.pages_read_per_access",
                    open.page_reads / open.raw_accesses, "count");
            res.Set("store.pages_written_per_access",
                    open.page_writes / open.raw_accesses, "count");
        }
        res.Set("serving.batches_open", open.batches / nq, "count");
        res.Set("serving.batches_closed",
                closed.batches / static_cast<double>(next - closed_first),
                "count");
        if (open.batches > 0) {
            res.Set("serving.requests_per_batch_open",
                    open.completed / open.batches, "count");
        }
        if (closed.batches > 0) {
            res.Set("serving.requests_per_batch_closed",
                    closed.completed / closed.batches, "count");
        }
    }

    // Anything shed, expired, degraded or retried over the whole run is
    // a failure of this workload's premise as well as a counted signal.
    server.Shutdown();
    const serving::ServerStats total = server.GetStats();
    res.Set("serving.shed", static_cast<double>(total.shed), "count");
    res.Set("serving.deadline_exceeded",
            static_cast<double>(total.deadline_exceeded), "count");
    res.Set("serving.degraded_batches",
            static_cast<double>(total.degraded_batches), "count");
    res.Set("serving.retries", static_cast<double>(total.retries), "count");
    res.Check(total.shed == 0 && total.deadline_exceeded == 0 &&
                  total.degraded_batches == 0 && total.retries == 0 &&
                  total.storage_sync_failures == 0,
              "serve: server shed, expired, degraded, retried or failed a "
              "storage sync");
    if (log && !opt.spans_path.empty() &&
        !WriteSpans(opt.spans_path, spans)) {
        res.Check(false, "serve: cannot write " + opt.spans_path);
    }

    return res;
}

}  // namespace e2ebench
