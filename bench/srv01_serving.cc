/**
 * @file
 * Serving-pipeline benchmark: end-to-end request latency (p50/p95/p99)
 * and shed rate at three offered loads — light, at-capacity, and
 * overload — against a Server fronting a linear-scan generator.
 *
 * Capacity is calibrated on this machine from the single-lookup scan
 * cost, so "1.0x" genuinely saturates the batcher. Requests are submitted
 * open-loop (paced by submit time, never by completion) so overload
 * actually overflows the bounded queue and exercises typed shedding and
 * load-based degradation rather than just slowing the producers down.
 *
 *   $ ./srv01_serving [--rows N] [--dim D] [--requests N]
 *                     [--producers P] [--json out.json]
 *                     [--flight-trace out.trace.json]
 *
 * Per load, the JSON report also carries the sampled queue-depth
 * time-series percentiles (one observation per batch flush) and the
 * shed/retry/degrade counters, so a trajectory diff shows *why* latency
 * moved, not just that it did. --flight-trace dumps the overload run's
 * flight-recorder window as a chrome://tracing document.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/bench_util.h"
#include "bench_util/json.h"
#include "core/table_generators.h"
#include "serving/server.h"
#include "telemetry/telemetry.h"
#include "tensor/rng.h"

using namespace secemb;

namespace {

struct LoadResult
{
    double offered_qps = 0.0;
    serving::ServerStats stats;
    std::vector<double> ok_latency_ns;
    telemetry::Histogram::Snapshot queue_depth;  ///< sampled time-series
};

LoadResult
RunLoad(const std::shared_ptr<core::EmbeddingGenerator>& gen,
        double offered_qps, int total_requests, int producers,
        int64_t rows, const std::string& flight_trace_path)
{
    // Each load gets its own metric epoch so the sampled queue-depth
    // series reflects this load alone.
    telemetry::Registry::Instance().ResetAll();
    serving::ServerConfig cfg;
    cfg.queue_capacity = 64;
    cfg.max_batch = 8;
    cfg.flush_deadline_us = 100;
    cfg.default_deadline_us = 50000;
    serving::Server server({gen}, cfg);

    const int per_producer = (total_requests + producers - 1) / producers;
    const auto interval = std::chrono::nanoseconds(static_cast<int64_t>(
        1e9 * producers / std::max(offered_qps, 1.0)));

    std::vector<std::vector<std::future<serving::Response>>> futures(
        static_cast<size_t>(producers));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(producers));
    const auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < producers; ++t) {
        threads.emplace_back([&, t] {
            auto& mine = futures[static_cast<size_t>(t)];
            mine.reserve(static_cast<size_t>(per_producer));
            for (int i = 0; i < per_producer; ++i) {
                std::this_thread::sleep_until(start + (i + 1) * interval);
                serving::Request req;
                req.indices = {static_cast<int64_t>(
                    (static_cast<uint64_t>(t) * 2654435761ull +
                     static_cast<uint64_t>(i) * 40503ull) %
                    static_cast<uint64_t>(rows))};
                mine.push_back(server.Submit(std::move(req)));
            }
        });
    }
    for (auto& th : threads) th.join();

    LoadResult result;
    result.offered_qps = offered_qps;
    for (auto& mine : futures) {
        for (auto& fut : mine) {
            const serving::Response resp = fut.get();
            if (resp.status.ok()) {
                result.ok_latency_ns.push_back(
                    static_cast<double>(resp.e2e_ns));
            }
        }
    }
    server.Shutdown();
    result.stats = server.GetStats();
    result.queue_depth = telemetry::Registry::Instance()
                             .GetHistogram("serving.queue_depth.sample")
                             .TakeSnapshot();
    if (!flight_trace_path.empty() &&
        !server.flight_recorder().WriteChromeTrace(flight_trace_path)) {
        std::fprintf(stderr, "srv01: cannot write %s\n",
                     flight_trace_path.c_str());
    }
    return result;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    const int64_t rows = args.GetInt("--rows", 4096);
    const int64_t dim = args.GetInt("--dim", 64);
    const int total_requests =
        static_cast<int>(args.GetInt("--requests", 400));
    const int producers = static_cast<int>(args.GetInt("--producers", 4));
    const std::string json_path = args.GetString("--json");
    const std::string flight_trace = args.GetString("--flight-trace");

    Rng rng(17);
    auto gen = std::make_shared<core::LinearScanTable>(
        Tensor::Randn({rows, dim}, rng));

    // Calibrate this machine's single-lookup scan cost -> capacity.
    const double lookup_ns = bench::TimeCallNs(
        [&] {
            Tensor out({1, dim});
            const std::vector<int64_t> idx{rows / 2};
            gen->Generate(idx, out);
        },
        /*warmup=*/3, /*reps=*/20);
    const double capacity_qps = 1e9 / std::max(lookup_ns, 1.0);
    std::printf("=== srv01: serving latency/shed vs offered load ===\n");
    std::printf("scan %ld x %ld, lookup %.1f us -> capacity ~%.0f qps\n",
                rows, dim, lookup_ns * 1e-3, capacity_qps);

    bench::BenchReport report("srv01_serving");
    bench::TablePrinter table({"load", "offered qps", "p50 ms", "p95 ms",
                               "p99 ms", "shed %", "degraded batches"});

    const std::vector<std::pair<std::string, double>> loads{
        {"light_0.3x", 0.3}, {"capacity_1.0x", 1.0}, {"overload_3.0x", 3.0}};
    for (const auto& [name, mult] : loads) {
        // The overload run is the interesting flight-recorder window
        // (it actually sheds), so that is the one --flight-trace dumps.
        const LoadResult r =
            RunLoad(gen, capacity_qps * mult, total_requests, producers,
                    rows, mult >= 3.0 ? flight_trace : std::string());
        const bench::LatencyStats lat =
            bench::LatencyStats::FromSamples(r.ok_latency_ns);
        const double shed_rate =
            r.stats.submitted == 0
                ? 0.0
                : static_cast<double>(r.stats.shed) /
                      static_cast<double>(r.stats.submitted);

        table.AddRow({name, bench::TablePrinter::Num(r.offered_qps, 0),
                      bench::TablePrinter::Ms(lat.p50_ns, 3),
                      bench::TablePrinter::Ms(lat.p95_ns, 3),
                      bench::TablePrinter::Ms(lat.p99_ns, 3),
                      bench::TablePrinter::Num(100.0 * shed_rate, 1),
                      std::to_string(r.stats.degraded_batches)});

        auto& res = report.AddResult(name);
        res.num_params.emplace_back("offered_qps", r.offered_qps);
        res.num_params.emplace_back("offered_multiple", mult);
        res.num_params.emplace_back("shed_rate", shed_rate);
        res.num_params.emplace_back("rows", static_cast<double>(rows));
        res.num_params.emplace_back("dim", static_cast<double>(dim));
        // Sampled queue-depth time-series (one point per batch flush):
        // p50/p99 say how deep the queue ran across the load, which is
        // the early-warning signal for shed onset.
        res.num_params.emplace_back("queue_depth_p50", r.queue_depth.p50);
        res.num_params.emplace_back("queue_depth_p99", r.queue_depth.p99);
        res.num_params.emplace_back("queue_depth_max",
                                    static_cast<double>(r.queue_depth.max));
        res.num_params.emplace_back(
            "queue_depth_samples",
            static_cast<double>(r.queue_depth.count));
        res.latency = bench::LatencyStats::FromSamples(r.ok_latency_ns);
        res.counters.emplace_back("serving.submitted", r.stats.submitted);
        res.counters.emplace_back("serving.completed", r.stats.completed);
        res.counters.emplace_back("serving.shed", r.stats.shed);
        res.counters.emplace_back("serving.deadline_exceeded",
                                  r.stats.deadline_exceeded);
        res.counters.emplace_back("serving.retries", r.stats.retries);
        res.counters.emplace_back("serving.batches", r.stats.batches);
        res.counters.emplace_back("serving.degraded_batches",
                                  r.stats.degraded_batches);
        res.counters.emplace_back("serving.flight_recorded",
                                  r.stats.flight_recorded);
        res.counters.emplace_back("serving.flight_dropped",
                                  r.stats.flight_dropped);
    }
    table.Print();

    if (!json_path.empty() && !report.WriteTo(json_path)) {
        std::fprintf(stderr, "srv01: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    return 0;
}
