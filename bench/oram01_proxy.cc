/**
 * @file
 * oram01: cost of the coalescing ORAM proxy over the serial Path ORAM
 * controller on a duplicate-heavy (Zipfian) request mix.
 *
 * The proxy keeps the physical schedule public (one access per logical
 * request, duplicates coalesced and padded with dummies), so it does the
 * same number of tree accesses as the controller and cannot win on
 * speed. What it buys is a schedule that reveals only the batch size
 * while duplicates share one read; this bench shows what that costs
 * (row `proxy_t1` against row `serial`) and how often a window coalesces.
 *
 * Usage:
 *   oram01_proxy [--rows N] [--dim D] [--batch B] [--batches K]
 *                [--window W] [--zipf S] [--json out.json]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util/bench_util.h"
#include "bench_util/json.h"
#include "core/table_generators.h"
#include "oram/proxy.h"
#include "tensor/tensor.h"

using namespace secemb;

namespace {

/**
 * Zipf(s) sampler over [0, n): inverse-CDF on the precomputed cumulative
 * weight table. Heavy head -> lots of duplicate ids per batch, which is
 * exactly the mix where coalescing matters.
 */
class ZipfSampler
{
  public:
    ZipfSampler(int64_t n, double s) : cdf_(static_cast<size_t>(n))
    {
        double total = 0.0;
        for (int64_t k = 0; k < n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k + 1), s);
            cdf_[static_cast<size_t>(k)] = total;
        }
        for (double& c : cdf_) c /= total;
    }

    int64_t Sample(Rng& rng) const
    {
        const double u =
            static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
        size_t lo = 0, hi = cdf_.size() - 1;
        while (lo < hi) {
            const size_t mid = (lo + hi) / 2;
            if (cdf_[mid] < u) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return static_cast<int64_t>(lo);
    }

  private:
    std::vector<double> cdf_;
};

struct RunResult
{
    std::vector<double> batch_ns;  ///< wall time per Generate() call
    double total_s = 0.0;
    double accesses_per_sec = 0.0;
};

RunResult
RunStream(core::EmbeddingGenerator& gen,
          const std::vector<std::vector<int64_t>>& stream, int64_t dim)
{
    Tensor out({static_cast<int64_t>(stream.front().size()), dim});
    gen.Generate(stream.front(), out);  // warmup: touch every code path

    RunResult r;
    int64_t accesses = 0;
    for (const std::vector<int64_t>& batch : stream) {
        const auto t0 = std::chrono::steady_clock::now();
        gen.Generate(batch, out);
        const auto t1 = std::chrono::steady_clock::now();
        r.batch_ns.push_back(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        r.total_s += r.batch_ns.back() * 1e-9;
        accesses += static_cast<int64_t>(batch.size());
    }
    r.accesses_per_sec =
        static_cast<double>(accesses) / std::max(r.total_s, 1e-12);
    return r;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    const int64_t rows = args.GetInt("--rows", 4096);
    const int64_t dim = args.GetInt("--dim", 16);
    const int batch = static_cast<int>(args.GetInt("--batch", 64));
    const int batches = static_cast<int>(args.GetInt("--batches", 24));
    const int window = static_cast<int>(args.GetInt("--window", 8));
    const double zipf_s = args.GetDouble("--zipf", 1.1);
    const std::string json_path = args.GetString("--json");

    Rng table_rng(31);
    const Tensor table = Tensor::Randn({rows, dim}, table_rng);

    // One fixed Zipfian stream, replayed against every configuration so
    // the serial/proxy comparison sees identical duplicate structure.
    const ZipfSampler zipf(rows, zipf_s);
    Rng stream_rng(97);
    std::vector<std::vector<int64_t>> stream(
        static_cast<size_t>(batches));
    int64_t duplicate_slots = 0;
    for (auto& b : stream) {
        b.resize(static_cast<size_t>(batch));
        std::vector<bool> seen(static_cast<size_t>(rows), false);
        for (int64_t& id : b) {
            id = zipf.Sample(stream_rng);
            if (seen[static_cast<size_t>(id)]) ++duplicate_slots;
            seen[static_cast<size_t>(id)] = true;
        }
    }
    const double dup_frac = static_cast<double>(duplicate_slots) /
                            static_cast<double>(batches * batch);

    std::printf("=== oram01: serial controller vs coalescing proxy ===\n");
    std::printf(
        "table %ld x %ld, %d batches of %d, zipf(s=%.2f) -> %.0f%% "
        "duplicate slots, window %d\n",
        rows, dim, batches, batch, zipf_s, 100.0 * dup_frac, window);

    bench::BenchReport report("oram01_proxy");
    bench::TablePrinter printer({"config", "p50 ms", "p99 ms",
                                 "accesses/s", "speedup", "coalesced"});

    double serial_aps = 0.0;
    for (const bool serial : {true, false}) {
        const char* name = serial ? "serial" : "proxy_t1";
        Rng rng(113);
        std::unique_ptr<core::EmbeddingGenerator> gen;
        core::ProxiedOramTable* proxied = nullptr;
        if (serial) {
            gen = std::make_unique<core::OramTable>(
                table, oram::OramKind::kPath, rng);
        } else {
            oram::ProxyConfig pc;
            pc.batch_window = window;
            auto p = std::make_unique<core::ProxiedOramTable>(
                table, oram::OramKind::kPath, rng, pc);
            proxied = p.get();
            gen = std::move(p);
        }

        const RunResult r = RunStream(*gen, stream, dim);
        if (serial) serial_aps = r.accesses_per_sec;
        const double speedup =
            serial_aps > 0.0 ? r.accesses_per_sec / serial_aps : 1.0;
        const bench::LatencyStats lat =
            bench::LatencyStats::FromSamples(r.batch_ns);

        oram::ProxyStats ps;
        if (proxied != nullptr) ps = proxied->proxy().stats();
        printer.AddRow(
            {name, bench::TablePrinter::Ms(lat.p50_ns, 3),
             bench::TablePrinter::Ms(lat.p99_ns, 3),
             bench::TablePrinter::Num(r.accesses_per_sec, 0),
             bench::TablePrinter::Num(speedup, 2),
             std::to_string(ps.coalesced)});

        auto& res = report.AddResult(name);
        res.num_params.emplace_back("rows", static_cast<double>(rows));
        res.num_params.emplace_back("dim", static_cast<double>(dim));
        res.num_params.emplace_back("batch", static_cast<double>(batch));
        res.num_params.emplace_back("window",
                                    static_cast<double>(window));
        res.num_params.emplace_back("zipf_s", zipf_s);
        res.num_params.emplace_back("duplicate_frac", dup_frac);
        res.num_params.emplace_back("accesses_per_sec",
                                    r.accesses_per_sec);
        res.num_params.emplace_back("speedup_vs_serial", speedup);
        res.latency = lat;
        if (proxied != nullptr) {
            res.counters.emplace_back("proxy.requests", ps.requests);
            res.counters.emplace_back("proxy.physical_accesses",
                                      ps.physical_accesses);
            res.counters.emplace_back("proxy.coalesced", ps.coalesced);
            res.counters.emplace_back("proxy.dummy_accesses",
                                      ps.dummy_accesses);
            res.counters.emplace_back("proxy.windows", ps.windows);
        }
    }
    printer.Print();

    if (!json_path.empty() && !report.WriteTo(json_path)) {
        std::fprintf(stderr, "oram01: cannot write %s\n",
                     json_path.c_str());
        return 1;
    }
    return 0;
}
