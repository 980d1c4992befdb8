/**
 * @file
 * secemb-bench-all: run the --json benchmark tier, merge the per-binary
 * reports into one schema-versioned BENCH_summary.json annotated with
 * machine/ISA metadata, and optionally gate the result against a baseline
 * summary (ROADMAP item: every PR shows its throughput effect on one
 * chart).
 *
 *   $ secemb-bench-all --outdir bench_out          # run tier + merge
 *   $ secemb-bench-all --quick --outdir bench_out  # CI-sized workloads
 *   $ secemb-bench-all --outdir bench_out \
 *       --baseline baselines/BENCH_baseline.json --gate 1.15
 *
 * Compare-only (no benches run; what the trajectory test drives):
 *
 *   $ secemb-bench-all --compare new_summary.json \
 *       --baseline old_summary.json --gate 1.15
 *
 * Exit status: 0 = tier ran and (if a baseline was given) no shared
 * result regressed past the gate; 1 = a bench failed, a document was
 * malformed, or the regression gate fired.
 *
 * The tier (quick flags in brackets):
 *   micro_primitives               oblivious-primitive micro set
 *   srv01_serving                  serving latency/shed [fewer requests]
 *   oram01_proxy                   ORAM proxy vs serial controller [smaller]
 *   oc01_paged                     out-of-core paged scan / RAW ORAM [smaller]
 *   oc02_recovery                  durable checkpoint/journal cost [smaller]
 *   ver01_certify_cost             certification harness cost [smaller]
 *   perf01_xcheck                  cache model vs hardware counters
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/bench_util.h"
#include "bench_util/json.h"
#include "bench_util/trajectory.h"

using namespace secemb;
namespace fs = std::filesystem;

namespace {

struct TierEntry
{
    std::string binary;       ///< executable name next to this driver
    std::string output_name;  ///< per-bench report file in outdir
    std::string extra_args;   ///< full-size workload flags
    std::string quick_args;   ///< CI-sized workload flags
};

const std::vector<TierEntry>&
Tier()
{
    static const std::vector<TierEntry> tier{
        {"micro_primitives", "BENCH_micro_primitives.json", "", ""},
        {"srv01_serving", "BENCH_srv01_serving.json", "",
         "--requests 120 --producers 2"},
        {"oram01_proxy", "BENCH_oram01_proxy.json", "",
         "--rows 512 --dim 8 --batch 32 --batches 6"},
        {"oc01_paged", "BENCH_oc01_paged.json", "",
         "--rows 20000 --oram-rows 4096 --batch 8 --batches 2 "
         "--oram-accesses 48"},
        {"oc02_recovery", "BENCH_oc02_recovery.json", "",
         "--rows 512 --dim 8 --accesses 100"},
        {"ver01_certify_cost", "BENCH_ver01_certify_cost.json", "",
         "--rows 64 --dim 8 --batch 4 --sets 2"},
        {"perf01_xcheck", "BENCH_perf01_xcheck.json", "", "--reps 3"},
    };
    return tier;
}

bool
ReadFile(const std::string& path, std::string* out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
WriteFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    return bool(out);
}

bool
ParseSummaryFile(const std::string& path, bench::JsonValue* out)
{
    std::string text;
    if (!ReadFile(path, &text)) {
        std::fprintf(stderr, "bench-all: cannot read %s\n", path.c_str());
        return false;
    }
    std::string err;
    if (!bench::JsonParse(text, out, &err)) {
        std::fprintf(stderr, "bench-all: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    if (!bench::ValidateSummary(*out, &err)) {
        std::fprintf(stderr, "bench-all: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

int
RunTier(const std::string& bindir, const std::string& outdir, bool quick)
{
    for (const TierEntry& e : Tier()) {
        const fs::path bin = fs::path(bindir) / e.binary;
        const fs::path out = fs::path(outdir) / e.output_name;
        std::string cmd = "\"" + bin.string() + "\"";
        const std::string& workload = quick ? e.quick_args : e.extra_args;
        if (!workload.empty()) cmd += " " + workload;
        cmd += " --json \"" + out.string() + "\"";
        std::printf("bench-all: running %s\n", cmd.c_str());
        std::fflush(stdout);
        const int rc = std::system(cmd.c_str());
        if (rc != 0) {
            std::fprintf(stderr, "bench-all: %s exited with %d\n",
                         cmd.c_str(), rc);
            return 1;
        }
    }
    return 0;
}

/** Merge the tier's per-bench reports in outdir into one summary doc. */
int
MergeSummary(const std::string& outdir, const std::string& summary_path)
{
    std::vector<bench::BenchSource> sources;
    for (const TierEntry& e : Tier()) {
        const fs::path path = fs::path(outdir) / e.output_name;
        bench::BenchSource src;
        src.source = e.output_name;
        if (!ReadFile(path.string(), &src.report)) {
            std::fprintf(stderr, "bench-all: missing report %s\n",
                         path.string().c_str());
            return 1;
        }
        sources.push_back(std::move(src));
    }
    std::string err;
    const std::string summary = bench::BuildSummaryJson(
        bench::CollectMachineInfo(), sources, &err);
    if (summary.empty()) {
        std::fprintf(stderr, "bench-all: %s\n", err.c_str());
        return 1;
    }
    if (!WriteFile(summary_path, summary)) {
        std::fprintf(stderr, "bench-all: cannot write %s\n",
                     summary_path.c_str());
        return 1;
    }
    std::printf("bench-all: wrote %s\n", summary_path.c_str());
    return 0;
}

int
Compare(const std::string& baseline_path, const std::string& current_path,
        double gate)
{
    bench::JsonValue baseline, current;
    if (!ParseSummaryFile(baseline_path, &baseline)) return 1;
    if (!ParseSummaryFile(current_path, &current)) return 1;
    bench::CompareReport report;
    std::string err;
    if (!bench::CompareSummaries(baseline, current, gate, &report,
                                 &err)) {
        std::fprintf(stderr, "bench-all: compare failed: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("%s", report.ToText().c_str());
    return report.ok ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    const std::string outdir = args.GetString("--outdir", ".");
    const std::string baseline = args.GetString("--baseline");
    const std::string compare_current = args.GetString("--compare");
    const double gate = args.GetDouble("--gate", 1.15);
    const bool quick = args.GetBool("--quick");
    const bool merge_only = args.GetBool("--merge-only");
    // Tier binaries live next to this driver unless told otherwise.
    std::string bindir = args.GetString("--bindir");
    if (bindir.empty()) {
        bindir = fs::path(argv[0]).parent_path().string();
        if (bindir.empty()) bindir = ".";
    }
    std::string summary_path = args.GetString("--out");
    if (summary_path.empty()) {
        summary_path =
            (fs::path(outdir) / "BENCH_summary.json").string();
    }

    if (!compare_current.empty()) {
        if (baseline.empty()) {
            std::fprintf(stderr,
                         "bench-all: --compare requires --baseline\n");
            return 1;
        }
        return Compare(baseline, compare_current, gate);
    }

    std::error_code ec;
    fs::create_directories(outdir, ec);

    if (!merge_only) {
        if (const int rc = RunTier(bindir, outdir, quick); rc != 0) {
            return rc;
        }
    }
    if (const int rc = MergeSummary(outdir, summary_path); rc != 0) {
        return rc;
    }
    if (!baseline.empty()) {
        return Compare(baseline, summary_path, gate);
    }
    return 0;
}
