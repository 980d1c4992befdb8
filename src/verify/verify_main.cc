/**
 * @file
 * secemb-verify: the obliviousness certification CLI.
 *
 * Runs the differential trace engine and the statistical fixed-vs-random
 * leakage check across the fuzz corpus of every (requested) generator,
 * and maintains the golden canonical-trace snapshots under tests/golden/.
 *
 * Usage:
 *   secemb-verify [--subjects=scan,dhe,...] [--sets=N] [--seed=N]
 *                 [--golden-dir=DIR [--update-golden]]
 *                 [--json=PATH] [--list]
 *
 * Exit status: 0 if every check passed, 1 otherwise (including usage
 * errors). `ctest -L leakage` runs the same engine via the test suite;
 * this binary is the interactive / CI-artifact entry point.
 */

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/json.h"
#include "verify/golden.h"
#include "verify/harness.h"

namespace secemb::verify {
namespace {

struct CliOptions
{
    std::vector<Subject> subjects = AllSecureSubjects();
    int secret_sets = 0;  ///< 0 = per-config default
    uint64_t seed = 1;
    std::string golden_dir;
    bool update_golden = false;
    std::string json_path;
    bool list_only = false;
    /// Run the recovered-instance arm (durable RAW ORAM: crash-recover
    /// each instance before certifying it).
    bool recovered = false;
    std::string scratch_dir;  ///< recovered-arm working files
};

void
PrintUsage()
{
    std::cout
        << "secemb-verify: obliviousness certification harness\n\n"
           "  --subjects=a,b,...  comma list of: scan dhe hybrid\n"
           "                      tree_oram sqrt_oram proxy_oram\n"
           "                      paged_scan raw_oram\n"
           "                      (default: all eight)\n"
           "  --sets=N            secret sets per differential config\n"
           "  --seed=N            fuzz corpus seed (default 1)\n"
           "  --golden-dir=DIR    diff golden traces in DIR as well\n"
           "  --update-golden     rewrite golden traces in DIR and exit\n"
           "  --json=PATH         write a machine-readable report\n"
           "  --recovered         also certify crash-recovered durable\n"
           "                      RAW ORAM instances (slower)\n"
           "  --scratch-dir=DIR   recovered-arm working directory\n"
           "                      (default: under /tmp, wiped)\n"
           "  --list              print the fuzz corpus and exit\n";
}

bool
ParseArgs(int argc, char** argv, CliOptions* opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&arg](const char* flag) -> const char* {
            const size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) == 0 && arg.size() > n &&
                arg[n] == '=') {
                return arg.c_str() + n + 1;
            }
            return nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            PrintUsage();
            std::exit(0);
        } else if (arg == "--list") {
            opt->list_only = true;
        } else if (arg == "--update-golden") {
            opt->update_golden = true;
        } else if (arg == "--recovered") {
            opt->recovered = true;
        } else if (const char* v = value("--subjects")) {
            opt->subjects.clear();
            std::istringstream is(v);
            std::string item;
            while (std::getline(is, item, ',')) {
                Subject s;
                if (!ParseSubject(item, &s)) {
                    std::cerr << "unknown subject: " << item << "\n";
                    return false;
                }
                opt->subjects.push_back(s);
            }
            if (opt->subjects.empty()) {
                std::cerr << "--subjects: empty list\n";
                return false;
            }
        } else if (const char* v = value("--sets")) {
            opt->secret_sets = std::atoi(v);
            if (opt->secret_sets < 2) {
                std::cerr << "--sets: need at least 2\n";
                return false;
            }
        } else if (const char* v = value("--seed")) {
            opt->seed = std::strtoull(v, nullptr, 10);
        } else if (const char* v = value("--golden-dir")) {
            opt->golden_dir = v;
        } else if (const char* v = value("--json")) {
            opt->json_path = v;
        } else if (const char* v = value("--scratch-dir")) {
            opt->scratch_dir = v;
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            PrintUsage();
            return false;
        }
    }
    if (opt->update_golden && opt->golden_dir.empty()) {
        std::cerr << "--update-golden requires --golden-dir\n";
        return false;
    }
    return true;
}

bool
SubjectRequested(const CliOptions& opt, Subject s)
{
    for (const Subject r : opt.subjects) {
        if (r == s) return true;
    }
    return false;
}

int
ListCorpus(const CliOptions& opt)
{
    for (const Subject s : opt.subjects) {
        for (const VerifyConfig& c : FuzzCorpus(s, opt.seed)) {
            std::cout << c.Name() << "\n";
        }
    }
    return 0;
}

int
UpdateGolden(const CliOptions& opt)
{
    int written = 0;
    for (const VerifyConfig& c : GoldenConfigs()) {
        if (!SubjectRequested(opt, c.subject)) continue;
        const CanonicalTrace trace = GoldenRun(c);
        const std::string path =
            opt.golden_dir + "/" + GoldenFileName(c.Name());
        std::string error;
        if (!WriteTraceFile(path, trace, c.Name(), &error)) {
            std::cerr << "FAIL " << error << "\n";
            return 1;
        }
        std::cout << "wrote " << path << " (" << trace.accesses.size()
                  << " accesses)\n";
        written++;
    }
    std::cout << written << " golden trace(s) updated\n";
    return 0;
}

struct GoldenOutcome
{
    std::string name;
    bool passed = false;
    std::string detail;
};

std::vector<GoldenOutcome>
CheckGolden(const CliOptions& opt, bool* all_passed)
{
    std::vector<GoldenOutcome> outcomes;
    for (const VerifyConfig& c : GoldenConfigs()) {
        if (!SubjectRequested(opt, c.subject)) continue;
        GoldenOutcome o;
        o.name = c.Name();
        const std::string path =
            opt.golden_dir + "/" + GoldenFileName(c.Name());
        CanonicalTrace golden;
        std::string error;
        if (!ReadTraceFile(path, &golden, nullptr, &error)) {
            o.detail = error + " (run --update-golden?)";
        } else {
            const TraceDivergence d =
                CompareCanonical(golden, GoldenRun(c));
            o.passed = !d.diverged;
            o.detail = d.detail;
        }
        *all_passed = *all_passed && o.passed;
        outcomes.push_back(std::move(o));
    }
    return outcomes;
}

bool
WriteJsonReport(const std::string& path, const SweepResult& sweep,
                const std::vector<RecoveredResult>& recovered,
                const std::vector<GoldenOutcome>& golden, bool all_passed)
{
    bench::JsonWriter w;
    w.BeginObject();
    w.Key("schema").Value("secemb-verify-v1");
    w.Key("passed").Value(all_passed);
    w.Key("differential").BeginArray();
    for (const DifferentialResult& r : sweep.differential) {
        w.BeginObject();
        w.Key("config").Value(r.config.Name());
        w.Key("passed").Value(r.passed);
        w.Key("sets").Value(static_cast<int64_t>(r.sets_run));
        w.Key("trace_len").Value(static_cast<uint64_t>(r.trace_len));
        if (!r.detail.empty()) w.Key("detail").Value(r.detail);
        w.EndObject();
    }
    w.EndArray();
    w.Key("statistical").BeginArray();
    for (const StatisticalResult& r : sweep.statistical) {
        w.BeginObject();
        w.Key("config").Value(r.config.Name());
        w.Key("passed").Value(r.passed);
        w.Key("cache_chi2").Value(r.cache_chi2);
        w.Key("cache_df").Value(r.cache_df);
        w.Key("page_chi2").Value(r.page_chi2);
        w.Key("page_df").Value(r.page_df);
        w.EndObject();
    }
    w.EndArray();
    w.Key("recovered").BeginArray();
    for (const RecoveredResult& r : recovered) {
        w.BeginObject();
        w.Key("config").Value(r.config.Name());
        w.Key("passed").Value(r.passed);
        w.Key("shape_passed").Value(r.shape_passed);
        w.Key("differential_passed").Value(r.differential.passed);
        w.Key("statistical_passed").Value(r.statistical.passed);
        w.Key("trace_len").Value(static_cast<uint64_t>(r.trace_len));
        if (!r.detail.empty()) w.Key("detail").Value(r.detail);
        w.EndObject();
    }
    w.EndArray();
    w.Key("golden").BeginArray();
    for (const GoldenOutcome& o : golden) {
        w.BeginObject();
        w.Key("config").Value(o.name);
        w.Key("passed").Value(o.passed);
        if (!o.detail.empty()) w.Key("detail").Value(o.detail);
        w.EndObject();
    }
    w.EndArray();
    w.EndObject();

    std::ofstream f(path);
    f << w.str() << "\n";
    f.flush();
    if (!f) {
        std::cerr << "secemb-verify: cannot write " << path << "\n";
        return false;
    }
    return true;
}

int
Run(const CliOptions& opt)
{
    if (opt.list_only) return ListCorpus(opt);
    if (opt.update_golden) return UpdateGolden(opt);

    const SweepResult sweep =
        RunSweep(opt.subjects, opt.seed, opt.secret_sets);
    bool all_passed = sweep.all_passed;

    for (const DifferentialResult& r : sweep.differential) {
        std::cout << (r.passed ? "PASS" : "FAIL") << " differential "
                  << r.config.Name() << " (" << r.sets_run << " sets, "
                  << r.trace_len << " accesses)\n";
        if (!r.passed) std::cout << "     " << r.detail << "\n";
    }
    for (const StatisticalResult& r : sweep.statistical) {
        std::cout << (r.passed ? "PASS" : "FAIL") << " statistical  "
                  << r.config.Name() << " (cache chi2=" << r.cache_chi2
                  << "/df=" << r.cache_df << ", page chi2=" << r.page_chi2
                  << "/df=" << r.page_df << ")\n";
        if (!r.passed) std::cout << "     " << r.detail << "\n";
    }

    std::vector<RecoveredResult> recovered;
    if (opt.recovered && SubjectRequested(opt, Subject::kRawOram)) {
        std::string scratch = opt.scratch_dir;
        if (scratch.empty()) {
            scratch = "/tmp/secemb-verify-recovered." +
                      std::to_string(static_cast<long>(::getpid()));
        }
        for (VerifyConfig c : RecoveredCorpus(opt.seed)) {
            if (opt.secret_sets > 0) c.secret_sets = opt.secret_sets;
            RecoveredResult r =
                RunRecovered(c, scratch + "/" + c.Name());
            std::cout << (r.passed ? "PASS" : "FAIL") << " recovered    "
                      << r.config.Name() << " (" << r.trace_len
                      << " accesses, shape "
                      << (r.shape_passed ? "ok" : "DIVERGED")
                      << ", differential "
                      << (r.differential.passed ? "ok" : "FAIL")
                      << ", statistical "
                      << (r.statistical.passed ? "ok" : "FAIL") << ")\n";
            if (!r.passed) std::cout << "     " << r.detail << "\n";
            all_passed = all_passed && r.passed;
            recovered.push_back(std::move(r));
        }
    }

    std::vector<GoldenOutcome> golden;
    if (!opt.golden_dir.empty()) {
        golden = CheckGolden(opt, &all_passed);
        for (const GoldenOutcome& o : golden) {
            std::cout << (o.passed ? "PASS" : "FAIL") << " golden       "
                      << o.name << "\n";
            if (!o.passed) std::cout << "     " << o.detail << "\n";
        }
    }

    if (!opt.json_path.empty() &&
        !WriteJsonReport(opt.json_path, sweep, recovered, golden,
                         all_passed)) {
        return 1;
    }

    std::cout << (all_passed ? "CERTIFIED" : "LEAKAGE SUSPECTED") << ": "
              << sweep.differential.size() << " differential, "
              << sweep.statistical.size() << " statistical, "
              << recovered.size() << " recovered, " << golden.size()
              << " golden check(s)\n";
    return all_passed ? 0 : 1;
}

}  // namespace
}  // namespace secemb::verify

int
main(int argc, char** argv)
{
    secemb::verify::CliOptions opt;
    if (!secemb::verify::ParseArgs(argc, argv, &opt)) return 1;
    return secemb::verify::Run(opt);
}
