/**
 * @file
 * secemb-e2ebench: runs one benchmark workload in this process and prints
 * one JSON object on stdout: the output-check tallies, every metric with
 * its unit (null = could not be measured) and the raw latencies behind
 * the end-to-end percentiles. e2ebench/run.py builds this binary, runs
 * each workload in fresh processes and combines their results.
 *
 *   secemb-e2ebench --workload dlrm|llm|serve [--seed N] [--seconds S]
 *                   [--trace 0|1] [--spans PATH] [--tiny]
 *                   [--scratch DIR] [--plant LAYER:MICROSECONDS]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench_util/json.h"
#include "harness.h"

namespace {

using e2ebench::Options;
using e2ebench::Result;

void
Usage()
{
    std::fprintf(stderr,
                 "usage: secemb-e2ebench --workload dlrm|llm|serve "
                 "[--seed N] [--seconds S] [--trace 0|1] [--spans PATH] "
                 "[--tiny] [--scratch DIR] [--plant LAYER:MICROSECONDS]\n");
    std::exit(2);
}

Options
Parse(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) Usage();
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                opt.workload = value();
            } else if (flag == "--seed") {
                opt.seed = std::stoull(value());
            } else if (flag == "--seconds") {
                opt.seconds = std::stod(value());
            } else if (flag == "--trace") {
                opt.trace = value() == "1";
            } else if (flag == "--spans") {
                opt.spans_path = value();
            } else if (flag == "--tiny") {
                opt.tiny = true;
            } else if (flag == "--scratch") {
                opt.scratch_dir = value();
            } else if (flag == "--plant") {
                const std::string v = value();
                const size_t colon = v.rfind(':');
                if (colon == std::string::npos) Usage();
                opt.plant_layer = v.substr(0, colon);
                opt.plant_ns = static_cast<int64_t>(
                    std::stod(v.substr(colon + 1)) * 1e3);
            } else {
                Usage();
            }
        } catch (const std::logic_error&) {
            Usage();  // unparsable number
        }
    }
    if (opt.workload.empty() || !(opt.seconds > 0)) {
        Usage();
    }
    return opt;
}

void
PrintResult(const Options& opt, const Result& res)
{
    secemb::bench::JsonWriter w;
    w.BeginObject();
    w.Key("workload").Value(opt.workload);
    w.Key("trace").Value(int64_t{opt.trace ? 1 : 0});
    w.Key("attempted").Value(res.attempted);
    w.Key("failed").Value(res.failed);
    w.Key("failures").BeginArray();
    for (const std::string& why : res.failures) w.Value(why);
    w.EndArray();
    w.Key("metrics").BeginObject();
    for (const auto& [name, m] : res.metrics) {
        // A non-finite value writes null: the metric was not measured.
        w.Key(name).BeginObject();
        w.Key("value").Value(m.value.value_or(NAN));
        w.Key("unit").Value(m.unit);
        w.EndObject();
    }
    w.EndObject();
    w.Key("samples").BeginObject();
    for (const auto& [name, values] : res.samples) {
        w.Key(name).BeginArray();
        for (const double v : values) w.Value(v);
        w.EndArray();
    }
    w.EndObject();
    w.EndObject();
    std::cout << w.str() << std::endl;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Options opt = Parse(argc, argv);
    Result res;
    try {
        if (opt.workload == "dlrm") {
            res = e2ebench::RunDlrm(opt);
        } else if (opt.workload == "llm") {
            res = e2ebench::RunLlm(opt);
        } else if (opt.workload == "serve") {
            res = e2ebench::RunServe(opt);
        } else {
            Usage();
        }
        if (opt.trace) e2ebench::FinishLayerMetrics(res);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "secemb-e2ebench: %s: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    PrintResult(opt, res);
    return 0;
}
