/**
 * @file
 * Fig. 6 reproduction: profiled linear-scan/DHE switching thresholds per
 * execution configuration (batch size x thread count), embedding dim 64.
 *
 * The paper's observations: thresholds decrease with batch size (DHE
 * amortises weight reuse) and increase with thread count (scan gains
 * cache reuse across threads).
 */

#include <cstdio>

#include "bench_util/bench_util.h"
#include "profile/profiler.h"

using namespace secemb;

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    // At 3 reps one cell read 256 to 2644 rows across runs of one tree.
    const int reps = static_cast<int>(args.GetInt("--reps", 10));
    const bool varied = args.GetBool("--varied");

    std::printf("=== Fig. 6: linear-scan vs DHE switching thresholds "
                "(dim 64, DHE %s) ===\n\n",
                varied ? "Varied" : "Uniform");

    profile::ProfileConfig cfg;
    cfg.batch_sizes = {8, 32, 128};
    cfg.thread_counts = {1, 2, 4};
    cfg.table_sizes = {256, 1024, 4096, 16384, 65536};
    cfg.dim = 64;
    cfg.reps = reps;
    cfg.varied_dhe = varied;

    Rng rng(1);
    const profile::ProfileResult result =
        profile::ProfileThresholds(cfg, rng);

    bench::TablePrinter table(
        {"batch size", "threads", "threshold (table rows)"});
    for (const auto& e : result.thresholds.entries()) {
        table.AddRow({std::to_string(e.batch_size),
                      std::to_string(e.nthreads),
                      std::to_string(e.table_size_threshold)});
    }
    table.Print();

    std::printf("\nraw profile points (scan vs DHE latency):\n");
    bench::TablePrinter raw({"batch", "threads", "table size",
                             "scan (ms)", "DHE (ms)"});
    for (const auto& p : result.points) {
        raw.AddRow({std::to_string(p.batch_size),
                    std::to_string(p.nthreads),
                    std::to_string(p.table_size),
                    bench::TablePrinter::Ms(p.scan_ns, 3),
                    bench::TablePrinter::Ms(p.dhe_ns, 3)});
    }
    raw.Print();
    std::printf(
        "\nExpected shape (paper Fig. 6): thresholds fall as batch size\n"
        "rises, and rise as thread count rises (on a shared VM with\n"
        "fewer free cores than threads the thread trend may flatten).\n");
    return 0;
}
