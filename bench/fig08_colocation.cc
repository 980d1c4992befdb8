/**
 * @file
 * Fig. 8 reproduction: per-model latency inflation as multiple copies of
 * one embedding-generation technique are co-located.
 *
 * The paper runs up to 24 co-located models on a 28-core Xeon. The
 * evaluation host has 4 vCPUs, too few to host them, so single-model
 * latencies are *measured* and the co-location effect is applied with
 * the documented contention model (profile::ContentionModel,
 * calibrated so memory-bound linear scan suffers more interference than
 * compute-bound DHE — the asymmetry the paper's figure shows).
 */

#include <cstdio>

#include "bench_util/bench_util.h"
#include "core/factory.h"
#include "profile/profiler.h"

using namespace secemb;

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    const int64_t table_size = args.GetInt("--table-size", 16384);
    const int batch = 32;

    std::printf("=== Fig. 8: latency under increasing co-location "
                "(table %ld, dim 64, batch %d) ===\n\n",
                table_size, batch);

    Rng rng(1);
    auto scan =
        core::MakeGenerator(core::GenKind::kLinearScan, table_size, 64,
                            rng);
    auto dhe = core::MakeGenerator(core::GenKind::kDheUniform, table_size,
                                   64, rng);
    Rng idx(2);
    const double scan_ns =
        profile::MeasureGeneratorLatencyNs(*scan, batch, idx, 3);
    const double dhe_ns =
        profile::MeasureGeneratorLatencyNs(*dhe, batch, idx, 3);

    const profile::ContentionModel model;
    bench::TablePrinter table({"co-located copies",
                               "Linear Scan (ms)", "scan inflation",
                               "DHE (ms)", "DHE inflation"});
    for (int copies : {1, 2, 4, 8, 12, 16, 20, 24}) {
        const double s = model.Latency(scan_ns, copies, true);
        const double d = model.Latency(dhe_ns, copies, false);
        table.AddRow({std::to_string(copies),
                      bench::TablePrinter::Ms(s, 3),
                      bench::TablePrinter::Num(s / scan_ns, 2) + "x",
                      bench::TablePrinter::Ms(d, 3),
                      bench::TablePrinter::Num(d / dhe_ns, 2) + "x"});
    }
    table.Print();
    std::printf(
        "\nExpected shape (paper Fig. 8): both techniques slow down as\n"
        "co-location grows; the memory-bound linear scan degrades faster\n"
        "than compute-bound DHE.\n");
    return 0;
}
