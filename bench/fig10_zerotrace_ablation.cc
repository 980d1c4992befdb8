/**
 * @file
 * Fig. 10 reproduction: single-lookup latency of Path and Circuit ORAM
 * under the three ZeroTrace deployment variants (paper Section V-A1):
 *
 *   ZT-Original    : tree outside the enclave (modelled ocall per path
 *                    operation), non-inlined oblivious select, no posmap
 *                    recursion (flat scanned map).
 *   ZT-Gramine     : tree inside the large EPC (no ocalls), still
 *                    non-inlined select and no recursion.
 *   ZT-Gramine-Opt : select inlined and recursion enabled.
 *
 * The inlining and recursion effects are real code paths; only the
 * enclave-crossing cost is modelled (default 8 us per crossing, the
 * commonly reported SGX ocall round trip; override with --ocall-ns).
 * Each cell is the fastest of 60 lookups after one warm-up, taken in
 * turn across the three variants: they differ by a few hundred
 * microseconds in lookups of several milliseconds, which a mean of a
 * few lookups, or a slow spell of the host during one variant's
 * lookups, would reorder. The "ocalls (ms)" column is ZT-Original's
 * modelled crossing time per lookup (ocalls counted by the ORAM x ocall
 * cost), the part of its lead over ZT-Gramine that is modelled rather
 * than measured.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util/bench_util.h"
#include "core/table_generators.h"
#include "tee/tee_model.h"

using namespace secemb;

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    const double ocall_ns = args.GetDouble("--ocall-ns", 8000.0);
    const int64_t dim = 64;
    const std::vector<int64_t> sizes{1 << 13, 1 << 15, 1 << 17};
    constexpr int kLookups = 60;

    std::printf("=== Fig. 10: ZeroTrace deployment ablation (single "
                "lookup, dim %ld, ocall %.0f ns) ===\n\n", dim, ocall_ns);

    for (auto kind : {oram::OramKind::kPath, oram::OramKind::kCircuit}) {
        std::printf("--- %s ORAM ---\n",
                    kind == oram::OramKind::kPath ? "Path" : "Circuit");
        bench::TablePrinter table({"table size", "ZT-Original (ms)",
                                   "ocalls (ms)", "ZT-Gramine (ms)",
                                   "ZT-Gramine-Opt (ms)",
                                   "Gramine vs Orig", "Opt vs Gramine"});
        for (int64_t size : sizes) {
            std::vector<std::unique_ptr<core::OramTable>> gens;
            for (auto variant :
                 {tee::ZtVariant::kOriginal, tee::ZtVariant::kGramine,
                  tee::ZtVariant::kGramineOpt}) {
                Rng rng(size + static_cast<int64_t>(variant));
                oram::OramParams params = oram::OramParams::Defaults(kind);
                params.ApplyTeeModel(
                    tee::TeeCostModel::ForVariant(variant, ocall_ns));
                const Tensor t = Tensor::Randn({size, dim}, rng);
                gens.push_back(
                    std::make_unique<core::OramTable>(t, kind, rng, &params));
            }
            Rng idx(7);
            const std::vector<int64_t> id{static_cast<int64_t>(
                idx.NextBounded(static_cast<uint64_t>(size)))};
            Tensor out({1, dim});
            for (auto& gen : gens) gen->Generate(id, out);  // warm-up
            const int64_t ocalls = gens[0]->oram().stats().ocalls;
            // Round-robin over the variants, so that a slow spell of the
            // host slows all three alike.
            std::vector<double> lat(gens.size(), 1e300);
            for (int rep = 0; rep < kLookups; ++rep) {
                for (size_t v = 0; v < gens.size(); ++v) {
                    const bench::WallTimer timer;
                    gens[v]->Generate(id, out);
                    lat[v] = std::min(lat[v], timer.ElapsedNs());
                }
            }
            const double ocall_ms =
                static_cast<double>(gens[0]->oram().stats().ocalls -
                                    ocalls) /
                kLookups * ocall_ns * 1e-6;
            table.AddRow(
                {std::to_string(size), bench::TablePrinter::Ms(lat[0], 3),
                 bench::TablePrinter::Num(ocall_ms, 3),
                 bench::TablePrinter::Ms(lat[1], 3),
                 bench::TablePrinter::Ms(lat[2], 3),
                 bench::TablePrinter::Num(
                     100.0 * (lat[1] / lat[0] - 1.0), 0) + "%",
                 bench::TablePrinter::Num(
                     100.0 * (lat[2] / lat[1] - 1.0), 0) + "%"});
        }
        table.Print();
        std::printf("\n");
    }
    std::printf(
        "Expected shape (paper Fig. 10): moving the tree inside the\n"
        "enclave (Gramine) removes the ocall cost; inlining the oblivious\n"
        "select and enabling posmap recursion (Opt) cuts latency again —\n"
        "the paper reports 20%%/60%% then 29%%/54%% for Path/Circuit.\n");
    return 0;
}
