/**
 * @file
 * Section V-C claim check: the oblivious greedy argmax over the output
 * logits costs < 0.4% of the total generation latency.
 *
 * Measures the plain vs oblivious argmax over a vocab-sized logit row,
 * then compares against one measured decode step of a bench-scale GPT.
 */

#include <cstdio>

#include "bench_util/bench_util.h"
#include "core/factory.h"
#include "llm/gpt.h"
#include "oblivious/scan.h"

using namespace secemb;

int
main(int argc, char** argv)
{
    const bench::Args args(argc, argv);
    const int64_t vocab = args.GetInt("--vocab", 50257);

    std::printf("=== Section V-C: oblivious argmax overhead ===\n\n");

    Rng rng(1);
    const Tensor logits = Tensor::Randn({vocab}, rng);
    volatile int64_t sink = 0;

    const double plain_ns = bench::TimeCallNs(
        [&] {
            int64_t best = 0;
            const float* p = logits.data();
            for (int64_t j = 1; j < vocab; ++j) {
                if (p[j] > p[best]) best = j;
            }
            sink = best;
        },
        2, 20);
    const double obl_ns = bench::TimeCallNs(
        [&] { sink = oblivious::ObliviousArgmax(logits.flat()); }, 2, 20);
    (void)sink;

    // One decode step of a bench-scale GPT with a non-secure lookup: the
    // denominator of the paper's percentage.
    llm::GptConfig cfg = llm::GptConfig::BenchScale(256, vocab, 4);
    Rng mrng(2);
    auto gen = core::MakeGenerator(core::GenKind::kIndexLookup, vocab,
                                   cfg.dim, mrng);
    llm::SecureGpt model(cfg, std::move(gen), mrng);
    Tensor step_logits = model.Prefill({{1, 2, 3, 4, 5, 6, 7, 8}});
    // Over 20 steps like the argmax rows: over 5, the mean moved about
    // 2x between runs of one binary (3.8 to 6.8 ms).
    const double decode_ns = bench::TimeCallNs(
        [&] { step_logits = model.DecodeStep({{5}}); }, 2, 20);

    bench::TablePrinter table({"operation", "latency (us)"});
    table.AddRow({"plain argmax (leaks via branches)",
                  bench::TablePrinter::Num(plain_ns * 1e-3, 1)});
    table.AddRow({"oblivious argmax (ct select scan)",
                  bench::TablePrinter::Num(obl_ns * 1e-3, 1)});
    table.AddRow({"one GPT decode step (bench-scale)",
                  bench::TablePrinter::Num(decode_ns * 1e-3, 1)});
    table.Print();

    std::printf("\noblivious argmax adds %.3f%% of a bench-scale decode "
                "step (added cost over plain argmax: %.1f us)\n",
                100.0 * (obl_ns - plain_ns) / (decode_ns + obl_ns),
                (obl_ns - plain_ns) * 1e-3);
    // The lane-parallel oblivious argmax can beat the branchy plain
    // loop, so the added cost can be negative; its whole cost bounds the
    // price of securing argmax from above.
    std::printf("oblivious argmax alone is %.3f%% of a bench-scale decode "
                "step\n",
                100.0 * obl_ns / (decode_ns + obl_ns));
    // The paper's denominator is a GPT-2 medium decode step (it measures
    // a 37.2 ms TBT, Fig. 15); against that trunk the same argmax cost
    // lands under the paper's 0.4% bound.
    constexpr double kPaperMediumTbtNs = 37.2e6;
    std::printf("against the paper's GPT-2-medium decode step (37.2 ms "
                "TBT): %.3f%%\n",
                100.0 * (obl_ns - plain_ns) / kPaperMediumTbtNs);
    std::printf(
        "\nExpected (paper Section V-C): securing argmax costs < 0.4%% of\n"
        "total generation latency — protection outside the embedding\n"
        "layer is essentially free.\n");
    return 0;
}
