/**
 * @file
 * Google-benchmark microbenchmarks for the primitives every scheme is
 * built from: constant-time selects, oblivious scans, hash encoding,
 * bucket encryption, and single ORAM accesses. These are the unit costs
 * behind every figure; regressions here shift every curve.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/json.h"
#include "dhe/hashing.h"
#include "oblivious/ct_ops.h"
#include "oblivious/scan.h"
#include "oram/crypto.h"
#include "oram/tree_oram.h"
#include "tensor/gemm.h"
#include "tensor/kernels/kernels.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace secemb {
namespace {

/**
 * The pre-pool ParallelFor: spawn-and-join fresh std::threads per call.
 * Kept here as the baseline for the pool-vs-spawn comparison mode — the
 * per-region dispatch cost every Fig. 6 / Fig. 12 data point used to pay.
 */
void
SpawnParallelFor(int64_t n, int nthreads,
                 const std::function<void(int64_t, int64_t)>& fn)
{
    if (n <= 0) return;
    const int64_t workers =
        std::max<int64_t>(1, std::min<int64_t>(nthreads, n));
    if (workers == 1) {
        fn(0, n);
        return;
    }
    const int64_t chunk = (n + workers - 1) / workers;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int64_t w = 0; w < workers; ++w) {
        const int64_t begin = w * chunk;
        const int64_t end = std::min(n, begin + chunk);
        if (begin >= end) break;
        threads.emplace_back([&fn, begin, end] { fn(begin, end); });
    }
    for (auto& t : threads) t.join();
}

constexpr int kCmpThreads = 4;

// The pool-vs-spawn comparisons are registered with UseRealTime():
// the spawn caller sleeps through its region (joins) while the pool
// caller computes, so CPU-time iteration tuning would hand the two
// sides wildly different measurement windows. Wall clock is the
// quantity being compared anyway.

void
BM_ParallelDispatchPool(benchmark::State& state)
{
    // Empty-body region: isolates wake/dispatch overhead of the pool.
    for (auto _ : state) {
        ParallelFor(kCmpThreads, kCmpThreads, [](int64_t b, int64_t) {
            benchmark::DoNotOptimize(b);
        });
    }
}
BENCHMARK(BM_ParallelDispatchPool)->UseRealTime();

void
BM_ParallelDispatchSpawn(benchmark::State& state)
{
    for (auto _ : state) {
        SpawnParallelFor(kCmpThreads, kCmpThreads,
                         [](int64_t b, int64_t) {
                             benchmark::DoNotOptimize(b);
                         });
    }
}
BENCHMARK(BM_ParallelDispatchSpawn)->UseRealTime();

/** Shared body for the batch linear-scan pool-vs-spawn comparison. */
template <typename ParallelImpl>
void
RunBatchScan(benchmark::State& state, ParallelImpl&& parallel_for)
{
    const int64_t batch = state.range(0), rows = 1024, cols = 64;
    Rng rng(11);
    const Tensor table = Tensor::Randn({rows, cols}, rng);
    std::vector<int64_t> ids(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
        ids[static_cast<size_t>(i)] = (i * 131) % rows;
    }
    std::vector<float> out(static_cast<size_t>(batch * cols));
    for (auto _ : state) {
        parallel_for(batch, kCmpThreads, [&](int64_t b, int64_t e) {
            oblivious::ScanRows(table.flat(), 0, cols, ids, {}, b, e, out);
        });
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * batch * rows * cols * 4);
}

void
BM_BatchLinearScanPool(benchmark::State& state)
{
    RunBatchScan(state, [](int64_t n, int nt, const auto& fn) {
        ParallelFor(n, nt, fn);
    });
}
BENCHMARK(BM_BatchLinearScanPool)->Arg(32)->Arg(128)->UseRealTime();

void
BM_BatchLinearScanSpawn(benchmark::State& state)
{
    RunBatchScan(state, [](int64_t n, int nt, const auto& fn) {
        SpawnParallelFor(n, nt, fn);
    });
}
BENCHMARK(BM_BatchLinearScanSpawn)->Arg(32)->Arg(128)->UseRealTime();

/**
 * GEMM row-range kernel, deliberately out-of-line and shared: if it were
 * inlined into each benchmark's template instantiation, the pool and
 * spawn sides would execute *different copies* of the hot loop and the
 * comparison would measure code-placement luck instead of dispatch cost.
 */
__attribute__((noinline)) void
GemmRowRange(const float* ap, const float* bp, float* cp, int64_t k,
             int64_t n, int64_t rb, int64_t re)
{
    for (int64_t i = rb; i < re; ++i) {
        float* crow = cp + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] = 0.0f;
        const float* arow = ap + i * k;
        for (int64_t p = 0; p < k; ++p) {
            const float aval = arow[p];
            const float* brow = bp + p * n;
            for (int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
        }
    }
}

template <typename ParallelImpl>
void
RunGemmRows(benchmark::State& state, ParallelImpl&& parallel_for)
{
    const int64_t m = state.range(0), k = 256, n = 256;
    Rng rng(12);
    const Tensor a = Tensor::Randn({m, k}, rng);
    const Tensor b = Tensor::Randn({k, n}, rng);
    Tensor c({m, n});
    const float* ap = a.data();
    const float* bp = b.data();
    float* cp = c.data();
    for (auto _ : state) {
        parallel_for(m, kCmpThreads, [&](int64_t rb, int64_t re) {
            GemmRowRange(ap, bp, cp, k, n, rb, re);
        });
        benchmark::DoNotOptimize(cp);
    }
}

void
BM_GemmPool(benchmark::State& state)
{
    RunGemmRows(state, [](int64_t n, int nt, const auto& fn) {
        ParallelFor(n, nt, fn);
    });
}
BENCHMARK(BM_GemmPool)->Arg(32)->Arg(128)->UseRealTime();

void
BM_GemmSpawn(benchmark::State& state)
{
    RunGemmRows(state, [](int64_t n, int nt, const auto& fn) {
        SpawnParallelFor(n, nt, fn);
    });
}
BENCHMARK(BM_GemmSpawn)->Arg(32)->Arg(128)->UseRealTime();

void
BM_SelectInline(benchmark::State& state)
{
    uint64_t acc = 1;
    for (auto _ : state) {
        acc = oblivious::Select(oblivious::EqMask(acc & 1, 1), acc + 1,
                                acc + 2);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_SelectInline);

void
BM_SelectNoInline(benchmark::State& state)
{
    uint64_t acc = 1;
    for (auto _ : state) {
        acc = oblivious::SelectNoInline(
            oblivious::EqMask(acc & 1, 1), acc + 1, acc + 2);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_SelectNoInline);

void
BM_LinearScanLookup(benchmark::State& state)
{
    const int64_t rows = state.range(0), cols = 64;
    Rng rng(1);
    const Tensor table = Tensor::Randn({rows, cols}, rng);
    std::vector<float> out(static_cast<size_t>(cols));
    int64_t idx = 0;
    for (auto _ : state) {
        const int64_t id = idx++ % rows;
        oblivious::ScanRows(table.flat(), 0, cols, {&id, 1}, {}, 0, 1, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * rows * cols * 4);
}
BENCHMARK(BM_LinearScanLookup)->Arg(1024)->Arg(16384);

void
BM_ObliviousArgmax(benchmark::State& state)
{
    Rng rng(2);
    const Tensor v = Tensor::Randn({state.range(0)}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(oblivious::ObliviousArgmax(v.flat()));
    }
}
BENCHMARK(BM_ObliviousArgmax)->Arg(50257);

void
BM_HashEncode(benchmark::State& state)
{
    Rng rng(3);
    dhe::HashEncoder enc(state.range(0), 1000000, rng);
    std::vector<int64_t> ids(32);
    for (size_t i = 0; i < ids.size(); ++i) {
        ids[i] = static_cast<int64_t>(i * 977);
    }
    Tensor out({32, state.range(0)});
    for (auto _ : state) {
        enc.Encode(ids, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_HashEncode)->Arg(128)->Arg(1024);

void
BM_BucketCipher(benchmark::State& state)
{
    oram::BucketCipher cipher(42);
    std::vector<uint32_t> words(static_cast<size_t>(state.range(0)));
    uint64_t version = 0;
    for (auto _ : state) {
        cipher.Apply(3, ++version, words);
        benchmark::DoNotOptimize(words.data());
    }
    state.SetBytesProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_BucketCipher)->Arg(256);

void
BM_OramAccess(benchmark::State& state)
{
    const auto kind = state.range(0) == 0 ? oram::OramKind::kPath
                                          : oram::OramKind::kCircuit;
    Rng rng(4);
    auto oram = oram::MakeOram(kind, 16384, 64, rng);
    std::vector<uint32_t> out(64);
    int64_t id = 0;
    for (auto _ : state) {
        oram->Read(id++ % 16384, out);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_OramAccess)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"kind(0=Path,1=Circuit)"});

// ---------------------------------------------------------------------------
// gemm-kernel mode: naive vs packed vs packed+fused epilogue
//
// `micro_primitives gemm-kernel --json BENCH_gemm.json` runs only this
// group, at the DHE decoder FC shapes (batch 256, 1024->512->256->64).
// The three variants isolate where the speedup comes from: the blocked
// SIMD microkernels (naive -> packed) and the fused bias+activation
// epilogue replacing two extra passes over C (packed -> fused).
// ---------------------------------------------------------------------------

constexpr int64_t kDecoderBatch = 256;

/** Separate bias-broadcast + ReLU passes (what fusion eliminates). */
void
BiasReluPasses(Tensor& c, const Tensor& bias)
{
    const int64_t m = c.size(0), n = c.size(1);
    float* cp = c.data();
    const float* bp = bias.data();
    for (int64_t i = 0; i < m; ++i) {
        float* crow = cp + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += bp[j];
    }
    for (int64_t i = 0; i < m * n; ++i) cp[i] = std::max(0.0f, cp[i]);
}

void
SetGemmCounters(benchmark::State& state, int64_t m, int64_t k, int64_t n)
{
    state.counters["flops"] = benchmark::Counter(
        static_cast<double>(2 * m * k * n),
        benchmark::Counter::kIsIterationInvariantRate);
}

void
BM_GemmKernelNaive(benchmark::State& state)
{
    const int64_t m = kDecoderBatch, k = state.range(0), n = state.range(1);
    Rng rng(21);
    const Tensor x = Tensor::Randn({m, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    Tensor c({m, n});
    for (auto _ : state) {
        GemmNaive(x, w, c);
        BiasReluPasses(c, bias);
        benchmark::DoNotOptimize(c.data());
    }
    SetGemmCounters(state, m, k, n);
}
BENCHMARK(BM_GemmKernelNaive)
    ->Args({1024, 512})
    ->Args({512, 256})
    ->Args({256, 64})
    ->ArgNames({"k", "n"});

/** `w` (k x n) packed once for the active tier, as nn::Linear holds it. */
kernels::PackedB
PackWeight(const Tensor& w, kernels::Dtype dtype)
{
    kernels::PackedB packed;
    kernels::PackB(w.data(), w.size(0), w.size(1), /*transposed_src=*/false,
                   kernels::ActiveIsa(), dtype, &packed);
    return packed;
}

void
BM_GemmKernelPacked(benchmark::State& state)
{
    // Packed SIMD kernels on weights packed before the loop, but
    // bias/ReLU still run as separate passes — isolates the microkernel
    // win.
    const int64_t m = kDecoderBatch, k = state.range(0), n = state.range(1);
    Rng rng(21);
    const Tensor x = Tensor::Randn({m, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const kernels::PackedB packed = PackWeight(w, kernels::Dtype::kF32);
    Tensor c({m, n});
    for (auto _ : state) {
        kernels::GemmArgs args;
        args.a = x.data();
        args.b = &packed;
        args.c = c.data();
        args.m = m;
        kernels::GemmPacked(args);
        BiasReluPasses(c, bias);
        benchmark::DoNotOptimize(c.data());
    }
    SetGemmCounters(state, m, k, n);
}
BENCHMARK(BM_GemmKernelPacked)
    ->Args({1024, 512})
    ->Args({512, 256})
    ->Args({256, 64})
    ->ArgNames({"k", "n"});

void
BM_GemmKernelPackedFused(benchmark::State& state)
{
    // The production path: packed kernels + bias/ReLU fused into the
    // GEMM's final store pass.
    const int64_t m = kDecoderBatch, k = state.range(0), n = state.range(1);
    Rng rng(21);
    const Tensor x = Tensor::Randn({m, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const kernels::PackedB packed = PackWeight(w, kernels::ActiveDtype());
    Tensor c({m, n});
    for (auto _ : state) {
        AffineActForward(x, packed, bias, c, 1, kernels::Activation::kRelu);
        benchmark::DoNotOptimize(c.data());
    }
    SetGemmCounters(state, m, k, n);
}
BENCHMARK(BM_GemmKernelPackedFused)
    ->Args({1024, 512})
    ->Args({512, 256})
    ->Args({256, 64})
    ->ArgNames({"k", "n"});

/**
 * Low-precision variants of the fused packed path: weights quantize on
 * pack (bf16 round-to-nearest-even / int8 per-column symmetric), int8 A
 * rows quantize dynamically per call, and dequant rides the fused
 * epilogue. Same decoder shapes as the f32 bench so the per-precision
 * speedup reads straight out of BENCH_gemm_kernel.json.
 */
void
GemmKernelPackedDtype(benchmark::State& state, kernels::Dtype dtype)
{
    const int64_t m = kDecoderBatch, k = state.range(0), n = state.range(1);
    Rng rng(21);
    const Tensor x = Tensor::Randn({m, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const kernels::PackedB packed = PackWeight(w, dtype);
    Tensor c({m, n});
    for (auto _ : state) {
        AffineActForward(x, packed, bias, c, 1, kernels::Activation::kRelu);
        benchmark::DoNotOptimize(c.data());
    }
    SetGemmCounters(state, m, k, n);
}

void
BM_GemmKernelPackedBf16(benchmark::State& state)
{
    GemmKernelPackedDtype(state, kernels::Dtype::kBf16);
}
BENCHMARK(BM_GemmKernelPackedBf16)
    ->Args({1024, 512})
    ->Args({512, 256})
    ->Args({256, 64})
    ->ArgNames({"k", "n"});

void
BM_GemmKernelPackedInt8(benchmark::State& state)
{
    GemmKernelPackedDtype(state, kernels::Dtype::kInt8);
}
BENCHMARK(BM_GemmKernelPackedInt8)
    ->Args({1024, 512})
    ->Args({512, 256})
    ->Args({256, 64})
    ->ArgNames({"k", "n"});

/**
 * Full decoder chain 1024->512->256->64; 0 = naive, 1 = packed+fused
 * f32, 2 = bf16, 3 = int8. The int8-vs-f32 ratio here is the
 * acceptance number for the low-precision tier (single-thread, decoder
 * shapes).
 */
void
BM_GemmKernelDecoderChain(benchmark::State& state)
{
    const int variant = static_cast<int>(state.range(0));
    const kernels::Dtype dtype = variant == 2   ? kernels::Dtype::kBf16
                                 : variant == 3 ? kernels::Dtype::kInt8
                                                : kernels::Dtype::kF32;
    static const int64_t kSizes[] = {1024, 512, 256, 64};
    Rng rng(22);
    const Tensor x = Tensor::Randn({kDecoderBatch, kSizes[0]}, rng);
    std::vector<Tensor> weights, biases, outs;
    std::vector<kernels::PackedB> packed;
    for (int l = 0; l < 3; ++l) {
        weights.push_back(
            Tensor::Randn({kSizes[l], kSizes[l + 1]}, rng));
        biases.push_back(Tensor::Randn({kSizes[l + 1]}, rng));
        outs.push_back(Tensor({kDecoderBatch, kSizes[l + 1]}));
        if (variant != 0) packed.push_back(PackWeight(weights[l], dtype));
    }
    int64_t flops = 0;
    for (int l = 0; l < 3; ++l) {
        flops += 2 * kDecoderBatch * kSizes[l] * kSizes[l + 1];
    }
    for (auto _ : state) {
        const Tensor* in = &x;
        for (int l = 0; l < 3; ++l) {
            if (variant != 0) {
                AffineActForward(*in, packed[l], biases[l], outs[l], 1,
                                 kernels::Activation::kRelu);
            } else {
                GemmNaive(*in, weights[l], outs[l]);
                BiasReluPasses(outs[l], biases[l]);
            }
            in = &outs[l];
        }
        benchmark::DoNotOptimize(outs.back().data());
    }
    state.counters["flops"] = benchmark::Counter(
        static_cast<double>(flops),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmKernelDecoderChain)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgNames({"variant(0=naive,1=f32,2=bf16,3=int8)"});

/**
 * Skinny-m scaling: decoder GEMMs at serving batch sizes (m <= 8) have
 * tiles_m = 1, so only the 2-D column-panel split can use extra
 * threads. Registered from main() over the --threads sweep (default
 * 1/2/4/8) at the two big decoder layers; `hw_threads` is recorded per
 * run so cross-machine trajectory comparisons can tell "no cores" from
 * "no scaling".
 */
void
BM_GemmKernelSkinnyM(benchmark::State& state)
{
    const int64_t m = state.range(0), k = state.range(1), n = state.range(2);
    const int nthreads = static_cast<int>(state.range(3));
    Rng rng(23);
    const Tensor x = Tensor::Randn({m, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const kernels::PackedB packed = PackWeight(w, kernels::ActiveDtype());
    Tensor c({m, n});
    for (auto _ : state) {
        AffineActForward(x, packed, bias, c, nthreads,
                         kernels::Activation::kRelu);
        benchmark::DoNotOptimize(c.data());
    }
    SetGemmCounters(state, m, k, n);
    state.counters["hw_threads"] = benchmark::Counter(
        static_cast<double>(std::thread::hardware_concurrency()));
}

/**
 * Console reporter that additionally captures every run so main() can
 * emit the secemb-bench-v1 JSON document next to the usual table.
 */
class CollectingReporter : public benchmark::ConsoleReporter
{
  public:
    struct CapturedRun
    {
        std::string name;
        int64_t iterations;
        double mean_ns;
        std::vector<std::pair<std::string, uint64_t>> counters;
    };

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& run : runs) {
            if (run.error_occurred || run.iterations <= 0) continue;
            CapturedRun captured;
            captured.name = run.benchmark_name();
            captured.iterations = run.iterations;
            captured.mean_ns = run.real_accumulated_time /
                               static_cast<double>(run.iterations) * 1e9;
            for (const auto& [cname, counter] : run.counters) {
                captured.counters.emplace_back(
                    cname, static_cast<uint64_t>(counter.value));
            }
            captured_.push_back(std::move(captured));
        }
        ConsoleReporter::ReportRuns(runs);
    }

    const std::vector<CapturedRun>& captured() const { return captured_; }

  private:
    std::vector<CapturedRun> captured_;
};

}  // namespace
}  // namespace secemb

int
main(int argc, char** argv)
{
    // Peel off --json <path>, --threads <list>, and the optional
    // `gemm-kernel` mode word (ours) before google-benchmark sees the
    // command line; everything else passes through untouched.
    std::string json_path;
    std::string threads_arg = "1,2,4,8";
    std::string report_name = "micro_primitives";
    bool gemm_mode = false;
    bool user_filter = false;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (i == 1 && std::strcmp(argv[i], "gemm-kernel") == 0) {
            gemm_mode = true;
            report_name = "gemm_kernel";
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            threads_arg = argv[++i];
        } else {
            if (std::strncmp(argv[i], "--benchmark_filter=", 19) == 0) {
                user_filter = true;
            }
            passthrough.push_back(argv[i]);
        }
    }
    // The mode restricts the run to the kernel comparison unless the
    // caller supplied an explicit filter of their own.
    static char gemm_filter[] = "--benchmark_filter=^BM_GemmKernel";
    if (gemm_mode && !user_filter) passthrough.push_back(gemm_filter);
    int filtered_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&filtered_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc,
                                               passthrough.data())) {
        return 1;
    }

    // The skinny-m thread sweep registers here so --threads can change
    // the sweep list (default 1,2,4,8) without rebuilding.
    {
        std::vector<int64_t> threads;
        std::string tok;
        for (char ch : threads_arg + ",") {
            if (ch == ',') {
                if (!tok.empty()) threads.push_back(std::atoll(tok.c_str()));
                tok.clear();
            } else {
                tok.push_back(ch);
            }
        }
        static const int64_t kSkinnyShapes[][3] = {
            {1, 1024, 512}, {4, 1024, 512}, {8, 512, 256}};
        for (const auto& shape : kSkinnyShapes) {
            for (int64_t t : threads) {
                auto* bench = benchmark::RegisterBenchmark(
                    "BM_GemmKernelSkinnyM", secemb::BM_GemmKernelSkinnyM);
                bench->Args({shape[0], shape[1], shape[2], t})
                    ->ArgNames({"m", "k", "n", "threads"})
                    ->UseRealTime();
            }
        }
    }

    secemb::CollectingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    if (!json_path.empty()) {
        secemb::bench::BenchReport report(report_name);
        for (const auto& run : reporter.captured()) {
            auto& result = report.AddResult(run.name);
            result.latency = secemb::bench::LatencyStats::FromMean(
                run.mean_ns, static_cast<uint64_t>(run.iterations));
            result.counters = run.counters;
        }
        if (!report.WriteTo(json_path)) {
            std::fprintf(stderr, "micro_primitives: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
    }
    return 0;
}
