/**
 * @file
 * Google-benchmark microbenchmarks for the primitives every scheme is
 * built from: constant-time selects, oblivious scans, hash encoding,
 * bucket encryption, and single ORAM accesses. These are the unit costs
 * behind every figure; regressions here shift every curve.
 */

#include <benchmark/benchmark.h>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/json.h"
#include "dhe/hashing.h"
#include "dlrm/interaction.h"
#include "llm/attention.h"
#include "oblivious/ct_ops.h"
#include "oblivious/scan.h"
#include "oram/crypto.h"
#include "oram/tree_oram.h"
#include "store/raw_oram.h"
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
            oblivious::ScanRows(table.flat(), 0, cols, ids, b, e, out);
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
        oblivious::ScanRows(table.flat(), 0, cols, {&id, 1}, 0, 1, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * rows * cols * 4);
}
BENCHMARK(BM_LinearScanLookup)->Arg(1024)->Arg(16384);

/**
 * One ScanRows call on one thread over the largest dlrm scan table
 * (2208 x 64): 1 and 4 ids are serve-sized calls, 32 ids a dlrm batch.
 * `glanes_per_s` counts the lane selects, rows x dim x ids, in G/s.
 * Report-only: no baseline row gates it.
 */
void
BM_ScanRowsBatch(benchmark::State& state)
{
    const int64_t ids_n = state.range(0), rows = 2208, cols = 64;
    Rng rng(12);
    const Tensor table = Tensor::Randn({rows, cols}, rng);
    std::vector<int64_t> ids(static_cast<size_t>(ids_n));
    for (int64_t i = 0; i < ids_n; ++i) {
        ids[static_cast<size_t>(i)] = (i * 131) % rows;
    }
    std::vector<float> out(static_cast<size_t>(ids_n * cols));
    for (auto _ : state) {
        oblivious::ScanRows(table.flat(), 0, cols, ids, 0, ids_n, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.counters["glanes_per_s"] = benchmark::Counter(
        1e-9 * static_cast<double>(rows * cols * ids_n),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_ScanRowsBatch)->ArgName("ids")->Arg(1)->Arg(4)->Arg(32);

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

/**
 * The GPT FFN's fc1 at the llm workload's shapes, one thread: a 256 ->
 * 1024 GEMM at m = 4 (one decode step) and m = 256 (a 4 x 64 prefill),
 * with the fused epilogue writing the pre-activation as nn::Linear
 * does. gelu:0 runs the identity epilogue, so the GELU's own cost is
 * the difference of the two rows. Report-only: no baseline row gates it.
 */
void
BM_Fc1Epilogue(benchmark::State& state)
{
    const int64_t m = state.range(0), k = 256, n = 1024;
    const auto act = state.range(1) != 0 ? kernels::Activation::kGelu
                                         : kernels::Activation::kIdentity;
    Rng rng(24);
    const Tensor x = Tensor::Randn({m, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng, 0.06f);
    const Tensor bias = Tensor::Randn({n}, rng);
    kernels::PackedB packed;
    kernels::PackB(w.data(), k, n, /*transposed_src=*/false,
                   kernels::ActiveIsa(), &packed);
    Tensor c({m, n}), preact({m, n});
    for (auto _ : state) {
        AffineActForward(x, packed, bias, c, 1, act, &preact);
        benchmark::DoNotOptimize(c.data());
        benchmark::DoNotOptimize(preact.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Fc1Epilogue)
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({256, 0})
    ->Args({256, 1})
    ->ArgNames({"m", "gelu"});

/**
 * One causal self-attention layer at the llm workload's shape (dim 256,
 * 8 heads, batch 4, one thread), its QKV and output GEMMs included.
 * decode:0 is a 64-token prefill into an empty KV cache; decode:1 is
 * the 32 single-token steps after it, attending to 65..96 positions, so
 * its time over 32 is one decode step's attention. Report-only.
 */
void
BM_CausalAttention(benchmark::State& state)
{
    constexpr int64_t kBatch = 4, kDim = 256, kHeads = 8;
    constexpr int64_t kPrompt = 64, kSteps = 32;
    const bool decode = state.range(0) != 0;
    Rng rng(25);
    llm::CausalSelfAttention attn(kDim, kHeads, rng);
    const Tensor prompt = Tensor::Randn({kBatch * kPrompt, kDim}, rng);
    const Tensor token = Tensor::Randn({kBatch, kDim}, rng);
    llm::KvCache cache(kBatch, kPrompt + kSteps, kDim);
    attn.ForwardCached(prompt, kBatch, kPrompt, cache);
    for (auto _ : state) {
        if (decode) {
            cache.len = kPrompt;
            for (int64_t s = 0; s < kSteps; ++s) {
                const Tensor y = attn.ForwardCached(token, kBatch, 1, cache);
                benchmark::DoNotOptimize(y.data());
            }
        } else {
            cache.len = 0;
            const Tensor y = attn.ForwardCached(prompt, kBatch, kPrompt, cache);
            benchmark::DoNotOptimize(y.data());
        }
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_CausalAttention)->ArgName("decode")->Arg(0)->Arg(1);

/**
 * The dlrm batch's dot interaction: 32 samples of 27 vectors (the dense
 * output and 26 embeddings) of 64 floats, so 32 x 351 dots of length
 * 64. `gflops` counts a multiply and an add per step. Report-only.
 */
void
BM_DotInteraction(benchmark::State& state)
{
    const int64_t batch = state.range(0), vectors = state.range(1),
                  d = state.range(2);
    Rng rng(27);
    const Tensor dense = Tensor::Randn({batch, d}, rng);
    std::vector<Tensor> embs;
    for (int64_t e = 1; e < vectors; ++e) {
        embs.push_back(Tensor::Randn({batch, d}, rng));
    }
    for (auto _ : state) {
        const Tensor z =
            dlrm::InteractionForward(dlrm::Interaction::kDot, dense, embs);
        benchmark::DoNotOptimize(z.data());
        benchmark::ClobberMemory();
    }
    state.counters["gflops"] = benchmark::Counter(
        1e-9 * static_cast<double>(batch * vectors * (vectors - 1) * d),
        benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_DotInteraction)->Args({32, 27, 64})->ArgNames({"batch", "f", "d"});

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

/**
 * One RAW ORAM read at BM_OramAccess's shape (16384 x 64) on a memory
 * store with 4 KiB pages: levels + 1 page fetches per read, and an
 * eviction every 8 reads amortised over the loop. Report-only: no
 * baseline row gates it.
 */
void
BM_RawOramAccess(benchmark::State& state)
{
    constexpr int64_t kBlocks = 16384, kWords = 64, kPageBytes = 4096;
    store::StoreConfig config;
    config.backend = store::StoreBackend::kMemory;
    config.page_bytes = kPageBytes;
    std::unique_ptr<store::PageCache> cache;
    store::ThrowIfError(store::MakePageCache(
        config, store::RawOram::PagesNeeded(kBlocks, kWords, kPageBytes),
        &cache));
    Rng rng(4);
    store::RawOram oram(kBlocks, kWords, std::move(cache), rng, {});
    store::ThrowIfError(oram.BulkLoad(
        std::vector<uint32_t>(static_cast<size_t>(kBlocks * kWords), 0)));
    std::vector<uint32_t> out(kWords);
    int64_t id = 0;
    for (auto _ : state) {
        store::ThrowIfError(oram.Read(id++ % kBlocks, out));
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_RawOramAccess);

// ---------------------------------------------------------------------------
// Host rooflines: one core's multiply-add peak and streaming read rate.
// They run first, and every BM_GemmKernel* row of the same run reports
// `pct_of_bound` against them (CollectingReporter), because both bounds
// move on a shared host.
// ---------------------------------------------------------------------------

/** Independent multiply-add chains per trip: more than the FMA latency
 * times the FMA ports of current x86 cores (4 cycles x 2). */
constexpr int kPeakChains = 12;

#if defined(__x86_64__)
// Each chain runs c = c * m + a, which converges to a / (1 - m): no
// chain overflows or turns subnormal however long the row runs. The
// chains are summed so none is dead code.
__attribute__((target("avx512f"))) float
MaddChainsAvx512(int64_t trips, float m, float a)
{
    __m512 c[kPeakChains] = {};
    const __m512 vm = _mm512_set1_ps(m), va = _mm512_set1_ps(a);
    for (int64_t t = 0; t < trips; ++t) {
#pragma GCC unroll kPeakChains
        for (int i = 0; i < kPeakChains; ++i) {
            c[i] = _mm512_fmadd_ps(c[i], vm, va);
        }
    }
    float out[kPeakChains * 16];
    std::memcpy(out, c, sizeof(c));
    return std::accumulate(std::begin(out), std::end(out), 0.0f);
}

__attribute__((target("avx2,fma"))) float
MaddChainsAvx2(int64_t trips, float m, float a)
{
    __m256 c[kPeakChains] = {};
    const __m256 vm = _mm256_set1_ps(m), va = _mm256_set1_ps(a);
    for (int64_t t = 0; t < trips; ++t) {
#pragma GCC unroll kPeakChains
        for (int i = 0; i < kPeakChains; ++i) {
            c[i] = _mm256_fmadd_ps(c[i], vm, va);
        }
    }
    float out[kPeakChains * 8];
    std::memcpy(out, c, sizeof(c));
    return std::accumulate(std::begin(out), std::end(out), 0.0f);
}

/** The scalar tier's tile compiles to SSE2 mulps + addps. */
float
MaddChainsSse2(int64_t trips, float m, float a)
{
    __m128 c[kPeakChains] = {};
    const __m128 vm = _mm_set1_ps(m), va = _mm_set1_ps(a);
    for (int64_t t = 0; t < trips; ++t) {
#pragma GCC unroll kPeakChains
        for (int i = 0; i < kPeakChains; ++i) {
            c[i] = _mm_add_ps(_mm_mul_ps(c[i], vm), va);
        }
    }
    float out[kPeakChains * 4];
    std::memcpy(out, c, sizeof(c));
    return std::accumulate(std::begin(out), std::end(out), 0.0f);
}
#endif

/**
 * One core's f32 multiply-add peak at the active tier's vector width
 * (label): the compute bound of the GEMM rows. int8 rows count f32
 * flops against it, so on VNNI (4 multiply-adds per lane and
 * instruction) they can read above 100.
 */
void
BM_HostFmaPeak(benchmark::State& state)
{
#if defined(__x86_64__)
    constexpr int64_t kTrips = 1 << 16;
    float m = 0.999f, a = 1e-3f;
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(a);
    const kernels::Isa isa = kernels::ActiveIsa();
    const int lanes = isa == kernels::Isa::kAvx512 ? 16
                      : isa == kernels::Isa::kAvx2 ? 8
                                                   : 4;
    for (auto _ : state) {
        const float sum =
            isa == kernels::Isa::kAvx512 ? MaddChainsAvx512(kTrips, m, a)
            : isa == kernels::Isa::kAvx2 ? MaddChainsAvx2(kTrips, m, a)
                                         : MaddChainsSse2(kTrips, m, a);
        benchmark::DoNotOptimize(sum);
    }
    state.SetLabel(kernels::IsaName(isa));
    state.counters["flops"] = benchmark::Counter(
        2.0 * kTrips * kPeakChains * lanes,
        benchmark::Counter::kIsIterationInvariantRate);
#else
    state.SkipWithError("the multiply-add peak probe is x86-64 only");
#endif
}
BENCHMARK(BM_HostFmaPeak);

/** One core reading a 64 MB buffer end to end, far past the caches:
 * the bandwidth bound of the GEMM rows. Like the f32 tile it prefetches
 * ahead (4 KB), because the hardware prefetcher stops at page
 * boundaries; a plain sweep reads about 20% slower. `Alloc` picks the
 * pages the buffer sits on. */
template <class Alloc>
void
StreamRead(benchmark::State& state)
{
    constexpr size_t kBytes = size_t{64} << 20;
    constexpr uintptr_t kAhead = 4096;
    const std::vector<uint64_t, Alloc> buf(kBytes / sizeof(uint64_t), 1);
    for (auto _ : state) {
        uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
        for (size_t i = 0; i < buf.size(); i += 4) {
            // An integer address: it runs past the buffer's end.
            __builtin_prefetch(reinterpret_cast<const void*>(
                reinterpret_cast<uintptr_t>(&buf[i]) + kAhead));
            s0 += buf[i];
            s1 += buf[i + 1];
            s2 += buf[i + 2];
            s3 += buf[i + 3];
        }
        benchmark::DoNotOptimize(s0 + s1 + s2 + s3);
    }
    state.counters["bytes"] = benchmark::Counter(
        static_cast<double>(kBytes),
        benchmark::Counter::kIsIterationInvariantRate);
}

/** The sweep on 4 KiB pages. */
void
BM_HostStreamRead(benchmark::State& state)
{
    StreamRead<std::allocator<uint64_t>>(state);
}
BENCHMARK(BM_HostStreamRead);

/** The sweep on the 2 MiB pages that packed panels of a huge page or
 * more sit on (kernels::PanelAllocator), like the LM head's. */
void
BM_HostStreamReadHuge(benchmark::State& state)
{
    StreamRead<kernels::PanelAllocator<uint64_t>>(state);
}
BENCHMARK(BM_HostStreamReadHuge);

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

/** Bytes one GEMM call must move at least once: A and C in f32, B at
 * its packed element size. */
double
GemmBytes(int64_t m, int64_t k, int64_t n, kernels::Dtype dtype)
{
    const int64_t b_elem = dtype == kernels::Dtype::kF32    ? 4
                           : dtype == kernels::Dtype::kBf16 ? 2
                                                            : 1;
    return static_cast<double>(4 * m * k + b_elem * k * n + 4 * m * n);
}

void
SetGemmCounters(benchmark::State& state, int64_t m, int64_t k, int64_t n,
                kernels::Dtype dtype)
{
    state.counters["flops"] = benchmark::Counter(
        static_cast<double>(2 * m * k * n),
        benchmark::Counter::kIsIterationInvariantRate);
    state.counters["bytes"] = benchmark::Counter(
        GemmBytes(m, k, n, dtype),
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
    SetGemmCounters(state, m, k, n, kernels::Dtype::kF32);
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
    SetGemmCounters(state, m, k, n, kernels::Dtype::kF32);
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
    SetGemmCounters(state, m, k, n, kernels::ActiveDtype());
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
    SetGemmCounters(state, m, k, n, dtype);
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
    double bytes = 0.0;
    for (int l = 0; l < 3; ++l) {
        flops += 2 * kDecoderBatch * kSizes[l] * kSizes[l + 1];
        bytes += GemmBytes(kDecoderBatch, kSizes[l], kSizes[l + 1], dtype);
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
    state.counters["bytes"] = benchmark::Counter(
        bytes, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmKernelDecoderChain)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->ArgNames({"variant(0=naive,1=f32,2=bf16,3=int8)"});

/**
 * Fused-ReLU f32 GEMMs at the shapes of a dlrm batch (m = 32, one
 * thread): a large Varied DHE decoder's first two layers (1022 hashes
 * -> 511 -> 255) and the top MLP's first layer (64 + 351 interaction
 * outputs -> 512). At m = 32 a k block's multiply-adds per tile are
 * the same as at m = 256, but the A-panel pack and the merge weigh more
 * against the weights streamed once per call. Report-only: no baseline
 * row gates it.
 */
void
BM_GemmKernelDlrmBatch(benchmark::State& state)
{
    constexpr int64_t kBatch = 32;
    const int64_t k = state.range(0), n = state.range(1);
    Rng rng(26);
    const Tensor x = Tensor::Randn({kBatch, k}, rng);
    const Tensor w = Tensor::Randn({k, n}, rng);
    const Tensor bias = Tensor::Randn({n}, rng);
    const kernels::PackedB packed = PackWeight(w, kernels::Dtype::kF32);
    Tensor c({kBatch, n});
    for (auto _ : state) {
        AffineActForward(x, packed, bias, c, 1, kernels::Activation::kRelu);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    SetGemmCounters(state, kBatch, k, n, kernels::Dtype::kF32);
}
BENCHMARK(BM_GemmKernelDlrmBatch)
    ->Args({1022, 511})
    ->Args({511, 255})
    ->Args({415, 512})
    ->ArgNames({"k", "n"});

/**
 * Skinny-m scaling: decoder GEMMs at serving batch sizes (m <= 8) have
 * tiles_m = 1, so only the 2-D column-panel split can use extra
 * threads. Registered from main() over the --threads sweep (default
 * 1/2/4/8) at the two big decoder layers and the GPT LM head
 * (4 x 256 x 50257, 51 MB of f32 weights: bandwidth bound);
 * `hw_threads` is recorded per run so cross-machine trajectory
 * comparisons can tell "no cores" from "no scaling".
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
    SetGemmCounters(state, m, k, n, kernels::ActiveDtype());
    state.counters["hw_threads"] = benchmark::Counter(
        static_cast<double>(std::thread::hardware_concurrency()));
}

/**
 * Console reporter that additionally captures every run so main() can
 * emit the secemb-bench-v1 JSON document next to the usual table. It
 * also gives every BM_GemmKernel* row an integer `pct_of_bound`: the
 * row's time as a percentage of the larger of its compute time at the
 * BM_HostFmaPeak rate and its traffic time at the stream rate, both
 * from this run (a t-thread row gets t cores' bounds). The stream rate
 * is the larger of BM_HostStreamRead's (4 KiB pages) and
 * BM_HostStreamReadHuge's (2 MiB pages), so a row whose panel sits on
 * huge pages is judged against the rate those pages allow. It is a
 * DRAM rate taken once per run, so a row can read above 100 when its
 * operands stay cached between iterations or the host's bandwidth
 * rises after the host rows ran. A row gets none when the filter left
 * the host rows out.
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
    ReportRuns(const std::vector<Run>& reported) override
    {
        std::vector<Run> runs = reported;
        double stream_bytes = 0.0;
        for (Run& run : runs) {
            // Repetitions: bounds and percentages come from each run and
            // the median, not from the mean, stddev or cv rows.
            if (run.error_occurred || run.iterations <= 0 ||
                (run.run_type == Run::RT_Aggregate &&
                 run.aggregate_name != "median")) {
                continue;
            }
            const std::string name = run.benchmark_name();
            if (name.rfind("BM_HostFmaPeak", 0) == 0) {
                peak_flops_ = run.counters["flops"].value;
            } else if (name.rfind("BM_HostStreamRead", 0) == 0) {
                // The last run of a row: the median under repetitions.
                stream_bytes = run.counters["bytes"].value;
            } else if (name.rfind("BM_GemmKernel", 0) == 0 &&
                       peak_flops_ > 0.0 && read_bytes_ > 0.0) {
                const size_t t = name.find("threads:");
                const double cores = std::min<double>(
                    t == std::string::npos ? 1 : std::atoi(&name[t + 8]),
                    std::max(1u, std::thread::hardware_concurrency()));
                const double share = std::max(
                    run.counters["flops"].value / (cores * peak_flops_),
                    run.counters["bytes"].value / (cores * read_bytes_));
                run.counters["pct_of_bound"] =
                    benchmark::Counter(std::round(100.0 * share));
            }
        }
        read_bytes_ = std::max(read_bytes_, stream_bytes);
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
    double peak_flops_ = 0.0;  // per second, one core
    double read_bytes_ = 0.0;  // per second, one core
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
    // The mode restricts the run to the kernel comparison and its two
    // host bounds unless the caller supplied an explicit filter of their
    // own.
    static char gemm_filter[] = "--benchmark_filter=^BM_(Host|GemmKernel)";
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
            {1, 1024, 512}, {4, 1024, 512}, {8, 512, 256}, {4, 256, 50257}};
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
