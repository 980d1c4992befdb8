/**
 * @file
 * Packed-kernel subsystem tests (ctest label `kernels`).
 *
 * Seeded property tests compare every compiled ISA tier against the
 * naive reference loops across odd/tail shapes, and the fused epilogue
 * against separate bias/activation passes. The low-precision sections
 * hold the int8/bf16 tiers to a derived per-element quantization error
 * bound against the f32 naive reference, pin cross-tier int8
 * bit-identity (all tiers share one quantization scheme) and skinny-m
 * 2-D-split determinism. The nn::Linear section checks the layer-owned
 * weight panels: packed once, repacked after every API that changes the
 * weight, the precision or the tier. The trace section proves the
 * obliviousness claim: canonical traces of the certified generators are
 * bit-identical regardless of which GEMM tier — and which precision —
 * runs underneath (label `leakage`).
 */

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/optim.h"
#include "telemetry/telemetry.h"
#include "tensor/aligned.h"
#include "tensor/gemm.h"
#include "tensor/kernels/driver.h"
#include "tensor/kernels/kernels.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "verify/harness.h"

#include "kernel_tier.h"
#include "test_util.h"

namespace secemb {
namespace {

using kernels::Activation;
using kernels::Dtype;
using kernels::Isa;

/** Forces a tier for the scope of a test; restores normal selection. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(Isa isa)
    {
        kernels::SetIsaForTest(static_cast<int>(isa));
    }
    ~ScopedIsa() { kernels::SetIsaForTest(-1); }
};

std::vector<Isa>
SupportedTiers()
{
    std::vector<Isa> tiers;
    for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
        if (kernels::IsaSupported(isa)) tiers.push_back(isa);
    }
    return tiers;
}

/** max |got - want| / max(1, |want|) over all elements. */
float
MaxRelError(const Tensor& got, const Tensor& want)
{
    EXPECT_EQ(got.shape(), want.shape());
    float worst = 0.0f;
    for (int64_t i = 0; i < got.numel(); ++i) {
        const float denom = std::max(1.0f, std::fabs(want.at(i)));
        worst = std::max(worst, std::fabs(got.at(i) - want.at(i)) / denom);
    }
    return worst;
}

constexpr float kRelTol = 1e-4f;

/** `w` (k x n) packed at f32 for the active tier. */
kernels::PackedB
PackF32(const Tensor& w)
{
    kernels::PackedB packed;
    kernels::PackB(w.data(), w.size(0), w.size(1), /*transposed_src=*/false,
                   kernels::ActiveIsa(), &packed);
    return packed;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(KernelDispatchTest, ScalarTierAlwaysAvailable)
{
    EXPECT_TRUE(kernels::IsaCompiledIn(Isa::kScalar));
    EXPECT_TRUE(kernels::IsaSupported(Isa::kScalar));
    EXPECT_STREQ(kernels::IsaName(Isa::kScalar), "scalar");
    EXPECT_STREQ(kernels::IsaName(Isa::kAvx2), "avx2");
    EXPECT_STREQ(kernels::IsaName(Isa::kAvx512), "avx512");
}

TEST(KernelDispatchTest, ForcedTierIsActiveAndClampRestores)
{
    // Baseline is whatever normal selection picks (the SECEMB_ISA
    // environment override, else the widest supported tier) — the test
    // must pass under any SECEMB_ISA setting.
    const Isa baseline = kernels::ActiveIsa();
    {
        ScopedIsa scoped(Isa::kScalar);
        EXPECT_EQ(kernels::ActiveIsa(), Isa::kScalar);
    }
    EXPECT_EQ(kernels::ActiveIsa(), baseline);
}

TEST(KernelDispatchTest, UnsupportedForceClampsToWidest)
{
    // Forcing a tier the build/CPU cannot satisfy must clamp, not crash.
    kernels::SetIsaForTest(static_cast<int>(Isa::kAvx512));
    const Isa active = kernels::ActiveIsa();
    EXPECT_TRUE(kernels::IsaSupported(active));
    kernels::SetIsaForTest(-1);
}

// ---------------------------------------------------------------------------
// Satellite: Tensor payload alignment
// ---------------------------------------------------------------------------

TEST(KernelAlignmentTest, TensorPayloadsAre64ByteAligned)
{
    Rng rng(11);
    // Odd sizes included on purpose: alignment must come from the
    // allocator, not from size rounding.
    for (int64_t n : {1, 3, 7, 17, 63, 64, 65, 1000, 4096}) {
        const Tensor t = Tensor::Randn({n}, rng);
        EXPECT_TRUE(IsAligned64(t.data())) << "numel=" << n;
        Tensor copy = t;
        EXPECT_TRUE(IsAligned64(copy.data())) << "copy numel=" << n;
    }
}

TEST(KernelAlignmentTest, PackedPanelsAre64ByteAligned)
{
    Rng rng(12);
    const Tensor b = Tensor::Randn({37, 19}, rng);
    for (Isa isa : SupportedTiers()) {
        kernels::PackedB packed;
        kernels::PackB(b.data(), 37, 19, /*transposed_src=*/false, isa,
                       &packed);
        EXPECT_TRUE(IsAligned64(packed.data.data()))
            << kernels::IsaName(isa);
        // Panel rows are NR floats; NR*4 divides 64 for every tier, so
        // per-panel bases stay aligned too.
        EXPECT_EQ((packed.nr * 4) % 64 == 0 || (64 % (packed.nr * 4)) == 0,
                  true);
    }
}

/** The VmFlags and AnonHugePages of the /proc/self/smaps mapping that
 * holds `p`; `found` stays false when no mapping does. */
struct SmapsEntry
{
    bool found = false;
    std::string vm_flags;
    std::string anon_huge_pages;
};

SmapsEntry
SmapsEntryOf(const void* p)
{
    SmapsEntry entry;
    std::FILE* f = std::fopen("/proc/self/smaps", "r");
    if (f == nullptr) return entry;
    const auto addr = reinterpret_cast<unsigned long>(p);
    bool inside = false;
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        unsigned long lo = 0, hi = 0;
        char perms[8];
        if (std::sscanf(line, "%lx-%lx %7s", &lo, &hi, perms) == 3) {
            if (entry.found) break;  // past the entry's last field
            inside = lo <= addr && addr < hi;
            entry.found = inside;
        } else if (inside) {
            std::string field(line);
            field.erase(field.find_last_not_of(" \n") + 1);
            if (field.rfind("VmFlags:", 0) == 0) {
                entry.vm_flags = field.substr(8) + " ";
            } else if (field.rfind("AnonHugePages:", 0) == 0) {
                entry.anon_huge_pages = field.substr(14);
            }
        }
    }
    std::fclose(f);
    return entry;
}

TEST(KernelAlignmentTest, PanelsOfAHugePageSitOnAdvisedHugePages)
{
    const char* thp = "/sys/kernel/mm/transparent_hugepage/enabled";
    std::FILE* mode_file = std::fopen(thp, "r");
    if (mode_file == nullptr) {
        GTEST_SKIP() << "no " << thp << ": kernel built without THP";
    }
    char mode[128] = {};
    if (std::fgets(mode, sizeof(mode), mode_file) == nullptr) mode[0] = 0;
    std::fclose(mode_file);
    std::printf("THP enabled: %s", mode);

    // k = 256, n = 8192: 8 MiB at f32, 4 MiB at bf16 and 2 MiB at int8,
    // on every tier.
    constexpr int64_t kK = 256, kN = 8192;
    Rng rng(24);
    const Tensor b = Tensor::Randn({kK, kN}, rng);
    for (Isa isa : SupportedTiers()) {
        for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
            kernels::PackedB packed;
            kernels::PackB(b.data(), kK, kN, /*transposed_src=*/false, isa,
                           dtype, &packed);
            const bool f32 = dtype == Dtype::kF32;
            const void* panels = f32 ? static_cast<const void*>(
                                           packed.data.data())
                                     : packed.qdata.data();
            const size_t bytes = f32 ? packed.data.size() * sizeof(float)
                                     : packed.qdata.size();
            const std::string where = std::string(kernels::IsaName(isa)) +
                                      "/" + kernels::DtypeName(dtype);
            ASSERT_GE(bytes, kernels::kHugePageBytes) << where;
            EXPECT_EQ(reinterpret_cast<uintptr_t>(panels) %
                          kernels::kHugePageBytes,
                      0u)
                << where;
            const SmapsEntry entry = SmapsEntryOf(panels);
            ASSERT_TRUE(entry.found) << where;
            EXPECT_NE(entry.vm_flags.find(" hg "), std::string::npos)
                << where << ": VmFlags:" << entry.vm_flags;
            // Whether the kernel granted huge pages depends on free
            // memory, so this is printed, not asserted.
            std::printf("%s: %zu bytes, AnonHugePages:%s\n", where.c_str(),
                        bytes, entry.anon_huge_pages.c_str());
        }
    }

    // Under one huge page (1 MiB at f32): the 64-byte path.
    const Tensor small = Tensor::Randn({kK, 1024}, rng);
    kernels::PackedB packed;
    kernels::PackB(small.data(), kK, 1024, /*transposed_src=*/false,
                   kernels::ActiveIsa(), &packed);
    ASSERT_LT(packed.data.size() * sizeof(float), kernels::kHugePageBytes);
    EXPECT_TRUE(IsAligned64(packed.data.data()));
}

// ---------------------------------------------------------------------------
// Satellite: shape validation regression (the `(void)b;` bug)
// ---------------------------------------------------------------------------

TEST(KernelShapeCheckTest, GemmRejectsMismatchedB)
{
    Tensor a({4, 8}), c({4, 5});
    Tensor b_bad_cols({8, 6});   // n disagrees with C
    Tensor b_bad_rows({7, 5});   // inner dim disagrees with A
    EXPECT_THROW(test::PackedGemm(a, b_bad_cols, c), std::invalid_argument);
    EXPECT_THROW(test::PackedGemm(a, b_bad_rows, c), std::invalid_argument);
    EXPECT_THROW(GemmNaive(a, b_bad_cols, c), std::invalid_argument);
}

TEST(KernelShapeCheckTest, GemmBTRejectsMismatchedB)
{
    Tensor a({4, 8}), c({4, 5});
    Tensor bt_bad_inner({5, 9});  // B^T inner dim disagrees with A
    Tensor bt_bad_rows({6, 8});   // n disagrees with C
    EXPECT_THROW(GemmBT(a, bt_bad_inner, c), std::invalid_argument);
    EXPECT_THROW(GemmBT(a, bt_bad_rows, c), std::invalid_argument);
    EXPECT_THROW(GemmBTNaive(a, bt_bad_inner, c), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property tests: every tier vs the naive reference
// ---------------------------------------------------------------------------

struct GemmCase
{
    int64_t m, k, n;
    int nthreads;
};

/**
 * Seeded shape corpus: all dims from {1..17, 63, 64, 65} plus a few
 * large-dim probes, >= 340 triples. Run per compiled tier this exceeds
 * 1000 property cases on any x86-64 build.
 */
std::vector<GemmCase>
ShapeCorpus(uint64_t seed)
{
    static const int64_t kDims[] = {1,  2,  3,  4,  5,  6,  7,  8,  9, 10,
                                    11, 12, 13, 14, 15, 16, 17, 63, 64, 65};
    std::vector<GemmCase> cases;
    Rng rng(seed);
    auto pick = [&rng]() {
        return kDims[rng.NextBounded(sizeof(kDims) / sizeof(kDims[0]))];
    };
    for (int i = 0; i < 330; ++i) {
        cases.push_back({pick(), pick(), pick(),
                         i % 7 == 0 ? 3 : 1});
    }
    // One big dim at a time keeps each case cheap while still crossing
    // every MC/KC/NC blocking boundary.
    cases.push_back({1024, 5, 9, 1});
    cases.push_back({5, 1024, 9, 1});
    cases.push_back({5, 9, 1024, 1});
    cases.push_back({256, 1024, 512, 2});  // DHE decoder layer shape
    return cases;
}

TEST(KernelPropertyTest, GemmMatchesNaiveOnEveryTier)
{
    Rng rng(101);
    const auto corpus = ShapeCorpus(202);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto& tc : corpus) {
            const Tensor a = Tensor::Randn({tc.m, tc.k}, rng);
            const Tensor b = Tensor::Randn({tc.k, tc.n}, rng);
            Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
            GemmNaive(a, b, want);
            test::PackedGemm(a, b, got, tc.nthreads);
            ASSERT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " m=" << tc.m << " k=" << tc.k
                << " n=" << tc.n << " t=" << tc.nthreads;
        }
    }
}

TEST(KernelPropertyTest, GemmBTMatchesNaiveOnEveryTier)
{
    Rng rng(103);
    const auto corpus = ShapeCorpus(204);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto& tc : corpus) {
            const Tensor a = Tensor::Randn({tc.m, tc.k}, rng);
            const Tensor bt = Tensor::Randn({tc.n, tc.k}, rng);
            Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
            GemmBTNaive(a, bt, want);
            GemmBT(a, bt, got, tc.nthreads);
            ASSERT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " m=" << tc.m << " k=" << tc.k
                << " n=" << tc.n << " t=" << tc.nthreads;
        }
    }
}

TEST(KernelPropertyTest, GemmATMatchesNaiveOnEveryTier)
{
    Rng rng(105);
    const auto corpus = ShapeCorpus(206);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto& tc : corpus) {
            const Tensor at = Tensor::Randn({tc.k, tc.m}, rng);
            const Tensor b = Tensor::Randn({tc.k, tc.n}, rng);
            Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
            GemmATNaive(at, b, want);
            GemmAT(at, b, got, tc.nthreads);
            ASSERT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " m=" << tc.m << " k=" << tc.k
                << " n=" << tc.n << " t=" << tc.nthreads;
        }
    }
}

TEST(KernelPropertyTest, TiersAgreeWithEachOther)
{
    // Cross-tier consistency at one blocking-boundary shape: all
    // compiled tiers must agree within tolerance on identical inputs.
    Rng rng(107);
    const Tensor a = Tensor::Randn({65, 385}, rng);
    const Tensor b = Tensor::Randn({385, 129}, rng);
    const auto tiers = SupportedTiers();
    Tensor base({65, 129});
    {
        ScopedIsa scoped(tiers.front());
        test::PackedGemm(a, b, base);
    }
    for (size_t i = 1; i < tiers.size(); ++i) {
        ScopedIsa scoped(tiers[i]);
        Tensor got({65, 129});
        test::PackedGemm(a, b, got);
        EXPECT_LE(MaxRelError(got, base), kRelTol)
            << kernels::IsaName(tiers[i]);
    }
}

// ---------------------------------------------------------------------------
// Fused epilogue
// ---------------------------------------------------------------------------

TEST(KernelEpilogueTest, FusedBiasActMatchesSeparatePasses)
{
    Rng rng(109);
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        for (const auto act : {Activation::kIdentity, Activation::kRelu,
                               Activation::kGelu}) {
            const int64_t m = 33, k = 65, n = 47;
            const Tensor x = Tensor::Randn({m, k}, rng);
            const Tensor w = Tensor::Randn({k, n}, rng);
            const Tensor bias = Tensor::Randn({n}, rng);

            Tensor want({m, n});
            GemmNaive(x, w, want);
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < n; ++j) {
                    float v = want.at(i, j) + bias.at(j);
                    if (act == Activation::kRelu) v = std::max(0.0f, v);
                    if (act == Activation::kGelu) v = kernels::GeluF(v);
                    want.at(i, j) = v;
                }
            }

            Tensor got({m, n}), preact({m, n});
            AffineActForward(x, PackF32(w), bias, got, 1, act, &preact);
            EXPECT_LE(MaxRelError(got, want), kRelTol)
                << kernels::IsaName(isa) << " act="
                << static_cast<int>(act);

            // preact must hold x*W + bias regardless of activation.
            Tensor want_pre({m, n});
            GemmNaive(x, w, want_pre);
            for (int64_t i = 0; i < m; ++i) {
                for (int64_t j = 0; j < n; ++j) {
                    want_pre.at(i, j) += bias.at(j);
                }
            }
            EXPECT_LE(MaxRelError(preact, want_pre), kRelTol)
                << kernels::IsaName(isa);
        }
    }
}

TEST(KernelEpilogueTest, EmptyBiasSkipsBroadcast)
{
    Rng rng(111);
    const Tensor x = Tensor::Randn({9, 31}, rng);
    const Tensor w = Tensor::Randn({31, 13}, rng);
    Tensor want({9, 13}), got({9, 13});
    GemmNaive(x, w, want);
    AffineActForward(x, PackF32(w), Tensor(), got, 1);
    EXPECT_LE(MaxRelError(got, want), kRelTol);
}

/** GELU in double as x / (1 + e^(-2u)), which does not cancel. */
double
GeluReference(double x)
{
    const double u = 0.7978845608028654 * (x + 0.044715 * x * x * x);
    return x / (1.0 + std::exp(-2.0 * u));
}

/**
 * GeluF against the double reference over [-12, 12]: 4.8M evenly spaced
 * points plus every 4099th float pattern of magnitude below 12, both
 * signs. Relative error is bounded where the result is a normal float
 * far from underflow; 1 + tanh u, the formula before, loses every digit
 * below x = -9 (relative error 1 where |GELU| >= 1e-30) and 5e-5 where
 * |GELU| >= 1e-3.
 */
TEST(KernelGeluTest, MatchesDoubleReferenceOverRange)
{
    std::vector<float> xs;
    for (int i = 0; i <= 4800000; ++i) {
        xs.push_back(-12.0f + 24.0f * static_cast<float>(i) / 4800000.0f);
    }
    for (uint32_t bits = 0; bits < 0x41400000u; bits += 4099) {
        float x;
        std::memcpy(&x, &bits, sizeof(x));
        xs.push_back(x);
        xs.push_back(-x);
    }
    double max_abs = 0.0, max_rel = 0.0, max_rel_tiny = 0.0;
    float worst = 0.0f;
    for (const float x : xs) {
        const double want = GeluReference(x);
        const double err = std::fabs(kernels::GeluF(x) - want);
        max_abs = std::max(max_abs, err);
        if (std::fabs(want) >= 1e-30) {
            max_rel_tiny = std::max(max_rel_tiny, err / std::fabs(want));
        }
        if (std::fabs(want) >= 1e-3 && err / std::fabs(want) > max_rel) {
            max_rel = err / std::fabs(want);
            worst = x;
        }
    }
    EXPECT_LE(max_abs, 1e-6);
    EXPECT_LE(max_rel, 2e-6) << "at x = " << worst;
    EXPECT_LE(max_rel_tiny, 2e-5);
}

TEST(KernelGeluTest, ExtremesAndSpecials)
{
    const float kMax = std::numeric_limits<float>::max();
    const float kInf = std::numeric_limits<float>::infinity();
    // Large positive x passes through; large negative x gives -0.
    for (const float x : {20.0f, 100.0f, 1e30f, kMax}) {
        EXPECT_EQ(kernels::GeluF(x), x) << x;
        EXPECT_EQ(kernels::GeluF(-x), 0.0f) << -x;
        EXPECT_TRUE(std::signbit(kernels::GeluF(-x))) << -x;
    }
    EXPECT_EQ(kernels::GeluF(kInf), kInf);
    // Zeros keep their sign, subnormals halve, NaN stays NaN.
    EXPECT_EQ(kernels::GeluF(0.0f), 0.0f);
    EXPECT_FALSE(std::signbit(kernels::GeluF(0.0f)));
    EXPECT_TRUE(std::signbit(kernels::GeluF(-0.0f)));
    const float sub = std::numeric_limits<float>::denorm_min() * 6.0f;
    EXPECT_EQ(kernels::GeluF(sub), sub / 2.0f);
    EXPECT_EQ(kernels::GeluF(-sub), -sub / 2.0f);
    EXPECT_TRUE(std::isnan(kernels::GeluF(std::nanf(""))));
    // Until e^(-2u) overflows near x = -13, tiny results keep their
    // digits.
    EXPECT_NEAR(kernels::GeluF(-9.0f) / GeluReference(-9.0), 1.0, 2e-5);
}

/**
 * The AVX2 and AVX-512 epilogues run the same GELU at 8 and 16 lanes on
 * the same C (both tiles sum each element in k order with one fused
 * multiply-add per step), so C matches bit for bit, edge tiles and
 * their lane-at-a-time tails included.
 */
TEST(KernelGeluTest, Avx2AndAvx512EpiloguesBitIdentical)
{
    if (!kernels::IsaSupported(Isa::kAvx2) ||
        !kernels::IsaSupported(Isa::kAvx512)) {
        GTEST_SKIP() << "needs the AVX2 and AVX-512 tiers";
    }
    Rng rng(113);
    for (const auto& [m, k, n] : std::vector<std::array<int64_t, 3>>{
             {4, 256, 1024}, {9, 70, 47}, {13, 390, 29}, {1, 5, 3}}) {
        const Tensor x = Tensor::Randn({m, k}, rng, 0.2f);
        const Tensor w = Tensor::Randn({k, n}, rng);
        const Tensor bias = Tensor::Randn({n}, rng);
        Tensor c[2] = {Tensor({m, n}), Tensor({m, n})};
        for (int i = 0; i < 2; ++i) {
            ScopedIsa scoped(i == 0 ? Isa::kAvx2 : Isa::kAvx512);
            AffineActForward(x, PackF32(w), bias, c[i], 1,
                             Activation::kGelu);
        }
        EXPECT_EQ(std::memcmp(c[0].data(), c[1].data(),
                              static_cast<size_t>(m * n) * sizeof(float)),
                  0)
            << m << "x" << k << "x" << n;
    }
}

// ---------------------------------------------------------------------------
// Merge and A-panel pack, per tier
// ---------------------------------------------------------------------------

/** The tiers whose hooks are linked in and that this CPU can run; each
 * hook's tile width must be the one the library packs B for. */
std::vector<std::pair<Isa, kernel_tier::TierHooks>>
TierHooksToTest()
{
    std::vector<std::pair<Isa, kernel_tier::TierHooks>> tiers = {
        {Isa::kScalar, kernel_tier::ScalarHooks()}};
#if defined(SECEMB_TEST_TIER_AVX2)
    if (kernels::IsaSupported(Isa::kAvx2)) {
        tiers.emplace_back(Isa::kAvx2, kernel_tier::Avx2Hooks());
    }
#endif
#if defined(SECEMB_TEST_TIER_AVX512)
    if (kernels::IsaSupported(Isa::kAvx512)) {
        tiers.emplace_back(Isa::kAvx512, kernel_tier::Avx512Hooks());
    }
#endif
    for (const auto& [isa, hooks] : tiers) {
        const float b[1] = {0.0f};
        kernels::PackedB packed;
        kernels::PackB(b, 1, 1, /*transposed_src=*/false, isa, &packed);
        EXPECT_EQ(packed.nr, hooks.nr) << kernels::IsaName(isa);
    }
    return tiers;
}

/** A float from a pool of specials (zeros, infinities and NaNs of both
 * signs, subnormals, values whose sums overflow) or, half the time, an
 * ordinary value. */
float
SpecialOrRandom(Rng& rng)
{
    const float kInf = std::numeric_limits<float>::infinity();
    const float kDenorm = std::numeric_limits<float>::denorm_min();
    const float kSpecials[] = {0.0f,
                               -0.0f,
                               kInf,
                               -kInf,
                               std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::quiet_NaN(),
                               kDenorm,
                               -7.0f * kDenorm,
                               std::numeric_limits<float>::min() / 3.0f,
                               3e38f,
                               -3e38f,
                               1e-30f};
    constexpr uint64_t kCount = sizeof(kSpecials) / sizeof(kSpecials[0]);
    const uint64_t pick = rng.NextBounded(2 * kCount);
    if (pick < kCount) return kSpecials[pick];
    return static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
}

/**
 * MergeTile against the one-float-at-a-time merge it replaced, built
 * under the same tier's flags: bit for bit (memcmp) on C and the
 * pre-activation, for the first, middle and last k block and a single
 * block, every activation, bias and pre-activation on and off, every
 * tile size from 1 x 1 to MR x NR, at a column offset into C, with acc,
 * C and bias full of specials.
 */
TEST(KernelMergeTest, MatchesScalarMergeBitForBitOnEveryTier)
{
    Rng rng(131);
    for (const auto& [isa, hooks] : TierHooksToTest()) {
        const int64_t i0 = 1, j0 = 3, ldc = j0 + hooks.nr + 2;
        const int64_t c_size = (i0 + hooks.mr + 1) * ldc;
        AlignedFloatVector acc(static_cast<size_t>(hooks.mr * hooks.nr));
        std::vector<float> c(c_size), c_ref(c_size), pre(c_size),
            pre_ref(c_size), bias(static_cast<size_t>(ldc));
        int cases = 0;
        for (const auto& [first, last] : std::vector<std::pair<bool, bool>>{
                 {true, false}, {false, false}, {false, true}, {true, true}}) {
            for (const Activation act : {Activation::kIdentity,
                                         Activation::kRelu,
                                         Activation::kGelu}) {
                for (int options = 0; options < 4; ++options) {
                    for (int mr = 1; mr <= hooks.mr; ++mr) {
                        for (int nr = 1; nr <= hooks.nr; ++nr) {
                            for (float& v : acc) v = SpecialOrRandom(rng);
                            for (float& v : c) v = SpecialOrRandom(rng);
                            for (float& v : pre) v = SpecialOrRandom(rng);
                            for (float& v : bias) v = SpecialOrRandom(rng);
                            c_ref = c;
                            pre_ref = pre;
                            kernels::Epilogue ep, ep_ref;
                            ep.act = ep_ref.act = act;
                            if (options & 1) {
                                ep.bias = ep_ref.bias = bias.data();
                            }
                            if (options & 2) {
                                ep.preact = pre.data();
                                ep_ref.preact = pre_ref.data();
                            }
                            hooks.merge(acc.data(), c.data(), ldc, i0, j0, mr,
                                        nr, first, last, ep);
                            hooks.merge_reference(acc.data(), c_ref.data(),
                                                  ldc, i0, j0, mr, nr, first,
                                                  last, ep_ref);
                            ASSERT_EQ(std::memcmp(c.data(), c_ref.data(),
                                                  c.size() * sizeof(float)),
                                      0)
                                << kernels::IsaName(isa) << " C, first "
                                << first << " last " << last << " act "
                                << static_cast<int>(act) << " options "
                                << options << " tile " << mr << "x" << nr;
                            ASSERT_EQ(std::memcmp(pre.data(), pre_ref.data(),
                                                  pre.size() * sizeof(float)),
                                      0)
                                << kernels::IsaName(isa) << " preact, act "
                                << static_cast<int>(act) << " options "
                                << options << " tile " << mr << "x" << nr;
                            ++cases;
                        }
                    }
                }
            }
        }
        EXPECT_EQ(cases, 4 * 3 * 4 * hooks.mr * hooks.nr);
    }
}

/** PackAPanels' layout, one float at a time: the loop it replaced. */
void
PackAPanelsReference(const float* a, int64_t m, int64_t k, bool trans,
                     int mr_tile, float* out)
{
    const int64_t tiles = (m + mr_tile - 1) / mr_tile;
    for (int64_t t = 0; t < tiles; ++t) {
        float* panel = out + t * mr_tile * k;
        for (int r = 0; r < mr_tile; ++r) {
            const int64_t row = t * mr_tile + r;
            for (int64_t p = 0; p < k; ++p) {
                panel[p * mr_tile + r] = row >= m ? 0.0f
                                         : trans  ? a[p * m + row]
                                                  : a[row * k + p];
            }
        }
    }
}

/**
 * PackAPanels against the scalar layout for m = 1..3 MR + 1 and depths
 * 1..40 (whole and partial 8-depth groups), both orientations, with A
 * one float off its allocation's alignment and full of specials.
 */
TEST(KernelPackTest, PackAPanelsMatchesScalarLayoutOnEveryTier)
{
    Rng rng(137);
    for (const auto& [isa, hooks] : TierHooksToTest()) {
        for (const bool trans : {false, true}) {
            for (int64_t m = 1; m <= 3 * hooks.mr + 1; ++m) {
                for (int64_t k = 1; k <= 40; ++k) {
                    std::vector<float> buf(static_cast<size_t>(m * k + 1));
                    for (float& v : buf) v = SpecialOrRandom(rng);
                    const float* a = buf.data() + 1;
                    const size_t out_size = static_cast<size_t>(
                        (m + hooks.mr - 1) / hooks.mr * hooks.mr * k);
                    std::vector<float> got(out_size, 1.5f),
                        want(out_size, -1.5f);
                    hooks.pack_a(a, m, k, trans, got.data());
                    PackAPanelsReference(a, m, k, trans, hooks.mr,
                                         want.data());
                    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                          out_size * sizeof(float)),
                              0)
                        << kernels::IsaName(isa) << " m " << m << " k " << k
                        << " trans " << trans;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A-panel scratch shrink policy
// ---------------------------------------------------------------------------

TEST(APackScratchTest, ScratchShrinksAfterLargePack)
{
    Rng rng(121);

    // nthreads = 1 keeps both packing and the region on this thread, so
    // the thread-local scratch capacity is observable here.
    const auto run = [&](int64_t m, int64_t k) {
        const Tensor a = Tensor::Randn({m, k}, rng);
        const Tensor b = Tensor::Randn({k, 8}, rng);
        Tensor c({m, 8});
        const kernels::PackedB packed = PackF32(b);
        kernels::GemmArgs args;
        args.a = a.data();
        args.b = &packed;
        args.c = c.data();
        args.m = m;
        args.nthreads = 1;
        kernels::GemmPacked(args);
    };

    run(256, 512);  // A panels need >= 512 KiB of scratch
    const size_t big = kernels::detail::APackScratchCapacityForTest();
    EXPECT_GE(big * sizeof(float), size_t{512} * 1024);

    // A tiny follow-up call: retained capacity dwarfs the need, so the
    // scratch must release its storage instead of pinning it forever.
    run(8, 16);
    const size_t small = kernels::detail::APackScratchCapacityForTest();
    EXPECT_LT(small, big / 4);
    EXPECT_LE(small * sizeof(float), size_t{256} * 1024);

    // The reallocated scratch still produces correct results.
    const Tensor x = Tensor::Randn({8, 16}, rng);
    const Tensor w = Tensor::Randn({16, 8}, rng);
    Tensor want({8, 8}), got({8, 8});
    GemmNaive(x, w, want);
    AffineActForward(x, PackF32(w), Tensor(), got, 1);
    EXPECT_LE(MaxRelError(got, want), kRelTol);
}

// ---------------------------------------------------------------------------
// Low-precision tiers (int8 / bf16)
// ---------------------------------------------------------------------------

/** Forces a precision for the scope of a test; restores env selection. */
class ScopedDtype
{
  public:
    explicit ScopedDtype(Dtype dtype)
    {
        kernels::SetDtypeForTest(static_cast<int>(dtype));
    }
    ~ScopedDtype() { kernels::SetDtypeForTest(-1); }
};

/** Runs the packed GEMM at an explicit precision (transient pack). */
void
GemmAtDtype(const Tensor& a, const Tensor& b, Tensor& c, Dtype dtype,
            int nthreads, const kernels::Epilogue& ep = {})
{
    kernels::PackedB packed;
    kernels::PackB(b.data(), b.size(0), b.size(1),
                   /*transposed_src=*/false, kernels::ActiveIsa(), dtype,
                   &packed);
    kernels::GemmArgs args;
    args.a = a.data();
    args.b = &packed;
    args.c = c.data();
    args.m = a.size(0);
    args.nthreads = nthreads;
    args.epilogue = ep;
    kernels::GemmPacked(args);
}

/**
 * Derived per-element quantization error bound.
 *
 * int8: B columns quantize with scale sb_j = colmax|b| / 127 (|db| <=
 * sb_j/2), A rows with sa_i = rowmax|a| / 63 (|da| <= sa_i/2), so
 *
 *   |sum (a+da)(b+db) - sum ab|
 *     <= (sb_j/2) sum|a| + (sa_i/2) sum|b| + k sa_i sb_j / 4.
 *
 * bf16: only B quantizes, round-to-nearest-even on an 8-bit
 * significand (7 stored mantissa bits; |db| <= 2^-8 |b|), giving
 * 2^-8 sum|a||b|. Both get the f32
 * accumulation slop the f32 tier tolerance already allows, and a 1.5x
 * safety factor on the quantization part.
 */
Tensor
QuantErrorBound(const Tensor& a, const Tensor& b, Dtype dtype)
{
    const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
    Tensor bound({m, n});
    std::vector<float> sa(static_cast<size_t>(m));
    std::vector<float> abs_row(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) {
        float amax = 0.0f, asum = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
            amax = std::max(amax, std::fabs(a.at(i, p)));
            asum += std::fabs(a.at(i, p));
        }
        sa[static_cast<size_t>(i)] = amax / 63.0f;
        abs_row[static_cast<size_t>(i)] = asum;
    }
    std::vector<float> sb(static_cast<size_t>(n));
    std::vector<float> abs_col(static_cast<size_t>(n));
    for (int64_t j = 0; j < n; ++j) {
        float bmax = 0.0f, bsum = 0.0f;
        for (int64_t p = 0; p < k; ++p) {
            bmax = std::max(bmax, std::fabs(b.at(p, j)));
            bsum += std::fabs(b.at(p, j));
        }
        sb[static_cast<size_t>(j)] = bmax / 127.0f;
        abs_col[static_cast<size_t>(j)] = bsum;
    }
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            float q = 0.0f;
            if (dtype == Dtype::kInt8) {
                q = 0.5f * sb[static_cast<size_t>(j)] *
                        abs_row[static_cast<size_t>(i)] +
                    0.5f * sa[static_cast<size_t>(i)] *
                        abs_col[static_cast<size_t>(j)] +
                    0.25f * static_cast<float>(k) *
                        sa[static_cast<size_t>(i)] *
                        sb[static_cast<size_t>(j)];
            } else if (dtype == Dtype::kBf16) {
                float dot_abs = 0.0f;
                for (int64_t p = 0; p < k; ++p) {
                    dot_abs += std::fabs(a.at(i, p) * b.at(p, j));
                }
                q = dot_abs / 256.0f;  // 2^-8 relative per B element
            }
            bound.at(i, j) = 1.5f * q + 1e-5f;
        }
    }
    return bound;
}

TEST(KernelLowPrecisionTest, QuantizedGemmWithinDerivedBoundOnEveryTier)
{
    // 334 shapes x up to 3 tiers x 2 precisions > 1000 property cases.
    Rng rng(131);
    const auto corpus = ShapeCorpus(232);
    for (Dtype dtype : {Dtype::kInt8, Dtype::kBf16}) {
        ScopedDtype scoped_dtype(dtype);
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            for (const auto& tc : corpus) {
                const Tensor a = Tensor::Randn({tc.m, tc.k}, rng);
                const Tensor b = Tensor::Randn({tc.k, tc.n}, rng);
                Tensor want({tc.m, tc.n}), got({tc.m, tc.n});
                GemmNaive(a, b, want);
                GemmAtDtype(a, b, got, dtype, tc.nthreads);
                const Tensor bound = QuantErrorBound(a, b, dtype);
                for (int64_t i = 0; i < want.numel(); ++i) {
                    const float tol =
                        bound.at(i) + kRelTol * std::max(
                                          1.0f, std::fabs(want.at(i)));
                    ASSERT_LE(std::fabs(got.at(i) - want.at(i)), tol)
                        << kernels::DtypeName(dtype) << "/"
                        << kernels::IsaName(isa) << " m=" << tc.m
                        << " k=" << tc.k << " n=" << tc.n << " elem "
                        << i;
                }
            }
        }
    }
}

TEST(KernelLowPrecisionTest, Int8TiersAreBitIdentical)
{
    // All int8 tiers share one quantization scheme and integer dot, so
    // their f32 outputs must agree exactly — not just within tolerance.
    Rng rng(133);
    const auto tiers = SupportedTiers();
    for (const auto& sh :
         std::vector<GemmCase>{{1, 1024, 512, 1},
                               {8, 512, 256, 3},
                               {65, 385, 129, 1},
                               {17, 3, 9, 1}}) {
        const Tensor a = Tensor::Randn({sh.m, sh.k}, rng);
        const Tensor b = Tensor::Randn({sh.k, sh.n}, rng);
        Tensor base({sh.m, sh.n});
        {
            ScopedIsa scoped(tiers.front());
            GemmAtDtype(a, b, base, Dtype::kInt8, sh.nthreads);
        }
        for (size_t t = 1; t < tiers.size(); ++t) {
            ScopedIsa scoped(tiers[t]);
            Tensor got({sh.m, sh.n});
            GemmAtDtype(a, b, got, Dtype::kInt8, sh.nthreads);
            for (int64_t i = 0; i < got.numel(); ++i) {
                ASSERT_EQ(got.at(i), base.at(i))
                    << kernels::IsaName(tiers[t]) << " m=" << sh.m
                    << " k=" << sh.k << " n=" << sh.n;
            }
        }
    }
}

TEST(KernelLowPrecisionTest, SkinnyMSplitIsThreadCountInvariant)
{
    // Decoder GEMMs (m <= 8) engage the 2-D column split when threads
    // exceed row tiles; every worker owns disjoint C columns with the
    // same sequential k-block order, so results must be bit-identical
    // at any thread count — for every precision.
    Rng rng(135);
    for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        for (const auto& sh : std::vector<GemmCase>{{1, 384, 1024, 0},
                                                    {4, 512, 640, 0},
                                                    {8, 700, 4100, 0}}) {
            const Tensor a = Tensor::Randn({sh.m, sh.k}, rng);
            const Tensor b = Tensor::Randn({sh.k, sh.n}, rng);
            Tensor base({sh.m, sh.n});
            GemmAtDtype(a, b, base, dtype, 1);
            for (int nth : {2, 4, 8}) {
                Tensor got({sh.m, sh.n});
                GemmAtDtype(a, b, got, dtype, nth);
                for (int64_t i = 0; i < got.numel(); ++i) {
                    ASSERT_EQ(got.at(i), base.at(i))
                        << kernels::DtypeName(dtype) << " m=" << sh.m
                        << " n=" << sh.n << " nth=" << nth;
                }
            }
        }
    }
}

TEST(KernelLowPrecisionTest, FusedEpilogueMatchesUnfusedPerPrecision)
{
    Rng rng(137);
    const int64_t m = 9, k = 450, n = 47;  // crosses one KC boundary
    for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            for (const auto act :
                 {Activation::kIdentity, Activation::kRelu,
                  Activation::kGelu}) {
                const Tensor x = Tensor::Randn({m, k}, rng);
                const Tensor w = Tensor::Randn({k, n}, rng);
                const Tensor bias = Tensor::Randn({n}, rng);

                // Unfused at the same precision: bare quantized GEMM,
                // then separate bias + activation sweeps.
                Tensor want({m, n});
                GemmAtDtype(x, w, want, dtype, 1);
                Tensor want_pre = want;
                for (int64_t i = 0; i < m; ++i) {
                    for (int64_t j = 0; j < n; ++j) {
                        float v = want.at(i, j) + bias.at(j);
                        want_pre.at(i, j) = v;
                        if (act == Activation::kRelu) {
                            v = std::max(0.0f, v);
                        }
                        if (act == Activation::kGelu) {
                            v = kernels::GeluF(v);
                        }
                        want.at(i, j) = v;
                    }
                }

                Tensor got({m, n}), preact({m, n});
                kernels::Epilogue ep;
                ep.bias = bias.data();
                ep.act = act;
                ep.preact = preact.data();
                GemmAtDtype(x, w, got, dtype, 1, ep);
                EXPECT_LE(MaxRelError(got, want), kRelTol)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa) << " act="
                    << static_cast<int>(act);
                EXPECT_LE(MaxRelError(preact, want_pre), kRelTol)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa);
            }
        }
    }
}

TEST(KernelLowPrecisionTest, ZeroRowsAndColumnsStayExact)
{
    // amax = 0 rows get scale 0 and must contribute exactly zero (no
    // zero-point residue); all-zero B columns likewise.
    Rng rng(139);
    Tensor a = Tensor::Randn({5, 96}, rng);
    Tensor b = Tensor::Randn({96, 24}, rng);
    for (int64_t p = 0; p < 96; ++p) {
        a.at(2, p) = 0.0f;
        b.at(p, 3) = 0.0f;
    }
    for (Dtype dtype : {Dtype::kInt8, Dtype::kBf16}) {
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            Tensor got({5, 24});
            GemmAtDtype(a, b, got, dtype, 1);
            for (int64_t j = 0; j < 24; ++j) {
                ASSERT_EQ(got.at(2, j), 0.0f)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa);
            }
            for (int64_t i = 0; i < 5; ++i) {
                ASSERT_EQ(got.at(i, 3), 0.0f)
                    << kernels::DtypeName(dtype) << "/"
                    << kernels::IsaName(isa);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Layer-owned weight panels (nn::Linear)
// ---------------------------------------------------------------------------

/** Which kernels.cache.* counter one Linear::Forward must bump. */
enum class Pack
{
    kHit,
    kMiss,
    kRepack,
};

/** The kernels.cache.* counters, indexed by Pack. */
std::vector<uint64_t>
PackCounts()
{
    auto& reg = telemetry::Registry::Instance();
    return {reg.GetCounter("kernels.cache.hits").Value(),
            reg.GetCounter("kernels.cache.misses").Value(),
            reg.GetCounter("kernels.cache.repacks").Value()};
}

/**
 * Runs lin.Forward(x), checks that it bumped exactly the `expect`
 * counter (when telemetry is compiled in), and that the output matches
 * GemmNaive on the layer's current weights plus bias within the bound
 * of the layer's precision.
 */
void
ExpectForward(nn::Linear& lin, const Tensor& x, Pack expect)
{
    telemetry::SetEnabled(true);
    const std::vector<uint64_t> before = PackCounts();
    const Tensor got = lin.Forward(x);
    const std::vector<uint64_t> after = PackCounts();
    if (SECEMB_TELEMETRY_ENABLED) {
        for (size_t c = 0; c < before.size(); ++c) {
            EXPECT_EQ(after[c] - before[c],
                      c == static_cast<size_t>(expect) ? 1u : 0u)
                << "counter " << c;
        }
    }

    const Tensor& w = lin.weight().value;
    Tensor want({x.size(0), w.size(1)});
    GemmNaive(x, w, want);
    for (int64_t i = 0; i < want.size(0); ++i) {
        for (int64_t j = 0; j < want.size(1); ++j) {
            want.at(i, j) += lin.bias().value.at(j);
        }
    }
    const Tensor bound = QuantErrorBound(x, w, lin.dtype());
    for (int64_t i = 0; i < want.numel(); ++i) {
        const float tol =
            bound.at(i) + kRelTol * std::max(1.0f, std::fabs(want.at(i)));
        ASSERT_LE(std::fabs(got.at(i) - want.at(i)), tol)
            << kernels::DtypeName(lin.dtype()) << " elem " << i;
    }
}

/** Each case runs one 48 -> 40 layer at the parameter's precision. */
class LinearPackTest : public ::testing::TestWithParam<Dtype>
{
  protected:
    LinearPackTest() : rng_(151), lin_(48, 40, rng_)
    {
        lin_.set_dtype(GetParam());
        x_ = Tensor::Randn({6, 48}, rng_);
    }

    Rng rng_;
    nn::Linear lin_;
    Tensor x_;
};

TEST_P(LinearPackTest, ForwardsPackOnce)
{
    ExpectForward(lin_, x_, Pack::kMiss);
    for (int i = 0; i < 4; ++i) ExpectForward(lin_, x_, Pack::kHit);
    // Re-setting the same precision is not a change.
    lin_.set_dtype(GetParam());
    ExpectForward(lin_, x_, Pack::kHit);
}

TEST_P(LinearPackTest, OptimizerStepsRepack)
{
    // A learning rate large enough that stale panels would miss the
    // int8 bound by a wide margin.
    nn::Adam adam(lin_.Parameters(), 0.5f);
    ExpectForward(lin_, x_, Pack::kMiss);
    for (int step = 0; step < 2; ++step) {
        lin_.ZeroGrad();
        lin_.Backward(Tensor::Ones({x_.size(0), lin_.out_features()}));
        adam.Step();
        ExpectForward(lin_, x_, Pack::kRepack);
        ExpectForward(lin_, x_, Pack::kHit);
    }
}

TEST_P(LinearPackTest, SetDtypeRepacks)
{
    ExpectForward(lin_, x_, Pack::kMiss);
    for (Dtype other : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        if (other == GetParam()) continue;
        lin_.set_dtype(other);
        ExpectForward(lin_, x_, Pack::kRepack);
        lin_.set_dtype(GetParam());
        ExpectForward(lin_, x_, Pack::kRepack);
    }
}

TEST_P(LinearPackTest, IsaChangeRepacks)
{
    // A tier change repacks exactly when it changes the tier that serves
    // the precision (int8 on AVX-512 without VNNI runs the AVX2 kernel).
    std::vector<Isa> order = SupportedTiers();
    order.push_back(order.front());
    Isa served = kernels::EffectiveIsaFor(order.front(), GetParam());
    {
        ScopedIsa scoped(order.front());
        ExpectForward(lin_, x_, Pack::kMiss);
    }
    for (size_t t = 1; t < order.size(); ++t) {
        ScopedIsa scoped(order[t]);
        const Isa now = kernels::EffectiveIsaFor(order[t], GetParam());
        ExpectForward(lin_, x_, now == served ? Pack::kHit : Pack::kRepack);
        served = now;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Precisions, LinearPackTest,
    ::testing::Values(Dtype::kF32, Dtype::kBf16, Dtype::kInt8),
    [](const ::testing::TestParamInfo<Dtype>& info) {
        return std::string(kernels::DtypeName(info.param));
    });

TEST(KernelLowPrecisionTest, PrecisionSelectionPlumbing)
{
    EXPECT_STREQ(kernels::DtypeName(Dtype::kF32), "f32");
    EXPECT_STREQ(kernels::DtypeName(Dtype::kBf16), "bf16");
    EXPECT_STREQ(kernels::DtypeName(Dtype::kInt8), "int8");
    Dtype d = Dtype::kF32;
    EXPECT_TRUE(kernels::ParseDtype("int8", &d));
    EXPECT_EQ(d, Dtype::kInt8);
    EXPECT_TRUE(kernels::ParseDtype("bf16", &d));
    EXPECT_EQ(d, Dtype::kBf16);
    EXPECT_TRUE(kernels::ParseDtype("f32", &d));
    EXPECT_EQ(d, Dtype::kF32);
    EXPECT_FALSE(kernels::ParseDtype("fp64", &d));
    // Baseline is whatever normal selection picks (the SECEMB_PRECISION
    // environment override, else f32) — the test must pass under any
    // SECEMB_PRECISION setting.
    const Dtype baseline = kernels::ActiveDtype();
    {
        ScopedDtype scoped(Dtype::kInt8);
        EXPECT_EQ(kernels::ActiveDtype(), Dtype::kInt8);
        // The effective ISA for int8 is always a tier with an int8
        // kernel compiled in and supported at runtime.
        const Isa eff = kernels::EffectiveIsaFor(kernels::ActiveIsa(),
                                                 Dtype::kInt8);
        EXPECT_TRUE(kernels::IsaSupported(eff));
    }
    EXPECT_EQ(kernels::ActiveDtype(), baseline);
}

// ---------------------------------------------------------------------------
// Obliviousness: canonical traces are tier-invariant (label `leakage`)
// ---------------------------------------------------------------------------

verify::VerifyConfig
TraceConfig(verify::Subject subject)
{
    verify::VerifyConfig config;
    config.subject = subject;
    config.rows = 64;
    config.dim = 16;
    config.batch = 4;
    config.seed = 7;
    return config;
}

TEST(KernelTraceTest, CanonicalTracesIdenticalAcrossTiers)
{
    using verify::Subject;
    for (Subject subject :
         {Subject::kLinearScan, Subject::kDhe, Subject::kHybrid}) {
        const auto config = TraceConfig(subject);
        verify::CanonicalTrace base;
        {
            ScopedIsa scoped(Isa::kScalar);
            base = verify::GoldenRun(config);
        }
        ASSERT_FALSE(base.accesses.empty())
            << verify::SubjectName(subject);
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            const auto got = verify::GoldenRun(config);
            const auto div = verify::CompareCanonical(base, got);
            EXPECT_FALSE(div.diverged)
                << verify::SubjectName(subject) << " under "
                << kernels::IsaName(isa) << ": " << div.detail;
        }
    }
}

TEST(KernelTraceTest, DifferentialPassesUnderEveryTier)
{
    for (Isa isa : SupportedTiers()) {
        ScopedIsa scoped(isa);
        const auto result =
            verify::RunDifferential(TraceConfig(verify::Subject::kDhe));
        EXPECT_TRUE(result.passed)
            << kernels::IsaName(isa) << ": " << result.detail;
    }
}

TEST(KernelTraceTest, CanonicalTracesIdenticalAcrossPrecisions)
{
    // Precision changes arithmetic only: DHE records whole-region
    // parameter accesses at the generator level, independent of GEMM
    // internals, so the canonical trace must be bit-identical across
    // f32/bf16/int8 — under every compiled ISA tier.
    const auto config = TraceConfig(verify::Subject::kDhe);
    verify::CanonicalTrace base;
    {
        ScopedDtype scoped_dtype(Dtype::kF32);
        ScopedIsa scoped(Isa::kScalar);
        base = verify::GoldenRun(config);
    }
    ASSERT_FALSE(base.accesses.empty());
    for (Dtype dtype : {Dtype::kF32, Dtype::kBf16, Dtype::kInt8}) {
        ScopedDtype scoped_dtype(dtype);
        for (Isa isa : SupportedTiers()) {
            ScopedIsa scoped(isa);
            const auto got = verify::GoldenRun(config);
            const auto div = verify::CompareCanonical(base, got);
            EXPECT_FALSE(div.diverged)
                << kernels::DtypeName(dtype) << " under "
                << kernels::IsaName(isa) << ": " << div.detail;
        }
    }
}

TEST(KernelTraceTest, DifferentialPassesUnderEveryPrecision)
{
    for (Dtype dtype : {Dtype::kBf16, Dtype::kInt8}) {
        ScopedDtype scoped_dtype(dtype);
        const auto result =
            verify::RunDifferential(TraceConfig(verify::Subject::kDhe));
        EXPECT_TRUE(result.passed)
            << kernels::DtypeName(dtype) << ": " << result.detail;
    }
}

}  // namespace
}  // namespace secemb
