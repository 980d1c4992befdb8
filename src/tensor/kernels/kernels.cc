#include "tensor/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <sys/mman.h>

#include "telemetry/telemetry.h"
#include "tensor/kernels/driver.h"

namespace secemb::kernels {

namespace {

std::atomic<int> g_test_isa{-1};
std::atomic<int> g_test_dtype{-1};

/** AVX-512 VNNI (vpdpbusd) — beyond what Isa::kAvx512 guarantees. */
bool
CpuSupportsVnni()
{
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx512vnni");
#else
    return false;
#endif
}

bool
CpuSupports(Isa isa)
{
#if defined(__x86_64__) || defined(__i386__)
    switch (isa) {
        case Isa::kScalar:
            return true;
        case Isa::kAvx2:
            return __builtin_cpu_supports("avx2") &&
                   __builtin_cpu_supports("fma");
        case Isa::kAvx512:
            return __builtin_cpu_supports("avx512f");
    }
    return false;
#else
    return isa == Isa::kScalar;
#endif
}

/** Widest supported tier not wider than `want`. */
Isa
ClampToSupported(Isa want)
{
    for (int t = static_cast<int>(want); t > 0; --t) {
        if (IsaSupported(static_cast<Isa>(t))) return static_cast<Isa>(t);
    }
    return Isa::kScalar;
}

/** Parse SECEMB_ISA once; unknown values warn and select automatically. */
Isa
IsaFromEnvironment()
{
    const char* env = std::getenv("SECEMB_ISA");
    if (env == nullptr || *env == '\0') return WidestSupportedIsa();
    const std::string v(env);
    Isa want;
    if (v == "scalar") {
        want = Isa::kScalar;
    } else if (v == "avx2") {
        want = Isa::kAvx2;
    } else if (v == "avx512") {
        want = Isa::kAvx512;
    } else {
        std::fprintf(stderr,
                     "secemb: unknown SECEMB_ISA='%s' "
                     "(want scalar|avx2|avx512); auto-selecting %s\n",
                     v.c_str(), IsaName(WidestSupportedIsa()));
        return WidestSupportedIsa();
    }
    const Isa got = ClampToSupported(want);
    if (got != want) {
        std::fprintf(stderr,
                     "secemb: SECEMB_ISA=%s not supported on this "
                     "machine/build; using %s\n",
                     v.c_str(), IsaName(got));
    }
    return got;
}

const detail::TierOps&
OpsFor(Isa isa)
{
    switch (isa) {
#if defined(SECEMB_KERNELS_AVX2)
        case Isa::kAvx2:
            return detail::Avx2TierOps();
#endif
#if defined(SECEMB_KERNELS_AVX512)
        case Isa::kAvx512:
            return detail::Avx512TierOps();
#endif
        default:
            return detail::ScalarTierOps();
    }
}

/** True when `isa` has a kernel for `dtype` on this machine/build. */
bool
DtypeTierAvailable(Isa isa, Dtype dtype)
{
    if (!IsaSupported(isa)) return false;
    const detail::TierOps& ops = OpsFor(isa);
    switch (dtype) {
        case Dtype::kF32:
            return ops.run != nullptr;
        case Dtype::kBf16:
            return ops.run_bf16 != nullptr;
        case Dtype::kInt8:
            if (ops.run_int8 == nullptr) return false;
            // The AVX-512 int8 kernel is vpdpbusd: it needs VNNI on
            // top of the avx512f the tier itself guarantees.
            return isa != Isa::kAvx512 || CpuSupportsVnni();
    }
    return false;
}

/** Parse SECEMB_PRECISION once; unknown values warn and select f32. */
Dtype
DtypeFromEnvironment()
{
    const char* env = std::getenv("SECEMB_PRECISION");
    if (env == nullptr || *env == '\0') return Dtype::kF32;
    Dtype parsed;
    if (!ParseDtype(env, &parsed)) {
        std::fprintf(stderr,
                     "secemb: unknown SECEMB_PRECISION='%s' "
                     "(want f32|bf16|int8); using f32\n",
                     env);
        return Dtype::kF32;
    }
    return parsed;
}

}  // namespace

const char*
IsaName(Isa isa)
{
    switch (isa) {
        case Isa::kScalar:
            return "scalar";
        case Isa::kAvx2:
            return "avx2";
        case Isa::kAvx512:
            return "avx512";
    }
    return "?";
}

bool
IsaCompiledIn(Isa isa)
{
    switch (isa) {
        case Isa::kScalar:
            return true;
        case Isa::kAvx2:
#if defined(SECEMB_KERNELS_AVX2)
            return true;
#else
            return false;
#endif
        case Isa::kAvx512:
#if defined(SECEMB_KERNELS_AVX512)
            return true;
#else
            return false;
#endif
    }
    return false;
}

bool
IsaSupported(Isa isa)
{
    return IsaCompiledIn(isa) && CpuSupports(isa);
}

Isa
WidestSupportedIsa()
{
    static const Isa widest = ClampToSupported(Isa::kAvx512);
    return widest;
}

Isa
ActiveIsa()
{
    const int forced = g_test_isa.load(std::memory_order_relaxed);
    if (forced >= 0) return ClampToSupported(static_cast<Isa>(forced));
    static const Isa selected = IsaFromEnvironment();
    return selected;
}

void
SetIsaForTest(int isa_or_negative)
{
    g_test_isa.store(isa_or_negative, std::memory_order_relaxed);
}

const char*
DtypeName(Dtype dtype)
{
    switch (dtype) {
        case Dtype::kF32:
            return "f32";
        case Dtype::kBf16:
            return "bf16";
        case Dtype::kInt8:
            return "int8";
    }
    return "?";
}

bool
ParseDtype(const char* name, Dtype* out)
{
    const std::string v(name == nullptr ? "" : name);
    if (v == "f32") {
        *out = Dtype::kF32;
    } else if (v == "bf16") {
        *out = Dtype::kBf16;
    } else if (v == "int8") {
        *out = Dtype::kInt8;
    } else {
        return false;
    }
    return true;
}

Dtype
ActiveDtype()
{
    const int forced = g_test_dtype.load(std::memory_order_relaxed);
    if (forced >= 0) return static_cast<Dtype>(forced);
    static const Dtype selected = DtypeFromEnvironment();
    return selected;
}

void
SetDtypeForTest(int dtype_or_negative)
{
    g_test_dtype.store(dtype_or_negative, std::memory_order_relaxed);
}

Isa
EffectiveIsaFor(Isa want, Dtype dtype)
{
    for (int t = static_cast<int>(ClampToSupported(want)); t > 0; --t) {
        if (DtypeTierAvailable(static_cast<Isa>(t), dtype)) {
            return static_cast<Isa>(t);
        }
    }
    return Isa::kScalar;
}

void
AdviseHugePages(void* p, std::size_t bytes)
{
    const std::size_t whole = bytes / kHugePageBytes * kHugePageBytes;
    (void)madvise(p, whole, MADV_HUGEPAGE);
}

void
PackB(const float* b, int64_t k, int64_t n, bool transposed_src, Isa isa,
      PackedB* out)
{
    PackB(b, k, n, transposed_src, isa, Dtype::kF32, out);
}

void
PackB(const float* b, int64_t k, int64_t n, bool transposed_src, Isa isa,
      Dtype dtype, PackedB* out)
{
    assert(b != nullptr || k * n == 0);
    isa = EffectiveIsaFor(isa, dtype);
    const detail::TierOps& ops = OpsFor(isa);
    out->k = k;
    out->n = n;
    out->nr = ops.nr;
    out->isa = isa;
    out->dtype = dtype;
    out->transposed_src = transposed_src;
    out->data.clear();
    out->qdata.clear();
    out->col_scales.clear();
    out->col_block_sums.clear();
    switch (dtype) {
        case Dtype::kF32:
            out->data.resize(
                static_cast<size_t>(out->panels() * out->panel_stride()));
            ops.pack_b(b, k, n, transposed_src, out->data.data());
            break;
        case Dtype::kBf16:
            out->qdata.resize(static_cast<size_t>(
                out->panels() * out->panel_stride_bytes()));
            ops.pack_b_bf16(
                b, k, n, transposed_src,
                reinterpret_cast<uint16_t*>(out->qdata.data()));
            break;
        case Dtype::kInt8: {
            const int64_t padded_cols = out->panels() * out->nr;
            const int64_t k_blocks = std::max<int64_t>(
                1, (k + detail::kBlockKc - 1) / detail::kBlockKc);
            out->qdata.resize(static_cast<size_t>(
                out->panels() * out->panel_stride_bytes()));
            out->col_scales.resize(static_cast<size_t>(padded_cols));
            out->col_block_sums.resize(
                static_cast<size_t>(k_blocks * padded_cols));
            ops.pack_b_int8(b, k, n, transposed_src,
                            reinterpret_cast<int8_t*>(out->qdata.data()),
                            out->col_scales.data(),
                            out->col_block_sums.data());
            break;
        }
    }
    TELEMETRY_COUNT("kernels.pack_b.calls", 1);
    TELEMETRY_COUNT("kernels.pack_b.floats", k * n);
}

void
GemmPacked(const GemmArgs& args)
{
    assert(args.b != nullptr);
    assert(args.c != nullptr || args.m * args.b->n == 0);
    // Kernel-entry alignment contract: packed panels come from the
    // 64-byte allocator, unconditionally.
    assert(IsAligned64(args.b->data.data()));
    assert(IsAligned64(args.b->qdata.data()));
    TELEMETRY_COUNT("kernels.gemm.calls", 1);
    const detail::TierOps& ops = OpsFor(args.b->isa);
    switch (args.b->dtype) {
        case Dtype::kF32:
            ops.run(args);
            break;
        case Dtype::kBf16:
            assert(ops.run_bf16 != nullptr);
            ops.run_bf16(args);
            break;
        case Dtype::kInt8:
            assert(ops.run_int8 != nullptr);
            ops.run_int8(args);
            break;
    }
}

namespace detail {

namespace {
thread_local AlignedFloatVector g_a_pack_scratch;
thread_local AlignedByteVector g_quant_a_pack_scratch;

// Release the backing storage when the retained capacity dwarfs the
// request (> 4x) and is big enough to matter (> 256 KiB): without
// this, every pool worker permanently pins the largest A panel it
// ever packed. Buffers below the floor stay cached — reallocating
// tiny panels every call would cost more than it frees.
constexpr std::size_t kShrinkFactor = 4;
constexpr std::size_t kShrinkFloorBytes = 256u * 1024u;
}  // namespace

AlignedFloatVector&
AcquireAPackScratch(std::size_t need_floats)
{
    AlignedFloatVector& buf = g_a_pack_scratch;
    if (buf.capacity() * sizeof(float) > kShrinkFloorBytes &&
        buf.capacity() / kShrinkFactor > need_floats) {
        AlignedFloatVector().swap(buf);
    }
    buf.resize(need_floats);
    return buf;
}

AlignedByteVector&
AcquireQuantAPackScratch(std::size_t need_bytes)
{
    AlignedByteVector& buf = g_quant_a_pack_scratch;
    if (buf.capacity() > kShrinkFloorBytes &&
        buf.capacity() / kShrinkFactor > need_bytes) {
        AlignedByteVector().swap(buf);
    }
    buf.resize(need_bytes);
    return buf;
}

std::size_t
APackScratchCapacityForTest()
{
    return g_a_pack_scratch.capacity();
}

}  // namespace detail

}  // namespace secemb::kernels
