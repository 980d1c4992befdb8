/**
 * @file
 * Scalar fallback microkernel: 4x8 register tile, plain loops, no ISA
 * flags — the tier every build and machine can run (SECEMB_ISA=scalar).
 * The fixed-trip-count inner loops still let the baseline compiler
 * vectorize to whatever the default target offers (SSE2 on x86-64).
 */

#include "tensor/kernels/driver.h"

namespace secemb::kernels::detail {

namespace {

struct MicroScalar
{
    static constexpr int kMr = 4;
    static constexpr int kNr = 8;

    static void
    Tile(const float* pa, const float* pb, int64_t kc, float* acc)
    {
        float sum[kMr][kNr] = {};
        for (int64_t p = 0; p < kc; ++p) {
            const float* av = pa + p * kMr;
            const float* bv = pb + p * kNr;
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                const float a = av[r];
                for (int j = 0; j < kNr; ++j) sum[r][j] += a * bv[j];
            }
        }
        for (int r = 0; r < kMr; ++r) {
            for (int j = 0; j < kNr; ++j) acc[r * kNr + j] = sum[r][j];
        }
    }
};

struct MicroScalarBf16
{
    static constexpr int kMr = 4;
    static constexpr int kNr = 8;

    static void
    TileBf16(const float* pa, const uint16_t* pb, int64_t kc, float* acc)
    {
        float sum[kMr][kNr] = {};
        for (int64_t p = 0; p < kc; ++p) {
            const float* av = pa + p * kMr;
            const uint16_t* bv = pb + p * kNr;
            float b[kNr];
            for (int j = 0; j < kNr; ++j) b[j] = Bf16ToF32(bv[j]);
#pragma GCC unroll kMr
            for (int r = 0; r < kMr; ++r) {
                const float a = av[r];
                for (int j = 0; j < kNr; ++j) sum[r][j] += a * b[j];
            }
        }
        for (int r = 0; r < kMr; ++r) {
            for (int j = 0; j < kNr; ++j) acc[r * kNr + j] = sum[r][j];
        }
    }
};

struct MicroScalarInt8
{
    static constexpr int kMr = 4;
    static constexpr int kNr = 8;

    static void
    TileInt8(const uint8_t* qa, const int8_t* qb, int64_t groups,
             int32_t* acc)
    {
        int32_t sum[kMr][kNr] = {};
        for (int64_t g = 0; g < groups; ++g) {
            const uint8_t* av = qa + g * 4 * kMr;
            const int8_t* bv = qb + g * 4 * kNr;
            for (int r = 0; r < kMr; ++r) {
                for (int j = 0; j < kNr; ++j) {
                    int32_t s = 0;
                    for (int t = 0; t < 4; ++t) {
                        s += static_cast<int32_t>(av[r * 4 + t]) *
                             static_cast<int32_t>(bv[j * 4 + t]);
                    }
                    sum[r][j] += s;
                }
            }
        }
        for (int r = 0; r < kMr; ++r) {
            for (int j = 0; j < kNr; ++j) acc[r * kNr + j] = sum[r][j];
        }
    }
};

}  // namespace

const TierOps&
ScalarTierOps()
{
    static const TierOps ops = {
        MicroScalar::kNr,
        &PackBPanels<MicroScalar::kNr>,
        &BlockedDriver<MicroScalar>::Run,
        &PackBPanelsBf16<MicroScalarBf16::kNr>,
        &Bf16BlockedDriver<MicroScalarBf16>::Run,
        &PackBPanelsInt8<MicroScalarInt8::kNr>,
        &Int8BlockedDriver<MicroScalarInt8>::Run,
    };
    return ops;
}

}  // namespace secemb::kernels::detail
