/**
 * @file
 * kernel_tier.h for the tier this object is built for: the flags
 * select it, as they select EpilogueLanes in driver.h.
 */

#include "kernel_tier.h"

#include <algorithm>

#include "tensor/kernels/driver.h"

namespace secemb::kernel_tier {

namespace {

using kernels::Activation;
using kernels::Epilogue;

#if defined(__AVX512F__)
constexpr int kMr = 8, kNr = 32;
#elif defined(__AVX2__)
constexpr int kMr = 6, kNr = 16;
#else
constexpr int kMr = 4, kNr = 8;
#endif

/** GELU over one staged row, a vector at a time, then one lane at a
 * time: the old merge's GeluRow. */
void
GeluRowReference(const float* in, float* out, int n)
{
    using Lanes = kernels::detail::EpilogueLanes;
    using Lane = float __attribute__((vector_size(sizeof(float))));
    constexpr int kLanes = sizeof(Lanes) / sizeof(float);
    int j = 0;
    for (; j + kLanes <= n; j += kLanes) {
        *reinterpret_cast<Lanes*>(out + j) = kernels::GeluLanes(
            *reinterpret_cast<const Lanes*>(in + j));
    }
    for (; j < n; ++j) out[j] = kernels::GeluLanes(Lane{in[j]})[0];
}

/** MergeTile as it stood before its loops ran at vector width: one
 * float at a time, the options tested inside the element loop. */
void
MergeReference(const float* acc, float* c, int64_t ldc, int64_t i0,
               int64_t j0, int mr, int nr, bool first, bool last,
               const Epilogue& ep)
{
    for (int r = 0; r < mr; ++r) {
        const float* t = acc + r * kNr;
        float* crow = c + (i0 + r) * ldc + j0;
        if (!last) {
            if (first) {
                for (int j = 0; j < nr; ++j) crow[j] = t[j];
            } else {
                for (int j = 0; j < nr; ++j) crow[j] += t[j];
            }
            continue;
        }
        float* prow = ep.preact == nullptr
                          ? nullptr
                          : ep.preact + (i0 + r) * ldc + j0;
        float staged[kNr];
        float* out = ep.act == Activation::kGelu ? staged : crow;
        for (int j = 0; j < nr; ++j) {
            float v = t[j];
            if (!first) v += crow[j];
            if (ep.bias != nullptr) v += ep.bias[j0 + j];
            if (prow != nullptr) prow[j] = v;
            switch (ep.act) {
                case Activation::kIdentity:
                case Activation::kGelu:  // over the whole row, below
                    break;
                case Activation::kRelu:
                    v = std::max(v, 0.0f);
                    break;
            }
            out[j] = v;
        }
        if (ep.act == Activation::kGelu) GeluRowReference(staged, crow, nr);
    }
}

}  // namespace

TierHooks
#if defined(__AVX512F__)
Avx512Hooks()
#elif defined(__AVX2__)
Avx2Hooks()
#else
ScalarHooks()
#endif
{
    return {kMr, kNr, &kernels::detail::MergeTile<kMr, kNr>, &MergeReference,
            &kernels::detail::PackAPanels<kMr>};
}

}  // namespace secemb::kernel_tier
