#include "dlrm/interaction.h"

#include <cassert>
#include <cstring>
#include <vector>

namespace secemb::dlrm {

namespace {

// The dot interaction runs at the baseline vector width with lanes
// across the batch. Every lane keeps the scalar definition's order: a
// dot sums over j from +0, one multiply and one add per step (the TU
// builds with -ffp-contract=off), so the output is bit-identical to the
// one-float-per-step loop.
using Floats = float __attribute__((vector_size(16), aligned(4), may_alias));
constexpr int64_t kLanes = sizeof(Floats) / sizeof(float);

/** dst[j * ld + i] = src[i * d + j] for the batch x d rows of `src`, and
 * +0 for the padding samples [batch, ld): 4 x 4 blocks at a time
 * through registers, then one float at a time at the edges. */
void
TransposeRows(const float* src, int64_t batch, int64_t d, int64_t ld,
              float* dst)
{
    int64_t i = 0;
    for (; i + kLanes <= batch; i += kLanes) {
        int64_t j = 0;
        for (; j + kLanes <= d; j += kLanes) {
            Floats r[kLanes];
#pragma GCC unroll 4
            for (int64_t l = 0; l < kLanes; ++l) {
                r[l] = *reinterpret_cast<const Floats*>(src + (i + l) * d + j);
            }
            const Floats lo01 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
            const Floats hi01 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
            const Floats lo23 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
            const Floats hi23 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
            float* out = dst + j * ld + i;
            *reinterpret_cast<Floats*>(out) =
                __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5);
            *reinterpret_cast<Floats*>(out + ld) =
                __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7);
            *reinterpret_cast<Floats*>(out + 2 * ld) =
                __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5);
            *reinterpret_cast<Floats*>(out + 3 * ld) =
                __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7);
        }
        for (; j < d; ++j) {
            for (int64_t l = 0; l < kLanes; ++l) {
                dst[j * ld + i + l] = src[(i + l) * d + j];
            }
        }
    }
    for (int64_t j = 0; j < d; ++j) {
        for (int64_t s = i; s < ld; ++s) {
            dst[j * ld + s] = s < batch ? src[s * d + j] : 0.0f;
        }
    }
}

/** Dots of kV * kLanes samples: lane s of out is the sum over j < d of
 * a[j * ld + s] * b[j * ld + s], one independent accumulator per vector
 * of samples. */
template <int kV>
void
DotSamples(const float* a, const float* b, int64_t d, int64_t ld, float* out)
{
    Floats acc[kV] = {};
    for (int64_t j = 0; j < d; ++j) {
        const float* aj = a + j * ld;
        const float* bj = b + j * ld;
#pragma GCC unroll 4
        for (int v = 0; v < kV; ++v) {
            acc[v] += *reinterpret_cast<const Floats*>(aj + v * kLanes) *
                      *reinterpret_cast<const Floats*>(bj + v * kLanes);
        }
    }
#pragma GCC unroll 4
    for (int v = 0; v < kV; ++v) {
        *reinterpret_cast<Floats*>(out + v * kLanes) = acc[v];
    }
}

/** Gather pointers to the f = embs+1 interacting vectors of sample i. */
std::vector<const float*>
VectorsOf(const Tensor& dense, const std::vector<Tensor>& embs, int64_t i,
          int64_t d)
{
    std::vector<const float*> vs;
    vs.reserve(embs.size() + 1);
    vs.push_back(dense.data() + i * d);
    for (const auto& e : embs) vs.push_back(e.data() + i * d);
    return vs;
}

}  // namespace

Tensor
InteractionForward(Interaction kind, const Tensor& dense,
                   const std::vector<Tensor>& embs)
{
    const int64_t batch = dense.size(0);
    const int64_t d = dense.size(1);
    const int64_t f = static_cast<int64_t>(embs.size()) + 1;
    for (const auto& e : embs) {
        assert(e.size(0) == batch && e.size(1) == d);
        (void)e;
    }

    if (kind == Interaction::kConcat) {
        Tensor out({batch, d * f});
        for (int64_t i = 0; i < batch; ++i) {
            float* o = out.data() + i * d * f;
            std::memcpy(o, dense.data() + i * d,
                        static_cast<size_t>(d) * sizeof(float));
            for (size_t e = 0; e < embs.size(); ++e) {
                std::memcpy(o + (e + 1) * d, embs[e].data() + i * d,
                            static_cast<size_t>(d) * sizeof(float));
            }
        }
        return out;
    }

    const int64_t pairs = f * (f - 1) / 2;
    const int64_t width = d + pairs;
    Tensor out({batch, width});
    for (int64_t i = 0; i < batch; ++i) {
        std::memcpy(out.data() + i * width, dense.data() + i * d,
                    static_cast<size_t>(d) * sizeof(float));
    }
    // Vector v's component j of sample s sits at t[(v * d + j) * ld + s],
    // the batch padded to whole vectors. The scratch outlives the call,
    // so steady-state inference reuses one allocation per thread.
    const int64_t ld = (batch + kLanes - 1) / kLanes * kLanes;
    thread_local std::vector<float> scratch;
    scratch.resize(static_cast<size_t>(f * d * ld + ld));
    float* t = scratch.data();
    float* dots = t + f * d * ld;
    for (int64_t v = 0; v < f; ++v) {
        const Tensor& src = v == 0 ? dense : embs[static_cast<size_t>(v - 1)];
        TransposeRows(src.data(), batch, d, ld, t + v * d * ld);
    }
    int64_t p = d;
    for (int64_t a = 0; a < f; ++a) {
        for (int64_t b = a + 1; b < f; ++b, ++p) {
            const float* ta = t + a * d * ld;
            const float* tb = t + b * d * ld;
            int64_t s = 0;
            for (; s + 4 * kLanes <= ld; s += 4 * kLanes) {
                DotSamples<4>(ta + s, tb + s, d, ld, dots + s);
            }
            for (; s < ld; s += kLanes) {
                DotSamples<1>(ta + s, tb + s, d, ld, dots + s);
            }
            for (s = 0; s < batch; ++s) out.data()[s * width + p] = dots[s];
        }
    }
    return out;
}

void
InteractionBackward(Interaction kind, const Tensor& dense,
                    const std::vector<Tensor>& embs, const Tensor& grad_out,
                    Tensor& grad_dense, std::vector<Tensor>& grad_embs)
{
    const int64_t batch = dense.size(0);
    const int64_t d = dense.size(1);
    const int64_t f = static_cast<int64_t>(embs.size()) + 1;

    grad_dense = Tensor::Zeros({batch, d});
    grad_embs.assign(embs.size(), Tensor());
    for (size_t e = 0; e < embs.size(); ++e) {
        grad_embs[e] = Tensor::Zeros({batch, d});
    }

    if (kind == Interaction::kConcat) {
        assert(grad_out.size(1) == d * f);
        for (int64_t i = 0; i < batch; ++i) {
            const float* g = grad_out.data() + i * d * f;
            std::memcpy(grad_dense.data() + i * d, g,
                        static_cast<size_t>(d) * sizeof(float));
            for (size_t e = 0; e < embs.size(); ++e) {
                std::memcpy(grad_embs[e].data() + i * d, g + (e + 1) * d,
                            static_cast<size_t>(d) * sizeof(float));
            }
        }
        return;
    }

    const int64_t pairs = f * (f - 1) / 2;
    assert(grad_out.size(1) == d + pairs);
    for (int64_t i = 0; i < batch; ++i) {
        const auto vs = VectorsOf(dense, embs, i, d);
        std::vector<float*> gs;
        gs.reserve(static_cast<size_t>(f));
        gs.push_back(grad_dense.data() + i * d);
        for (auto& ge : grad_embs) gs.push_back(ge.data() + i * d);

        const float* g = grad_out.data() + i * (d + pairs);
        // Pass-through of the dense copy.
        for (int64_t j = 0; j < d; ++j) gs[0][j] += g[j];
        int64_t p = d;
        for (int64_t a = 0; a < f; ++a) {
            for (int64_t b = a + 1; b < f; ++b) {
                const float gp = g[p++];
                for (int64_t j = 0; j < d; ++j) {
                    gs[static_cast<size_t>(a)][j] +=
                        gp * vs[static_cast<size_t>(b)][j];
                    gs[static_cast<size_t>(b)][j] +=
                        gp * vs[static_cast<size_t>(a)][j];
                }
            }
        }
    }
}

}  // namespace secemb::dlrm
