#include "llm/attention.h"

#include <cassert>
#include <cmath>

namespace secemb::llm {

namespace {

/** Numerically stable in-place softmax over the first `n` entries. */
void
SoftmaxRow(float* row, int64_t n)
{
    float mx = row[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < n; ++j) {
        row[j] = std::exp(row[j] - mx);
        sum += row[j];
    }
    const float inv = 1.0f / static_cast<float>(sum);
    for (int64_t j = 0; j < n; ++j) row[j] *= inv;
}

// The causal core runs at the baseline vector width. Every lane keeps
// the scalar definition's order: a score sums over head dims j, a
// context element over positions u, each from +0, one multiply and one
// add per step (the TU builds with -ffp-contract=off), so the output is
// bit-identical to the one-float-per-step loops.
using Floats = float __attribute__((vector_size(16), aligned(4), may_alias));
constexpr int64_t kLanes = sizeof(Floats) / sizeof(float);

/** s[u] = (q . key u) * scale for kV * kLanes keys; key u's component j
 * is kt[j * ldk + u]. */
template <int kV>
void
ScoreKeys(const float* q, const float* kt, int64_t ldk, int64_t hd,
          float scale, float* s)
{
    Floats acc[kV] = {};
    for (int64_t j = 0; j < hd; ++j) {
        const float qj = q[j];
        const float* key = kt + j * ldk;
#pragma GCC unroll 8
        for (int v = 0; v < kV; ++v) {
            acc[v] += qj * *reinterpret_cast<const Floats*>(key + v * kLanes);
        }
    }
#pragma GCC unroll 8
    for (int v = 0; v < kV; ++v) {
        *reinterpret_cast<Floats*>(s + v * kLanes) = acc[v] * scale;
    }
}

/** c[j] = sum over u < n of p[u] * v[u * ldv + j], for kV * kLanes
 * head dims. */
template <int kV>
void
ContextDims(const float* p, int64_t n, const float* v, int64_t ldv,
            float* c)
{
    Floats acc[kV] = {};
    for (int64_t u = 0; u < n; ++u) {
        const float pu = p[u];
        const float* value = v + u * ldv;
#pragma GCC unroll 8
        for (int i = 0; i < kV; ++i) {
            acc[i] += pu * *reinterpret_cast<const Floats*>(value + i * kLanes);
        }
    }
#pragma GCC unroll 8
    for (int i = 0; i < kV; ++i) {
        *reinterpret_cast<Floats*>(c + i * kLanes) = acc[i];
    }
}

/** One head of causal attention over a batch row, in the layout both
 * forwards share: K^T rows of positions, V and Q rows of dims. */
struct HeadArgs
{
    const float* q;  ///< query of the first new token, at the head's dims
    int64_t ldq;
    const float* kt;  ///< K^T at the head's first dim: key u, dim j at
    int64_t ldk;      ///< kt[j * ldk + u]
    const float* v;   ///< value of position 0, at the head's dims
    int64_t ldv;
    float* ctx;  ///< context of the first new token
    int64_t ldc;
    float* probs;  ///< softmax rows; ldp 0 reuses one row for every token
    int64_t ldp;
    int64_t hd;    ///< head dim
    int64_t past;  ///< positions before the first new token
    int64_t rows;  ///< new tokens
    float scale;
};

/** Token t (position past + t) attends to positions [0, past + t]: 16
 * keys at a time for its scores, 32 dims at a time for its context,
 * then narrower blocks and a scalar tail. Loop bounds are positions
 * and dims, never values. */
void
CausalHead(const HeadArgs& a)
{
    for (int64_t t = 0; t < a.rows; ++t) {
        const float* q = a.q + t * a.ldq;
        float* s = a.probs + t * a.ldp;
        float* c = a.ctx + t * a.ldc;
        const int64_t visible = a.past + t + 1;
        int64_t u = 0;
        for (; u + 4 * kLanes <= visible; u += 4 * kLanes) {
            ScoreKeys<4>(q, a.kt + u, a.ldk, a.hd, a.scale, s + u);
        }
        for (; u + kLanes <= visible; u += kLanes) {
            ScoreKeys<1>(q, a.kt + u, a.ldk, a.hd, a.scale, s + u);
        }
        for (; u < visible; ++u) {
            float acc = 0.0f;
            for (int64_t j = 0; j < a.hd; ++j) {
                acc += q[j] * a.kt[j * a.ldk + u];
            }
            s[u] = acc * a.scale;
        }
        SoftmaxRow(s, visible);
        int64_t j = 0;
        for (; j + 8 * kLanes <= a.hd; j += 8 * kLanes) {
            ContextDims<8>(s, visible, a.v + j, a.ldv, c + j);
        }
        for (; j + kLanes <= a.hd; j += kLanes) {
            ContextDims<1>(s, visible, a.v + j, a.ldv, c + j);
        }
        for (; j < a.hd; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < visible; ++p) {
                acc += s[p] * a.v[p * a.ldv + j];
            }
            c[j] = acc;
        }
    }
}

}  // namespace

CausalSelfAttention::CausalSelfAttention(int64_t dim, int64_t num_heads,
                                         Rng& rng, int nthreads)
    : dim_(dim),
      heads_(num_heads),
      qkv_(dim, 3 * dim, rng, nthreads),
      proj_(dim, dim, rng, nthreads)
{
    assert(dim % num_heads == 0);
}

Tensor
CausalSelfAttention::Forward(const Tensor& x, int64_t batch, int64_t seq)
{
    assert(x.size(0) == batch * seq && x.size(1) == dim_);
    batch_ = batch;
    seq_ = seq;
    const int64_t hd = dim_ / heads_;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

    const Tensor qkv = qkv_.Forward(x);  // (B*T, 3D)
    q_ = Tensor({batch * seq, dim_});
    k_ = Tensor({batch * seq, dim_});
    v_ = Tensor({batch * seq, dim_});
    Tensor kt({batch, dim_, seq});  // K^T per sample, for the scores
    for (int64_t r = 0; r < batch * seq; ++r) {
        const float* src = qkv.data() + r * 3 * dim_;
        std::copy(src, src + dim_, q_.data() + r * dim_);
        std::copy(src + dim_, src + 2 * dim_, k_.data() + r * dim_);
        std::copy(src + 2 * dim_, src + 3 * dim_, v_.data() + r * dim_);
        float* kcol = kt.data() + (r / seq) * dim_ * seq + r % seq;
        for (int64_t j = 0; j < dim_; ++j) kcol[j * seq] = src[dim_ + j];
    }

    probs_ = Tensor::Zeros({batch, heads_, seq, seq});
    Tensor context({batch * seq, dim_});
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t h = 0; h < heads_; ++h) {
            const int64_t off = h * hd;
            CausalHead({q_.data() + b * seq * dim_ + off, dim_,
                        kt.data() + (b * dim_ + off) * seq, seq,
                        v_.data() + b * seq * dim_ + off, dim_,
                        context.data() + b * seq * dim_ + off, dim_,
                        probs_.data() + (b * heads_ + h) * seq * seq, seq,
                        hd, /*past=*/0, /*rows=*/seq, scale});
        }
    }
    return proj_.Forward(context);
}

Tensor
CausalSelfAttention::Backward(const Tensor& grad_out)
{
    const int64_t batch = batch_, seq = seq_;
    const int64_t hd = dim_ / heads_;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

    const Tensor grad_context = proj_.Backward(grad_out);  // (B*T, D)
    Tensor gq = Tensor::Zeros({batch * seq, dim_});
    Tensor gk = Tensor::Zeros({batch * seq, dim_});
    Tensor gv = Tensor::Zeros({batch * seq, dim_});

    std::vector<float> gp(static_cast<size_t>(seq));
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t h = 0; h < heads_; ++h) {
            const int64_t off = h * hd;
            for (int64_t t = 0; t < seq; ++t) {
                const float* gc =
                    grad_context.data() + (b * seq + t) * dim_ + off;
                const float* prow = probs_.data() +
                                    ((b * heads_ + h) * seq + t) * seq;
                // dP = gC V^T ; dV += P^T gC
                for (int64_t u = 0; u <= t; ++u) {
                    const float* vrow =
                        v_.data() + (b * seq + u) * dim_ + off;
                    float* gvrow =
                        gv.data() + (b * seq + u) * dim_ + off;
                    float acc = 0.0f;
                    const float p = prow[u];
                    for (int64_t j = 0; j < hd; ++j) {
                        acc += gc[j] * vrow[j];
                        gvrow[j] += p * gc[j];
                    }
                    gp[static_cast<size_t>(u)] = acc;
                }
                // Softmax backward: gS = P o (gP - sum(gP o P)).
                double dot = 0.0;
                for (int64_t u = 0; u <= t; ++u) {
                    dot += static_cast<double>(
                               gp[static_cast<size_t>(u)]) *
                           prow[u];
                }
                const float* qrow = q_.data() + (b * seq + t) * dim_ + off;
                float* gqrow = gq.data() + (b * seq + t) * dim_ + off;
                for (int64_t u = 0; u <= t; ++u) {
                    const float gs =
                        prow[u] * (gp[static_cast<size_t>(u)] -
                                   static_cast<float>(dot)) *
                        scale;
                    const float* krow =
                        k_.data() + (b * seq + u) * dim_ + off;
                    float* gkrow =
                        gk.data() + (b * seq + u) * dim_ + off;
                    for (int64_t j = 0; j < hd; ++j) {
                        gqrow[j] += gs * krow[j];
                        gkrow[j] += gs * qrow[j];
                    }
                }
            }
        }
    }

    // Repack into qkv gradient and run the projection backward.
    Tensor gqkv({batch * seq, 3 * dim_});
    for (int64_t r = 0; r < batch * seq; ++r) {
        float* dst = gqkv.data() + r * 3 * dim_;
        std::copy(gq.data() + r * dim_, gq.data() + (r + 1) * dim_, dst);
        std::copy(gk.data() + r * dim_, gk.data() + (r + 1) * dim_,
                  dst + dim_);
        std::copy(gv.data() + r * dim_, gv.data() + (r + 1) * dim_,
                  dst + 2 * dim_);
    }
    return qkv_.Backward(gqkv);
}

Tensor
CausalSelfAttention::ForwardCached(const Tensor& x, int64_t batch,
                                   int64_t new_seq, KvCache& cache)
{
    assert(x.size(0) == batch * new_seq && x.size(1) == dim_);
    assert(cache.k.size(0) == batch);
    const int64_t hd = dim_ / heads_;
    const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
    const int64_t past = cache.len;
    const int64_t max_seq = cache.max_seq();
    assert(past + new_seq <= max_seq);

    const Tensor qkv = qkv_.Forward(x);
    // Append K (as columns of K^T) and V to the cache.
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t t = 0; t < new_seq; ++t) {
            const float* src = qkv.data() + (b * new_seq + t) * 3 * dim_;
            float* kdst = cache.k.data() + b * dim_ * max_seq + past + t;
            for (int64_t j = 0; j < dim_; ++j) {
                kdst[j * max_seq] = src[dim_ + j];
            }
            std::copy(src + 2 * dim_, src + 3 * dim_,
                      cache.v.data() + (b * max_seq + past + t) * dim_);
        }
    }

    Tensor context({batch * new_seq, dim_});
    std::vector<float> scores(static_cast<size_t>(past + new_seq));
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t h = 0; h < heads_; ++h) {
            const int64_t off = h * hd;
            CausalHead({qkv.data() + b * new_seq * 3 * dim_ + off, 3 * dim_,
                        cache.k.data() + (b * dim_ + off) * max_seq, max_seq,
                        cache.v.data() + b * max_seq * dim_ + off, dim_,
                        context.data() + b * new_seq * dim_ + off, dim_,
                        scores.data(), /*ldp=*/0, hd, past, new_seq, scale});
        }
    }
    cache.len = past + new_seq;
    return proj_.Forward(context);
}

std::vector<nn::Parameter*>
CausalSelfAttention::Parameters()
{
    std::vector<nn::Parameter*> ps = qkv_.Parameters();
    for (auto* p : proj_.Parameters()) ps.push_back(p);
    return ps;
}

}  // namespace secemb::llm
