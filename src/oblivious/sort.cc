#include "oblivious/sort.h"

#include <cassert>

#include "oblivious/ct_ops.h"

namespace secemb::oblivious {

namespace {

/**
 * Constant-time compare-exchange: after the call, keys[i] <= keys[j]
 * (for ascending direction), payload rows moving with their keys. Both
 * elements are always read and written.
 */
void
CompareExchange(std::span<uint64_t> keys, std::span<uint32_t> rows,
                int64_t row_words, int64_t i, int64_t j, bool ascending)
{
    const uint64_t a = keys[static_cast<size_t>(i)];
    const uint64_t b = keys[static_cast<size_t>(j)];
    // Swap when out of order for the requested direction.
    const uint64_t gt = LtMask(b, a);
    const uint64_t mask = ascending ? gt : ~gt;
    uint64_t x = a, y = b;
    CtSwapU64(mask, x, y);
    keys[static_cast<size_t>(i)] = x;
    keys[static_cast<size_t>(j)] = y;
    if (row_words > 0) {
        CtSwapRows(mask,
                   {reinterpret_cast<float*>(rows.data()) + i * row_words,
                    static_cast<size_t>(row_words)},
                   {reinterpret_cast<float*>(rows.data()) + j * row_words,
                    static_cast<size_t>(row_words)});
    }
}

int64_t
NextPow2(int64_t n)
{
    int64_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

}  // namespace

void
ObliviousSortByKey(std::span<uint64_t> keys, std::span<uint32_t> rows,
                   int64_t row_words)
{
    const int64_t n = static_cast<int64_t>(keys.size());
    if (n <= 1) return;
    assert(row_words == 0 ||
           static_cast<int64_t>(rows.size()) == n * row_words);

    // Standard iterative bitonic sort over buffers physically padded to
    // a power of two with +infinity keys (padding size depends only on
    // n, so the trace stays data-independent). Padded elements sort to
    // the tail and are dropped on copy-back.
    const int64_t padded = NextPow2(n);
    std::vector<uint64_t> pkeys(static_cast<size_t>(padded), ~uint64_t{0});
    std::copy(keys.begin(), keys.end(), pkeys.begin());
    std::vector<uint32_t> prows;
    if (row_words > 0) {
        prows.assign(static_cast<size_t>(padded * row_words), 0);
        std::copy(rows.begin(), rows.end(), prows.begin());
    }

    for (int64_t k = 2; k <= padded; k <<= 1) {
        for (int64_t j = k >> 1; j > 0; j >>= 1) {
            for (int64_t i = 0; i < padded; ++i) {
                const int64_t partner = i ^ j;
                if (partner <= i) continue;
                const bool ascending = (i & k) == 0;
                CompareExchange(pkeys, prows, row_words, i, partner,
                                ascending);
            }
        }
    }
    std::copy(pkeys.begin(), pkeys.begin() + n, keys.begin());
    if (row_words > 0) {
        std::copy(prows.begin(), prows.begin() + n * row_words,
                  rows.begin());
    }
}

}  // namespace secemb::oblivious
