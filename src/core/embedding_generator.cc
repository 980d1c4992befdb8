#include "core/embedding_generator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace secemb::core {

void
EmbeddingGenerator::GeneratePooled(std::span<const int64_t> indices,
                                   std::span<const int64_t> offsets,
                                   Tensor& out)
{
    if (offsets.empty() || offsets.front() != 0 ||
        offsets.back() != static_cast<int64_t>(indices.size()) ||
        !std::is_sorted(offsets.begin(), offsets.end())) {
        throw std::invalid_argument(
            "GeneratePooled: offsets must run from 0 to indices.size() "
            "without decreasing");
    }
    const int64_t n = static_cast<int64_t>(offsets.size()) - 1;
    const int64_t d = dim();
    assert(out.size(0) == n && out.size(1) == d);

    Tensor all({static_cast<int64_t>(indices.size()), d});
    Generate(indices, all);
    out.Fill(0.0f);
    for (int64_t i = 0; i < n; ++i) {
        float* dst = out.data() + i * d;
        for (int64_t e = offsets[static_cast<size_t>(i)];
             e < offsets[static_cast<size_t>(i) + 1]; ++e) {
            const float* src = all.data() + e * d;
            for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
        }
    }
}

}  // namespace secemb::core
