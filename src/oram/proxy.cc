#include "oram/proxy.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "perfmon/perfmon.h"
#include "telemetry/telemetry.h"

namespace secemb::oram {

OramProxy::OramProxy(std::unique_ptr<TreeOram> oram,
                     const ProxyConfig& config)
    : tree_(std::move(oram)),
      config_(config),
      dummy_rng_(tree_->SplitRng())
{
    if (config_.batch_window < 1) config_.batch_window = 1;
}

ProxyStats
OramProxy::stats() const
{
    ProxyStats s;
    s.requests = requests_.load();
    s.real_accesses = real_.load();
    s.dummy_accesses = dummy_.load();
    s.physical_accesses = s.real_accesses + s.dummy_accesses;
    s.coalesced = coalesced_.load();
    s.windows = windows_.load();
    return s;
}

void
OramProxy::ReadBatch(std::span<const int64_t> ids, std::span<uint32_t> out)
{
    if (poisoned_) {
        throw std::runtime_error(
            "OramProxy: controller state poisoned by earlier fault");
    }
    const size_t bw = static_cast<size_t>(tree_->block_words());
    if (out.size() != ids.size() * bw) {
        throw std::invalid_argument("OramProxy: output size mismatch");
    }
    for (const int64_t id : ids) {
        if (id < 0 || id >= tree_->num_blocks()) {
            throw std::invalid_argument("OramProxy: id out of range");
        }
    }
    requests_ += ids.size();
    TELEMETRY_COUNT("oram.proxy.requests", ids.size());
    const size_t w = static_cast<size_t>(config_.batch_window);
    try {
        for (size_t begin = 0; begin < ids.size(); begin += w) {
            const size_t n = std::min(w, ids.size() - begin);
            ReadWindow(ids.subspan(begin, n),
                       out.subspan(begin * bw, n * bw));
        }
    } catch (...) {
        poisoned_ = true;
        throw;
    }
}

void
OramProxy::ReadWindow(std::span<const int64_t> ids, std::span<uint32_t> out)
{
    TELEMETRY_SCOPED_COUNTERS("oram.proxy.window");
    TELEMETRY_SCOPED_LATENCY("oram.proxy.window.ns");
    TELEMETRY_COUNT("oram.proxy.windows", 1);

    // Coalesce: slot i is served by the first slot of the window that
    // asks for the same id.
    const size_t bw = static_cast<size_t>(tree_->block_words());
    std::vector<size_t> first(ids.size());
    size_t reals = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
        first[i] = static_cast<size_t>(
            std::find(ids.begin(), ids.begin() + i, ids[i]) - ids.begin());
        if (first[i] == i) ++reals;
    }
    coalesced_ += ids.size() - reals;

    // Physical schedule: exactly ids.size() accesses — the distinct ids
    // in first-occurrence order, padded with dummy reads of uniformly
    // random ids. Each access has the identical trace shape, so the
    // schedule reveals only the window size (public).
    for (size_t i = 0; i < ids.size(); ++i) {
        if (first[i] == i) tree_->Read(ids[i], out.subspan(i * bw, bw));
    }
    real_ += reals;
    std::vector<uint32_t> junk(bw);
    for (size_t d = reals; d < ids.size(); ++d) {
        tree_->Read(static_cast<int64_t>(dummy_rng_.NextBounded(
                        static_cast<uint64_t>(tree_->num_blocks()))),
                    junk);
        ++dummy_;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
        if (first[i] != i) {
            std::copy_n(out.begin() + first[i] * bw, bw,
                        out.begin() + i * bw);
        }
    }
    ++windows_;
}

}  // namespace secemb::oram
