#pragma once

/**
 * @file
 * Coalescing ORAM front-end: a synchronous window over TreeOram::Read.
 *
 * OramProxy owns a TreeOram and serves a batch of logical block reads in
 * consecutive windows of `batch_window` requests. Every window of w
 * requests costs exactly w physical accesses; only the tail window of a
 * batch is shorter, sized by the (public) batch remainder.
 *
 * Security argument (DESIGN.md "ORAM proxy"):
 *  - The physical schedule is public and input-independent: w accesses
 *    per window, each a full TreeOram::Read with the serial controller's
 *    trace shape, regardless of which ids were requested.
 *  - Duplicate ids inside a window are coalesced — one physical access
 *    serves every slot that asked for the id (the TaoStore correctness and
 *    security point: re-fetching a duplicate's fresh path would correlate
 *    with request contents). The schedule is padded back to w with dummy
 *    reads of uniformly random ids, so the number of physical accesses
 *    never reveals the (secret) duplicate structure.
 *
 * The trace recorder is the tree's (TreeOram::set_recorder).
 *
 * Thread-compatibility: ReadBatch is not thread-safe (it mutates the
 * tree); stats() may be read from any thread.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "oram/tree_oram.h"

namespace secemb::oram {

/** Tunables for one proxy instance. */
struct ProxyConfig
{
    /** Logical requests per window; one window = this many physical
     *  accesses (public). */
    int batch_window = 4;
};

/** Running counters, cumulative since construction. */
struct ProxyStats
{
    uint64_t requests = 0;          ///< logical reads asked for
    uint64_t physical_accesses = 0; ///< real + dummy accesses issued
    uint64_t real_accesses = 0;     ///< first occurrence of an id
    uint64_t dummy_accesses = 0;    ///< padding accesses (random id)
    uint64_t coalesced = 0;         ///< slots served by another access
    uint64_t windows = 0;           ///< windows processed
};

class OramProxy
{
  public:
    /** Takes ownership of a loaded TreeOram. */
    OramProxy(std::unique_ptr<TreeOram> oram, const ProxyConfig& config);

    OramProxy(const OramProxy&) = delete;
    OramProxy& operator=(const OramProxy&) = delete;

    /**
     * Oblivious read of every block in `ids`; block i lands in
     * out[i * block_words, (i + 1) * block_words). Throws
     * std::invalid_argument before the first access if an id is out of
     * range or `out` has the wrong size. An access that throws poisons
     * the proxy: the exception leaves this call, and every later call
     * throws std::runtime_error without touching the tree.
     */
    void ReadBatch(std::span<const int64_t> ids, std::span<uint32_t> out);

    /** The owned controller. */
    TreeOram& oram() { return *tree_; }
    const TreeOram& oram() const { return *tree_; }
    ProxyStats stats() const;

  private:
    void ReadWindow(std::span<const int64_t> ids, std::span<uint32_t> out);

    std::unique_ptr<TreeOram> tree_;
    ProxyConfig config_;
    Rng dummy_rng_;  ///< dummy-access ids (split from the tree's rng)
    bool poisoned_ = false;  ///< an access threw; tree state untrusted

    // Counters behind stats(), readable from any thread.
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> real_{0};
    std::atomic<uint64_t> dummy_{0};
    std::atomic<uint64_t> coalesced_{0};
    std::atomic<uint64_t> windows_{0};
};

}  // namespace secemb::oram
