#pragma once

/**
 * @file
 * Asynchronous ORAM front-end (TaoStore-style proxy).
 *
 * The serial TreeOram controller processes one access at a time with
 * eviction inline — exactly the scaling weakness the paper's Fig. 12
 * exposes. OramProxy owns a TreeOram and exposes a request-queue/future
 * interface: callers submit logical block reads; a single conductor
 * thread drains the queue in fixed-size windows and executes, for every
 * window of w logical requests, exactly w physical accesses.
 *
 * Security argument (DESIGN.md "Concurrent ORAM proxy"):
 *  - The physical schedule is public and input-independent: w accesses
 *    per window, each with the identical trace shape of one serial Path
 *    ORAM access, regardless of which ids were requested.
 *  - Duplicate ids inside a window are coalesced — one physical access
 *    fans its result out to every waiter (the TaoStore correctness and
 *    security point: re-fetching a duplicate's fresh path would correlate
 *    with request contents). The schedule is padded back to w with dummy
 *    accesses of uniformly random ids, so the number of physical accesses
 *    never reveals the (secret) duplicate structure.
 *  - All trace recording happens on the conductor thread, serially and at
 *    fixed points; pool threads only move payload words whose placement
 *    was decided by a serial oblivious metadata pass. Recorded traces are
 *    bit-identical to the serial controller's access shape.
 *  - Eviction (the path write-back's payload blend + re-encryption) is
 *    deferred and executed on pool threads fused with the NEXT access's
 *    position-map scan — work overlap without reordering any recorded
 *    event. Deferred work drains before any state it wrote is read again.
 *
 * Parallel decomposition applies to Path ORAM with a flat position map;
 * Circuit ORAM and recursive position maps fall back to the serial
 * controller behind the same queue (still coalesced + padded).
 *
 * The proxy always fronts a TreeOram. Its trace recorder is the tree's
 * (TreeOram::set_recorder); because the conductor records, swap it only
 * while the conductor is idle, right after Flush() — as
 * core::ProxiedOramTable::set_recorder does.
 *
 * Thread-compatibility: SubmitRead/Flush are safe from any thread;
 * construction and destruction must not race submissions.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "oram/tree_oram.h"
#include "serving/flight_recorder.h"

namespace secemb::oram {

/** Tunables for one proxy instance. */
struct ProxyConfig
{
    /** Logical requests per window; one window = this many physical
     *  accesses (public). */
    int batch_window = 4;
    /** ParallelFor width for intra-access data movement and the fused
     *  eviction/position-map region. <= 1 still runs the same phases. */
    int nthreads = 1;
    /** Bounded request queue; SubmitRead blocks when full. */
    size_t queue_capacity = 256;
    /** Optional lifecycle-hop sink (proxy_enqueue/coalesce/access/evict). */
    serving::FlightRecorder* flight = nullptr;
};

/** Running counters, cumulative since construction. */
struct ProxyStats
{
    uint64_t requests = 0;          ///< logical reads submitted
    uint64_t physical_accesses = 0; ///< real + dummy accesses issued
    uint64_t real_accesses = 0;     ///< first occurrence of an id
    uint64_t dummy_accesses = 0;    ///< padding accesses (random id)
    uint64_t coalesced = 0;         ///< waiters served by another access
    uint64_t windows = 0;           ///< windows processed
    uint64_t evictions_deferred = 0;   ///< write-back tasks staged
    uint64_t evictions_overlapped = 0; ///< drained fused with later work
};

class OramProxy
{
  public:
    /** Takes ownership of a loaded TreeOram. The conductor thread starts
     *  immediately. */
    OramProxy(std::unique_ptr<TreeOram> oram, const ProxyConfig& config);

    ~OramProxy();

    OramProxy(const OramProxy&) = delete;
    OramProxy& operator=(const OramProxy&) = delete;

    /**
     * Enqueue an oblivious read of block `id`; the future resolves with
     * the block payload once its window is processed. Blocks while the
     * queue is full. Throws std::runtime_error after Shutdown().
     */
    std::future<std::vector<uint32_t>> SubmitRead(int64_t id);

    /**
     * Process any partial tail window and wait until every request
     * submitted before this call has been fulfilled and all deferred
     * eviction work has drained.
     */
    void Flush();

    /** Flush, then stop the conductor. Idempotent. */
    void Shutdown();

    /** The owned controller. Its trace recorder may only change while
     *  the conductor is idle, i.e. right after Flush(). */
    TreeOram& oram() { return *tree_; }
    const TreeOram& oram() const { return *tree_; }
    ProxyStats stats() const;

    /** ParallelFor width for subsequent accesses (any thread). */
    void set_nthreads(int n) { nthreads_.store(n); }
    /** Swap the lifecycle-hop sink (any thread; nullptr disables). */
    void set_flight(serving::FlightRecorder* flight)
    {
        flight_.store(flight);
    }

  private:
    struct Request
    {
        int64_t id = 0;
        uint64_t rid = 0;  ///< proxy-local request id (flight recorder)
        std::promise<std::vector<uint32_t>> promise;
    };

    /** One deferred write-back bucket: payload blend + re-encryption. */
    struct EvictTask
    {
        int64_t bucket = 0;
        /** Chosen stash index per slot (sentinel = stash size = none). */
        std::vector<uint64_t> chosen;
    };

    void ConductorLoop();
    void ProcessWindow(std::vector<Request>& window);
    void PhysicalAccess(int64_t id, std::vector<uint32_t>& out);
    void ParallelPathAccess(int64_t id, std::vector<uint32_t>& out);
    void RunEvictTask(const EvictTask& task);
    void DrainEvictions();
    void RecordHop(serving::FlightHop hop, uint64_t rid, uint32_t detail);

    std::unique_ptr<TreeOram> tree_;
    ProxyConfig config_;
    bool parallel_path_;  ///< Path kind + flat posmap: parallel pipeline
    Rng dummy_rng_;       ///< dummy-access ids (split from the tree's rng)
    std::atomic<int> nthreads_;  ///< live copy of config_.nthreads
    std::atomic<serving::FlightRecorder*> flight_;  ///< live hop sink

    // Conductor-owned scratch (no per-access allocation in steady state).
    std::vector<uint64_t> take_;     ///< path-read take-mask matrix
    std::vector<uint64_t> placed_;   ///< write-back placement masks
    std::vector<EvictTask> deferred_;
    std::vector<EvictTask> task_pool_;  ///< recycled EvictTask storage

    // Queue + lifecycle (guarded by mu_).
    mutable std::mutex mu_;
    std::condition_variable cv_space_;  ///< queue has room
    std::condition_variable cv_work_;   ///< conductor: work or flush
    std::condition_variable cv_done_;   ///< waiters: progress
    std::vector<Request> queue_;
    uint64_t submitted_ = 0;
    uint64_t completed_ = 0;
    int flush_waiters_ = 0;
    bool shutdown_ = false;
    bool broken_ = false;  ///< a physical access threw; state untrusted
    ProxyStats stats_;

    std::thread conductor_;
};

/** Drop-in helper: total window count for n requests (public shape). */
inline int64_t
ProxyWindows(int64_t requests, int batch_window)
{
    const int64_t w = batch_window > 0 ? batch_window : 1;
    return (requests + w - 1) / w;
}

}  // namespace secemb::oram
