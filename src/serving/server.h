#pragma once

/**
 * @file
 * Bounded-queue, deadline-aware batch serving for embedding generation.
 *
 * A Server owns one EmbeddingGenerator per sparse feature (HybridGenerator
 * in the paper's deployment) behind a bounded MPSC queue. Producer threads
 * Submit() requests and get a future; a single batcher thread pops
 * requests, coalesces same-feature lookups into batches (flushing on a
 * batch ceiling or a flush deadline, whichever comes first), runs the
 * generators, and fulfils the futures. Admission control sheds load with
 * typed Status results instead of ever blocking a caller.
 *
 * Graceful degradation is **input-independent by construction**: the
 * degrade controller sees only load and health signals — queue depth at
 * flush time and the count of consecutive faulted batches — never request
 * values. The degraded behaviours likewise touch only public execution
 * shape:
 *
 *   level 0  normal: full batch ceiling
 *   level 1  ceiling halved (bounds tail latency under pressure)
 *   level 2  ceiling quartered
 *
 * A flush that finds the queue at 3/4 of its capacity or more, or
 * fault_streak_escalate faulted batches in a row, raises the level; a run
 * of recover_after_batches fault-free flushes at 1/4 or less lowers it.
 * Because each underlying generator is oblivious and a level changes only
 * how many requests share a batch, degraded traces stay bit-identical
 * across secret index sets — certified by tests/serving_verify_test.cc
 * through the secemb-verify differential engine, with a planted
 * value-dependent fallback as the negative control.
 *
 * Fault handling: generation attempts that fail with a *transient* fault
 * (std::bad_alloc, fault::InjectedFault — including worker exceptions
 * propagated out of ParallelFor) are retried with exponential backoff
 * capped at 800 us; non-transient exceptions fail the affected requests
 * immediately with kInternal. When a trace recorder is attached, each
 * attempt records into a scratch recorder that is appended to the sink
 * only on success, so failed partial traces (whose extent depends on
 * scheduling) never pollute the canonical trace.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/embedding_generator.h"
#include "fault/fault.h"
#include "serving/clock.h"
#include "serving/flight_recorder.h"
#include "serving/queue.h"
#include "serving/status.h"
#include "tensor/tensor.h"

namespace secemb::serving {

struct ServerConfig
{
    size_t queue_capacity = 64;
    int max_batch = 16;
    /// How long the batcher waits for more requests after the first one.
    uint64_t flush_deadline_us = 200;
    /// Deadline assigned to requests that carry none (0 = no deadline).
    uint64_t default_deadline_us = 100000;
    /// Transient-fault retries per generation attempt.
    int max_retries = 2;
    /// Backoff before the first retry; it doubles per retry, up to 800 us.
    uint64_t retry_backoff_us = 50;
    /// Consecutive faulted batches that escalate the degrade level.
    int fault_streak_escalate = 2;
    /// Calm (low-depth, fault-free) batches before stepping back down.
    int recover_after_batches = 4;
    /// Floor for the degrade level (tests pin degraded behaviour with 2).
    int min_degrade_level = 0;
    /// Worker threads handed to each generator.
    int nthreads = 1;
    /// Time source; nullptr = DefaultClock(). Point at a FaultSkewedClock
    /// to let a FaultPlan skew batcher time.
    const Clock* clock = nullptr;
};

struct Request
{
    int feature = 0;
    /// Secret ids. For pooled requests this is the flat concatenation of
    /// all bags.
    std::vector<int64_t> indices;
    /// Empty = single-hot (one row per index). Otherwise bag boundaries
    /// into `indices` (size = bags + 1, starting 0, ending indices.size());
    /// the response holds one sum-pooled row per bag. Bag lengths are
    /// public in the threat model.
    std::vector<int64_t> pooled_offsets;
    /// Absolute deadline in Clock ns; 0 = ServerConfig default.
    uint64_t deadline_ns = 0;
};

struct Response
{
    Status status;
    /// (rows x dim) on kOk — one row per index, or per bag when pooled.
    Tensor embeddings;
    /// Process-unique id assigned at Submit; the key into the flight
    /// recorder (FlightRecorder::ForRequest) for post-hoc diagnosis.
    uint64_t request_id = 0;
    uint64_t e2e_ns = 0;      ///< submit-to-fulfil latency
    int retries = 0;          ///< transient-fault retries spent
    int degrade_level = 0;    ///< level the batch was served at
};

/** Snapshot of the server's counters (all monotonic except degrade_level
 *  and queue_depth). */
struct ServerStats
{
    uint64_t submitted = 0;
    uint64_t accepted = 0;
    uint64_t shed = 0;
    uint64_t rejected_shutdown = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t deadline_exceeded = 0;
    uint64_t retries = 0;
    uint64_t batches = 0;
    uint64_t degraded_batches = 0;
    /// Generators whose SyncStorage() failed at shutdown.
    uint64_t storage_sync_failures = 0;
    int degrade_level = 0;
    size_t queue_depth = 0;
    /// Flight-recorder occupancy: total lifecycle events recorded and
    /// how many were overwritten by ring wrap.
    uint64_t flight_recorded = 0;
    uint64_t flight_dropped = 0;
};

class Server
{
  public:
    /**
     * @param features one generator per sparse feature (index = feature
     *        id); shared so the caller can keep using them elsewhere
     * @param config   queue/batch/degradation parameters
     *
     * The batcher thread starts immediately.
     */
    Server(std::vector<std::shared_ptr<core::EmbeddingGenerator>> features,
           ServerConfig config);

    /** Shuts down (draining admitted requests) if not already done. */
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Admit a request. Never blocks: on shed/shutdown/allocation failure
     * the returned future is already fulfilled with the typed Status.
     */
    std::future<Response> Submit(Request req);

    /** Submit and block for the response. */
    Response SubmitAndWait(Request req);

    /**
     * Stop admitting, drain everything already admitted, join the batcher,
     * then SyncStorage() every generator so out-of-core tables flush
     * dirty pages durably. A failed sync is counted
     * (ServerStats::storage_sync_failures) and recorded as a
     * store_writeback flight hop with its code. Idempotent and safe to
     * call concurrently.
     */
    void Shutdown();

    ServerStats GetStats() const;
    int degrade_level() const;
    size_t queue_depth() const { return queue_.size(); }

    /**
     * The per-request flight recorder, a ring of the last 2048 lifecycle
     * events. Query ForRequest(id) with a Response's request_id to
     * reconstruct its path through the server; WriteChromeTrace dumps the
     * retained window.
     */
    const FlightRecorder& flight_recorder() const { return flight_; }

    /**
     * Attach a per-feature canonical-trace sink (verify harness hook).
     * Only successful generation attempts append to it; set before
     * submitting traffic.
     */
    void set_recorder(int feature, sidechannel::TraceRecorder* recorder);

  private:
    struct Pending
    {
        Request req;
        std::promise<Response> promise;
        uint64_t id = 0;           ///< process-unique request id
        uint64_t enqueue_ns = 0;
        uint64_t deadline_ns = 0;  ///< 0 = none
    };

    void BatcherLoop();
    void ServeBatch(std::vector<Pending>& batch);
    /** Serve one same-feature group, single-hot or pooled (`pooled`);
     *  returns true if any generation attempt faulted. */
    bool ServeGroupReturningFault(int feature, bool pooled,
                                  std::vector<Pending*>& group,
                                  int degrade);
    /** Run one generation call with retry/backoff and trace-safe
     *  recording; returns the final status and retry count. */
    Status GenerateWithRetry(int feature,
                             const std::function<void()>& call,
                             int* retries_out);
    void Respond(Pending& p, Status status, Tensor embeddings, int retries,
                 int degrade);
    /** Append one lifecycle event for request `id`. Payloads are
     *  public-only by contract. */
    void RecordHop(uint64_t id, FlightHop hop, StatusCode code,
                   int feature, int degrade, uint32_t detail);
    void UpdateDegrade(bool batch_had_faults);
    int BatchCeiling(int degrade) const;
    uint64_t NowNs() const { return clock_->NowNs(); }

    Status Validate(const Request& req) const;

    std::vector<std::shared_ptr<core::EmbeddingGenerator>> features_;
    ServerConfig config_;
    const Clock* clock_;

    BoundedQueue<Pending, fault::FaultAllocator<Pending>> queue_;
    FlightRecorder flight_;
    std::atomic<uint64_t> next_request_id_{1};
    std::thread batcher_;
    std::once_flag shutdown_once_;

    std::vector<std::atomic<sidechannel::TraceRecorder*>> sinks_;

    // Degrade state: written by the batcher thread only.
    std::atomic<int> degrade_level_;
    int fault_streak_ = 0;
    int calm_batches_ = 0;

    // Counters (relaxed atomics; exact totals once quiesced).
    mutable std::atomic<uint64_t> submitted_{0};
    mutable std::atomic<uint64_t> accepted_{0};
    mutable std::atomic<uint64_t> shed_{0};
    mutable std::atomic<uint64_t> rejected_shutdown_{0};
    mutable std::atomic<uint64_t> completed_{0};
    mutable std::atomic<uint64_t> failed_{0};
    mutable std::atomic<uint64_t> deadline_exceeded_{0};
    mutable std::atomic<uint64_t> retries_{0};
    mutable std::atomic<uint64_t> batches_{0};
    mutable std::atomic<uint64_t> degraded_batches_{0};
    mutable std::atomic<uint64_t> storage_sync_failures_{0};
};

}  // namespace secemb::serving
