#pragma once

/**
 * @file
 * Per-request flight recorder for the serving pipeline.
 *
 * Every request admitted to (or rejected by) a Server carries a process-
 * unique request id, and each lifecycle hop — enqueue, shed, batch join,
 * serve start, retry, deadline miss, respond — appends one fixed-size
 * FlightEvent to a lock-free ring. After a shed storm or a p99 outlier,
 * the ring answers "what happened to request N?" without any logging on
 * the hot path: ForRequest() reconstructs the request's path with the
 * queue depth and degrade level it saw at every hop, and WriteChromeTrace
 * dumps the whole window for chrome://tracing.
 *
 * Concurrency: Record() is wait-free for writers (one fetch_add claiming
 * a slot, release stores of the cleared stamp and the payload words, one
 * release store publishing it). Readers run concurrently and validate
 * each slot's stamp before and after copying, discarding entries that
 * were being overwritten mid-copy. An entry can be misread only if the
 * ring wraps a full capacity during one half-finished write — capacity
 * choices make that astronomically unlikely, and a torn read at worst
 * drops a diagnostic event, never corrupts the server.
 *
 * Observability rule: events are recorded at public control-flow points
 * with public payloads (ids, depths, status codes) — never index values —
 * so the recorder follows the same obliviousness-preserving contract as
 * the telemetry subsystem (DESIGN.md "Observability").
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serving/status.h"

namespace secemb::serving {

/** Lifecycle points a request passes through. */
enum class FlightHop : uint8_t
{
    kEnqueue = 0,        ///< Submit() accepted into the queue
    kShed,               ///< admission control rejected (queue full)
    kRejectedShutdown,   ///< rejected: server shutting down
    kInvalidArgument,    ///< rejected: request failed validation
    kAdmissionAllocFail, ///< rejected: allocation failure at admission
    kBatchJoin,          ///< popped by the batcher into a batch
    kServeStart,         ///< its same-feature group starts generation
    kRetry,              ///< generation needed transient-fault retries
    kDeadlineExceeded,   ///< dropped at serve time: deadline passed
    kRespond,            ///< response published (ok or error)
    kStoreWriteback,     ///< a storage sync failed (code says why)
};

/** Stable name for JSON / debugging ("enqueue", "shed", ...). */
const char* FlightHopName(FlightHop hop);

/** One recorded lifecycle event (fixed-size, trivially copyable). */
struct FlightEvent
{
    uint64_t request_id = 0;
    uint64_t t_ns = 0;        ///< server Clock timestamp
    uint32_t queue_depth = 0; ///< depth observed at the hop
    uint32_t detail = 0;      ///< hop-specific: batch size, retries, ...
    StatusCode code = StatusCode::kOk;  ///< respond/reject hops
    int16_t feature = -1;     ///< feature id where known
    FlightHop hop = FlightHop::kEnqueue;
    uint8_t degrade = 0;      ///< degrade level at the hop
};

class FlightRecorder
{
  public:
    /** @param capacity ring size; rounded up to a power of two, >= 16. */
    explicit FlightRecorder(size_t capacity);

    /** Append one event. Wait-free; overwrites the oldest entry when
     *  full. Safe from any thread. */
    void Record(const FlightEvent& event) noexcept;

    /**
     * Copy of the currently retained window, oldest-first (stable order:
     * claim sequence). Entries caught mid-overwrite are skipped.
     */
    std::vector<FlightEvent> Snapshot() const;

    /** The retained events of one request, in lifecycle order. */
    std::vector<FlightEvent> ForRequest(uint64_t request_id) const;

    /** Total Record() calls since construction. */
    uint64_t recorded() const;

    /** Events overwritten because the ring wrapped. */
    uint64_t dropped() const;

    size_t capacity() const { return mask_ + 1; }

    /**
     * Serialise the retained window as a chrome://tracing document:
     * one instant event per hop, one track (tid) per request (ids are
     * folded into 31 bits for the viewer), args carrying queue depth,
     * degrade level, status code, and detail.
     */
    std::string ToChromeTraceJson() const;

    /** Write ToChromeTraceJson() to `path`; false on IO failure. */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    struct Slot
    {
        /** 0 = never written / mid-write; claim_seq + 1 once published. */
        std::atomic<uint64_t> stamp{0};
        /** FlightEvent packed into word-atomics so a reader racing a
         *  wrap-around writer stays benign (and TSan-clean); the stamp
         *  check discards mixed reads. */
        std::atomic<uint64_t> words[4]{};
    };

    std::unique_ptr<Slot[]> slots_;
    size_t mask_;
    std::atomic<uint64_t> next_{0};
};

}  // namespace secemb::serving
