#pragma once

/**
 * @file
 * Thread-count-parameterised parallel loop backed by a persistent pool.
 *
 * The paper's profiling sweeps thread counts explicitly (Fig. 6), so the
 * thread count stays a per-call parameter rather than a global pool
 * setting: a call with `nthreads` never uses more than `nthreads`
 * participants (the caller plus at most nthreads-1 pool workers). What the
 * pool changes is *where the threads come from*: workers are created
 * lazily on first use, parked on a condition variable between regions, and
 * woken per region — so the Fig. 6 / Fig. 12 sweeps no longer pay a
 * thread create+join on every data point (the per-request overhead that
 * batched embedding lookups are supposed to amortise away).
 */

#include <cstdint>
#include <functional>

namespace secemb {

/**
 * Run fn(begin, end) over [0, n) split into min(nthreads, n) contiguous
 * chunks executed by at most that many concurrent participants.
 *
 * Semantics:
 *  - nthreads <= 1 (or n <= 1) runs fn(0, n) inline on the calling thread.
 *  - Chunk boundaries are deterministic (ceil(n/workers)-sized contiguous
 *    ranges) regardless of which participant executes which chunk.
 *  - Exception safety: the first exception thrown by any participant
 *    (worker or caller) is captured via std::exception_ptr, remaining
 *    unstarted chunks are skipped, every participant is quiesced, and the
 *    exception is rethrown on the calling thread. Workers survive and are
 *    reused by the next region — a throwing fn no longer terminates the
 *    process.
 *  - Nested calls (fn itself calling ParallelFor, on the caller or on a
 *    pool worker) run inline rather than deadlocking on the pool.
 *  - Concurrent top-level calls from distinct user threads are serialised;
 *    the pool runs one region at a time so per-call thread caps stay
 *    honest.
 */
void ParallelFor(int64_t n, int nthreads,
                 const std::function<void(int64_t, int64_t)>& fn);

/**
 * True while the calling thread is executing inside a ParallelFor region
 * (as the caller or as a pool worker). Nested ParallelFor calls observe
 * this and run inline.
 */
bool InParallelRegion();

/**
 * Test hook for schedule fuzzing: when max_spin > 0, every participant
 * spins a pseudo-random (seeded, deterministic) number of iterations —
 * up to max_spin — before claiming each chunk. This perturbs which
 * participant executes which chunk without changing the chunk boundaries,
 * so trace-identity tests can prove that recorded memory traces are
 * invariant under scheduling (deterministic replay). max_spin = 0
 * restores normal operation. Not for production use.
 */
void SetScheduleJitterForTest(uint32_t max_spin, uint64_t seed);

/**
 * Test hook invoked by whichever participant claimed a chunk, immediately
 * before the region body runs on that chunk's [begin, end) range. The
 * fault-injection framework (src/fault) installs a hook here to force
 * worker stalls and exceptions inside parallel regions: an exception
 * thrown by the hook propagates exactly like one thrown by the region body
 * (captured, region quiesced, rethrown on the calling thread). The hook
 * also fires on the inline path (nthreads <= 1 or nested regions) so
 * injection does not depend on the thread count. nullptr restores normal
 * operation. Install only while no region is running.
 */
using ChunkFaultHook = void (*)(int64_t begin, int64_t end);
void SetChunkFaultHookForTest(ChunkFaultHook hook);

/** Point-in-time observability of the persistent pool (tests/benches). */
struct ThreadPoolStats
{
    int threads = 0;          ///< parked/working pool threads alive now
    uint64_t regions = 0;     ///< parallel regions dispatched to the pool
    uint64_t helper_joins = 0;  ///< pool workers that joined some region
};

ThreadPoolStats GetThreadPoolStats();

}  // namespace secemb
