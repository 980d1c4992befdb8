#include "tensor/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace secemb {

namespace {

/// Set for every thread (caller or pool worker) while it executes region
/// chunks; nested ParallelFor calls observe it and run inline.
thread_local bool tls_in_region = false;

/// Backstop against pathological nthreads requests; dynamic chunk claiming
/// means a region still completes when capped (the caller and whatever
/// workers exist drain the remaining chunks).
constexpr int kMaxPoolThreads = 256;

/// Schedule-fuzzing state (SetScheduleJitterForTest): participants spin a
/// deterministic pseudo-random number of iterations before each chunk
/// claim, perturbing claim interleavings without changing chunk bounds.
std::atomic<uint32_t> jitter_max_spin{0};
std::atomic<uint64_t> jitter_state{0};

/// Fault-injection hook (SetChunkFaultHookForTest): consulted before every
/// chunk body, on pool and inline paths alike.
std::atomic<ChunkFaultHook> chunk_fault_hook{nullptr};

void
JitterSpin()
{
    const uint32_t max_spin =
        jitter_max_spin.load(std::memory_order_relaxed);
    if (max_spin == 0) return;
    // splitmix64 step over a shared counter: deterministic sequence of
    // spin lengths, racy interleaving of who consumes which — exactly the
    // schedule variance the trace stress tests want.
    uint64_t z = jitter_state.fetch_add(0x9e3779b97f4a7c15ULL,
                                        std::memory_order_relaxed);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    const uint32_t spins = static_cast<uint32_t>(z >> 33) % max_spin;
    // The volatile counter keeps the loop from being deleted (a plain
    // assignment: ++ on a volatile is deprecated in C++20).
    volatile uint32_t spun = 0;
    while (spun < spins) spun = spun + 1;
}

/**
 * Persistent worker pool. Workers are spawned lazily (only as many as the
 * largest nthreads seen so far, minus the caller), parked on a condition
 * variable between regions, and woken by a generation bump per region.
 *
 * One region runs at a time (region_mu_): per-call thread caps stay honest
 * and the region descriptor can live in the pool rather than being
 * allocated per call.
 */
class ThreadPool
{
  public:
    static ThreadPool&
    Instance()
    {
        static ThreadPool pool;
        return pool;
    }

    void
    Run(int64_t n, int64_t workers,
        const std::function<void(int64_t, int64_t)>& fn)
    {
        // Serialise regions; held until every joined helper has quiesced,
        // so the next region can safely reuse the task descriptor.
        std::unique_lock<std::mutex> region_lock(region_mu_);

        const int helpers_wanted = static_cast<int>(workers) - 1;
        EnsureWorkers(helpers_wanted);

        {
            std::lock_guard<std::mutex> lk(mu_);
            task_.fn = &fn;
            task_.n = n;
            task_.chunk = (n + workers - 1) / workers;
            task_.nchunks = (n + task_.chunk - 1) / task_.chunk;
            task_.next.store(0, std::memory_order_relaxed);
            task_.failed.store(false, std::memory_order_relaxed);
            task_.error = nullptr;
            task_.helpers_wanted =
                std::min<int>(helpers_wanted,
                              static_cast<int>(threads_.size()));
            task_.helpers_joined = 0;
            task_.helpers_done = 0;
            task_.closed = false;
#if SECEMB_TELEMETRY_ENABLED
            task_.dispatch_ns = telemetry::NowNs();
#endif
            ++generation_;
            ++regions_;
        }
        TELEMETRY_COUNT("pool.regions", 1);
        TELEMETRY_COUNT("pool.chunks", task_.nchunks);
        TELEMETRY_GAUGE_SET("pool.active_workers", workers);
        cv_.notify_all();

        // The caller is participant #0: it claims chunks like any worker,
        // so a region completes even if every wake is slow or the pool is
        // capped below the request.
        tls_in_region = true;
        RunChunks();
        tls_in_region = false;

        std::exception_ptr error;
        {
            std::unique_lock<std::mutex> lk(mu_);
            task_.closed = true;  // no further helpers may join
            done_cv_.wait(lk, [this] {
                return task_.helpers_done == task_.helpers_joined;
            });
            error = task_.error;
            task_.fn = nullptr;
        }
        TELEMETRY_GAUGE_SET("pool.active_workers", 0);
        if (error) std::rethrow_exception(error);
    }

    ThreadPoolStats
    Stats()
    {
        std::lock_guard<std::mutex> lk(mu_);
        ThreadPoolStats s;
        s.threads = static_cast<int>(threads_.size());
        s.regions = regions_;
        s.helper_joins = helper_joins_;
        return s;
    }

  private:
    /** One parallel region; reused across regions (one at a time). */
    struct Task
    {
        const std::function<void(int64_t, int64_t)>* fn = nullptr;
        int64_t n = 0;
        int64_t chunk = 1;
        int64_t nchunks = 0;
        std::atomic<int64_t> next{0};   ///< next chunk index to claim
        std::atomic<bool> failed{false};  ///< stop claiming after a throw
        std::exception_ptr error;       ///< first exception (guarded by mu_)
        int helpers_wanted = 0;         ///< max pool helpers for this region
        int helpers_joined = 0;         ///< guarded by mu_
        int helpers_done = 0;           ///< guarded by mu_
        bool closed = false;            ///< joins refused once caller drains
        uint64_t dispatch_ns = 0;       ///< wake-latency reference point
    };

    ThreadPool() = default;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            shutdown_ = true;
        }
        cv_.notify_all();
        for (auto& t : threads_) t.join();
    }

    void
    EnsureWorkers(int wanted)
    {
        std::lock_guard<std::mutex> lk(mu_);
        const int target = std::min(wanted, kMaxPoolThreads);
        while (static_cast<int>(threads_.size()) < target) {
            try {
                threads_.emplace_back([this] { WorkerLoop(); });
            } catch (...) {
                // Resource exhaustion: run with the workers we have. The
                // already-spawned threads stay owned and joinable, and
                // chunk claiming completes any region with fewer helpers.
                break;
            }
        }
        TELEMETRY_GAUGE_SET("pool.threads", threads_.size());
    }

    /**
     * Claim and execute chunks until none remain (or a participant
     * failed). Chunk ranges are a pure function of the chunk index, so the
     * work partition is deterministic however claims interleave.
     */
    void
    RunChunks()
    {
        for (;;) {
            if (task_.failed.load(std::memory_order_relaxed)) break;
            JitterSpin();
            const int64_t c =
                task_.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= task_.nchunks) break;
            const int64_t begin = c * task_.chunk;
            const int64_t end = std::min(task_.n, begin + task_.chunk);
            try {
                if (ChunkFaultHook hook = chunk_fault_hook.load(
                        std::memory_order_relaxed)) {
                    hook(begin, end);
                }
                (*task_.fn)(begin, end);
            } catch (...) {
                std::lock_guard<std::mutex> lk(mu_);
                if (!task_.error) task_.error = std::current_exception();
                task_.failed.store(true, std::memory_order_relaxed);
            }
        }
    }

    void
    WorkerLoop()
    {
        uint64_t seen_gen = 0;
        for (;;) {
            bool joined = false;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [&] {
                    return shutdown_ || generation_ != seen_gen;
                });
                if (shutdown_) return;
                seen_gen = generation_;
                if (!task_.closed &&
                    task_.helpers_joined < task_.helpers_wanted) {
                    ++task_.helpers_joined;
                    ++helper_joins_;
                    joined = true;
                }
            }
            if (!joined) continue;

#if SECEMB_TELEMETRY_ENABLED
            // Wake latency: dispatch (generation bump) to this worker
            // starting on the region. Public timing of public control
            // flow — never secret-dependent.
            TELEMETRY_HIST("pool.wake.ns",
                           telemetry::NowNs() - task_.dispatch_ns);
#endif
            tls_in_region = true;
            RunChunks();
            tls_in_region = false;

            {
                std::lock_guard<std::mutex> lk(mu_);
                ++task_.helpers_done;
            }
            done_cv_.notify_all();
        }
    }

    std::mutex region_mu_;  ///< one region at a time

    std::mutex mu_;  ///< guards everything below plus Task bookkeeping
    std::condition_variable cv_;       ///< workers park here
    std::condition_variable done_cv_;  ///< caller awaits helper quiesce
    std::vector<std::thread> threads_;
    Task task_;
    uint64_t generation_ = 0;
    uint64_t regions_ = 0;
    uint64_t helper_joins_ = 0;
    bool shutdown_ = false;
};

}  // namespace

void
ParallelFor(int64_t n, int nthreads,
            const std::function<void(int64_t, int64_t)>& fn)
{
    if (n <= 0) return;
    const int64_t workers =
        std::max<int64_t>(1, std::min<int64_t>(nthreads, n));
    if (workers == 1 || tls_in_region) {
        // Inline path: single-threaded request, tiny n, or a nested call
        // from inside another region (running it on the pool would
        // deadlock on region serialisation).
        if (ChunkFaultHook hook =
                chunk_fault_hook.load(std::memory_order_relaxed)) {
            hook(0, n);
        }
        fn(0, n);
        return;
    }
    ThreadPool::Instance().Run(n, workers, fn);
}

bool
InParallelRegion()
{
    return tls_in_region;
}

void
SetScheduleJitterForTest(uint32_t max_spin, uint64_t seed)
{
    jitter_state.store(seed, std::memory_order_relaxed);
    jitter_max_spin.store(max_spin, std::memory_order_relaxed);
}

void
SetChunkFaultHookForTest(ChunkFaultHook hook)
{
    chunk_fault_hook.store(hook, std::memory_order_relaxed);
}

ThreadPoolStats
GetThreadPoolStats()
{
    return ThreadPool::Instance().Stats();
}

}  // namespace secemb
