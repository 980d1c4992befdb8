#include "oram/proxy.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "oblivious/ct_ops.h"
#include "perfmon/perfmon.h"
#include "telemetry/telemetry.h"
#include "tensor/parallel.h"

namespace secemb::oram {

using oblivious::BoolToMask;
using oblivious::EqMask;

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

OramProxy::OramProxy(std::unique_ptr<TreeOram> oram,
                     const ProxyConfig& config)
    : tree_(std::move(oram)),
      config_(config),
      dummy_rng_(tree_->rng_.Next()),
      nthreads_(config.nthreads),
      flight_(config.flight)
{
    if (config_.batch_window < 1) config_.batch_window = 1;
    if (config_.queue_capacity < 1) config_.queue_capacity = 1;
    // The parallel decomposition below replicates the Path ORAM phases;
    // Circuit ORAM and recursive position maps run the serial controller
    // behind the same queue (coalescing + padding still apply).
    parallel_path_ = tree_->kind_ == OramKind::kPath &&
                     !tree_->posmap_.recursive();
    const size_t slots = static_cast<size_t>(
        (tree_->levels_ + 1) * tree_->params_.bucket_capacity);
    take_.assign(slots * tree_->stash_id_.size(), 0);
    placed_.assign(tree_->stash_id_.size(), 0);
    conductor_ = std::thread([this] { ConductorLoop(); });
}

OramProxy::~OramProxy()
{
    Shutdown();
}

std::future<std::vector<uint32_t>>
OramProxy::SubmitRead(int64_t id)
{
    if (id < 0 || id >= tree_->num_blocks_) {
        throw std::invalid_argument("OramProxy: id out of range");
    }
    Request req;
    req.id = id;
    std::future<std::vector<uint32_t>> fut = req.promise.get_future();
    uint64_t rid = 0;
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_space_.wait(lock, [&] {
            return shutdown_ || queue_.size() < config_.queue_capacity;
        });
        if (shutdown_) {
            throw std::runtime_error("OramProxy: shut down");
        }
        rid = req.rid = ++submitted_;
        ++stats_.requests;
        queue_.push_back(std::move(req));
    }
    TELEMETRY_COUNT("oram.proxy.requests", 1);
    RecordHop(serving::FlightHop::kProxyEnqueue, rid, 0);
    cv_work_.notify_one();
    return fut;
}

void
OramProxy::Flush()
{
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t target = submitted_;
    ++flush_waiters_;
    cv_work_.notify_one();
    cv_done_.wait(lock, [&] { return completed_ >= target || shutdown_; });
    --flush_waiters_;
    // completed_ only advances after the window's deferred evictions
    // drained, so returning here means the tree state is quiescent.
}

void
OramProxy::Shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mu_);
        if (shutdown_) {
            // Idempotent: just wait for the conductor if still running.
        }
        shutdown_ = true;
    }
    cv_work_.notify_all();
    cv_space_.notify_all();
    if (conductor_.joinable()) conductor_.join();
    cv_done_.notify_all();
}

ProxyStats
OramProxy::stats() const
{
    std::unique_lock<std::mutex> lock(mu_);
    return stats_;
}

void
OramProxy::RecordHop(serving::FlightHop hop, uint64_t rid, uint32_t detail)
{
    serving::FlightRecorder* flight = flight_.load();
    if (flight == nullptr) return;
    serving::FlightEvent e;
    e.request_id = rid;
    e.hop = hop;
    e.detail = detail;
    flight->Record(e);
}

// ---------------------------------------------------------------------------
// Conductor
// ---------------------------------------------------------------------------

void
OramProxy::ConductorLoop()
{
    std::vector<Request> window;
    for (;;) {
        window.clear();
        {
            std::unique_lock<std::mutex> lock(mu_);
            for (;;) {
                while (!queue_.empty() &&
                       window.size() <
                           static_cast<size_t>(config_.batch_window)) {
                    window.push_back(std::move(queue_.front()));
                    queue_.erase(queue_.begin());
                    cv_space_.notify_one();
                }
                if (window.size() ==
                    static_cast<size_t>(config_.batch_window)) {
                    break;
                }
                // A partial window is processed only when a Flush() is
                // waiting or we are shutting down — window boundaries
                // stay a deterministic function of arrival order.
                if (!window.empty() &&
                    (flush_waiters_ > 0 || shutdown_)) {
                    break;
                }
                if (window.empty() && shutdown_ && queue_.empty()) {
                    return;  // deferred work was drained with the last
                             // window (ProcessWindow always drains)
                }
                if (window.empty() && flush_waiters_ > 0 &&
                    queue_.empty()) {
                    // Nothing to do for this flush; let it observe
                    // completed_ == submitted_.
                    cv_done_.notify_all();
                }
                cv_work_.wait(lock);
            }
        }
        ProcessWindow(window);
        {
            std::unique_lock<std::mutex> lock(mu_);
            completed_ += window.size();
            ++stats_.windows;
        }
        cv_done_.notify_all();
    }
}

void
OramProxy::ProcessWindow(std::vector<Request>& window)
{
    TELEMETRY_SCOPED_COUNTERS("oram.proxy.window");
    TELEMETRY_SCOPED_LATENCY("oram.proxy.window.ns");
    TELEMETRY_COUNT("oram.proxy.windows", 1);

    const size_t w = window.size();
    // Coalesce: one entry per distinct id, in first-occurrence order;
    // duplicates join the earlier entry's waiter list.
    struct Entry
    {
        int64_t id;
        std::vector<size_t> waiters;  ///< indices into `window`
    };
    std::vector<Entry> entries;
    entries.reserve(w);
    for (size_t i = 0; i < w; ++i) {
        size_t at = entries.size();
        for (size_t e = 0; e < entries.size(); ++e) {
            if (entries[e].id == window[i].id) {
                at = e;
                break;
            }
        }
        if (at == entries.size()) {
            entries.push_back(Entry{window[i].id, {i}});
        } else {
            entries[at].waiters.push_back(i);
            {
                std::unique_lock<std::mutex> lock(mu_);
                ++stats_.coalesced;
            }
            RecordHop(serving::FlightHop::kProxyCoalesce, window[i].rid,
                      static_cast<uint32_t>(at));
        }
    }

    // Physical schedule: exactly w accesses — the d distinct ids in
    // first-occurrence order, padded with dummy reads of uniformly
    // random ids. Each access has the identical trace shape, so the
    // schedule reveals only w (public).
    std::vector<uint32_t> block(static_cast<size_t>(tree_->block_words_));
    for (size_t s = 0; s < w; ++s) {
        const bool real = s < entries.size();
        const int64_t id =
            real ? entries[s].id
                 : static_cast<int64_t>(dummy_rng_.NextBounded(
                       static_cast<uint64_t>(tree_->num_blocks_)));
        const uint64_t rid = real ? window[entries[s].waiters[0]].rid : 0;
        RecordHop(serving::FlightHop::kProxyAccess, rid,
                  static_cast<uint32_t>(s));
        bool failed = false;
        std::exception_ptr error;
        if (broken_) {
            failed = true;
            error = std::make_exception_ptr(std::runtime_error(
                "OramProxy: controller state poisoned by earlier fault"));
        } else {
            try {
                PhysicalAccess(id, block);
            } catch (...) {
                failed = true;
                error = std::current_exception();
                broken_ = true;
            }
        }
        {
            std::unique_lock<std::mutex> lock(mu_);
            ++stats_.physical_accesses;
            if (real) {
                ++stats_.real_accesses;
            } else {
                ++stats_.dummy_accesses;
            }
        }
        if (real) {
            for (size_t wi : entries[s].waiters) {
                if (failed) {
                    window[wi].promise.set_exception(error);
                } else {
                    window[wi].promise.set_value(block);
                }
            }
        }
    }
    // Window boundary: drain eviction work staged by the last access so
    // Flush() returns with a quiescent tree.
    DrainEvictions();
}

// ---------------------------------------------------------------------------
// Physical access
// ---------------------------------------------------------------------------

void
OramProxy::PhysicalAccess(int64_t id, std::vector<uint32_t>& out)
{
    TELEMETRY_SCOPED_COUNTERS("oram.proxy.access");
    if (!parallel_path_ || nthreads_.load() <= 1) {
        // Serial fallback (Circuit ORAM / recursive posmap / one thread):
        // identical per-access trace shape by the serial controller's own
        // argument. With one thread the decomposed path buys nothing, so
        // skip its extra metadata passes entirely — but first drain any
        // write-back encryption staged by a previous parallel access,
        // which the serial controller expects to be applied.
        // The controller counts its own oram.access spans.
        DrainEvictions();
        tree_->Read(id, out);
        return;
    }
    TELEMETRY_COUNT("oram.accesses", 1);
    ParallelPathAccess(id, out);
}

/**
 * One Path ORAM access decomposed for pool threads. The recorded trace
 * and the resulting controller state are identical to TreeOram::Access
 * (asserted by the differential tests); what changes is who moves the
 * payload words:
 *
 *   A. position-map scan in parallel chunks, fused with the previous
 *      access's deferred eviction tasks (disjoint state: posmap flat_
 *      vs tree slot_data_/stash payloads);
 *   B. path read — serial oblivious metadata pass decides stash
 *      placement (take-mask matrix), then pool threads decrypt buckets
 *      (disjoint) and move payloads (one writer per stash entry);
 *   C. stash read-remove / re-insert — serial (tiny);
 *   D. write-back — serial metadata pass chooses blocks and updates all
 *      ids/leaves, while the payload blend + re-encryption of each
 *      bucket is staged as an EvictTask drained in the next access's
 *      phase A (or at the window boundary).
 */
void
OramProxy::ParallelPathAccess(int64_t id, std::vector<uint32_t>& out)
{
    TreeOram& t = *tree_;
    ++t.stats_.accesses;
    const int64_t bw = t.block_words_;
    const int64_t z = t.params_.bucket_capacity;
    const int64_t levels = t.levels_;
    const size_t stash = t.stash_id_.size();
    const uint64_t sentinel = static_cast<uint64_t>(stash);
    const int nthreads = std::max(1, nthreads_.load());

    // --- A: posmap update fused with deferred evictions -------------------
    const uint32_t new_leaf = t.RandomLeaf();
    PositionMap& pm = t.posmap_;
    if (pm.recorder_) {
        pm.recorder_->Record(pm.trace_base_,
                             static_cast<uint32_t>(pm.flat_.size() * 4),
                             false);
        pm.recorder_->Record(pm.trace_base_,
                             static_cast<uint32_t>(pm.flat_.size() * 4),
                             true);
    }
    const size_t n_evict = deferred_.size();
    const int64_t pm_chunks = std::max<int64_t>(1, nthreads);
    const int64_t pm_size = static_cast<int64_t>(pm.flat_.size());
    const int64_t pm_step = (pm_size + pm_chunks - 1) / pm_chunks;
    std::vector<uint32_t> old_partial(static_cast<size_t>(pm_chunks), 0);
    const int64_t tasks =
        static_cast<int64_t>(n_evict) + pm_chunks;
    ParallelFor(tasks, nthreads, [&](int64_t b, int64_t e) {
        for (int64_t task = b; task < e; ++task) {
            if (task < static_cast<int64_t>(n_evict)) {
                RunEvictTask(deferred_[static_cast<size_t>(task)]);
                continue;
            }
            const int64_t c = task - static_cast<int64_t>(n_evict);
            const int64_t lo = c * pm_step;
            const int64_t hi = std::min(pm_size, lo + pm_step);
            uint32_t old = 0;
            if (pm.inline_select_) {
                for (int64_t i = lo; i < hi; ++i) {
                    const uint64_t m =
                        EqMask(static_cast<uint64_t>(i),
                               static_cast<uint64_t>(id));
                    old = static_cast<uint32_t>(oblivious::Select(
                        m, pm.flat_[static_cast<size_t>(i)], old));
                    pm.flat_[static_cast<size_t>(i)] =
                        static_cast<uint32_t>(oblivious::Select(
                            m, new_leaf,
                            pm.flat_[static_cast<size_t>(i)]));
                }
            } else {
                for (int64_t i = lo; i < hi; ++i) {
                    const uint64_t m =
                        EqMask(static_cast<uint64_t>(i),
                               static_cast<uint64_t>(id));
                    old = static_cast<uint32_t>(oblivious::SelectNoInline(
                        m, pm.flat_[static_cast<size_t>(i)], old));
                    pm.flat_[static_cast<size_t>(i)] =
                        static_cast<uint32_t>(oblivious::SelectNoInline(
                            m, new_leaf,
                            pm.flat_[static_cast<size_t>(i)]));
                }
            }
            old_partial[static_cast<size_t>(c)] = old;
        }
    });
    if (n_evict > 0) {
        std::unique_lock<std::mutex> lock(mu_);
        stats_.evictions_overlapped += n_evict;
    }
    for (EvictTask& task : deferred_) {
        task_pool_.push_back(std::move(task));
    }
    deferred_.clear();
    // Exactly one chunk holds `id`; the others contribute 0.
    uint32_t old_leaf = 0;
    for (uint32_t p : old_partial) old_leaf |= p;

    // --- B: path read ------------------------------------------------------
    // Trace + ocall/stat bookkeeping in the serial controller's order.
    for (int64_t level = 0; level <= levels; ++level) {
        t.RecordBucket(t.BucketOnPath(old_leaf, level),
                       /*is_write=*/false);
        t.RecordStashScan(/*is_write=*/true);
    }
    // Serial metadata pass: replicate the oblivious free-slot insertion
    // over ids/leaves only, capturing the per-(slot, stash entry) take
    // masks for the payload movement below.
    const size_t path_slots = static_cast<size_t>((levels + 1) * z);
    assert(take_.size() == path_slots * stash);
    for (int64_t level = 0; level <= levels; ++level) {
        const int64_t b = t.BucketOnPath(old_leaf, level);
        for (int64_t s = 0; s < z; ++s) {
            const int64_t slot = b * z + s;
            const size_t row =
                static_cast<size_t>(level * z + s) * stash;
            const uint64_t valid = ~EqMask(
                t.slot_id_[static_cast<size_t>(slot)], TreeOram::kDummyId);
            uint64_t inserted = ~valid;
            const uint64_t bid = t.slot_id_[static_cast<size_t>(slot)];
            const uint32_t bleaf =
                t.slot_leaf_[static_cast<size_t>(slot)];
            for (size_t j = 0; j < stash; ++j) {
                const uint64_t free =
                    EqMask(t.stash_id_[j], TreeOram::kDummyId);
                const uint64_t take = free & ~inserted;
                t.stash_id_[j] = t.Sel(take, bid, t.stash_id_[j]);
                t.stash_leaf_[j] = static_cast<uint32_t>(
                    t.Sel(take, bleaf, t.stash_leaf_[j]));
                take_[row + j] = take;
                inserted |= take;
            }
            if (inserted == 0) {
                throw std::runtime_error("TreeOram: stash overflow");
            }
            t.slot_id_[static_cast<size_t>(slot)] = TreeOram::kDummyId;
        }
    }
    // Pool: decrypt the path's buckets (payloads only; disjoint per
    // level), then move payloads into the stash (one writer per entry).
    ParallelFor(levels + 1, nthreads, [&](int64_t b, int64_t e) {
        for (int64_t level = b; level < e; ++level) {
            t.DecryptBucket(t.BucketOnPath(old_leaf, level));
        }
    });
    ParallelFor(static_cast<int64_t>(stash), nthreads,
                [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
            uint32_t* dst = t.stash_data_.data() + j * bw;
            for (int64_t level = 0; level <= levels; ++level) {
                const int64_t bkt = t.BucketOnPath(old_leaf, level);
                for (int64_t s = 0; s < z; ++s) {
                    const int64_t slot = bkt * z + s;
                    const size_t row =
                        static_cast<size_t>(level * z + s) * stash;
                    t.MaskCopyWords(
                        take_[row + static_cast<size_t>(j)],
                        t.slot_data_.data() + slot * bw, dst, bw);
                }
            }
        }
    });

    // --- C: stash read-remove + re-insert (serial, tiny) -------------------
    std::fill(out.begin(), out.end(), 0);
    uint32_t junk_leaf = 0;
    uint64_t found = 0;
    t.StashReadRemove(id, out, &junk_leaf, &found);
    (void)found;  // absent blocks read as zeros, like the controller
    t.StashInsert(static_cast<uint64_t>(id), new_leaf, out.data());

    // --- D: write-back — serial choice, deferred payload blend -------------
    for (int64_t level = levels; level >= 0; --level) {
        t.RecordBucket(t.BucketOnPath(old_leaf, level),
                       /*is_write=*/true);
        t.RecordStashScan(/*is_write=*/true);
    }
    std::fill(placed_.begin(), placed_.end(), 0);
    for (int64_t level = levels; level >= 0; --level) {
        const int64_t b = t.BucketOnPath(old_leaf, level);
        EvictTask task;
        if (!task_pool_.empty()) {
            task = std::move(task_pool_.back());
            task_pool_.pop_back();
        }
        task.bucket = b;
        task.chosen.assign(static_cast<size_t>(z), sentinel);
        for (int64_t s = 0; s < z; ++s) {
            const int64_t slot = b * z + s;
            uint64_t chosen = sentinel;
            for (size_t j = 0; j < stash; ++j) {
                const uint64_t real =
                    ~EqMask(t.stash_id_[j], TreeOram::kDummyId);
                const uint64_t deep_enough = BoolToMask(
                    t.CommonLevel(t.stash_leaf_[j], old_leaf) >= level
                        ? 1
                        : 0);
                const uint64_t not_yet = EqMask(chosen, sentinel);
                const uint64_t take =
                    real & deep_enough & ~placed_[j] & not_yet;
                chosen = t.Sel(take, static_cast<uint64_t>(j), chosen);
            }
            const uint64_t have = ~EqMask(chosen, sentinel);
            t.slot_id_[static_cast<size_t>(slot)] = TreeOram::kDummyId;
            t.slot_leaf_[static_cast<size_t>(slot)] = 0;
            for (size_t j = 0; j < stash; ++j) {
                const uint64_t is_ch =
                    EqMask(static_cast<uint64_t>(j), chosen) & have;
                t.slot_id_[static_cast<size_t>(slot)] =
                    t.Sel(is_ch, t.stash_id_[j],
                          t.slot_id_[static_cast<size_t>(slot)]);
                t.slot_leaf_[static_cast<size_t>(slot)] =
                    static_cast<uint32_t>(
                        t.Sel(is_ch, t.stash_leaf_[j],
                              t.slot_leaf_[static_cast<size_t>(slot)]));
                t.stash_id_[j] = t.Sel(is_ch, TreeOram::kDummyId,
                                       t.stash_id_[j]);
                placed_[j] |= is_ch;
            }
            task.chosen[static_cast<size_t>(s)] = chosen;
        }
        deferred_.push_back(std::move(task));
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        stats_.evictions_deferred +=
            static_cast<uint64_t>(levels + 1);
    }
}

/**
 * Deferred half of one write-back bucket: zero the payloads, blend in
 * the chosen stash blocks (whose stash_data_ rows stay untouched until
 * after the drain by construction), and re-encrypt. Runs on pool
 * threads; buckets are disjoint across tasks.
 */
void
OramProxy::RunEvictTask(const EvictTask& task)
{
    TreeOram& t = *tree_;
    const int64_t bw = t.block_words_;
    const int64_t z = t.params_.bucket_capacity;
    const size_t stash = t.stash_id_.size();
    const uint64_t sentinel = static_cast<uint64_t>(stash);
    for (int64_t s = 0; s < z; ++s) {
        const int64_t slot = task.bucket * z + s;
        uint32_t* dst = t.slot_data_.data() + slot * bw;
        for (int64_t w = 0; w < bw; ++w) dst[w] = 0;
        const uint64_t chosen = task.chosen[static_cast<size_t>(s)];
        const uint64_t have = ~EqMask(chosen, sentinel);
        for (size_t j = 0; j < stash; ++j) {
            const uint64_t is_ch =
                EqMask(static_cast<uint64_t>(j), chosen) & have;
            t.MaskCopyWords(is_ch,
                            t.stash_data_.data() +
                                static_cast<int64_t>(j) * bw,
                            dst, bw);
        }
    }
    t.EncryptBucket(task.bucket);
}

void
OramProxy::DrainEvictions()
{
    if (deferred_.empty()) return;
    const int nthreads = std::max(1, nthreads_.load());
    const size_t n = deferred_.size();
    ParallelFor(static_cast<int64_t>(n), nthreads,
                [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            RunEvictTask(deferred_[static_cast<size_t>(i)]);
        }
    });
    RecordHop(serving::FlightHop::kProxyEvict, 0,
              static_cast<uint32_t>(n));
    for (EvictTask& task : deferred_) {
        task_pool_.push_back(std::move(task));
    }
    deferred_.clear();
}

}  // namespace secemb::oram
