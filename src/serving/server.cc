#include "serving/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "perfmon/perfmon.h"
#include "store/backing_store.h"
#include "telemetry/telemetry.h"

namespace secemb::serving {

namespace {

/// Highest degrade level (see the header's level table).
constexpr int kMaxDegradeLevel = 2;

/// Upper bound of the doubling retry backoff.
constexpr uint64_t kRetryBackoffCapUs = 800;

/// Lifecycle events the flight recorder keeps.
constexpr size_t kFlightRecorderEvents = 2048;

}  // namespace

Server::Server(
    std::vector<std::shared_ptr<core::EmbeddingGenerator>> features,
    ServerConfig config)
    : features_(std::move(features)),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &DefaultClock()),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity),
      flight_(kFlightRecorderEvents),
      sinks_(features_.size()),
      degrade_level_(std::clamp(config.min_degrade_level, 0,
                                kMaxDegradeLevel))
{
    if (config_.max_batch < 1) config_.max_batch = 1;
    for (auto& sink : sinks_) {
        sink.store(nullptr, std::memory_order_relaxed);
    }
    batcher_ = std::thread([this] { BatcherLoop(); });
}

Server::~Server() { Shutdown(); }

void
Server::Shutdown()
{
    std::call_once(shutdown_once_, [this] {
        queue_.Shutdown();
        if (batcher_.joinable()) batcher_.join();
        // Batcher is joined: generators are quiescent, so the flush races
        // nothing. In-RAM generators return Ok trivially.
        for (size_t f = 0; f < features_.size(); ++f) {
            const Status s = features_[f]->SyncStorage();
            if (!s.ok()) {
                storage_sync_failures_.fetch_add(1,
                                                 std::memory_order_relaxed);
                TELEMETRY_COUNT("serving.storage_sync_failures", 1);
                RecordHop(0, FlightHop::kStoreWriteback, s.code,
                          static_cast<int>(f), degrade_level(), 0);
            }
        }
    });
}

Status
Server::Validate(const Request& req) const
{
    if (req.feature < 0 ||
        req.feature >= static_cast<int>(features_.size())) {
        return Status::Error(StatusCode::kInvalidArgument,
                             "unknown feature id " +
                                 std::to_string(req.feature));
    }
    if (req.indices.empty()) {
        return Status::Error(StatusCode::kInvalidArgument,
                             "empty index batch");
    }
    // Range check: accumulate over the whole batch, branch once at the
    // end — the scan touches the request buffer identically whatever the
    // values, and validity bounds are public (num_rows).
    const int64_t rows = features_[req.feature]->num_rows();
    bool out_of_range = false;
    for (const int64_t idx : req.indices) {
        out_of_range |= (idx < 0 || idx >= rows);
    }
    if (out_of_range) {
        return Status::Error(StatusCode::kInvalidArgument,
                             "index out of range for feature " +
                                 std::to_string(req.feature));
    }
    if (!req.pooled_offsets.empty()) {
        const auto& po = req.pooled_offsets;
        if (po.size() < 2 || po.front() != 0 ||
            po.back() != static_cast<int64_t>(req.indices.size())) {
            return Status::Error(StatusCode::kInvalidArgument,
                                 "pooled offsets must start at 0 and end "
                                 "at indices.size()");
        }
        for (size_t i = 1; i < po.size(); ++i) {
            if (po[i] < po[i - 1]) {
                return Status::Error(StatusCode::kInvalidArgument,
                                     "pooled offsets not monotonic");
            }
        }
    }
    return Status::Ok();
}

std::future<Response>
Server::Submit(Request req)
{
    Pending p;
    p.req = std::move(req);
    p.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    std::future<Response> fut = p.promise.get_future();

    submitted_.fetch_add(1, std::memory_order_relaxed);
    TELEMETRY_COUNT("serving.submitted", 1);

    const uint64_t now = NowNs();
    p.enqueue_ns = now;
    p.deadline_ns = p.req.deadline_ns != 0
                        ? p.req.deadline_ns
                        : (config_.default_deadline_us != 0
                               ? now + config_.default_deadline_us * 1000
                               : 0);

    const int degrade = degrade_level_.load(std::memory_order_relaxed);
    if (Status v = Validate(p.req); !v.ok()) {
        RecordHop(p.id, FlightHop::kInvalidArgument, v.code,
                  p.req.feature, degrade, 0);
        Respond(p, std::move(v), Tensor(), 0, degrade);
        return fut;
    }

    // The admission decision is recorded before fulfilling the promise so
    // a client woken by the future finds its full flight already written.
    const uint64_t id = p.id;
    const int feature = p.req.feature;

    // TryPush moves `p` only on kOk; on every rejection we still own it
    // (and its promise) and fulfil the typed status immediately.
    switch (queue_.TryPush(std::move(p))) {
        case StatusCode::kOk:
            accepted_.fetch_add(1, std::memory_order_relaxed);
            TELEMETRY_COUNT("serving.accepted", 1);
            TELEMETRY_GAUGE_SET("serving.queue_depth", queue_.size());
            RecordHop(id, FlightHop::kEnqueue, StatusCode::kOk, feature,
                      degrade, 0);
            break;
        case StatusCode::kShed:
            shed_.fetch_add(1, std::memory_order_relaxed);
            TELEMETRY_COUNT("serving.shed", 1);
            RecordHop(id, FlightHop::kShed, StatusCode::kShed, feature,
                      degrade, 0);
            Respond(p,
                    Status::Error(StatusCode::kShed,
                                  "queue full (admission control)"),
                    Tensor(), 0, degrade);
            break;
        case StatusCode::kShutdown:
            rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
            TELEMETRY_COUNT("serving.rejected_shutdown", 1);
            RecordHop(id, FlightHop::kRejectedShutdown,
                      StatusCode::kShutdown, feature, degrade, 0);
            Respond(p,
                    Status::Error(StatusCode::kShutdown,
                                  "server is shutting down"),
                    Tensor(), 0, degrade);
            break;
        default:
            TELEMETRY_COUNT("serving.admission_alloc_failure", 1);
            RecordHop(id, FlightHop::kAdmissionAllocFail,
                      StatusCode::kResourceExhausted, feature, degrade, 0);
            Respond(p,
                    Status::Error(StatusCode::kResourceExhausted,
                                  "allocation failed during admission"),
                    Tensor(), 0, degrade);
            break;
    }
    return fut;
}

Response
Server::SubmitAndWait(Request req)
{
    return Submit(std::move(req)).get();
}

void
Server::set_recorder(int feature, sidechannel::TraceRecorder* recorder)
{
    sinks_.at(static_cast<size_t>(feature))
        .store(recorder, std::memory_order_release);
}

int
Server::degrade_level() const
{
    return degrade_level_.load(std::memory_order_relaxed);
}

int
Server::BatchCeiling(int degrade) const
{
    return std::max(1, config_.max_batch >> degrade);
}

void
Server::BatcherLoop()
{
    using PopResult =
        BoundedQueue<Pending, fault::FaultAllocator<Pending>>::PopResult;
    std::vector<Pending> batch;
    for (;;) {
        Pending first;
        if (queue_.Pop(&first) == PopResult::kDrained) break;

        batch.clear();
        batch.push_back(std::move(first));
        const int ceiling =
            BatchCeiling(degrade_level_.load(std::memory_order_relaxed));
        const uint64_t flush_ns = config_.flush_deadline_us * 1000;
        const uint64_t flush_at = NowNs() + flush_ns;
        while (static_cast<int>(batch.size()) < ceiling) {
            const uint64_t now = NowNs();
            if (now >= flush_at) break;
            // Clamp in case an injected clock skew moves time backwards.
            const uint64_t wait = std::min(flush_at - now, flush_ns);
            Pending next;
            if (queue_.PopWait(&next, wait) != PopResult::kItem) break;
            batch.push_back(std::move(next));
        }
        const size_t depth = queue_.size();
        TELEMETRY_GAUGE_SET("serving.queue_depth", depth);
        // Sampled depth time-series: one observation per batch flush, so
        // the histogram answers "how deep did the queue run?" (p50/p99)
        // rather than only "how deep is it right now".
        TELEMETRY_HIST("serving.queue_depth.sample",
                       static_cast<int64_t>(depth));
        const int degrade =
            degrade_level_.load(std::memory_order_relaxed);
        for (const Pending& p : batch) {
            RecordHop(p.id, FlightHop::kBatchJoin, StatusCode::kOk,
                      p.req.feature, degrade,
                      static_cast<uint32_t>(batch.size()));
        }
        ServeBatch(batch);
    }
}

void
Server::ServeBatch(std::vector<Pending>& batch)
{
    TELEMETRY_SCOPED_COUNTERS("serving.batch");
    const int degrade = degrade_level_.load(std::memory_order_relaxed);
    const uint64_t start = NowNs();

    // Deadline check before any model-state access: the decision reads
    // the clock and per-request deadlines only, never index values.
    std::vector<Pending*> live;
    live.reserve(batch.size());
    for (Pending& p : batch) {
        if (p.deadline_ns != 0 && start > p.deadline_ns) {
            deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
            TELEMETRY_COUNT("serving.deadline_exceeded", 1);
            RecordHop(p.id, FlightHop::kDeadlineExceeded,
                      StatusCode::kDeadlineExceeded, p.req.feature,
                      degrade, 0);
            Respond(p,
                    Status::Error(StatusCode::kDeadlineExceeded,
                                  "deadline expired before serving"),
                    Tensor(), 0, degrade);
        } else {
            live.push_back(&p);
        }
    }

    bool had_faults = false;
    for (int f = 0; f < static_cast<int>(features_.size()); ++f) {
        for (const bool pooled : {false, true}) {
            std::vector<Pending*> group;
            for (Pending* p : live) {
                if (p->req.feature == f &&
                    pooled == !p->req.pooled_offsets.empty()) {
                    group.push_back(p);
                }
            }
            if (!group.empty()) {
                had_faults |= ServeGroupReturningFault(f, pooled, group,
                                                       degrade);
            }
        }
    }

    batches_.fetch_add(1, std::memory_order_relaxed);
    if (degrade > 0) {
        degraded_batches_.fetch_add(1, std::memory_order_relaxed);
        TELEMETRY_COUNT("serving.degraded_batches", 1);
    }
    TELEMETRY_COUNT("serving.batches", 1);
    TELEMETRY_HIST("serving.batch_size",
                   static_cast<int64_t>(batch.size()));
    TELEMETRY_HIST("serving.batch.ns", NowNs() - start);
    UpdateDegrade(had_faults);
}

bool
Server::ServeGroupReturningFault(int feature, bool pooled,
                                 std::vector<Pending*>& group, int degrade)
{
    core::EmbeddingGenerator& gen = *features_[feature];
    gen.set_nthreads(config_.nthreads);
    const int64_t dim = gen.dim();

    // Coalesce the group into one generator call: flat index list, bag
    // offsets rebuilt against it when pooled, and each request's row span
    // in the group output.
    std::vector<int64_t> indices;
    std::vector<int64_t> offsets;
    struct RowSpan
    {
        int64_t begin;
        int64_t rows;
    };
    std::vector<RowSpan> spans;
    spans.reserve(group.size());
    size_t total = 0;
    for (const Pending* p : group) total += p->req.indices.size();
    indices.reserve(total);
    if (pooled) offsets.push_back(0);
    int64_t row_cursor = 0;
    for (const Pending* p : group) {
        int64_t rows;
        if (pooled) {
            const auto& po = p->req.pooled_offsets;
            const int64_t base = static_cast<int64_t>(indices.size());
            for (size_t b = 1; b < po.size(); ++b) {
                offsets.push_back(base + po[b]);
            }
            rows = static_cast<int64_t>(po.size()) - 1;
        } else {
            rows = static_cast<int64_t>(p->req.indices.size());
        }
        spans.push_back({row_cursor, rows});
        row_cursor += rows;
        indices.insert(indices.end(), p->req.indices.begin(),
                       p->req.indices.end());
    }

    Tensor out({row_cursor, dim});
    const std::function<void()> call = [&] {
        if (pooled) {
            gen.GeneratePooled(indices, offsets, out);
        } else {
            gen.Generate(indices, out);
        }
    };

    for (const Pending* p : group) {
        RecordHop(p->id, FlightHop::kServeStart, StatusCode::kOk, feature,
                  degrade, static_cast<uint32_t>(group.size()));
    }
    int retries = 0;
    Status st = GenerateWithRetry(feature, call, &retries);
    const bool had_fault = retries > 0 || !st.ok();
    if (retries > 0) {
        for (const Pending* p : group) {
            RecordHop(p->id, FlightHop::kRetry, st.code, feature, degrade,
                      static_cast<uint32_t>(retries));
        }
    }
    if (!st.ok()) {
        for (Pending* p : group) {
            Respond(*p, st, Tensor(), retries, degrade);
        }
        return had_fault;
    }
    for (size_t i = 0; i < group.size(); ++i) {
        Tensor emb({spans[i].rows, dim});
        std::memcpy(emb.data(), out.data() + spans[i].begin * dim,
                    static_cast<size_t>(spans[i].rows * dim) *
                        sizeof(float));
        Respond(*group[i], Status::Ok(), std::move(emb), retries, degrade);
    }
    return had_fault;
}

Status
Server::GenerateWithRetry(int feature, const std::function<void()>& call,
                          int* retries_out)
{
    core::EmbeddingGenerator& gen = *features_[feature];
    sidechannel::TraceRecorder* sink =
        sinks_[static_cast<size_t>(feature)].load(
            std::memory_order_acquire);
    Status last = Status::Ok();
    for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
        // Trace-safe retry: record each attempt into a scratch recorder
        // and append to the sink only on success — a failed attempt's
        // partial trace depends on worker scheduling and must never reach
        // the canonical stream.
        sidechannel::TraceRecorder scratch;
        if (sink != nullptr) gen.set_recorder(&scratch);
        try {
            fault::MaybeThrow(fault::FaultSite::kGenerate,
                              "injected generation fault");
            call();
            if (sink != nullptr) {
                gen.set_recorder(nullptr);
                sink->Append(scratch);
            }
            *retries_out = attempt;
            return Status::Ok();
        } catch (const std::bad_alloc&) {
            last = Status::Error(StatusCode::kResourceExhausted,
                                 "allocation failed during generation");
        } catch (const fault::InjectedFault& e) {
            last = Status::Error(StatusCode::kInternal,
                                 std::string("transient fault: ") +
                                     e.what());
        } catch (const store::StoreError& e) {
            // Typed out-of-core IO failure (torn write, short read,
            // ENOSPC, ...): not transient — surface its Status verbatim
            // without burning retries.
            if (sink != nullptr) gen.set_recorder(nullptr);
            *retries_out = attempt;
            return e.status();
        } catch (const std::exception& e) {
            if (sink != nullptr) gen.set_recorder(nullptr);
            *retries_out = attempt;
            return Status::Error(StatusCode::kInternal,
                                 std::string("generation failed: ") +
                                     e.what());
        }
        if (sink != nullptr) gen.set_recorder(nullptr);
        if (attempt == config_.max_retries) break;
        retries_.fetch_add(1, std::memory_order_relaxed);
        TELEMETRY_COUNT("serving.retries", 1);
        const int shift = std::min(attempt, 20);
        const uint64_t backoff_us =
            std::min(config_.retry_backoff_us << shift, kRetryBackoffCapUs);
        if (backoff_us > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(backoff_us));
        }
    }
    *retries_out = config_.max_retries;
    return last;
}

void
Server::Respond(Pending& p, Status status, Tensor embeddings, int retries,
                int degrade)
{
    const uint64_t now = NowNs();
    const uint64_t e2e = now >= p.enqueue_ns ? now - p.enqueue_ns : 0;
    const bool ok = status.ok();
    RecordHop(p.id, FlightHop::kRespond, status.code, p.req.feature,
              degrade, static_cast<uint32_t>(retries));
    Response resp;
    resp.status = std::move(status);
    resp.embeddings = std::move(embeddings);
    resp.request_id = p.id;
    resp.e2e_ns = e2e;
    resp.retries = retries;
    resp.degrade_level = degrade;
    // Stats must be visible before the response is published: a client
    // woken by the future may immediately read GetStats().
    if (ok) {
        completed_.fetch_add(1, std::memory_order_relaxed);
        TELEMETRY_COUNT("serving.completed", 1);
    } else {
        failed_.fetch_add(1, std::memory_order_relaxed);
        TELEMETRY_COUNT("serving.failed", 1);
    }
    TELEMETRY_HIST("serving.e2e.ns", e2e);
    p.promise.set_value(std::move(resp));
}

void
Server::RecordHop(uint64_t id, FlightHop hop, StatusCode code,
                  int feature, int degrade, uint32_t detail)
{
    FlightEvent e;
    e.request_id = id;
    e.t_ns = NowNs();
    e.queue_depth = static_cast<uint32_t>(queue_.size());
    e.detail = detail;
    e.code = code;
    e.feature = static_cast<int16_t>(feature);
    e.hop = hop;
    e.degrade = static_cast<uint8_t>(std::clamp(degrade, 0, 255));
    flight_.Record(e);
}

void
Server::UpdateDegrade(bool batch_had_faults)
{
    const size_t cap = queue_.capacity();
    const size_t high = (3 * cap) / 4;
    const size_t low = cap / 4;
    const size_t depth = queue_.size();
    const int floor_level =
        std::clamp(config_.min_degrade_level, 0, kMaxDegradeLevel);

    if (batch_had_faults) {
        ++fault_streak_;
    } else {
        fault_streak_ = 0;
    }

    int level = degrade_level_.load(std::memory_order_relaxed);
    if (depth >= high || fault_streak_ >= config_.fault_streak_escalate) {
        level = std::min(level + 1, kMaxDegradeLevel);
        calm_batches_ = 0;
        if (fault_streak_ >= config_.fault_streak_escalate) {
            fault_streak_ = 0;
        }
    } else if (depth <= low && !batch_had_faults) {
        if (++calm_batches_ >= config_.recover_after_batches) {
            level = std::max(level - 1, floor_level);
            calm_batches_ = 0;
        }
    } else {
        calm_batches_ = 0;
    }
    level = std::max(level, floor_level);
    if (level != degrade_level_.load(std::memory_order_relaxed)) {
        degrade_level_.store(level, std::memory_order_relaxed);
        TELEMETRY_GAUGE_SET("serving.degrade_level", level);
    }
}

ServerStats
Server::GetStats() const
{
    ServerStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.shed = shed_.load(std::memory_order_relaxed);
    s.rejected_shutdown =
        rejected_shutdown_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.deadline_exceeded =
        deadline_exceeded_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.degraded_batches = degraded_batches_.load(std::memory_order_relaxed);
    s.storage_sync_failures =
        storage_sync_failures_.load(std::memory_order_relaxed);
    s.degrade_level = degrade_level_.load(std::memory_order_relaxed);
    s.queue_depth = queue_.size();
    s.flight_recorded = flight_.recorded();
    s.flight_dropped = flight_.dropped();
    return s;
}

}  // namespace secemb::serving
