/**
 * @file
 * Serving pipeline tests: request/response correctness against direct
 * generator calls, single-hot and pooled, admission
 * control (shed), typed validation errors, deadline handling, and the
 * queue lifecycle — shutdown drains in-flight requests, rejects new ones
 * with a typed status, and never deadlocks under oversubscribed thread
 * counts (run under the `concurrency` ctest label with TSan).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/table_generators.h"
#include "serving/queue.h"
#include "serving/server.h"
#include "tensor/rng.h"

namespace secemb::serving {
namespace {

std::shared_ptr<core::LinearScanTable>
MakeScan(int64_t rows, int64_t dim, uint64_t seed)
{
    Rng rng(seed);
    return std::make_shared<core::LinearScanTable>(
        Tensor::Randn({rows, dim}, rng));
}

/** Wrapper that blocks every generation until Open() — lets tests hold
 *  the batcher inside a batch while they fill or drain the queue. */
class GatedGenerator : public core::EmbeddingGenerator
{
  public:
    explicit GatedGenerator(std::shared_ptr<core::EmbeddingGenerator> inner)
        : inner_(std::move(inner))
    {
    }

    void
    Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        Wait();
        inner_->Generate(indices, out);
    }

    void
    GeneratePooled(std::span<const int64_t> indices,
                   std::span<const int64_t> offsets, Tensor& out) override
    {
        Wait();
        inner_->GeneratePooled(indices, offsets, out);
    }

    int64_t dim() const override { return inner_->dim(); }
    int64_t num_rows() const override { return inner_->num_rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return inner_->MemoryFootprintBytes();
    }
    std::string_view name() const override { return "Gated"; }
    bool IsOblivious() const override { return inner_->IsOblivious(); }

    void
    Open()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            open_ = true;
        }
        cv_.notify_all();
    }

    /** Block until the batcher has entered a generation call. */
    void
    AwaitEntered()
    {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [this] { return entered_; });
    }

  private:
    void
    Wait()
    {
        std::unique_lock<std::mutex> lk(mu_);
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lk, [this] { return open_; });
    }

    std::shared_ptr<core::EmbeddingGenerator> inner_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool open_ = false;
    bool entered_ = false;
};

// --- correctness ----------------------------------------------------------

TEST(ServingTest, SingleHotMatchesDirectGeneration)
{
    auto scan = MakeScan(64, 8, 11);
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.flush_deadline_us = 50;
    cfg.default_deadline_us = 0;
    Server server({scan}, cfg);

    const std::vector<int64_t> ids{3, 17, 0, 63, 5};
    Request req;
    req.indices = ids;
    const Response resp = server.SubmitAndWait(std::move(req));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();

    const Tensor expect = scan->GenerateBatch(ids);
    EXPECT_EQ(resp.embeddings.shape(), expect.shape());
    EXPECT_TRUE(resp.embeddings.AllClose(expect, 0.0f));

    server.Shutdown();
    const ServerStats s = server.GetStats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.failed, 0u);
}

TEST(ServingTest, PooledMatchesDirectPooled)
{
    auto scan = MakeScan(32, 4, 12);
    ServerConfig cfg;
    cfg.default_deadline_us = 0;
    Server server({scan}, cfg);

    const std::vector<int64_t> ids{1, 2, 3, 9, 9, 30};
    const std::vector<int64_t> offsets{0, 2, 2, 5, 6};
    Request req;
    req.indices = ids;
    req.pooled_offsets = offsets;
    const Response resp = server.SubmitAndWait(std::move(req));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();

    Tensor expect(
        {static_cast<int64_t>(offsets.size()) - 1, scan->dim()});
    scan->GeneratePooled(ids, offsets, expect);
    EXPECT_TRUE(resp.embeddings.AllClose(expect, 1e-5f));
}

TEST(ServingTest, MultipleFeaturesRouteToTheirGenerators)
{
    auto f0 = MakeScan(16, 4, 21);
    auto f1 = MakeScan(64, 4, 22);
    ServerConfig cfg;
    cfg.default_deadline_us = 0;
    Server server({f0, f1}, cfg);

    Request r0;
    r0.feature = 0;
    r0.indices = {1, 15};
    Request r1;
    r1.feature = 1;
    r1.indices = {40};
    auto fut0 = server.Submit(std::move(r0));
    auto fut1 = server.Submit(std::move(r1));
    const Response a = fut0.get();
    const Response b = fut1.get();
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.embeddings.AllClose(
        f0->GenerateBatch(std::vector<int64_t>{1, 15}), 0.0f));
    EXPECT_TRUE(b.embeddings.AllClose(
        f1->GenerateBatch(std::vector<int64_t>{40}), 0.0f));
}

// --- validation and deadlines ---------------------------------------------

TEST(ServingTest, InvalidRequestsGetTypedErrors)
{
    auto scan = MakeScan(16, 4, 31);
    ServerConfig cfg;
    cfg.default_deadline_us = 0;
    Server server({scan}, cfg);

    Request bad_feature;
    bad_feature.feature = 7;
    bad_feature.indices = {1};
    EXPECT_EQ(server.SubmitAndWait(std::move(bad_feature)).status.code,
              StatusCode::kInvalidArgument);

    Request empty;
    EXPECT_EQ(server.SubmitAndWait(std::move(empty)).status.code,
              StatusCode::kInvalidArgument);

    Request out_of_range;
    out_of_range.indices = {3, 99};
    EXPECT_EQ(server.SubmitAndWait(std::move(out_of_range)).status.code,
              StatusCode::kInvalidArgument);

    Request bad_offsets;
    bad_offsets.indices = {1, 2};
    bad_offsets.pooled_offsets = {0, 5};
    EXPECT_EQ(server.SubmitAndWait(std::move(bad_offsets)).status.code,
              StatusCode::kInvalidArgument);

    // Valid traffic still flows afterwards.
    Request good;
    good.indices = {2};
    EXPECT_TRUE(server.SubmitAndWait(std::move(good)).status.ok());
}

TEST(ServingTest, ExpiredDeadlineIsRejectedTyped)
{
    auto scan = MakeScan(16, 4, 32);
    ServerConfig cfg;
    cfg.default_deadline_us = 0;
    Server server({scan}, cfg);

    Request req;
    req.indices = {1};
    req.deadline_ns = 1;  // expired long ago on any monotonic clock
    const Response resp = server.SubmitAndWait(std::move(req));
    EXPECT_EQ(resp.status.code, StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.GetStats().deadline_exceeded, 1u);
}

// --- admission control ----------------------------------------------------

TEST(ServingTest, ShedsWithTypedStatusWhenQueueIsFull)
{
    auto gate = std::make_shared<GatedGenerator>(MakeScan(16, 4, 41));
    ServerConfig cfg;
    cfg.queue_capacity = 2;
    cfg.max_batch = 1;
    cfg.default_deadline_us = 0;
    Server server({gate}, cfg);

    // First request occupies the batcher inside the gate...
    Request r0;
    r0.indices = {1};
    auto f0 = server.Submit(std::move(r0));
    gate->AwaitEntered();

    // ...two more fill the bounded queue...
    std::vector<std::future<Response>> queued;
    for (int i = 0; i < 2; ++i) {
        Request r;
        r.indices = {2};
        queued.push_back(server.Submit(std::move(r)));
    }
    // ...and the next is shed immediately with a typed status.
    Request overflow;
    overflow.indices = {3};
    auto shed_fut = server.Submit(std::move(overflow));
    ASSERT_EQ(shed_fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "shed must fulfil the future immediately, not block";
    EXPECT_EQ(shed_fut.get().status.code, StatusCode::kShed);
    EXPECT_EQ(server.GetStats().shed, 1u);

    gate->Open();
    EXPECT_TRUE(f0.get().status.ok());
    for (auto& f : queued) EXPECT_TRUE(f.get().status.ok());
}

// --- lifecycle ------------------------------------------------------------

TEST(ServingQueueTest, ShutdownDrainsThenReportsDrained)
{
    BoundedQueue<int> q(4);
    EXPECT_EQ(q.TryPush(1), StatusCode::kOk);
    EXPECT_EQ(q.TryPush(2), StatusCode::kOk);
    q.Shutdown();
    EXPECT_EQ(q.TryPush(3), StatusCode::kShutdown);

    int v = 0;
    using PR = BoundedQueue<int>::PopResult;
    EXPECT_EQ(q.PopWait(&v, 0), PR::kItem);
    EXPECT_EQ(v, 1);
    EXPECT_EQ(q.PopWait(&v, 0), PR::kItem);
    EXPECT_EQ(v, 2);
    EXPECT_EQ(q.PopWait(&v, 0), PR::kDrained);
}

TEST(ServingQueueTest, CapacityAndTimeoutSemantics)
{
    BoundedQueue<int> q(1);
    EXPECT_EQ(q.TryPush(1), StatusCode::kOk);
    EXPECT_EQ(q.TryPush(2), StatusCode::kShed);
    int v = 0;
    using PR = BoundedQueue<int>::PopResult;
    EXPECT_EQ(q.PopWait(&v, 0), PR::kItem);
    EXPECT_EQ(q.PopWait(&v, 100000), PR::kTimeout);
}

TEST(ServingTest, ShutdownDrainsInFlightAndRejectsNew)
{
    auto scan = MakeScan(32, 4, 51);
    ServerConfig cfg;
    cfg.queue_capacity = 64;
    cfg.max_batch = 4;
    cfg.default_deadline_us = 0;
    Server server({scan}, cfg);

    constexpr int kRequests = 24;
    std::vector<std::future<Response>> futs;
    for (int i = 0; i < kRequests; ++i) {
        Request r;
        r.indices = {i % 32};
        futs.push_back(server.Submit(std::move(r)));
    }
    server.Shutdown();

    // Every admitted request drains with kOk — shutdown never drops work.
    for (auto& f : futs) {
        EXPECT_TRUE(f.get().status.ok());
    }
    // New work is rejected with the typed shutdown status.
    Request late;
    late.indices = {1};
    auto late_fut = server.Submit(std::move(late));
    ASSERT_EQ(late_fut.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(late_fut.get().status.code, StatusCode::kShutdown);

    const ServerStats s = server.GetStats();
    EXPECT_EQ(s.completed, static_cast<uint64_t>(kRequests));
    EXPECT_EQ(s.rejected_shutdown, 1u);
    EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServingTest, NoDeadlockUnderOversubscribedProducersAndWorkers)
{
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    auto scan = MakeScan(64, 8, 61);
    ServerConfig cfg;
    cfg.queue_capacity = 8;  // small: force shedding under pressure
    cfg.max_batch = 4;
    cfg.flush_deadline_us = 50;
    cfg.default_deadline_us = 0;
    cfg.nthreads = static_cast<int>(hw) * 2 + 1;  // oversubscribed pool
    Server server({scan}, cfg);

    const int producers = static_cast<int>(hw) * 2 + 3;
    constexpr int kPerProducer = 20;
    std::atomic<int> ok{0}, shed{0}, other{0};
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(producers));
    for (int t = 0; t < producers; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerProducer; ++i) {
                Request r;
                r.indices = {(t * 7 + i) % 64};
                const Response resp = server.SubmitAndWait(std::move(r));
                if (resp.status.ok()) {
                    ++ok;
                } else if (resp.status.code == StatusCode::kShed) {
                    ++shed;
                } else {
                    ++other;
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    server.Shutdown();

    EXPECT_EQ(ok + shed + other, producers * kPerProducer);
    EXPECT_EQ(other.load(), 0);
    EXPECT_GT(ok.load(), 0);

    const ServerStats s = server.GetStats();
    EXPECT_EQ(s.submitted,
              static_cast<uint64_t>(producers * kPerProducer));
    EXPECT_EQ(s.completed + s.failed, s.submitted);
    EXPECT_EQ(s.completed, static_cast<uint64_t>(ok.load()));
    EXPECT_EQ(s.shed, static_cast<uint64_t>(shed.load()));
    EXPECT_EQ(s.queue_depth, 0u);
}

TEST(ServingTest, DoubleShutdownAndDestructorAreIdempotent)
{
    auto scan = MakeScan(8, 2, 71);
    ServerConfig cfg;
    cfg.default_deadline_us = 0;
    Server server({scan}, cfg);
    Request r;
    r.indices = {1};
    EXPECT_TRUE(server.SubmitAndWait(std::move(r)).status.ok());
    server.Shutdown();
    server.Shutdown();  // no-op
    // Destructor runs Shutdown() again on scope exit: must not hang.
}

}  // namespace
}  // namespace secemb::serving
