/**
 * @file
 * Flight-recorder tests: ring semantics (capacity rounding, wrap/drop
 * accounting, oldest-first snapshots), per-request lifecycle
 * reconstruction through a live Server (admitted, shed, and invalid
 * requests), the chrome://tracing dump, and a writer/reader hammer that
 * certifies the lock-free ring under TSan (`ctest -L concurrency`).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_util/json.h"
#include "core/table_generators.h"
#include "serving/flight_recorder.h"
#include "serving/server.h"
#include "tensor/rng.h"

namespace secemb::serving {
namespace {

FlightEvent
MakeEvent(uint64_t id, FlightHop hop, uint32_t detail = 0)
{
    FlightEvent e;
    e.request_id = id;
    e.t_ns = id * 10;
    e.queue_depth = 3;
    e.detail = detail;
    e.code = StatusCode::kOk;
    e.feature = 1;
    e.hop = hop;
    e.degrade = 2;
    return e;
}

std::shared_ptr<core::LinearScanTable>
MakeScan(int64_t rows, int64_t dim, uint64_t seed)
{
    Rng rng(seed);
    return std::make_shared<core::LinearScanTable>(
        Tensor::Randn({rows, dim}, rng));
}

/** Blocks every generation until Open() — holds the batcher inside a
 *  batch so tests can deterministically fill the queue behind it. */
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

// --- ring semantics --------------------------------------------------------

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwoFloor16)
{
    EXPECT_EQ(FlightRecorder(0).capacity(), 16u);
    EXPECT_EQ(FlightRecorder(1).capacity(), 16u);
    EXPECT_EQ(FlightRecorder(16).capacity(), 16u);
    EXPECT_EQ(FlightRecorder(17).capacity(), 32u);
    EXPECT_EQ(FlightRecorder(2048).capacity(), 2048u);
    EXPECT_EQ(FlightRecorder(3000).capacity(), 4096u);
}

TEST(FlightRecorderTest, SnapshotIsOldestFirstAndLossless)
{
    FlightRecorder rec(64);
    for (uint64_t i = 1; i <= 10; ++i) {
        rec.Record(MakeEvent(i, FlightHop::kEnqueue, /*detail=*/7));
    }
    EXPECT_EQ(rec.recorded(), 10u);
    EXPECT_EQ(rec.dropped(), 0u);

    const std::vector<FlightEvent> snap = rec.Snapshot();
    ASSERT_EQ(snap.size(), 10u);
    for (size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].request_id, i + 1);
        EXPECT_EQ(snap[i].t_ns, (i + 1) * 10);
        EXPECT_EQ(snap[i].queue_depth, 3u);
        EXPECT_EQ(snap[i].detail, 7u);
        EXPECT_EQ(snap[i].feature, 1);
        EXPECT_EQ(snap[i].hop, FlightHop::kEnqueue);
        EXPECT_EQ(snap[i].degrade, 2);
    }
}

TEST(FlightRecorderTest, WrapKeepsNewestAndCountsDropped)
{
    FlightRecorder rec(16);
    ASSERT_EQ(rec.capacity(), 16u);
    const uint64_t total = 16 + 5;
    for (uint64_t i = 1; i <= total; ++i) {
        rec.Record(MakeEvent(i, FlightHop::kRespond));
    }
    EXPECT_EQ(rec.recorded(), total);
    EXPECT_EQ(rec.dropped(), 5u);

    const std::vector<FlightEvent> snap = rec.Snapshot();
    ASSERT_EQ(snap.size(), 16u);
    // Oldest retained entry is the 6th ever recorded.
    EXPECT_EQ(snap.front().request_id, 6u);
    EXPECT_EQ(snap.back().request_id, total);
}

TEST(FlightRecorderTest, ForRequestPreservesLifecycleOrder)
{
    FlightRecorder rec(64);
    rec.Record(MakeEvent(7, FlightHop::kEnqueue));
    rec.Record(MakeEvent(8, FlightHop::kEnqueue));
    rec.Record(MakeEvent(7, FlightHop::kBatchJoin, /*detail=*/2));
    rec.Record(MakeEvent(7, FlightHop::kServeStart));
    rec.Record(MakeEvent(8, FlightHop::kBatchJoin, /*detail=*/2));
    rec.Record(MakeEvent(7, FlightHop::kRespond));

    const std::vector<FlightEvent> flight = rec.ForRequest(7);
    ASSERT_EQ(flight.size(), 4u);
    EXPECT_EQ(flight[0].hop, FlightHop::kEnqueue);
    EXPECT_EQ(flight[1].hop, FlightHop::kBatchJoin);
    EXPECT_EQ(flight[2].hop, FlightHop::kServeStart);
    EXPECT_EQ(flight[3].hop, FlightHop::kRespond);
    EXPECT_TRUE(rec.ForRequest(999).empty());
}

TEST(FlightRecorderTest, HopNamesAreStable)
{
    EXPECT_STREQ(FlightHopName(FlightHop::kEnqueue), "enqueue");
    EXPECT_STREQ(FlightHopName(FlightHop::kShed), "shed");
    EXPECT_STREQ(FlightHopName(FlightHop::kRespond), "respond");
}

TEST(FlightRecorderTest, ChromeTraceJsonParses)
{
    FlightRecorder rec(32);
    rec.Record(MakeEvent(1, FlightHop::kEnqueue));
    rec.Record(MakeEvent(1, FlightHop::kBatchJoin, 4));
    rec.Record(MakeEvent(1, FlightHop::kRespond));

    const std::string json = rec.ToChromeTraceJson();
    bench::JsonValue doc;
    std::string err;
    ASSERT_TRUE(bench::JsonParse(json, &doc, &err)) << err;
    const bench::JsonValue* events = doc.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->IsArray());
    ASSERT_EQ(events->array_v.size(), 3u);
    const bench::JsonValue* name = events->array_v[0].Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(name->str_v, "enqueue");
}

TEST(FlightRecorderTest, WriteChromeTraceRoundTrips)
{
    FlightRecorder rec(32);
    rec.Record(MakeEvent(1, FlightHop::kEnqueue));
    const std::string path =
        (std::filesystem::temp_directory_path() / "secemb_flight_test.json")
            .string();
    ASSERT_TRUE(rec.WriteChromeTrace(path));
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    bench::JsonValue doc;
    std::string err;
    EXPECT_TRUE(bench::JsonParse(ss.str(), &doc, &err)) << err;
    std::remove(path.c_str());
}

// --- concurrency (TSan via `ctest -L concurrency`) -------------------------

TEST(FlightRecorderTest, ConcurrentWritersAndSnapshotReaders)
{
    FlightRecorder rec(256);
    constexpr int kWriters = 8;
    constexpr uint64_t kPerWriter = 4000;
    std::atomic<bool> stop{false};

    // One reader snapshotting continuously while writers hammer the ring:
    // every surfaced event must be internally consistent (the stamp check
    // must discard torn reads, never surface mixed payloads).
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::vector<FlightEvent> snap = rec.Snapshot();
            for (const FlightEvent& e : snap) {
                ASSERT_GE(e.request_id, 1u);
                ASSERT_LE(e.request_id, kWriters * kPerWriter);
                // Writers encode id*10 into t_ns; a torn read would break
                // this invariant.
                ASSERT_EQ(e.t_ns, e.request_id * 10);
            }
        }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&rec, w] {
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                const uint64_t id = w * kPerWriter + i + 1;
                rec.Record(MakeEvent(id, FlightHop::kRespond));
            }
        });
    }
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    EXPECT_EQ(rec.recorded(), kWriters * kPerWriter);
    EXPECT_EQ(rec.dropped(), kWriters * kPerWriter - rec.capacity());
    // Quiesced, nearly every retained slot is readable: a delayed writer
    // can clobber at most one newer slot per thread (one in-flight event
    // each), so the stamp check discards at most kWriters - 1 entries.
    EXPECT_GE(rec.Snapshot().size(), rec.capacity() - kWriters + 1);
}

// --- server integration ----------------------------------------------------

TEST(FlightRecorderServerTest, CompletedRequestReconstructsFullPath)
{
    ServerConfig cfg;
    cfg.max_batch = 4;
    cfg.flush_deadline_us = 50;
    Server server({MakeScan(64, 8, 5)}, cfg);

    Request req;
    req.indices = {3, 9, 27};
    const Response resp = server.SubmitAndWait(std::move(req));
    ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
    ASSERT_GT(resp.request_id, 0u);

    const std::vector<FlightEvent> path =
        server.flight_recorder().ForRequest(resp.request_id);
    ASSERT_EQ(path.size(), 4u);
    EXPECT_EQ(path[0].hop, FlightHop::kEnqueue);
    EXPECT_EQ(path[1].hop, FlightHop::kBatchJoin);
    EXPECT_GE(path[1].detail, 1u);  // batch size at join
    EXPECT_EQ(path[2].hop, FlightHop::kServeStart);
    EXPECT_EQ(path[3].hop, FlightHop::kRespond);
    EXPECT_EQ(path[3].code, StatusCode::kOk);
    for (const FlightEvent& e : path) {
        EXPECT_EQ(e.request_id, resp.request_id);
        EXPECT_EQ(e.feature, 0);
    }
    // Timestamps are monotone along the lifecycle.
    for (size_t i = 1; i < path.size(); ++i) {
        EXPECT_GE(path[i].t_ns, path[i - 1].t_ns);
    }

    const ServerStats stats = server.GetStats();
    EXPECT_GE(stats.flight_recorded, 4u);
}

TEST(FlightRecorderServerTest, ShedRequestReconstructsRejectionPath)
{
    auto gated =
        std::make_shared<GatedGenerator>(MakeScan(64, 8, 9));
    ServerConfig cfg;
    cfg.queue_capacity = 2;
    cfg.max_batch = 1;
    cfg.flush_deadline_us = 0;
    cfg.default_deadline_us = 0;
    Server server({gated}, cfg);

    // Occupy the batcher, then fill the queue behind it.
    Request first;
    first.indices = {1};
    auto f0 = server.Submit(std::move(first));
    gated->AwaitEntered();
    std::vector<std::future<Response>> queued;
    for (int i = 0; i < 2; ++i) {
        Request r;
        r.indices = {2};
        queued.push_back(server.Submit(std::move(r)));
    }
    ASSERT_EQ(server.queue_depth(), 2u);

    // Next submit must shed — and its flight must already be complete
    // when the future wakes.
    Request overflow;
    overflow.indices = {3};
    const Response shed = server.Submit(std::move(overflow)).get();
    EXPECT_EQ(shed.status.code, StatusCode::kShed);
    ASSERT_GT(shed.request_id, 0u);

    const std::vector<FlightEvent> path =
        server.flight_recorder().ForRequest(shed.request_id);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0].hop, FlightHop::kShed);
    EXPECT_EQ(path[0].code, StatusCode::kShed);
    EXPECT_EQ(path[0].queue_depth, 2u);  // the depth it was shed at
    EXPECT_EQ(path[1].hop, FlightHop::kRespond);
    EXPECT_EQ(path[1].code, StatusCode::kShed);

    gated->Open();
    f0.get();
    for (auto& f : queued) f.get();
    server.Shutdown();
}

TEST(FlightRecorderServerTest, InvalidRequestRecordsValidationHop)
{
    ServerConfig cfg;
    Server server({MakeScan(16, 4, 2)}, cfg);
    Request bad;
    bad.feature = 42;  // unknown feature
    bad.indices = {1};
    const Response resp = server.SubmitAndWait(std::move(bad));
    EXPECT_EQ(resp.status.code, StatusCode::kInvalidArgument);
    ASSERT_GT(resp.request_id, 0u);

    const std::vector<FlightEvent> path =
        server.flight_recorder().ForRequest(resp.request_id);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[0].hop, FlightHop::kInvalidArgument);
    EXPECT_EQ(path[0].code, StatusCode::kInvalidArgument);
    EXPECT_EQ(path[1].hop, FlightHop::kRespond);
}

TEST(FlightRecorderServerTest, StatsExposeRingOccupancy)
{
    Server server({MakeScan(32, 4, 8)}, ServerConfig{});
    for (int i = 0; i < 20; ++i) {
        Request r;
        r.indices = {i % 32};
        ASSERT_TRUE(server.SubmitAndWait(std::move(r)).status.ok());
    }
    server.Shutdown();
    const ServerStats stats = server.GetStats();
    // 20 requests x 4 hops each, well inside the ring.
    EXPECT_EQ(stats.flight_recorded, server.flight_recorder().recorded());
    EXPECT_GE(stats.flight_recorded, 80u);
    EXPECT_LT(stats.flight_recorded, server.flight_recorder().capacity());
    EXPECT_EQ(stats.flight_dropped, 0u);
}

}  // namespace
}  // namespace secemb::serving
