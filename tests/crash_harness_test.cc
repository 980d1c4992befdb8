/**
 * @file
 * Kill-based crash harness for the durable RAW ORAM (`ctest -L crash`):
 * the proof that "acknowledged means durable".
 *
 * Each iteration forks a child that builds a durable file-backed RawOram,
 * arms one deterministic crash site (SetCrashPlanForTest), runs a planned
 * op sequence, and writes one ack byte per op THAT RETURNED Ok. The armed
 * site raises SIGKILL mid-journal-append, mid-checkpoint (before/after
 * the temp write, before/after the rename), or mid-eviction write-back.
 * The parent then recovers from the surviving files and asserts:
 *
 *   - Recover() succeeds (fails closed never fires on a legal crash
 *     state — only on actual corruption), and
 *   - every acknowledged op is present bit-identically: the table equals
 *     the model after k acked ops, except that the single in-flight op
 *     (index k, journaled but unacknowledged) may or may not have landed.
 *
 * The sweep covers every crash site at several countdowns (>= 30 killed
 * children), and each recovered instance serves fresh traffic afterwards.
 */

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "store/durable.h"
#include "store/page_cache.h"
#include "store/raw_oram.h"
#include "tensor/rng.h"

namespace secemb::store {
namespace {

constexpr int64_t kRows = 48;
constexpr int64_t kDim = 4;
constexpr int64_t kPageBytes = 128;
constexpr int kOpsPerIteration = 60;

struct PlannedOp
{
    bool is_write = false;
    int64_t id = 0;
    std::vector<uint32_t> value;  ///< write payload (empty for reads)
};

/** Deterministic op sequence shared by parent (model) and child (run). */
std::vector<PlannedOp>
MakeOps(uint64_t seed)
{
    Rng rng(seed);
    std::vector<PlannedOp> ops(kOpsPerIteration);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].is_write = rng.NextBounded(4) != 0;  // 3/4 writes
        ops[i].id = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(kRows)));
        if (ops[i].is_write) {
            ops[i].value.resize(static_cast<size_t>(kDim));
            for (auto& w : ops[i].value) {
                w = static_cast<uint32_t>(rng.Next());
            }
        }
    }
    return ops;
}

std::vector<uint32_t>
InitialTable(uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint32_t> words(static_cast<size_t>(kRows * kDim));
    for (auto& w : words) w = static_cast<uint32_t>(rng.Next());
    return words;
}

StoreConfig
PageFileConfig(const std::string& dir, bool create)
{
    StoreConfig sc;
    sc.backend = StoreBackend::kFile;
    sc.path = dir + "/pages.bin";
    sc.page_bytes = kPageBytes;
    sc.cache_pages = 4;
    sc.create = create;
    return sc;
}

RawOramConfig
DurableConfig(const std::string& dir)
{
    RawOramConfig rc;
    rc.durability.dir = dir;
    rc.durability.checkpoint_interval = 12;
    rc.posmap.enable_recursion = false;
    return rc;
}

/** Child body after fork(): never returns to gtest. */
[[noreturn]] void
RunChild(const std::string& dir, const std::vector<PlannedOp>& ops,
         uint64_t iter_seed, CrashSite site, int64_t countdown,
         const std::string& ack_path)
{
    const int ack_fd =
        ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (ack_fd < 0) _exit(10);

    std::unique_ptr<PageCache> cache;
    const int64_t pages = RawOram::PagesNeeded(kRows, kDim, kPageBytes);
    if (!MakePageCache(PageFileConfig(dir, true), pages, &cache).ok()) {
        _exit(11);
    }
    Rng rng(iter_seed);
    RawOram oram(kRows, kDim, std::move(cache), rng, DurableConfig(dir));
    if (!oram.BulkLoad(InitialTable(iter_seed)).ok()) _exit(12);

    // Armed only after BulkLoad: the harness invariant is "once the
    // instance came up, every crash state is recoverable".
    SetCrashPlanForTest(site, countdown);
    std::vector<uint32_t> out(static_cast<size_t>(kDim));
    for (const PlannedOp& op : ops) {
        const serving::Status s =
            op.is_write ? oram.Write(op.id, op.value)
                        : oram.Read(op.id, out);
        if (!s.ok()) _exit(13);
        // Ok returned => the delta is journaled + fsynced. Acknowledge.
        if (::write(ack_fd, "A", 1) != 1) _exit(14);
    }
    _exit(0);  // countdown never fired — a surviving child
}

int64_t
AckCount(const std::string& ack_path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(ack_path, ec);
    return ec ? 0 : static_cast<int64_t>(size);
}

TEST(CrashHarnessTest, NoAcknowledgedWriteIsEverLost)
{
    const std::string root =
        testing::TempDir() + "secemb_crash_harness";
    std::filesystem::remove_all(root);

    constexpr CrashSite kSites[] = {
        CrashSite::kJournalAppendPartial,
        CrashSite::kJournalAppendAfter,
        CrashSite::kCheckpointTempPartial,
        CrashSite::kCheckpointTempBeforeRename,
        CrashSite::kCheckpointAfterRename,
        CrashSite::kEvictAfterJournal,
        CrashSite::kEvictMidPages,
    };
    constexpr int kIterations = 36;

    int killed = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        SCOPED_TRACE("iteration " + std::to_string(iter));
        const std::string dir = root + "/i" + std::to_string(iter);
        ASSERT_TRUE(std::filesystem::create_directories(dir));
        const std::string ack_path = dir + "/acks";
        const uint64_t iter_seed = 9000 + static_cast<uint64_t>(iter);
        const CrashSite site = kSites[iter % std::size(kSites)];
        const int64_t countdown = 1 + (iter / std::size(kSites)) % 3;
        const std::vector<PlannedOp> ops = MakeOps(iter_seed);

        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            RunChild(dir, ops, iter_seed, site, countdown, ack_path);
        }
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        const bool died =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        if (!died) {
            // A surviving child must have completed cleanly (its armed
            // countdown outlived the run) — any other exit is a bug.
            ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
                << "child failed with status " << status;
        } else {
            killed++;
        }

        const int64_t k = AckCount(ack_path);
        ASSERT_LE(k, static_cast<int64_t>(ops.size()));

        // Model: initial table + the k acknowledged ops.
        std::vector<uint32_t> model = InitialTable(iter_seed);
        auto apply = [&model](const PlannedOp& op) {
            if (!op.is_write) return;
            std::copy(op.value.begin(), op.value.end(),
                      model.begin() + op.id * kDim);
        };
        for (int64_t i = 0; i < k; ++i) {
            apply(ops[static_cast<size_t>(i)]);
        }

        // Recover from whatever the kill left behind.
        std::unique_ptr<PageCache> cache;
        const int64_t pages =
            RawOram::PagesNeeded(kRows, kDim, kPageBytes);
        ASSERT_TRUE(
            MakePageCache(PageFileConfig(dir, false), pages, &cache)
                .ok());
        Rng rng(iter_seed + 77);
        std::unique_ptr<RawOram> oram;
        RecoveryStats rstats;
        const serving::Status rs =
            RawOram::Recover(kRows, kDim, std::move(cache), rng,
                             DurableConfig(dir), &oram, &rstats);
        ASSERT_TRUE(rs.ok())
            << "site " << static_cast<int>(site) << " countdown "
            << countdown << ": " << rs.ToString();

        // Every acknowledged write present, bit-identical. The single
        // in-flight op (index k: journaled, never acknowledged) may have
        // landed too — but nothing beyond it.
        const PlannedOp* inflight =
            k < static_cast<int64_t>(ops.size()) &&
                    ops[static_cast<size_t>(k)].is_write
                ? &ops[static_cast<size_t>(k)]
                : nullptr;
        std::vector<uint32_t> row(static_cast<size_t>(kDim));
        for (int64_t r = 0; r < kRows; ++r) {
            ASSERT_TRUE(oram->Read(r, row).ok());
            const auto* expect = model.data() + r * kDim;
            const bool matches_model =
                std::equal(row.begin(), row.end(), expect);
            const bool matches_inflight =
                inflight != nullptr && inflight->id == r &&
                std::equal(row.begin(), row.end(),
                           inflight->value.begin());
            EXPECT_TRUE(matches_model || matches_inflight)
                << "row " << r << " corrupt after recovery (" << k
                << " acked ops, site " << static_cast<int>(site) << ")";
        }

        // The recovered instance keeps serving: write + read back.
        std::vector<uint32_t> fresh(static_cast<size_t>(kDim), 0xabu);
        ASSERT_TRUE(oram->Write(1, fresh).ok());
        ASSERT_TRUE(oram->Read(1, row).ok());
        EXPECT_EQ(row, fresh);
    }

    // The sweep is only a proof if the kills actually happened.
    EXPECT_GE(killed, 30) << "crash plan fired in too few children";
    std::filesystem::remove_all(root);
}

/**
 * Double recovery is deterministic: recovering the same crash state
 * twice (fresh caches both times) yields bit-identical tables.
 */
TEST(CrashHarnessTest, RecoveryIsDeterministic)
{
    const std::string dir =
        testing::TempDir() + "secemb_crash_deterministic";
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(std::filesystem::create_directories(dir));
    const std::string ack_path = dir + "/acks";
    const uint64_t seed = 4242;
    const std::vector<PlannedOp> ops = MakeOps(seed);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        RunChild(dir, ops, seed, CrashSite::kEvictMidPages, 2, ack_path);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    auto recover_rows = [&] {
        std::unique_ptr<PageCache> cache;
        const int64_t pages =
            RawOram::PagesNeeded(kRows, kDim, kPageBytes);
        ThrowIfError(
            MakePageCache(PageFileConfig(dir, false), pages, &cache));
        Rng rng(seed + 1);
        std::unique_ptr<RawOram> oram;
        ThrowIfError(RawOram::Recover(kRows, kDim, std::move(cache), rng,
                                      DurableConfig(dir), &oram));
        std::vector<uint32_t> rows;
        std::vector<uint32_t> row(static_cast<size_t>(kDim));
        for (int64_t r = 0; r < kRows; ++r) {
            ThrowIfError(oram->Read(r, row));
            rows.insert(rows.end(), row.begin(), row.end());
        }
        return rows;
    };
    // NB: the second recovery starts from the files the first recovery
    // rewrote + the journal it reopened — the state a service restart
    // sees. Both reads must agree bit-for-bit.
    EXPECT_EQ(recover_rows(), recover_rows());
    std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace secemb::store
