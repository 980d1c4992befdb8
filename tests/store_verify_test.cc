/**
 * @file
 * Obliviousness certification of the out-of-core subjects
 * (`ctest -L leakage`): the paged scan's page schedule must be
 * bit-identical across secret sets (pages 0..P-1, in order, every call),
 * the RAW ORAM's randomized schedule must be shape-identical and
 * statistically indistinguishable fixed-vs-random, and the classic
 * out-of-core failure — demand paging by secret index, the
 * controlled-channel attack's signal — must be REJECTED by the
 * statistical check (negative control).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "core/embedding_generator.h"
#include "core/paged_generators.h"
#include "sidechannel/trace.h"
#include "store/backing_store.h"
#include "verify/harness.h"

namespace secemb::verify {
namespace {

VerifyConfig
StoreConfigFor(Subject subject, uint64_t seed, int batch = 8)
{
    VerifyConfig c;
    c.subject = subject;
    c.rows = 64;
    c.dim = 8;
    c.batch = batch;
    c.nthreads = 1;
    c.secret_sets = 4;
    c.seed = seed;
    return c;
}

TEST(StoreVerifyTest, SubjectsAreRegistered)
{
    Subject s;
    ASSERT_TRUE(ParseSubject("paged_scan", &s));
    EXPECT_EQ(s, Subject::kPagedScan);
    ASSERT_TRUE(ParseSubject("raw_oram", &s));
    EXPECT_EQ(s, Subject::kRawOram);

    // The paged scan's schedule is a fixed function of geometry; the RAW
    // ORAM's is randomized (leaf draws) — different proof obligations.
    EXPECT_TRUE(SubjectIsDeterministic(Subject::kPagedScan));
    EXPECT_FALSE(SubjectIsDeterministic(Subject::kRawOram));

    const auto secure = AllSecureSubjects();
    EXPECT_EQ(secure.size(), 8u);
    for (const Subject subject :
         {Subject::kPagedScan, Subject::kRawOram}) {
        EXPECT_NE(std::find(secure.begin(), secure.end(), subject),
                  secure.end());
    }
}

TEST(StoreVerifyTest, PagedScanTraceBitIdenticalAcrossSecrets)
{
    const DifferentialResult r =
        RunDifferential(StoreConfigFor(Subject::kPagedScan, 31));
    EXPECT_TRUE(r.passed) << r.detail;
    EXPECT_EQ(r.sets_run, 4);
}

TEST(StoreVerifyTest, PagedScanPooledTraceBitIdentical)
{
    VerifyConfig config = StoreConfigFor(Subject::kPagedScan, 37);
    config.pooled = true;
    const DifferentialResult r = RunDifferential(config);
    EXPECT_TRUE(r.passed) << r.detail;
}

TEST(StoreVerifyTest, PagedScanScheduleIsEveryPageOncePerCall)
{
    // The harness subject uses 128-byte pages: 64 rows x 32-byte rows =
    // 4 rows/page = 16 pages, and a single-hot batch is one LookupBatch
    // call — so the canonical trace is exactly 16 page accesses,
    // regardless of what the (secret) indices were.
    const CanonicalTrace trace =
        GoldenRun(StoreConfigFor(Subject::kPagedScan, 41));
    ASSERT_EQ(trace.accesses.size(), 16u);
    for (size_t i = 0; i < trace.accesses.size(); ++i) {
        EXPECT_EQ(trace.accesses[i].region, trace.accesses[0].region);
        EXPECT_EQ(trace.accesses[i].offset, i * 128)
            << "page schedule must be pages 0..P-1 in order";
    }
}

TEST(StoreVerifyTest, RawOramShapeIdenticalAcrossSecrets)
{
    const DifferentialResult r =
        RunDifferential(StoreConfigFor(Subject::kRawOram, 43, 4));
    EXPECT_TRUE(r.passed) << r.detail;
    EXPECT_EQ(r.sets_run, 4);
}

TEST(StoreVerifyTest, RawOramStatisticallyIndistinguishable)
{
    const StatisticalResult r =
        RunStatistical(StoreConfigFor(Subject::kRawOram, 47, 4));
    EXPECT_TRUE(r.passed) << r.detail;
    EXPECT_GE(r.runs_per_group, 12);
}

/**
 * Negative control: a demand-paged table. Lookup of row i touches (and
 * records) exactly the one page holding row i — the access pattern every
 * OS pager, and every naive out-of-core table, produces. This is the
 * signal of the controlled-channel attack: the page index is a direct
 * function of the secret, and the fixed-vs-random histograms must be
 * distinguishable. A harness that certifies this fixture is broken.
 */
class DemandPagedLookup : public core::EmbeddingGenerator
{
  public:
    static constexpr int64_t kRows = 4096;
    static constexpr int64_t kDim = 8;
    static constexpr int64_t kPageBytes = 4096;
    static constexpr int64_t kRowsPerPage =
        kPageBytes / (kDim * static_cast<int64_t>(sizeof(float)));

    explicit DemandPagedLookup(Tensor table) : table_(std::move(table))
    {
        trace_base_ = sidechannel::ProcessAddressSpace().Reserve(
            static_cast<uint64_t>(
                (kRows / kRowsPerPage + 1) * kPageBytes),
            4096, "store.demand.pages");
    }

    void
    Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        const int64_t row_bytes =
            kDim * static_cast<int64_t>(sizeof(float));
        for (size_t i = 0; i < indices.size(); ++i) {
            const int64_t idx = indices[i];
            if (recorder_ != nullptr) {
                // One page fault at the page holding the secret row; the
                // in-page offset gives the cache-set channel its signal.
                recorder_->Record(
                    trace_base_ + static_cast<uint64_t>(
                                      (idx / kRowsPerPage) * kPageBytes +
                                      (idx % kRowsPerPage) * row_bytes),
                    static_cast<uint32_t>(row_bytes), false);
            }
            std::memcpy(out.data() + static_cast<int64_t>(i) * kDim,
                        table_.data() + idx * kDim,
                        static_cast<size_t>(row_bytes));
        }
    }
    int64_t dim() const override { return kDim; }
    int64_t num_rows() const override { return kRows; }
    int64_t MemoryFootprintBytes() const override
    {
        return table_.numel() * static_cast<int64_t>(sizeof(float));
    }
    std::string_view name() const override
    {
        return "demand-paged lookup (leaky)";
    }
    bool IsOblivious() const override { return false; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        recorder_ = r;
    }

  private:
    Tensor table_;
    sidechannel::TraceRecorder* recorder_ = nullptr;
    uint64_t trace_base_ = 0;
};

TEST(StoreVerifyTest, StatisticalCheckRejectsDemandPaging)
{
    VerifyConfig config;
    config.subject = Subject::kIndexLookup;  // slug only; factory below
    config.rows = DemandPagedLookup::kRows;
    config.dim = DemandPagedLookup::kDim;
    config.batch = 8;
    config.secret_sets = 4;
    config.seed = 53;

    const GeneratorFactory leaky =
        [config](uint64_t seed, sidechannel::TraceRecorder* rec) {
            Rng rng(seed);
            auto gen = std::make_unique<DemandPagedLookup>(
                Tensor::Randn({config.rows, config.dim}, rng));
            gen->set_recorder(rec);
            return std::unique_ptr<core::EmbeddingGenerator>(
                std::move(gen));
        };
    const StatisticalResult r = RunStatisticalWith(config, leaky);
    EXPECT_FALSE(r.passed)
        << "demand paging by secret index was certified as oblivious; "
           "the out-of-core statistical check is vacuous";
}

// ---------------------------------------------------------------------------
// Durability leakage: a recovered instance must be indistinguishable from
// a fresh one, and the occupancy-dependent (sparse) checkpoint format must
// be caught. (The crash-correctness side lives in crash_harness_test.)
// ---------------------------------------------------------------------------

TEST(StoreVerifyTest, RecoveredRawOramIsCertified)
{
    const VerifyConfig config = StoreConfigFor(Subject::kRawOram, 59, 4);
    const RecoveredResult r = RunRecovered(
        config, testing::TempDir() + "secemb_verify_recovered");
    EXPECT_TRUE(r.shape_passed)
        << "recovered instance's trace shape diverged from fresh: "
        << r.detail;
    EXPECT_TRUE(r.differential.passed) << r.differential.detail;
    EXPECT_TRUE(r.statistical.passed) << r.statistical.detail;
    EXPECT_TRUE(r.passed) << r.detail;
    EXPECT_GT(r.trace_len, 0u);
}

TEST(StoreVerifyTest, StatisticalCheckRejectsSparseCheckpoints)
{
    // The negative control for the durable tier: sparse checkpoints
    // write only occupied stash slots, so the checkpoint's record count
    // and offsets track stash occupancy — a function of the secret
    // duplicate structure. With mid-batch checkpoints in the recorded
    // trace, fixed-vs-random must distinguish the two groups. Small table
    // + large batch so random secret sets carry many duplicates (the
    // fixed set is duplicate-free): stash occupancy, and therefore the
    // sparse checkpoint's record count, separates the groups.
    VerifyConfig config = StoreConfigFor(Subject::kRawOram, 61, 16);
    config.rows = 16;
    const std::string scratch =
        testing::TempDir() + "secemb_verify_sparse";
    const GeneratorFactory sparse = MakeDurableRawOramFactory(
        config, scratch, /*recovered=*/false,
        /*sparse_negative_control=*/true);
    const StatisticalResult r = RunStatisticalWith(config, sparse);
    EXPECT_FALSE(r.passed)
        << "an occupancy-dependent checkpoint schedule was certified as "
           "oblivious; the durable-tier statistical check is vacuous";
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
}

TEST(StoreVerifyTest, RecoveryRefusesSparseCheckpoints)
{
    const VerifyConfig config = StoreConfigFor(Subject::kRawOram, 67, 4);
    const std::string scratch =
        testing::TempDir() + "secemb_verify_sparse_recover";
    const GeneratorFactory bad = MakeDurableRawOramFactory(
        config, scratch, /*recovered=*/true,
        /*sparse_negative_control=*/true);
    sidechannel::TraceRecorder rec;
    EXPECT_THROW((void)bad(1, &rec), std::exception)
        << "recovering from a sparse (negative-control) checkpoint must "
           "fail closed";
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
}

TEST(StoreVerifyTest, RecoveredCorpusIsSmallAndRawOramOnly)
{
    const auto corpus = RecoveredCorpus(7);
    ASSERT_FALSE(corpus.empty());
    EXPECT_LE(corpus.size(), 3u);
    for (const VerifyConfig& c : corpus) {
        EXPECT_EQ(c.subject, Subject::kRawOram);
    }
}

}  // namespace
}  // namespace secemb::verify
