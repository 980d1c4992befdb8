/**
 * @file
 * Unit tests for the obliviousness certification harness: trace
 * canonicalization, divergence reporting, golden serialization, the
 * statistical leakage check, and — crucially — negative tests proving the
 * engine actually catches planted secret-dependent behaviour.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/table_generators.h"
#include "verify/golden.h"
#include "verify/harness.h"

namespace secemb::verify {
namespace {

// --- AddressSpace ---------------------------------------------------------

TEST(AddressSpaceTest, ReserveFindRoundTrip)
{
    sidechannel::AddressSpace space;
    const uint64_t a = space.Reserve(100, 64, "alpha");
    const uint64_t b = space.Reserve(256, 64, "beta");
    ASSERT_NE(a, b);

    const sidechannel::AddressRegion* ra = space.Find(a + 99);
    ASSERT_NE(ra, nullptr);
    EXPECT_EQ(ra->name, "alpha");
    EXPECT_EQ(ra->base, a);

    const sidechannel::AddressRegion* rb = space.Find(b);
    ASSERT_NE(rb, nullptr);
    EXPECT_EQ(rb->name, "beta");

    EXPECT_EQ(space.Find(0), nullptr);
    EXPECT_EQ(space.Regions().size(), 2u);
}

TEST(AddressSpaceTest, RegionsDoNotOverlap)
{
    sidechannel::AddressSpace space;
    std::vector<uint64_t> bases;
    for (int i = 0; i < 16; ++i) {
        bases.push_back(space.Reserve(1000 + i * 7, 64, "r"));
    }
    const auto regions = space.Regions();
    for (size_t i = 1; i < regions.size(); ++i) {
        EXPECT_GE(regions[i].base,
                  regions[i - 1].base + regions[i - 1].bytes);
    }
}

// --- canonicalization -----------------------------------------------------

std::vector<sidechannel::MemoryAccess>
Trace(std::initializer_list<sidechannel::MemoryAccess> list)
{
    return list;
}

TEST(CanonicalTest, FirstTouchRenumberingIsInstanceIndependent)
{
    // Two "runs" touch equivalent regions reserved at different absolute
    // addresses; canonical form must agree.
    sidechannel::AddressSpace space;
    const uint64_t t1 = space.Reserve(512, 64, "table");
    const uint64_t s1 = space.Reserve(128, 64, "stash");
    const uint64_t t2 = space.Reserve(512, 64, "table");
    const uint64_t s2 = space.Reserve(128, 64, "stash");

    const CanonicalTrace a = Canonicalize(
        Trace({{t1 + 64, 32, false}, {s1, 16, true}, {t1, 32, false}}),
        space);
    const CanonicalTrace b = Canonicalize(
        Trace({{t2 + 64, 32, false}, {s2, 16, true}, {t2, 32, false}}),
        space);

    EXPECT_FALSE(CompareCanonical(a, b).diverged);
    ASSERT_EQ(a.accesses.size(), 3u);
    EXPECT_EQ(a.accesses[0].region, 0);
    EXPECT_EQ(a.accesses[0].offset, 64u);
    EXPECT_EQ(a.accesses[1].region, 1);
    EXPECT_EQ(a.RegionName(0), "table");
    EXPECT_EQ(a.RegionName(1), "stash");
}

TEST(CanonicalTest, RegionIdentityIncludesNameAndSize)
{
    sidechannel::AddressSpace space;
    const uint64_t t = space.Reserve(512, 64, "table");
    const uint64_t s = space.Reserve(512, 64, "stash");
    const CanonicalTrace a =
        Canonicalize(Trace({{t, 32, false}}), space);
    const CanonicalTrace b =
        Canonicalize(Trace({{s, 32, false}}), space);
    const TraceDivergence d = CompareCanonical(a, b);
    EXPECT_TRUE(d.diverged);
    EXPECT_NE(d.detail.find("region mismatch"), std::string::npos);
}

TEST(CanonicalTest, UnregisteredAddressNeverPassesComparison)
{
    sidechannel::AddressSpace space;
    const CanonicalTrace a =
        Canonicalize(Trace({{0xdead, 4, false}}), space);
    EXPECT_EQ(a.accesses[0].region, -1);
    // Even self-comparison fails: instrumentation holes must be loud.
    const TraceDivergence d = CompareCanonical(a, a);
    EXPECT_TRUE(d.diverged);
    EXPECT_NE(d.detail.find("unregistered"), std::string::npos);
}

TEST(CanonicalTest, DivergenceDetailNamesRegionOffsetAndOp)
{
    sidechannel::AddressSpace space;
    const uint64_t t = space.Reserve(512, 64, "oram.tree");
    const CanonicalTrace a =
        Canonicalize(Trace({{t + 0x40, 64, false}}), space);
    const CanonicalTrace b =
        Canonicalize(Trace({{t + 0x80, 64, true}}), space);
    const TraceDivergence d = CompareCanonical(a, b);
    ASSERT_TRUE(d.diverged);
    EXPECT_EQ(d.index, 0u);
    EXPECT_NE(d.detail.find("oram.tree+0x40"), std::string::npos);
    EXPECT_NE(d.detail.find("oram.tree+0x80"), std::string::npos);
    EXPECT_NE(d.detail.find("R"), std::string::npos);
    EXPECT_NE(d.detail.find("W"), std::string::npos);
}

TEST(CanonicalTest, ShapeComparisonFreesOffsetsOnly)
{
    sidechannel::AddressSpace space;
    const uint64_t t = space.Reserve(512, 64, "table");
    const CanonicalTrace a =
        Canonicalize(Trace({{t, 64, false}, {t + 64, 64, true}}), space);
    const CanonicalTrace b =
        Canonicalize(Trace({{t + 128, 64, false}, {t, 64, true}}), space);
    EXPECT_FALSE(CompareCanonicalShape(a, b).diverged);
    EXPECT_TRUE(CompareCanonical(a, b).diverged);

    const CanonicalTrace c =
        Canonicalize(Trace({{t, 64, false}}), space);
    const TraceDivergence d = CompareCanonicalShape(a, c);
    EXPECT_TRUE(d.diverged);
    EXPECT_NE(d.detail.find("length mismatch"), std::string::npos);

    const CanonicalTrace e =
        Canonicalize(Trace({{t, 32, false}, {t + 64, 64, true}}), space);
    EXPECT_TRUE(CompareCanonicalShape(a, e).diverged);
}

TEST(CanonicalTest, ToModelTracePlacesRegionsOnDisjointStrides)
{
    sidechannel::AddressSpace space;
    const uint64_t t = space.Reserve(512, 64, "table");
    const uint64_t s = space.Reserve(128, 64, "stash");
    const auto model = ToModelTrace(Canonicalize(
        Trace({{t + 8, 4, false}, {s + 16, 4, true}}), space));
    ASSERT_EQ(model.size(), 2u);
    EXPECT_EQ(model[0].addr, kCanonicalRegionStride + 8);
    EXPECT_EQ(model[1].addr, 2 * kCanonicalRegionStride + 16);
    EXPECT_TRUE(model[1].is_write);
}

// --- golden serialization -------------------------------------------------

TEST(GoldenTest, SerializeParseRoundTrip)
{
    sidechannel::AddressSpace space;
    const uint64_t t = space.Reserve(512, 64, "table");
    const CanonicalTrace original = Canonicalize(
        Trace({{t, 64, false}, {t + 0x1c0, 4, true}}), space);

    const std::string text = SerializeTrace(original, "some_config");
    CanonicalTrace parsed;
    std::string name, error;
    ASSERT_TRUE(ParseTrace(text, &parsed, &name, &error)) << error;
    EXPECT_EQ(name, "some_config");
    EXPECT_FALSE(CompareCanonical(original, parsed).diverged);
    EXPECT_EQ(parsed.region_bytes, original.region_bytes);
}

TEST(GoldenTest, ParseRejectsCorruptInput)
{
    CanonicalTrace out;
    std::string error;
    EXPECT_FALSE(ParseTrace("not a trace", &out, nullptr, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(ParseTrace(
        "secemb-canonical-trace v1\nconfig x\nregions 1\n", &out, nullptr,
        &error));
}

TEST(GoldenTest, FileRoundTrip)
{
    VerifyConfig config;
    config.subject = Subject::kLinearScan;
    config.rows = 8;
    config.dim = 4;
    config.batch = 2;
    const CanonicalTrace trace = GoldenRun(config);
    const std::string path =
        ::testing::TempDir() + "/" + GoldenFileName(config.Name());
    std::string error;
    ASSERT_TRUE(WriteTraceFile(path, trace, config.Name(), &error))
        << error;
    CanonicalTrace loaded;
    ASSERT_TRUE(ReadTraceFile(path, &loaded, nullptr, &error)) << error;
    EXPECT_FALSE(CompareCanonical(trace, loaded).diverged);
}

// --- harness plumbing -----------------------------------------------------

TEST(HarnessTest, SecretSetsAreDeterministicAndInRange)
{
    VerifyConfig config;
    config.rows = 33;
    config.batch = 16;
    config.seed = 7;
    const auto a = MakeSecretSet(config, 3);
    const auto b = MakeSecretSet(config, 3);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, MakeSecretSet(config, 4));
    for (const int64_t s : a) {
        EXPECT_GE(s, 0);
        EXPECT_LT(s, config.rows);
    }
}

TEST(HarnessTest, FuzzCorpusIsDeterministicAndLargeEnough)
{
    for (const Subject s : AllSecureSubjects()) {
        const auto a = FuzzCorpus(s, 1);
        const auto b = FuzzCorpus(s, 1);
        ASSERT_GE(a.size(), 8u) << SubjectName(s);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].Name(), b[i].Name());
            EXPECT_EQ(a[i].seed, b[i].seed);
        }
    }
}

TEST(HarnessTest, HybridCorpusCoversBothSidesOfThreshold)
{
    int scan_side = 0, dhe_side = 0;
    for (const VerifyConfig& c : FuzzCorpus(Subject::kHybrid, 1)) {
        (c.rows < 128 ? scan_side : dhe_side)++;
    }
    EXPECT_GT(scan_side, 0);
    EXPECT_GT(dhe_side, 0);
}

TEST(HarnessTest, TreeOramCorpusCoversBothVariants)
{
    int path = 0, circuit = 0;
    for (const VerifyConfig& c : FuzzCorpus(Subject::kTreeOram, 1)) {
        (c.variant == 0 ? path : circuit)++;
    }
    EXPECT_GT(path, 0);
    EXPECT_GT(circuit, 0);
}

// --- negative tests: the engine must catch real leaks ---------------------

TEST(NegativeTest, DifferentialCatchesIndexLookup)
{
    VerifyConfig config;
    config.subject = Subject::kIndexLookup;
    config.rows = 64;
    config.dim = 8;
    config.batch = 8;
    config.secret_sets = 4;
    const DifferentialResult r = RunDifferential(config);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.detail.find("table.lookup"), std::string::npos)
        << r.detail;
}

/**
 * The planted-leak fixture of the acceptance criteria: an otherwise
 * oblivious linear scan with a deliberately secret-dependent branch that
 * issues one extra recorded access whenever an index is even.
 */
class PlantedLeakGenerator : public core::EmbeddingGenerator
{
  public:
    PlantedLeakGenerator(Tensor table, sidechannel::TraceRecorder* rec)
        : scan_(std::move(table)), recorder_(rec)
    {
        scan_.set_recorder(rec);
        leak_base_ = sidechannel::ProcessAddressSpace().Reserve(
            64, 64, "planted.leak");
    }

    void
    Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        for (const int64_t idx : indices) {
            if (idx % 2 == 0 && recorder_ != nullptr) {
                recorder_->Record(leak_base_, 4, false);  // the leak
            }
        }
        scan_.Generate(indices, out);
    }

    int64_t dim() const override { return scan_.dim(); }
    int64_t num_rows() const override { return scan_.num_rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return scan_.MemoryFootprintBytes();
    }
    std::string_view name() const override { return "Planted Leak"; }
    bool IsOblivious() const override { return false; }

  private:
    core::LinearScanTable scan_;
    sidechannel::TraceRecorder* recorder_;
    uint64_t leak_base_;
};

TEST(NegativeTest, DifferentialCatchesPlantedSecretDependentBranch)
{
    VerifyConfig config;
    config.subject = Subject::kLinearScan;
    config.rows = 64;
    config.dim = 8;
    config.batch = 8;
    config.secret_sets = 6;
    config.seed = 5;
    const GeneratorFactory factory =
        [&config](uint64_t seed, sidechannel::TraceRecorder* rec) {
            Rng rng(seed);
            return std::unique_ptr<core::EmbeddingGenerator>(
                std::make_unique<PlantedLeakGenerator>(
                    Tensor::Randn({config.rows, config.dim}, rng), rec));
        };
    const DifferentialResult r =
        RunDifferentialWith(config, factory, /*expect_bit_identical=*/true);
    EXPECT_FALSE(r.passed);
    EXPECT_NE(r.detail.find("secret set"), std::string::npos) << r.detail;

    // The identical construction without the leak branch certifies clean,
    // proving the failure above is the planted branch and nothing else.
    const DifferentialResult clean = RunDifferential(config);
    EXPECT_TRUE(clean.passed) << clean.detail;
}

TEST(NegativeTest, EnginesRejectARunThatRecordedNothing)
{
    // A generator that never records leaves an empty trace, which is
    // trivially identical across secrets. Neither engine may certify it.
    VerifyConfig config;
    config.subject = Subject::kLinearScan;
    config.rows = 32;
    config.dim = 8;
    config.batch = 4;
    const GeneratorFactory silent =
        [&config](uint64_t seed, sidechannel::TraceRecorder*) {
            Rng rng(seed);
            return std::unique_ptr<core::EmbeddingGenerator>(
                std::make_unique<core::LinearScanTable>(
                    Tensor::Randn({config.rows, config.dim}, rng)));
        };
    const DifferentialResult d =
        RunDifferentialWith(config, silent, /*expect_bit_identical=*/true);
    EXPECT_FALSE(d.passed);
    EXPECT_EQ(d.trace_len, 0u);
    EXPECT_NE(d.detail.find("recorded no accesses"), std::string::npos)
        << d.detail;

    const StatisticalResult s = RunStatisticalWith(config, silent);
    EXPECT_FALSE(s.passed);
    EXPECT_NE(s.detail.find("recorded no accesses"), std::string::npos)
        << s.detail;
}

TEST(NegativeTest, StatisticalCatchesIndexLookup)
{
    VerifyConfig config;
    config.subject = Subject::kIndexLookup;
    config.rows = 64;
    config.dim = 16;
    config.batch = 8;
    config.secret_sets = 6;
    const StatisticalResult r = RunStatistical(config);
    EXPECT_FALSE(r.passed) << "cache chi2=" << r.cache_chi2;
    EXPECT_GT(r.cache_chi2, r.cache_df + 10.0);
}

TEST(StatisticalTest, AcceptsRandomizedOrams)
{
    for (const Subject s : {Subject::kTreeOram, Subject::kSqrtOram}) {
        VerifyConfig config;
        config.subject = s;
        config.rows = 32;
        config.dim = 4;
        config.batch = 4;
        config.secret_sets = 6;
        const StatisticalResult r = RunStatistical(config);
        EXPECT_TRUE(r.passed) << SubjectName(s) << ": " << r.detail;
    }
}

TEST(StatisticalTest, AcceptsDeterministicObliviousSubjects)
{
    // Scan and DHE traces are secret-independent outright; their fixed
    // and random histograms are identical and chi2 collapses to zero.
    for (const Subject s : {Subject::kLinearScan, Subject::kDhe}) {
        VerifyConfig config;
        config.subject = s;
        config.rows = 32;
        config.dim = 8;
        config.batch = 4;
        const StatisticalResult r = RunStatistical(config);
        EXPECT_TRUE(r.passed) << SubjectName(s) << ": " << r.detail;
        EXPECT_EQ(r.cache_chi2, 0.0);
    }
}

}  // namespace
}  // namespace secemb::verify
