/**
 * @file
 * Obliviousness certification of the coalescing ORAM proxy
 * (`ctest -L leakage`): canonical trace shape must be identical across
 * arbitrary batch orders (seeded interleaving fuzz) and across secret
 * sets, the proxied schedule must be shape-identical to the serial Path
 * ORAM controller's, and the engine must catch the classic coalescing
 * bug (deduplicating without dummy padding) as a leak.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/table_generators.h"
#include "oram/proxy.h"
#include "sidechannel/trace.h"
#include "tensor/rng.h"
#include "verify/harness.h"

namespace secemb::verify {
namespace {

VerifyConfig
ProxyConfigFor(int batch, uint64_t seed)
{
    VerifyConfig c;
    c.subject = Subject::kProxyOram;
    c.rows = 32;
    c.dim = 8;
    c.batch = batch;
    c.secret_sets = 2;
    c.seed = seed;
    return c;
}

TEST(ProxyVerifyTest, SubjectIsRegisteredAndRandomized)
{
    Subject s;
    ASSERT_TRUE(ParseSubject("proxy_oram", &s));
    EXPECT_EQ(s, Subject::kProxyOram);
    EXPECT_FALSE(SubjectIsDeterministic(Subject::kProxyOram));
    const auto secure = AllSecureSubjects();
    EXPECT_NE(std::find(secure.begin(), secure.end(),
                        Subject::kProxyOram),
              secure.end());
}

TEST(ProxyVerifyTest, ShapeIdenticalAcrossInterleavings)
{
    // 8 arrival-order permutations x 2 secret sets: a duplicate-heavy
    // batch (8 draws from 32 rows collides often) so coalescing really
    // reshuffles which accesses are real vs dummy between runs. Every run
    // builds a fresh generator from the same construction seed, and the
    // schedule may depend on arrival order only through the request
    // count, never through the ids or their duplicate structure.
    const VerifyConfig config = ProxyConfigFor(8, 11);
    const GeneratorFactory factory = MakeSubjectFactory(config);
    constexpr uint64_t kConstructionSeed = 0xc0175eed;
    CanonicalTrace reference;
    int runs = 0;
    for (int set = 0; set < 2; ++set) {
        const std::vector<int64_t> base = MakeSecretSet(config, set);
        for (int k = 0; k < 8; ++k) {
            // Permutation k is shared across secret sets so every trace
            // pair differs in exactly one variable (ids or order).
            std::vector<int64_t> order = base;
            if (k > 0) {
                Rng perm(0x17e2 + static_cast<uint64_t>(k));
                for (size_t i = order.size(); i > 1; --i) {
                    std::swap(order[i - 1],
                              order[static_cast<size_t>(
                                  perm.NextBounded(i))]);
                }
            }
            sidechannel::TraceRecorder rec;
            auto gen = factory(kConstructionSeed, &rec);
            ASSERT_NE(gen, nullptr);
            rec.Clear();
            Tensor out({static_cast<int64_t>(order.size()), gen->dim()});
            gen->Generate(order, out);
            const CanonicalTrace trace = Canonicalize(rec.trace());
            if (runs++ == 0) {
                reference = trace;
                ASSERT_FALSE(reference.accesses.empty());
                continue;
            }
            const TraceDivergence d = CompareCanonicalShape(reference, trace);
            EXPECT_FALSE(d.diverged)
                << "secret set " << set << " interleaving " << k << ": "
                << d.detail;
        }
    }
    EXPECT_EQ(runs, 16);
}

TEST(ProxyVerifyTest, DifferentialShapeAcrossSecretSets)
{
    VerifyConfig config = ProxyConfigFor(8, 17);
    config.secret_sets = 4;
    const DifferentialResult r = RunDifferential(config);
    EXPECT_TRUE(r.passed) << r.detail;
    EXPECT_EQ(r.sets_run, 4);
}

TEST(ProxyVerifyTest, ProxyScheduleMatchesSerialControllerShape)
{
    // The proxied generator must present the exact per-access trace shape
    // of the serial Path ORAM controller — windowing and coalescing
    // change which ids are read, never what shape is recorded.
    VerifyConfig proxy_config = ProxyConfigFor(8, 19);
    VerifyConfig serial_config = proxy_config;
    serial_config.subject = Subject::kTreeOram;
    serial_config.variant = 0;  // Path
    const CanonicalTrace proxy_trace = GoldenRun(proxy_config);
    const CanonicalTrace serial_trace = GoldenRun(serial_config);
    ASSERT_EQ(proxy_trace.accesses.size(), serial_trace.accesses.size());
    const TraceDivergence d =
        CompareCanonicalShape(proxy_trace, serial_trace);
    EXPECT_FALSE(d.diverged) << d.detail;
}

/**
 * Negative control: the classic TaoStore pitfall. A proxy that coalesces
 * duplicates but skips the dummy padding issues fewer physical accesses
 * for duplicate-heavy batches — the schedule length leaks the (secret)
 * duplicate structure, and the differential engine must say so.
 */
class DedupWithoutPadding : public core::EmbeddingGenerator
{
  public:
    explicit DedupWithoutPadding(std::unique_ptr<core::OramTable> inner)
        : inner_(std::move(inner))
    {
    }

    void Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        std::vector<int64_t> distinct;
        std::vector<size_t> source(indices.size());
        for (size_t i = 0; i < indices.size(); ++i) {
            size_t at = distinct.size();
            for (size_t d = 0; d < distinct.size(); ++d) {
                if (distinct[d] == indices[i]) {
                    at = d;
                    break;
                }
            }
            if (at == distinct.size()) distinct.push_back(indices[i]);
            source[i] = at;
        }
        Tensor rows({static_cast<int64_t>(distinct.size()), dim()});
        inner_->Generate(distinct, rows);
        for (size_t i = 0; i < indices.size(); ++i) {
            std::copy_n(rows.data() +
                            static_cast<int64_t>(source[i]) * dim(),
                        dim(), out.data() +
                                   static_cast<int64_t>(i) * dim());
        }
    }
    int64_t dim() const override { return inner_->dim(); }
    int64_t num_rows() const override { return inner_->num_rows(); }
    int64_t MemoryFootprintBytes() const override
    {
        return inner_->MemoryFootprintBytes();
    }
    std::string_view name() const override
    {
        return "dedup without padding (leaky)";
    }
    bool IsOblivious() const override { return false; }

  private:
    std::unique_ptr<core::OramTable> inner_;
};

TEST(ProxyVerifyTest, EngineCatchesCoalescingWithoutPadding)
{
    VerifyConfig config = ProxyConfigFor(8, 23);
    config.rows = 16;  // small table: duplicate counts vary across sets
    config.secret_sets = 4;
    const GeneratorFactory leaky =
        [config](uint64_t seed, sidechannel::TraceRecorder* rec) {
            const GeneratorFactory serial = MakeSubjectFactory([&] {
                VerifyConfig c = config;
                c.subject = Subject::kTreeOram;
                c.variant = 0;
                return c;
            }());
            auto inner = serial(seed, rec);
            return std::unique_ptr<core::EmbeddingGenerator>(
                std::make_unique<DedupWithoutPadding>(
                    std::unique_ptr<core::OramTable>(
                        static_cast<core::OramTable*>(
                            inner.release()))));
        };
    const DifferentialResult r =
        RunDifferentialWith(config, leaky, /*expect_bit_identical=*/false);
    EXPECT_FALSE(r.passed)
        << "dedup-without-padding produced identical trace shapes; the "
           "interleaving gate would miss the TaoStore coalescing bug";
}

}  // namespace
}  // namespace secemb::verify
