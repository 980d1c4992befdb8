#include "verify/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/factory.h"
#include "core/paged_generators.h"
#include "oram/sqrt_oram.h"
#include "sidechannel/cache_model.h"
#include "sidechannel/page_channel.h"
#include "tensor/rng.h"

namespace secemb::verify {

namespace {

/// Table size at which the harness's hybrid threshold database switches
/// the hybrid generator from linear scan to DHE (kept small so the fuzz
/// corpus exercises both sides cheaply).
constexpr int64_t kHybridThreshold = 128;

uint64_t
Mix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9e3779b97f4a7c15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Construction seed shared by every run of the differential engine (and
/// the golden run) for one configuration: identical generator internals,
/// only the secret indices vary.
uint64_t
ConstructionSeed(const VerifyConfig& config)
{
    return Mix(config.seed, 0xc0175eedULL);
}

Tensor
SubjectTable(const VerifyConfig& config, uint64_t construction_seed)
{
    Rng rng(Mix(construction_seed, 0x7ab1eULL));
    return Tensor::Randn({config.rows, config.dim}, rng);
}

std::shared_ptr<dhe::DheEmbedding>
SubjectDhe(const VerifyConfig& config, uint64_t construction_seed,
           int nthreads)
{
    dhe::DheConfig cfg;
    cfg.k = 8;
    cfg.fc_hidden = {8};
    cfg.out_dim = config.dim;
    cfg.hash_buckets = 1 << 16;
    Rng rng(Mix(construction_seed, 0xd4eULL));
    return std::make_shared<dhe::DheEmbedding>(cfg, rng, nthreads);
}

/** Square-root ORAM behind the EmbeddingGenerator interface. */
class SqrtOramGenerator : public core::EmbeddingGenerator
{
  public:
    SqrtOramGenerator(const Tensor& table, Rng& rng)
        : rows_(table.size(0)), dim_(table.size(1)), oram_(rows_, dim_, rng)
    {
        std::vector<uint32_t> words(
            static_cast<size_t>(rows_ * dim_));
        static_assert(sizeof(float) == sizeof(uint32_t));
        std::memcpy(words.data(), table.data(),
                    words.size() * sizeof(uint32_t));
        oram_.BulkLoad(words);
    }

    void
    Generate(std::span<const int64_t> indices, Tensor& out) override
    {
        std::vector<uint32_t> block(static_cast<size_t>(dim_));
        for (size_t i = 0; i < indices.size(); ++i) {
            oram_.Read(indices[i], block);
            std::memcpy(out.data() + static_cast<int64_t>(i) * dim_,
                        block.data(), block.size() * sizeof(uint32_t));
        }
    }

    int64_t dim() const override { return dim_; }
    int64_t num_rows() const override { return rows_; }
    int64_t MemoryFootprintBytes() const override
    {
        return oram_.MemoryFootprintBytes();
    }
    std::string_view name() const override { return "Sqrt ORAM"; }
    bool IsOblivious() const override { return true; }
    void set_recorder(sidechannel::TraceRecorder* r) override
    {
        oram_.set_recorder(r);
    }

  private:
    int64_t rows_;
    int64_t dim_;
    oram::SqrtOram oram_;
};

core::ThresholdTable
HarnessThresholds()
{
    core::ThresholdTable t;
    t.Add({1, 1, kHybridThreshold});
    return t;
}

/// Bag boundaries for pooled generation: deterministic mix of bag sizes
/// (including an empty bag) that always consumes exactly `batch` indices.
std::vector<int64_t>
PooledOffsets(int batch)
{
    static constexpr int kPattern[] = {1, 2, 0, 3};
    std::vector<int64_t> offsets{0};
    int consumed = 0, p = 0;
    while (consumed < batch) {
        const int bag =
            std::min(kPattern[p % 4], batch - consumed);
        consumed += bag;
        offsets.push_back(consumed);
        p++;
    }
    return offsets;
}

/// One run: build a fresh generator, drop the construction-time trace,
/// record the batch, canonicalize.
CanonicalTrace
RunOne(const VerifyConfig& config, const GeneratorFactory& factory,
       uint64_t construction_seed, const std::vector<int64_t>& secrets)
{
    sidechannel::TraceRecorder rec;
    auto gen = factory(construction_seed, &rec);
    if (gen == nullptr) {
        throw std::runtime_error("generator factory returned null");
    }
    rec.Clear();  // focus the trace on query-time accesses
    if (config.pooled) {
        const auto offsets = PooledOffsets(config.batch);
        Tensor out({static_cast<int64_t>(offsets.size()) - 1, gen->dim()});
        gen->GeneratePooled(secrets, offsets, out);
    } else {
        Tensor out({static_cast<int64_t>(secrets.size()), gen->dim()});
        gen->Generate(secrets, out);
    }
    return Canonicalize(rec.trace());
}

/// A run that recorded nothing certifies nothing: the recorder never
/// reached the code that touches memory.
std::string
NoAccessesDetail(const VerifyConfig& config)
{
    return config.Name() +
           ": recorded no accesses (is the recorder attached?)";
}

/// Two-sample chi-squared over two count histograms sharing a key space.
struct ChiSquared
{
    double chi2 = 0.0;
    double df = 0.0;
};

ChiSquared
TwoSampleChiSquared(const std::map<uint64_t, int64_t>& a,
                    const std::map<uint64_t, int64_t>& b)
{
    double total_a = 0.0, total_b = 0.0;
    for (const auto& [k, v] : a) total_a += static_cast<double>(v);
    for (const auto& [k, v] : b) total_b += static_cast<double>(v);
    ChiSquared r;
    if (total_a <= 0.0 || total_b <= 0.0) return r;

    std::map<uint64_t, std::pair<double, double>> bins;
    for (const auto& [k, v] : a) bins[k].first = static_cast<double>(v);
    for (const auto& [k, v] : b) bins[k].second = static_cast<double>(v);

    const double total = total_a + total_b;
    for (const auto& [k, ab] : bins) {
        const double row = ab.first + ab.second;
        if (row <= 0.0) continue;
        const double ea = row * total_a / total;
        const double eb = row * total_b / total;
        r.chi2 += (ab.first - ea) * (ab.first - ea) / ea +
                  (ab.second - eb) * (ab.second - eb) / eb;
        r.df += 1.0;
    }
    r.df = std::max(0.0, r.df - 1.0);
    return r;
}

/// Pool per-run histograms selected by `group` (0 or 1) under `labels`.
std::map<uint64_t, int64_t>
PoolByLabel(const std::vector<std::map<uint64_t, int64_t>>& runs,
            const std::vector<int>& labels, int group)
{
    std::map<uint64_t, int64_t> pooled;
    for (size_t i = 0; i < runs.size(); ++i) {
        if (labels[i] != group) continue;
        for (const auto& [k, v] : runs[i]) pooled[k] += v;
    }
    return pooled;
}

/**
 * Permutation-calibrated two-sample test. ORAM traces are *clustered*
 * samples — one leaf draw yields a whole correlated path of
 * observations — so the raw chi-squared statistic is overdispersed
 * relative to its nominal distribution and no analytic bound is safe on
 * both sides. Instead the null distribution is estimated from the data
 * itself: re-split the same runs with shuffled group labels (which
 * destroys any fixed-vs-random signal but preserves the clustering) and
 * compare the true split's statistic against the permuted ones.
 *
 * Accept if observed <= 1.5 * max(permuted) + 10: under H0 the observed
 * value is one more draw from the permuted distribution — exceeding the
 * maximum of 60 such draws by another 50% is vanishingly unlikely —
 * while a secret-dependent pattern concentrates the fixed group's
 * histogram and pushes the observed statistic far beyond anything a
 * mixed re-split can produce (the planted index-lookup baseline lands at
 * ~2.2x the permuted max). All randomness is seeded: a verdict is
 * reproducible.
 */
struct PermutationOutcome
{
    double observed_chi2 = 0.0;
    double df = 0.0;
    double max_permuted = 0.0;
    bool accepted = true;
};

PermutationOutcome
PermutationTest(const std::vector<std::map<uint64_t, int64_t>>& runs,
                const std::vector<int>& labels, uint64_t seed)
{
    constexpr int kPermutations = 60;
    PermutationOutcome out;
    const ChiSquared obs = TwoSampleChiSquared(
        PoolByLabel(runs, labels, 0), PoolByLabel(runs, labels, 1));
    out.observed_chi2 = obs.chi2;
    out.df = obs.df;

    Rng rng(Mix(seed, 0xbe57ULL));
    std::vector<int> shuffled = labels;
    for (int p = 0; p < kPermutations; ++p) {
        for (size_t i = shuffled.size(); i > 1; --i) {
            const size_t j = rng.NextBounded(i);
            std::swap(shuffled[i - 1], shuffled[j]);
        }
        const ChiSquared perm = TwoSampleChiSquared(
            PoolByLabel(runs, shuffled, 0),
            PoolByLabel(runs, shuffled, 1));
        out.max_permuted = std::max(out.max_permuted, perm.chi2);
    }
    out.accepted = out.observed_chi2 <= 1.5 * out.max_permuted + 10.0;
    if (std::getenv("SECEMB_VERIFY_DEBUG") != nullptr) {
        std::fprintf(stderr, "permtest obs=%.2f max_perm=%.2f df=%.0f\n",
                     out.observed_chi2, out.max_permuted, out.df);
    }
    return out;
}

void
AccumulateCacheSets(const sidechannel::CacheModel& cache,
                    const std::vector<sidechannel::MemoryAccess>& trace,
                    std::map<uint64_t, int64_t>& hist)
{
    // One observation per access, at the set of its first line. The
    // remaining lines of a multi-line access are a deterministic function
    // of (region, offset, size) — counting them would add perfectly
    // correlated observations, inflating the chi-squared statistic's
    // variance (clustered sampling) without adding information. Access
    // sizes themselves are pinned by the shape comparison.
    for (const auto& a : trace) {
        hist[static_cast<uint64_t>(cache.SetIndex(a.addr))]++;
    }
}

void
AccumulateFaultPages(const sidechannel::PageFaultObserver& observer,
                     const std::vector<sidechannel::MemoryAccess>& trace,
                     std::map<uint64_t, int64_t>& hist)
{
    for (const uint64_t page : observer.ObservePages(trace)) {
        hist[page]++;
    }
}

}  // namespace

const char*
SubjectName(Subject s)
{
    switch (s) {
      case Subject::kLinearScan: return "scan";
      case Subject::kDhe: return "dhe";
      case Subject::kHybrid: return "hybrid";
      case Subject::kTreeOram: return "tree_oram";
      case Subject::kSqrtOram: return "sqrt_oram";
      case Subject::kIndexLookup: return "index_lookup";
      case Subject::kProxyOram: return "proxy_oram";
      case Subject::kPagedScan: return "paged_scan";
      case Subject::kRawOram: return "raw_oram";
    }
    return "unknown";
}

bool
ParseSubject(const std::string& name, Subject* out)
{
    for (Subject s :
         {Subject::kLinearScan, Subject::kDhe, Subject::kHybrid,
          Subject::kTreeOram, Subject::kSqrtOram, Subject::kIndexLookup,
          Subject::kProxyOram, Subject::kPagedScan, Subject::kRawOram}) {
        if (name == SubjectName(s)) {
            *out = s;
            return true;
        }
    }
    return false;
}

std::vector<Subject>
AllSecureSubjects()
{
    return {Subject::kLinearScan, Subject::kDhe,       Subject::kHybrid,
            Subject::kTreeOram,   Subject::kSqrtOram,  Subject::kProxyOram,
            Subject::kPagedScan,  Subject::kRawOram};
}

bool
SubjectIsDeterministic(Subject s)
{
    switch (s) {
      case Subject::kTreeOram:
      case Subject::kSqrtOram:
      case Subject::kProxyOram:
      case Subject::kRawOram:
        return false;
      default:
        return true;
    }
}

std::string
VerifyConfig::Name() const
{
    std::ostringstream os;
    os << SubjectName(subject);
    if (subject == Subject::kTreeOram) {
        os << (variant == 0 ? "_path" : "_circuit");
    }
    os << "_r" << rows << "_d" << dim << "_b" << batch << "_t" << nthreads;
    if (pooled) os << "_pooled";
    return os.str();
}

GeneratorFactory
MakeSubjectFactory(const VerifyConfig& config)
{
    const VerifyConfig c = config;
    if (c.subject == Subject::kSqrtOram) {
        return [c](uint64_t seed, sidechannel::TraceRecorder* rec) {
            Rng rng(Mix(seed, 0x5047ULL));
            auto gen = std::make_unique<SqrtOramGenerator>(
                SubjectTable(c, seed), rng);
            gen->set_recorder(rec);
            return std::unique_ptr<core::EmbeddingGenerator>(
                std::move(gen));
        };
    }
    // Every other subject is built exactly as it is served: through
    // core::MakeGenerator, with the recorder attached afterwards through
    // the one trace hook. Each keeps its own RNG salt and store geometry.
    core::GenKind kind;
    uint64_t rng_salt = 0;
    int64_t page_bytes = 0;
    switch (c.subject) {
      case Subject::kLinearScan: kind = core::GenKind::kLinearScan; break;
      case Subject::kDhe: kind = core::GenKind::kDheUniform; break;
      case Subject::kHybrid: kind = core::GenKind::kHybridUniform; break;
      case Subject::kIndexLookup: kind = core::GenKind::kIndexLookup; break;
      case Subject::kTreeOram:
        kind = c.variant == 0 ? core::GenKind::kPathOram
                              : core::GenKind::kCircuitOram;
        rng_salt = 0x07a3ULL;
        break;
      case Subject::kProxyOram:
        kind = core::GenKind::kProxyOram;
        rng_salt = 0x9c0aULL;
        break;
      case Subject::kPagedScan:
        // Small pages and a deliberately tight cache so the certified
        // page schedule is exercised under constant eviction churn.
        kind = core::GenKind::kPagedScan;
        page_bytes = 128;
        break;
      case Subject::kRawOram:
        kind = core::GenKind::kRawOram;
        rng_salt = 0x0c8aULL;
        page_bytes = 384;  // Z in [6, 24] over the corpus dims
        break;
      default:
        throw std::invalid_argument("unknown verify subject");
    }
    return [c, kind, rng_salt, page_bytes](
               uint64_t seed, sidechannel::TraceRecorder* rec) {
        const Tensor table = SubjectTable(c, seed);
        const core::ThresholdTable thresholds = HarnessThresholds();
        store::StoreConfig sc;
        sc.backend = store::StoreBackend::kMemory;
        sc.page_bytes = page_bytes;
        sc.cache_pages = 4;
        core::GeneratorOptions opt;
        opt.batch_size = c.batch;
        opt.nthreads = c.nthreads;
        opt.table = &table;
        opt.thresholds = &thresholds;
        if (page_bytes > 0) opt.store = &sc;
        if (kind == core::GenKind::kDheUniform ||
            kind == core::GenKind::kHybridUniform) {
            opt.dhe = SubjectDhe(c, seed, c.nthreads);
        }
        Rng rng(Mix(seed, rng_salt));
        auto gen = core::MakeGenerator(kind, c.rows, c.dim, rng, opt);
        gen->set_recorder(rec);
        return gen;
    };
}

std::vector<int64_t>
MakeSecretSet(const VerifyConfig& config, int set_index)
{
    std::vector<int64_t> secrets(static_cast<size_t>(config.batch));
    if (set_index == 0) {
        // A readable fixed pattern for golden runs and the TVLA fixed
        // group; stride 7 spreads it across rows for small batches.
        for (size_t i = 0; i < secrets.size(); ++i) {
            secrets[i] = static_cast<int64_t>(i * 7 + 3) % config.rows;
        }
        return secrets;
    }
    Rng rng(Mix(config.seed,
                0x5ec3e75ULL + static_cast<uint64_t>(set_index)));
    for (auto& s : secrets) {
        s = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(config.rows)));
    }
    return secrets;
}

DifferentialResult
RunDifferentialWith(const VerifyConfig& config,
                    const GeneratorFactory& factory,
                    bool expect_bit_identical)
{
    DifferentialResult result;
    result.config = config;
    const uint64_t cseed = ConstructionSeed(config);
    const int sets = std::max(2, config.secret_sets);

    CanonicalTrace reference =
        RunOne(config, factory, cseed, MakeSecretSet(config, 0));
    result.trace_len = reference.accesses.size();
    result.sets_run = 1;
    if (reference.accesses.empty()) {
        result.detail = NoAccessesDetail(config);
        return result;
    }
    for (int s = 1; s < sets; ++s) {
        const CanonicalTrace trace =
            RunOne(config, factory, cseed, MakeSecretSet(config, s));
        const TraceDivergence d =
            expect_bit_identical ? CompareCanonical(reference, trace)
                                 : CompareCanonicalShape(reference, trace);
        result.sets_run++;
        if (d.diverged) {
            std::ostringstream os;
            os << config.Name() << ": secret set " << s
               << " diverges from set 0: " << d.detail;
            result.detail = os.str();
            return result;
        }
    }
    result.passed = true;
    return result;
}

DifferentialResult
RunDifferential(const VerifyConfig& config)
{
    return RunDifferentialWith(config, MakeSubjectFactory(config),
                               SubjectIsDeterministic(config.subject));
}

StatisticalResult
RunStatisticalWith(const VerifyConfig& config,
                   const GeneratorFactory& factory)
{
    StatisticalResult result;
    result.config = config;
    result.runs_per_group = std::max(12, 2 * config.secret_sets);

    const sidechannel::CacheModel cache{sidechannel::CacheConfig{}};
    const sidechannel::PageFaultObserver observer;
    const std::vector<int64_t> fixed = MakeSecretSet(config, 0);

    std::vector<std::map<uint64_t, int64_t>> cache_runs, page_runs;
    std::vector<int> labels;  ///< 0 = fixed secrets, 1 = random secrets
    for (int run = 0; run < result.runs_per_group; ++run) {
        for (int group = 0; group < 2; ++group) {
            // The construction seed varies per run in BOTH groups: the
            // generator's own randomness (ORAM leaves, epoch keys) is not
            // the secret under test, the indices are. Holding it fixed
            // would concentrate the fixed group's histogram and reject
            // secure randomized ORAMs.
            const uint64_t cseed = Mix(
                config.seed, 0xabcdULL + static_cast<uint64_t>(
                                             run * 2 + group));
            const std::vector<int64_t> secrets =
                group == 0 ? fixed
                           : MakeSecretSet(config, 1000 + run);
            const CanonicalTrace trace =
                RunOne(config, factory, cseed, secrets);
            if (trace.accesses.empty()) {
                result.detail = NoAccessesDetail(config);
                return result;
            }
            const auto model = ToModelTrace(trace);
            cache_runs.emplace_back();
            AccumulateCacheSets(cache, model, cache_runs.back());
            page_runs.emplace_back();
            AccumulateFaultPages(observer, model, page_runs.back());
            labels.push_back(group);
        }
    }

    const PermutationOutcome cache_out =
        PermutationTest(cache_runs, labels, config.seed);
    const PermutationOutcome page_out =
        PermutationTest(page_runs, labels, Mix(config.seed, 0x9a6eULL));
    result.cache_chi2 = cache_out.observed_chi2;
    result.cache_df = cache_out.df;
    result.page_chi2 = page_out.observed_chi2;
    result.page_df = page_out.df;

    result.passed = cache_out.accepted && page_out.accepted;
    if (!result.passed) {
        std::ostringstream os;
        os << config.Name()
           << ": fixed-vs-random histograms distinguishable:";
        if (!cache_out.accepted) {
            os << " cache chi2=" << cache_out.observed_chi2
               << " vs permuted max " << cache_out.max_permuted
               << " (df=" << cache_out.df << ")";
        }
        if (!page_out.accepted) {
            os << " page chi2=" << page_out.observed_chi2
               << " vs permuted max " << page_out.max_permuted
               << " (df=" << page_out.df << ")";
        }
        result.detail = os.str();
    }
    return result;
}

StatisticalResult
RunStatistical(const VerifyConfig& config)
{
    return RunStatisticalWith(config, MakeSubjectFactory(config));
}

GeneratorFactory
MakeDurableRawOramFactory(const VerifyConfig& config,
                          const std::string& scratch_dir, bool recovered,
                          bool sparse_negative_control)
{
    const VerifyConfig c = config;
    auto next = std::make_shared<std::atomic<uint64_t>>(0);
    return [c, scratch_dir, recovered, sparse_negative_control, next](
               uint64_t seed, sidechannel::TraceRecorder* rec)
               -> std::unique_ptr<core::EmbeddingGenerator> {
        namespace fs = std::filesystem;
        const std::string dir =
            scratch_dir + "/g" +
            std::to_string(next->fetch_add(1, std::memory_order_relaxed));
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir, ec);
        if (ec) {
            throw std::runtime_error("cannot create scratch dir " + dir);
        }

        store::StoreConfig sc;
        sc.backend = store::StoreBackend::kFile;
        sc.path = dir + "/pages.bin";
        sc.page_bytes = 384;  // match the in-memory raw_oram subject
        sc.cache_pages = 4;
        store::RawOramConfig rc;
        rc.durability.dir = dir;
        // The warmup below runs exactly one eviction period, so the
        // recorded batch starts right after a drain and finishes before
        // the next eviction: stash occupancy during the batch is the
        // running distinct-id count of the secrets, undiluted by
        // mid-batch drains. A content-dependent checkpoint format has
        // nowhere to hide; the sealed (public-size) format is unchanged
        // by any of this.
        rc.eviction_period = std::max<int64_t>(2 * c.batch, 16);
        // Small interval so auto checkpoints fire INSIDE the recorded
        // batch — the write schedule under certification includes
        // mid-traffic checkpoints, where a content-dependent format
        // would leak.
        rc.durability.checkpoint_interval = 2;
        rc.durability.unsafe_sparse_checkpoint = sparse_negative_control;
        rc.posmap.enable_recursion = false;

        // Built by hand rather than through core::MakeGenerator: the
        // eviction period is not a GeneratorOptions field.
        Rng rng(Mix(seed, 0xd0c8aULL));
        auto gen = std::make_unique<core::RawOramTable>(
            SubjectTable(c, seed), rng, sc, rc);
        gen->set_recorder(rec);
        // Public warmup — one eviction period of id = i mod rows — then a
        // sealed checkpoint. Both arms share this schedule, so fresh and
        // recovered instances face the recorded batch from the same
        // (public) checkpoint/journal phase.
        const int64_t warmup = rc.eviction_period;
        std::vector<int64_t> ids(static_cast<size_t>(warmup));
        for (int64_t i = 0; i < warmup; ++i) {
            ids[static_cast<size_t>(i)] = i % c.rows;
        }
        Tensor warm({warmup, c.dim});
        gen->Generate(ids, warm);
        store::ThrowIfError(gen->CheckpointStorage());
        if (!recovered) return gen;

        gen.reset();  // tear down: only the on-disk state survives
        Rng recovery_rng(Mix(seed, 0x2ec0fe2ULL));
        std::unique_ptr<core::RawOramTable> back;
        store::ThrowIfError(core::RawOramTable::Recover(
            c.rows, c.dim, recovery_rng, sc, rc, &back));
        back->set_recorder(rec);
        return back;
    };
}

RecoveredResult
RunRecovered(const VerifyConfig& config, const std::string& scratch_dir)
{
    RecoveredResult result;
    result.config = config;
    const uint64_t cseed = ConstructionSeed(config);
    const GeneratorFactory fresh = MakeDurableRawOramFactory(
        config, scratch_dir + "/fresh", false, false);
    const GeneratorFactory recovered = MakeDurableRawOramFactory(
        config, scratch_dir + "/recovered", true, false);

    // 1. A recovered instance must be indistinguishable in shape from a
    //    fresh one under the same secrets: recovery leaves no
    //    fingerprint in the access pattern.
    const std::vector<int64_t> secrets = MakeSecretSet(config, 0);
    const CanonicalTrace a = RunOne(config, fresh, cseed, secrets);
    const CanonicalTrace b = RunOne(config, recovered, cseed, secrets);
    result.trace_len = a.accesses.size();
    const TraceDivergence d = CompareCanonicalShape(a, b);
    result.shape_passed = !d.diverged;
    if (d.diverged) {
        result.detail = config.Name() +
                        ": recovered instance diverges in shape from a "
                        "fresh instance: " +
                        d.detail;
    }
    // 2. Shape identity across secret sets, on recovered instances only.
    result.differential = RunDifferentialWith(config, recovered, false);
    // 3. Fixed-vs-random statistical check on recovered instances.
    result.statistical = RunStatisticalWith(config, recovered);

    result.passed = result.shape_passed && result.differential.passed &&
                    result.statistical.passed;
    if (!result.passed && result.detail.empty()) {
        result.detail = !result.differential.passed
                            ? result.differential.detail
                            : result.statistical.detail;
    }
    std::error_code ec;
    std::filesystem::remove_all(scratch_dir, ec);
    return result;
}

std::vector<VerifyConfig>
RecoveredCorpus(uint64_t seed)
{
    // Durable runs build, checkpoint, and recover file-backed instances
    // per trace — trim the sweep to a representative sample.
    const std::vector<VerifyConfig> full =
        FuzzCorpus(Subject::kRawOram, seed);
    std::vector<VerifyConfig> corpus;
    for (size_t i = 0; i < full.size() && corpus.size() < 3; i += 4) {
        corpus.push_back(full[i]);
    }
    return corpus;
}

InterleavingResult
RunInterleavingFuzz(const VerifyConfig& config, int interleavings)
{
    InterleavingResult result;
    result.config = config;
    const uint64_t cseed = ConstructionSeed(config);
    const GeneratorFactory factory = MakeSubjectFactory(config);
    const int sets = std::max(2, config.secret_sets);
    const int perms = std::max(1, interleavings);

    CanonicalTrace reference;
    for (int set = 0; set < sets; ++set) {
        const std::vector<int64_t> base = MakeSecretSet(config, set);
        for (int k = 0; k < perms; ++k) {
            // Permutation k is shared across secret sets so every trace
            // pair differs in exactly one variable (ids or order).
            std::vector<int64_t> order = base;
            if (k > 0) {
                Rng perm(Mix(config.seed,
                             0x17e2ULL + static_cast<uint64_t>(k)));
                for (size_t i = order.size(); i > 1; --i) {
                    const size_t j =
                        static_cast<size_t>(perm.NextBounded(i));
                    std::swap(order[i - 1], order[j]);
                }
            }
            const CanonicalTrace trace =
                RunOne(config, factory, cseed, order);
            if (result.runs == 0) {
                reference = trace;
                result.trace_len = trace.accesses.size();
                if (reference.accesses.empty()) {
                    result.detail = NoAccessesDetail(config);
                    result.runs++;
                    return result;
                }
            } else {
                const TraceDivergence d =
                    CompareCanonicalShape(reference, trace);
                if (d.diverged) {
                    std::ostringstream os;
                    os << config.Name() << ": secret set " << set
                       << " interleaving " << k
                       << " diverges in shape from the reference run: "
                       << d.detail;
                    result.detail = os.str();
                    result.runs++;
                    return result;
                }
            }
            result.runs++;
        }
        result.secret_sets++;
    }
    result.passed = true;
    return result;
}

std::vector<VerifyConfig>
FuzzCorpus(Subject subject, uint64_t seed)
{
    constexpr int kConfigs = 10;
    // Row pools: hybrid alternates both sides of kHybridThreshold; the
    // ORAMs stay small enough for per-config differential + statistical
    // runs to remain fast.
    const std::vector<int64_t> rows_small{16, 33, 48, 64};
    const std::vector<int64_t> rows_large{128, 160, 256};
    const std::vector<int64_t> dims{4, 8, 16};
    const std::vector<int> batches{1, 3, 8};
    const std::vector<int> threads{1, 4};

    Rng rng(Mix(seed, static_cast<uint64_t>(subject) + 0xf022ULL));
    auto pick = [&rng](const auto& pool) {
        return pool[rng.NextBounded(pool.size())];
    };

    std::vector<VerifyConfig> corpus;
    for (int i = 0; i < kConfigs; ++i) {
        VerifyConfig c;
        c.subject = subject;
        if (subject == Subject::kHybrid) {
            // Cover both the scan side and the DHE side of the threshold.
            c.rows = i % 2 == 0 ? pick(rows_small) : pick(rows_large);
        } else {
            c.rows = pick(rows_small);
        }
        c.dim = pick(dims);
        c.batch = pick(batches);
        c.nthreads = pick(threads);
        c.variant = subject == Subject::kTreeOram ? i % 2 : 0;
        // Pooled generation goes through a distinct code path for the
        // scan; exercise it on a third of the scan/hybrid configs.
        c.pooled = (subject == Subject::kLinearScan ||
                    subject == Subject::kHybrid ||
                    subject == Subject::kPagedScan) &&
                   i % 3 == 2;
        c.secret_sets = 4;
        c.seed = Mix(seed, 0xc0fU + static_cast<uint64_t>(i));
        corpus.push_back(c);
    }
    return corpus;
}

SweepResult
RunSweep(const std::vector<Subject>& subjects, uint64_t seed,
         int secret_sets)
{
    SweepResult sweep;
    for (const Subject subject : subjects) {
        for (VerifyConfig config : FuzzCorpus(subject, seed)) {
            if (secret_sets > 0) config.secret_sets = secret_sets;
            DifferentialResult d = RunDifferential(config);
            sweep.all_passed = sweep.all_passed && d.passed;
            sweep.differential.push_back(std::move(d));
            if (!SubjectIsDeterministic(subject)) {
                StatisticalResult s = RunStatistical(config);
                sweep.all_passed = sweep.all_passed && s.passed;
                sweep.statistical.push_back(std::move(s));
            }
        }
    }
    return sweep;
}

CanonicalTrace
GoldenRun(const VerifyConfig& config)
{
    return RunOne(config, MakeSubjectFactory(config),
                  ConstructionSeed(config), MakeSecretSet(config, 0));
}

std::vector<VerifyConfig>
GoldenConfigs()
{
    std::vector<VerifyConfig> configs;
    for (const Subject subject : AllSecureSubjects()) {
        VerifyConfig c;
        c.subject = subject;
        c.rows = 16;
        c.dim = 4;
        c.batch = 3;
        c.nthreads = 1;
        c.variant = 0;
        c.seed = 42;
        configs.push_back(c);
    }
    return configs;
}

}  // namespace secemb::verify
