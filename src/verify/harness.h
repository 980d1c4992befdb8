#pragma once

/**
 * @file
 * Obliviousness certification harness (the machinery behind the
 * `secemb-verify` CLI and the `ctest -L leakage` gate).
 *
 * Three layers of checking, applied per generator configuration:
 *
 *  1. Differential engine: N seeded secret-index sets are run through
 *     freshly-built generators with identical construction seeds; all
 *     canonicalized traces must be bit-identical (deterministic subjects:
 *     linear scan, vectorized scan, DHE, hybrid) or shape-identical
 *     (randomized subjects: tree/sqrt ORAM, whose traces legitimately
 *     differ in offsets). The first divergent access is reported with
 *     region/offset/op context.
 *
 *  2. Statistical leakage check (fixed-vs-random, TVLA style): one group
 *     of runs replays a fixed secret set, the other fresh random secret
 *     sets, with generator randomness (construction seed) varying in both
 *     groups. Each trace is fed through the existing src/sidechannel
 *     cache and page-channel models; the pooled per-cache-set and
 *     per-page observation histograms of the two groups must be
 *     statistically indistinguishable (two-sample chi-squared, calibrated
 *     by a seeded permutation test because ORAM traces are clustered
 *     samples). This is what certifies the randomized ORAMs — and what
 *     catches the non-secure index lookup.
 *
 *  3. Fuzz driver: a deterministic corpus sweeps generator kind, table
 *     shape, batch size, and thread count from a seed, so the gate covers
 *     many configurations without hand-picking them.
 *
 * Every engine fails a configuration whose runs recorded no accesses: an
 * empty trace is trivially secret-independent and certifies nothing.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/embedding_generator.h"
#include "verify/canonical.h"

namespace secemb::verify {

/**
 * Generators the harness can certify. The values are pinned: FuzzCorpus
 * seeds each subject's corpus with its value, so renumbering would move
 * every corpus.
 */
enum class Subject
{
    kLinearScan = 0,   ///< core::LinearScanTable (production scan path)
    kDhe = 2,          ///< core::DheGenerator
    kHybrid = 3,       ///< core::HybridGenerator (both threshold sides)
    kTreeOram = 4,     ///< core::OramTable — Path (variant 0) / Circuit (1)
    kSqrtOram = 5,     ///< oram::SqrtOram behind a generator adapter
    kIndexLookup = 6,  ///< non-secure baseline — negative control only
    kProxyOram = 7,    ///< core::ProxiedOramTable — coalescing proxy
    kPagedScan = 8,    ///< core::PagedScanTable — out-of-core paged scan
    kRawOram = 9,      ///< core::RawOramTable — page-optimized RAW ORAM
};

/** CLI name: "scan", "dhe", "hybrid", "tree_oram", ... */
const char* SubjectName(Subject s);

/** Parse a SubjectName; returns false on unknown name. */
bool ParseSubject(const std::string& name, Subject* out);

/** The eight certified kinds (excludes the non-secure control). */
std::vector<Subject> AllSecureSubjects();

/** True if the subject's trace must be bit-identical across secrets
 * (false: randomized — shape identity + statistical check instead). */
bool SubjectIsDeterministic(Subject s);

/** One generator configuration under certification. */
struct VerifyConfig
{
    Subject subject = Subject::kLinearScan;
    int64_t rows = 64;
    int64_t dim = 8;
    int batch = 8;
    int nthreads = 1;
    int variant = 0;       ///< tree ORAM: 0 = Path, 1 = Circuit
    bool pooled = false;   ///< exercise GeneratePooled (scan subjects)
    int secret_sets = 4;   ///< N secret sets (differential) / runs per group
    uint64_t seed = 1;     ///< corpus seed: weights, secrets, randomness

    /** Stable slug, e.g. "scan_r64_d8_b8_t1" (golden file stem). */
    std::string Name() const;
};

/**
 * Builds a fresh generator for `config`, seeded with `construction_seed`,
 * with `recorder` attached. Custom factories let tests certify fixtures
 * (e.g. a deliberately planted secret-dependent branch).
 */
using GeneratorFactory =
    std::function<std::unique_ptr<core::EmbeddingGenerator>(
        uint64_t construction_seed, sidechannel::TraceRecorder* recorder)>;

/**
 * The harness's own factory for a subject configuration. Every subject
 * with a core::GenKind is built by core::MakeGenerator, so the certified
 * object is the object the library serves; the recorder attaches through
 * EmbeddingGenerator::set_recorder.
 */
GeneratorFactory MakeSubjectFactory(const VerifyConfig& config);

/** Deterministic secret-index set `set_index` for a configuration. */
std::vector<int64_t> MakeSecretSet(const VerifyConfig& config,
                                   int set_index);

/** Result of the differential engine on one configuration. */
struct DifferentialResult
{
    VerifyConfig config;
    bool passed = false;
    int sets_run = 0;
    size_t trace_len = 0;   ///< canonical accesses per run
    std::string detail;     ///< first divergent access context on failure
};

/**
 * Run the differential engine: N secret sets, fixed construction seed,
 * canonical bit-identity (deterministic subjects) or shape identity
 * (randomized subjects) across all runs.
 */
DifferentialResult RunDifferential(const VerifyConfig& config);

/** Differential engine over a custom factory (test fixtures). */
DifferentialResult RunDifferentialWith(const VerifyConfig& config,
                                       const GeneratorFactory& factory,
                                       bool expect_bit_identical);

/** Result of the statistical fixed-vs-random leakage check. */
struct StatisticalResult
{
    VerifyConfig config;
    bool passed = false;
    int runs_per_group = 0;
    double cache_chi2 = 0.0;  ///< per-cache-set observation histograms
    double cache_df = 0.0;
    double page_chi2 = 0.0;   ///< per-page observation histograms
    double page_df = 0.0;
    std::string detail;
};

/** Run the fixed-vs-random statistical check on one configuration. */
StatisticalResult RunStatistical(const VerifyConfig& config);

/** Statistical check over a custom factory (negative controls). */
StatisticalResult RunStatisticalWith(const VerifyConfig& config,
                                     const GeneratorFactory& factory);

/**
 * Factory for durable, file-backed RAW ORAM generators under
 * `scratch_dir` (each call gets a private subdirectory). Every instance
 * is warmed up with one eviction period of public accesses (id = i mod
 * rows) and checkpointed, so the certified trace starts from a
 * non-trivial stash/journal state. With `recovered` the warmed instance
 * is then torn down and rebuilt through RawOram::Recover — the returned
 * generator serves from replayed checkpoint + journal state. With
 * `sparse_negative_control` checkpoints use the occupancy-dependent
 * sparse format (DurabilityConfig::unsafe_sparse_checkpoint), the
 * planted leak the statistical engine must reject; combining it with
 * `recovered` makes the factory throw, because recovery refuses sparse
 * checkpoints by design.
 */
GeneratorFactory MakeDurableRawOramFactory(const VerifyConfig& config,
                                           const std::string& scratch_dir,
                                           bool recovered,
                                           bool sparse_negative_control);

/** Result of the recovered-instance certification (durable RAW ORAM). */
struct RecoveredResult
{
    VerifyConfig config;
    bool passed = false;
    size_t trace_len = 0;       ///< canonical accesses per run
    /** Fresh-vs-recovered shape identity on the same secret set. */
    bool shape_passed = false;
    DifferentialResult differential;  ///< across secrets, recovered only
    StatisticalResult statistical;    ///< fixed-vs-random, recovered only
    std::string detail;
};

/**
 * Certify that crash recovery is leakage-free: a recovered instance's
 * canonical trace must be shape-identical to a fresh instance's under
 * the same public schedule (checkpoint history is not allowed to leave a
 * fingerprint in the access pattern), the differential engine must hold
 * across secret sets on recovered instances, and the fixed-vs-random
 * statistical check must accept recovered instances. `scratch_dir` holds
 * the store/checkpoint/journal files and is wiped per generator.
 */
RecoveredResult RunRecovered(const VerifyConfig& config,
                             const std::string& scratch_dir);

/** Trimmed corpus for the (slower) recovered-instance arm. */
std::vector<VerifyConfig> RecoveredCorpus(uint64_t seed);

/**
 * Deterministic fuzz corpus for one subject: at least 8 configurations
 * sweeping table shape, batch size, and thread count (1 vs pooled),
 * derived from `seed`.
 */
std::vector<VerifyConfig> FuzzCorpus(Subject subject, uint64_t seed);

/** Whole-sweep result: every config of every requested subject. */
struct SweepResult
{
    std::vector<DifferentialResult> differential;
    std::vector<StatisticalResult> statistical;
    bool all_passed = true;
};

/**
 * Certify `subjects` across their fuzz corpora: differential engine on
 * every config, plus the statistical check on randomized subjects.
 */
SweepResult RunSweep(const std::vector<Subject>& subjects, uint64_t seed,
                     int secret_sets);

/**
 * Canonical trace of the config's golden run: fixed secret set 0 through
 * a generator built with the config seed. This is what golden snapshots
 * under tests/golden/ pin.
 */
CanonicalTrace GoldenRun(const VerifyConfig& config);

/**
 * Small pinned configurations, in AllSecureSubjects() order: one per
 * certified subject, plus Circuit ORAM and an evicting RAW ORAM batch.
 */
std::vector<VerifyConfig> GoldenConfigs();

}  // namespace secemb::verify
