/**
 * @file
 * Attack scenario (paper Section III-A): a co-located attacker with
 * eviction sets recovers the victim's embedding index from the shared
 * cache — then fails against each protected generator.
 *
 *   $ ./attack_demo
 */

#include <cstdio>

#include "core/factory.h"
#include "core/table_generators.h"
#include "sidechannel/attacker.h"

using namespace secemb;

namespace {

constexpr int64_t kRows = 256;
constexpr int64_t kDim = 64;
constexpr int kMonitored = 25;

/** One attacked inference: returns the attacker's index guess. */
int64_t
AttackOnce(core::EmbeddingGenerator& victim, uint64_t table_base,
           int64_t secret)
{
    sidechannel::TraceRecorder rec;
    victim.set_recorder(&rec);
    sidechannel::CacheConfig cache_cfg;
    cache_cfg.num_sets = 4096;
    cache_cfg.ways = 12;
    sidechannel::CacheModel cache(cache_cfg);
    sidechannel::EvictionSetAttacker attacker(cache, table_base,
                                              kDim * 4, kMonitored);
    std::vector<int64_t> batch{secret};
    Tensor out({1, kDim});
    victim.Generate(batch, out);
    const auto obs = attacker.Attack(rec.trace(), 10);
    victim.set_recorder(nullptr);
    return obs.guessed_index;
}

}  // namespace

int
main()
{
    std::printf("cache side-channel attack demo (victim: embedding "
                "lookup in a shared-cache machine)\n\n");

    Rng rng(1);
    const Tensor table = Tensor::Randn({kRows, kDim}, rng);
    const int64_t secret = 17;  // e.g. a user's age-bucket feature

    // --- Vulnerable baseline.
    {
        core::TableLookup victim(table);
        const int64_t guess =
            AttackOnce(victim, victim.trace_base(), secret);
        std::printf("non-secure lookup:  secret=%ld  attacker guessed=%ld"
                    "  -> %s\n", secret, guess,
                    guess == secret ? "LEAKED" : "missed");
    }

    // --- Linear scan.
    {
        core::LinearScanTable victim(table);
        const int64_t guess =
            AttackOnce(victim, victim.trace_base(), secret);
        std::printf("linear scan:        secret=%ld  attacker guessed=%ld"
                    "  -> %s\n", secret, guess,
                    guess == secret ? "LEAKED (coincidence)"
                                    : "nothing learned");
    }

    // --- DHE: there is no table in memory at all.
    std::printf("DHE:                no table exists; the trace contains "
                "only fixed-shape GEMMs\n");

    // --- Trace comparison: the formal check behind the demo.
    {
        core::LinearScanTable victim(table);
        sidechannel::TraceRecorder rec;
        victim.set_recorder(&rec);
        Tensor out({1, kDim});
        std::vector<int64_t> a{0};
        victim.Generate(a, out);
        auto trace_a = rec.trace();
        rec.Clear();
        std::vector<int64_t> b{255};
        victim.Generate(b, out);
        const bool identical = trace_a == rec.trace();
        std::printf("\nformal check: linear-scan traces for secrets 0 and "
                    "255 are %s\n",
                    identical ? "IDENTICAL (oblivious)" : "different");
    }
    return 0;
}
