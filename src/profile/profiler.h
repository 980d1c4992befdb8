#pragma once

/**
 * @file
 * Offline latency profiling (paper Section IV-C1): measure linear scan vs
 * DHE across table sizes for each execution configuration and extract the
 * crossover threshold that drives the hybrid scheme, plus the co-location
 * contention model behind Figs. 8, 9 and 13.
 */

#include <cstdint>
#include <vector>

#include "core/factory.h"
#include "core/hybrid.h"
#include "tensor/rng.h"

namespace secemb::profile {

/** Mean latency (ns) of one batch of embedding generation. */
double MeasureGeneratorLatencyNs(core::EmbeddingGenerator& gen,
                                 int batch_size, Rng& rng, int reps = 3);

/** Grid over which thresholds are profiled. */
struct ProfileConfig
{
    std::vector<int> batch_sizes{8, 32, 128};
    std::vector<int> thread_counts{1, 4};
    /** Table-size grid; the crossover is interpolated between points. */
    std::vector<int64_t> table_sizes{256, 1024, 4096, 16384, 65536};
    int64_t dim = 64;
    int reps = 3;
    bool varied_dhe = false;  ///< profile against DHE Varied instead
};

/** One profiled point: latency of both techniques at one table size. */
struct ProfilePoint
{
    int batch_size;
    int nthreads;
    int64_t table_size;
    double scan_ns;
    double dhe_ns;
};

/** Full profiling result: raw points plus the derived thresholds. */
struct ProfileResult
{
    std::vector<ProfilePoint> points;
    core::ThresholdTable thresholds;
};

/**
 * Run the offline profiling pass (Algorithm 2, offline step 1).
 * Deterministic given rng's seed.
 */
ProfileResult ProfileThresholds(const ProfileConfig& config, Rng& rng);

/**
 * Convenience single-configuration profile: the threshold table for one
 * (batch, threads, dim) point — what a deployment runs at model-load
 * time before constructing hybrid generators.
 */
core::ThresholdTable QuickThresholds(int batch_size, int nthreads,
                                     int64_t dim, bool varied_dhe,
                                     Rng& rng);

/**
 * Analytic co-location contention model.
 *
 * The evaluation host has 4 vCPUs, too few to host the paper's 28-core
 * co-location of up to 24 models (Figs. 8, 9, 13), so those experiments
 * are not timed directly; instead measured single-model latencies are
 * extended with this documented model:
 * oversubscription beyond `cores` timeshares linearly, and each co-located
 * model adds a small interference term — larger for memory-bound
 * techniques (linear scan) than compute-bound ones (DHE), the asymmetry
 * Fig. 8 shows.
 */
struct ContentionModel
{
    int cores = 28;
    double scan_interference = 0.03;  ///< per co-located model
    double dhe_interference = 0.012;

    /** Per-model latency with `copies` identical co-located models. */
    double Latency(double single_ns, int copies, bool memory_bound) const;

    /**
     * Per-model latency in a mixed fleet: `scan_copies` linear-scan models
     * and `dhe_copies` DHE models; returns the latency of one model of the
     * kind selected by `memory_bound`.
     */
    double MixedLatency(double single_ns, int scan_copies, int dhe_copies,
                        bool memory_bound) const;
};

}  // namespace secemb::profile
