#pragma once

/**
 * @file
 * Shared configuration and statistics for the tree-based ORAM substrate.
 *
 * Defaults follow the paper (Section V-A1): bucket size Z = 4; stash 150
 * (Path) / 10 (Circuit); recursion after 2^16 blocks (Path) / 2^12
 * (Circuit); position-map reduction 16x per recursion level.
 */

#include <cstdint>

#include "tee/tee_model.h"

namespace secemb::oram {

/** Which tree-ORAM algorithm a TreeOram instance runs. */
enum class OramKind
{
    kPath,
    kCircuit,
};

/** Tunables for one ORAM instance (and, recursively, its position maps). */
struct OramParams
{
    int bucket_capacity = 4;           ///< Z
    int64_t stash_capacity = 150;      ///< blocks held client-side
    int64_t recursion_threshold = 1 << 16;  ///< flat posmap below this
    int posmap_fanout = 16;            ///< posmap entries per posmap block
    bool enable_recursion = true;
    bool inline_select = true;         ///< false models ZT's stub cmov call
    bool encrypt_payloads = true;      ///< CTR re-encryption per path touch
    double ocall_ns = 0.0;             ///< TEE boundary cost per path op

    /** Paper defaults for the given algorithm. */
    static OramParams Defaults(OramKind kind);

    /** Apply a ZeroTrace-variant cost model (Fig. 10 ablation). */
    void ApplyTeeModel(const tee::TeeCostModel& m);
};

/** Running counters, cumulative since construction. */
struct OramStats
{
    int64_t accesses = 0;        ///< logical block accesses
    int64_t bucket_reads = 0;    ///< tree buckets fetched
    int64_t bucket_writes = 0;   ///< tree buckets written back
    int64_t stash_scans = 0;     ///< full stash linear scans
    int64_t ocalls = 0;          ///< modelled enclave crossings
};

}  // namespace secemb::oram
