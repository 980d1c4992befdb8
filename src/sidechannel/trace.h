#pragma once

/**
 * @file
 * Memory access trace recording.
 *
 * The original artifact demonstrates leakage on real SGX hardware with a
 * PRIME+SCOPE LLC attack. In this reproduction the victim's memory
 * behaviour is captured as an explicit address trace: every
 * secret-dependent (or, for secure implementations, secret-independent)
 * table/tree access reports the virtual addresses it touches. The trace is
 * then (a) replayed through a cache model for the Fig. 3 attack, and
 * (b) compared across secrets to *prove* obliviousness.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace secemb::sidechannel {

/** A single recorded memory access. */
struct MemoryAccess
{
    uint64_t addr;   ///< virtual byte address
    uint32_t size;   ///< bytes touched contiguously from addr
    bool is_write;

    bool operator==(const MemoryAccess&) const = default;
};

/**
 * Collects the address trace of an instrumented victim.
 *
 * Recording granularity is whatever the instrumented code reports —
 * generators in this library report whole-row or whole-bucket touches,
 * which the cache model later expands into line-granularity accesses
 * (cache-line granularity is what the paper's attack observes).
 */
class TraceRecorder
{
  public:
    void Record(uint64_t addr, uint32_t size, bool is_write)
    {
        trace_.push_back({addr, size, is_write});
    }

    const std::vector<MemoryAccess>& trace() const { return trace_; }
    void Clear() { trace_.clear(); }
    size_t size() const { return trace_.size(); }

    /** Append another recorder's trace in order (e.g. a retry's scratch
     *  buffer once the attempt succeeded). */
    void
    Append(const TraceRecorder& other)
    {
        trace_.insert(trace_.end(), other.trace_.begin(),
                      other.trace_.end());
    }

  private:
    std::vector<MemoryAccess> trace_;
};

/**
 * One reserved trace region: the virtual address range a single
 * instrumented structure (table, tree, stash, ...) reports accesses in.
 */
struct AddressRegion
{
    uint64_t base = 0;
    uint64_t bytes = 0;
    std::string name;  ///< structure kind, e.g. "oram.tree"; may be empty

    bool Contains(uint64_t addr) const
    {
        return addr >= base && addr - base < bytes;
    }
};

/**
 * Allocates non-overlapping virtual address regions so each instrumented
 * table/tree gets a distinct base address, mimicking distinct heap
 * allocations in the real victim.
 *
 * Every reservation is remembered as a named AddressRegion; Find() maps a
 * traced address back to its region, which is what the verify harness's
 * trace canonicalization uses to rebase traces into comparable
 * (region, offset) streams across runs and instances.
 *
 * Thread-safe: reservations and lookups may race (e.g. generators built
 * from pool workers in stress tests).
 */
class AddressSpace
{
  public:
    /**
     * Reserve a region of `bytes`, aligned to `align`; returns the base.
     * `name` labels the region for canonicalization and diagnostics.
     */
    uint64_t Reserve(uint64_t bytes, uint64_t align = 64,
                     std::string_view name = "");

    /**
     * Region containing `addr`, or nullptr if the address was never
     * reserved. The returned pointer stays valid for the lifetime of the
     * AddressSpace (regions are never released).
     */
    const AddressRegion* Find(uint64_t addr) const;

    /** Snapshot of all reservations, in base-address order. */
    std::vector<AddressRegion> Regions() const;

  private:
    mutable std::mutex mu_;
    uint64_t next_ = 0x10000000ULL;
    // Deque-like stability: regions are heap-allocated so Find() results
    // survive later reservations.
    std::vector<std::unique_ptr<AddressRegion>> regions_;
};

/**
 * The process-wide AddressSpace every instrumented generator reserves its
 * trace base from, so bases never collide when traces from different
 * components are merged into one cache-model replay.
 */
AddressSpace& ProcessAddressSpace();

}  // namespace secemb::sidechannel
