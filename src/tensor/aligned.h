#pragma once

/**
 * @file
 * 64-byte-aligned allocation for float buffers.
 *
 * Tensor payloads and packed GEMM panels are cache-line (and AVX-512
 * vector) aligned: the SIMD microkernels can then use full-width loads
 * without split-line penalties, and whole-region trace reporting maps
 * cleanly onto cache-line granularity in the sidechannel models.
 */

#include <cstddef>
#include <new>
#include <vector>

namespace secemb {

inline constexpr std::size_t kTensorAlignment = 64;

/** True if `p` meets the library-wide 64-byte buffer alignment. */
inline bool
IsAligned64(const void* p)
{
    return reinterpret_cast<std::uintptr_t>(p) % kTensorAlignment == 0;
}

/** Minimal allocator handing out 64-byte-aligned storage. */
template <class T>
struct AlignedAllocator64
{
    using value_type = T;

    AlignedAllocator64() = default;
    template <class U>
    AlignedAllocator64(const AlignedAllocator64<U>&)
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(::operator new(
            n * sizeof(T), std::align_val_t{kTensorAlignment}));
    }

    void
    deallocate(T* p, std::size_t n)
    {
        ::operator delete(p, n * sizeof(T),
                          std::align_val_t{kTensorAlignment});
    }

    template <class U>
    bool
    operator==(const AlignedAllocator64<U>&) const
    {
        return true;
    }
};

/** The storage type behind Tensor payloads and GEMM scratch. Packed
 * panels use kernels::PanelAllocator. */
using AlignedFloatVector = std::vector<float, AlignedAllocator64<float>>;

/** Aligned raw storage for quantized (bf16/int8) A-pack scratch. */
using AlignedByteVector =
    std::vector<unsigned char, AlignedAllocator64<unsigned char>>;

}  // namespace secemb
