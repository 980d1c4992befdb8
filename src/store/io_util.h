#pragma once

/**
 * @file
 * Helpers shared by the store layer's translation units (backing_store,
 * durable, raw_oram); not part of the public API. IO failures become
 * typed serving::Status values, the fault-injection sites map to the
 * same codes everywhere, and on-disk records are built and parsed in
 * host byte order with bounds-checked reads.
 */

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "serving/status.h"

namespace secemb::store {

/** `what` plus the current errno text, under `code`. */
inline serving::Status
Errno(serving::StatusCode code, const std::string& what)
{
    return serving::Status::Error(code,
                                  what + ": " + std::strerror(errno));
}

/** Injected open failure (FaultSite::kIoOpen). */
inline serving::Status
CheckOpenFault()
{
    if (fault::ShouldInject(fault::FaultSite::kIoOpen)) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "injected open failure");
    }
    return serving::Status::Ok();
}

/** Injected read error (FaultSite::kIoRead — models EIO). */
inline serving::Status
CheckReadFault()
{
    if (fault::ShouldInject(fault::FaultSite::kIoRead)) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "injected read failure (EIO)");
    }
    return serving::Status::Ok();
}

/** Injected write-space exhaustion (FaultSite::kIoWrite — ENOSPC). */
inline serving::Status
CheckWriteFault()
{
    if (fault::ShouldInject(fault::FaultSite::kIoWrite)) {
        return serving::Status::Error(
            serving::StatusCode::kResourceExhausted,
            "injected write failure (ENOSPC)");
    }
    return serving::Status::Ok();
}

inline void
PutBytes(std::vector<uint8_t>* out, const void* data, size_t n)
{
    const size_t off = out->size();
    out->resize(off + n);
    std::memcpy(out->data() + off, data, n);
}

inline void
PutU32(std::vector<uint8_t>* out, uint32_t v)
{
    PutBytes(out, &v, sizeof(v));
}

inline void
PutU64(std::vector<uint8_t>* out, uint64_t v)
{
    PutBytes(out, &v, sizeof(v));
}

inline void
PutI64(std::vector<uint8_t>* out, int64_t v)
{
    PutU64(out, static_cast<uint64_t>(v));
}

template <typename T>
void
PutVec(std::vector<uint8_t>* out, const std::vector<T>& v)
{
    if (!v.empty()) PutBytes(out, v.data(), v.size() * sizeof(T));
}

/** Bounds-checked little reader over a byte buffer. */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size)
    {
    }

    bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
    bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
    bool GetI64(int64_t* v) { return GetRaw(v, sizeof(*v)); }

    template <typename T>
    bool
    GetVec(std::vector<T>* v, size_t count)
    {
        const size_t bytes = count * sizeof(T);
        if (size_ - off_ < bytes) return false;
        v->resize(count);
        if (bytes > 0) std::memcpy(v->data(), data_ + off_, bytes);
        off_ += bytes;
        return true;
    }

    size_t remaining() const { return size_ - off_; }

  private:
    bool
    GetRaw(void* v, size_t bytes)
    {
        if (size_ - off_ < bytes) return false;
        std::memcpy(v, data_ + off_, bytes);
        off_ += bytes;
        return true;
    }

    const uint8_t* data_;
    size_t size_;
    size_t off_ = 0;
};

}  // namespace secemb::store
