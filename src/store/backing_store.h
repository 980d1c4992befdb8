#pragma once

/**
 * @file
 * Pluggable page-granular backing stores for out-of-core oblivious tables
 * (modeled on FEDORA-OramSim's disk_memory / memory_adapters design).
 *
 * A BackingStore is an array of fixed-size pages addressed by page index.
 * Page size is chosen so one ORAM bucket or one scan stripe costs exactly
 * one page — the page-fetch schedule is the out-of-core side channel, and
 * the layers above (store::PagedTable, store::RawOram) keep that schedule
 * secret-independent.
 *
 * Three backends:
 *   - MemoryStore : heap-resident (tests, verify harness)
 *   - FileStore   : pread/pwrite on a flat file
 *   - MmapStore   : the same file format through a shared mapping
 *
 * Every IO failure surfaces as a typed serving::Status, never an untyped
 * exception: chaos tests assert on status codes per fault class
 * (src/fault IO sites + CorruptFileBytes / TruncateFile). File-backed
 * stores maintain a per-page CRC32 table in the file header, so torn
 * writes and bit flips are detected as kInternal checksum mismatches on
 * the next read instead of silently corrupting embeddings.
 */

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serving/status.h"

namespace secemb::store {

/** Which BackingStore implementation a StoreConfig selects. */
enum class StoreBackend
{
    kMemory,  ///< heap-resident pages
    kFile,    ///< flat file via pread/pwrite
    kMmap,    ///< flat file via a shared mapping
};

/** Stable CLI name: "memory", "file", "mmap". */
const char* StoreBackendName(StoreBackend backend);

/** Configuration for a backing store and the page cache above it. */
struct StoreConfig
{
    StoreBackend backend = StoreBackend::kMemory;
    /** Store file path (file/mmap backends). */
    std::string path;
    /** Bytes per page; one ORAM bucket / scan stripe = one page. */
    int64_t page_bytes = 4096;
    /** Page-cache capacity in pages (the bounded in-RAM working set). */
    int64_t cache_pages = 64;
    /** true: create/truncate the file; false: open an existing store and
     *  validate its header against page_bytes / num_pages. */
    bool create = true;
};

/**
 * Exception bridge for callers whose interface cannot return a Status
 * (EmbeddingGenerator::Generate): store layers throw StoreError carrying
 * the typed status, and the serving layer maps it back to the status
 * code, so chaos tests see the same typed outcome either way.
 */
class StoreError : public std::runtime_error
{
  public:
    explicit StoreError(serving::Status status)
        : std::runtime_error(status.ToString()), status_(std::move(status))
    {
    }

    const serving::Status& status() const { return status_; }

  private:
    serving::Status status_;
};

/** Throw StoreError(status) unless status.ok(). */
inline void
ThrowIfError(const serving::Status& status)
{
    if (!status.ok()) throw StoreError(status);
}

/** An array of `num_pages` pages of `page_bytes` each. */
class BackingStore
{
  public:
    virtual ~BackingStore() = default;

    int64_t page_bytes() const { return page_bytes_; }
    int64_t num_pages() const { return num_pages_; }

    /** Read page `page` into out (exactly page_bytes). */
    virtual serving::Status ReadPage(int64_t page,
                                     std::span<uint8_t> out) = 0;

    /** Write page `page` from in (exactly page_bytes). */
    virtual serving::Status WritePage(int64_t page,
                                      std::span<const uint8_t> in) = 0;

    /** Flush buffered state (checksum table, dirty mapping) durably. */
    virtual serving::Status Sync() = 0;

    /** Backend name for reports ("memory", "file", "mmap"). */
    virtual std::string_view backend_name() const = 0;

  protected:
    BackingStore(int64_t page_bytes, int64_t num_pages)
        : page_bytes_(page_bytes), num_pages_(num_pages)
    {
    }

    /** Shared bounds/size validation for Read/WritePage. */
    serving::Status CheckPageArgs(int64_t page, size_t span_bytes) const;

    int64_t page_bytes_;
    int64_t num_pages_;
};

/**
 * Build the configured backend sized at `num_pages` pages. On failure the
 * status is typed: kInvalidArgument for bad geometry or a header mismatch,
 * kInternal for open/IO failures (including the injected kIoOpen fault),
 * kResourceExhausted when the file cannot be grown.
 */
serving::Status MakeBackingStore(const StoreConfig& config,
                                 int64_t num_pages,
                                 std::unique_ptr<BackingStore>* out);

/** CRC32 (IEEE, reflected) of a byte span — the per-page checksum. */
uint32_t Crc32(std::span<const uint8_t> data);

/** Offset of the first data page in the store file format (the header
 *  with magic + geometry + CRC table, rounded up to page alignment). */
int64_t StoreFileDataOffset(int64_t page_bytes, int64_t num_pages);

}  // namespace secemb::store
