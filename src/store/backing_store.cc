#include "store/backing_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <vector>

#include "store/durable.h"
#include "store/io_util.h"
#include "telemetry/telemetry.h"

namespace secemb::store {

namespace {

constexpr char kMagic[8] = {'S', 'E', 'C', 'E', 'M', 'B', 'P', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr int64_t kHeaderFixedBytes = 32;  ///< magic + version + geometry
/** Header flag bit 0: the per-page CRC table is maintained. Every store
 *  sets it, and an open refuses a header without it: the header has no
 *  checksum of its own, so an optional flag would let one flipped bit
 *  switch off the verification of every page. */
constexpr uint32_t kFlagChecksums = 1u;

struct StoreHeader
{
    char magic[8];
    uint32_t version;
    uint32_t flags;  ///< kFlagChecksums
    int64_t page_bytes;
    int64_t num_pages;
};
static_assert(sizeof(StoreHeader) == kHeaderFixedBytes);

int64_t
AlignUp(int64_t v, int64_t align)
{
    return (v + align - 1) / align * align;
}

class MemoryStore final : public BackingStore
{
  public:
    MemoryStore(int64_t page_bytes, int64_t num_pages)
        : BackingStore(page_bytes, num_pages),
          data_(static_cast<size_t>(page_bytes * num_pages), 0)
    {
    }

    serving::Status
    ReadPage(int64_t page, std::span<uint8_t> out) override
    {
        if (auto s = CheckPageArgs(page, out.size()); !s.ok()) return s;
        if (auto s = CheckReadFault(); !s.ok()) return s;
        std::memcpy(out.data(), data_.data() + page * page_bytes_,
                    static_cast<size_t>(page_bytes_));
        return serving::Status::Ok();
    }

    serving::Status
    WritePage(int64_t page, std::span<const uint8_t> in) override
    {
        if (auto s = CheckPageArgs(page, in.size()); !s.ok()) return s;
        if (auto s = CheckWriteFault(); !s.ok()) return s;
        std::memcpy(data_.data() + page * page_bytes_, in.data(),
                    static_cast<size_t>(page_bytes_));
        return serving::Status::Ok();
    }

    serving::Status Sync() override { return serving::Status::Ok(); }
    std::string_view backend_name() const override { return "memory"; }

  private:
    std::vector<uint8_t> data_;
};

/**
 * Shared file-format logic for the file and mmap backends: header
 * management, CRC table, geometry validation.
 */
class FileStoreBase : public BackingStore
{
  public:
    FileStoreBase(const StoreConfig& config, int64_t num_pages)
        : BackingStore(config.page_bytes, num_pages),
          path_(config.path),
          data_offset_(StoreFileDataOffset(config.page_bytes, num_pages))
    {
    }

    ~FileStoreBase() override
    {
        if (fd_ >= 0) ::close(fd_);
    }

    /** Open/create the file and load or initialise the header. */
    serving::Status
    OpenFile(bool create)
    {
        if (auto s = CheckOpenFault(); !s.ok()) return s;
        const int flags = O_RDWR | (create ? O_CREAT | O_TRUNC : 0);
        fd_ = ::open(path_.c_str(), flags, 0644);
        if (fd_ < 0) {
            return Errno(serving::StatusCode::kInternal,
                         "open " + path_);
        }
        if (create) {
            if (auto s = InitialiseFile(); !s.ok()) return s;
            // The new directory entry must itself be durable: without
            // this, a freshly created table can vanish after a crash
            // even though Sync() on the file succeeded.
            return FsyncParentDir(path_);
        }
        if (auto s = LoadHeader(); !s.ok()) {
            // Leave a file this store refused as it was: FileStore's
            // destructor writes the header back, which would stamp this
            // store's geometry and flags over the file's own.
            ::close(fd_);
            fd_ = -1;
            return s;
        }
        return serving::Status::Ok();
    }

  protected:
    serving::Status
    InitialiseFile()
    {
        const int64_t total = data_offset_ + num_pages_ * page_bytes_;
        if (::ftruncate(fd_, total) != 0) {
            return Errno(serving::StatusCode::kResourceExhausted,
                         "ftruncate " + path_);
        }
        // A fresh store is all-zero pages (ftruncate gives sparse zeros).
        crc_.assign(static_cast<size_t>(num_pages_), ZeroPageCrc());
        return WriteHeader(true);
    }

    serving::Status
    LoadHeader()
    {
        StoreHeader h{};
        if (::pread(fd_, &h, sizeof(h), 0) !=
            static_cast<ssize_t>(sizeof(h))) {
            return serving::Status::Error(
                serving::StatusCode::kInternal,
                "short read of store header in " + path_);
        }
        if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0 ||
            h.version != kFormatVersion) {
            return serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                path_ + " is not a secemb page store");
        }
        if ((h.flags & kFlagChecksums) == 0) {
            return serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                "store header of " + path_ +
                    " does not set the page-checksum flag");
        }
        if (h.page_bytes != page_bytes_ || h.num_pages != num_pages_) {
            return serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                "store geometry mismatch in " + path_);
        }
        crc_.assign(static_cast<size_t>(num_pages_), 0);
        const size_t crc_bytes = crc_.size() * sizeof(uint32_t);
        if (crc_bytes > 0 &&
            ::pread(fd_, crc_.data(), crc_bytes, kHeaderFixedBytes) !=
                static_cast<ssize_t>(crc_bytes)) {
            return serving::Status::Error(
                serving::StatusCode::kInternal,
                "short read of checksum table in " + path_);
        }
        return serving::Status::Ok();
    }

    /** Persist the header and CRC table (the store's metadata commit). */
    serving::Status
    WriteHeader(bool with_fault_site)
    {
        if (with_fault_site) {
            if (auto s = CheckWriteFault(); !s.ok()) return s;
        }
        StoreHeader h{};
        std::memcpy(h.magic, kMagic, sizeof(kMagic));
        h.version = kFormatVersion;
        h.flags = kFlagChecksums;
        h.page_bytes = page_bytes_;
        h.num_pages = num_pages_;
        if (::pwrite(fd_, &h, sizeof(h), 0) !=
            static_cast<ssize_t>(sizeof(h))) {
            return Errno(serving::StatusCode::kResourceExhausted,
                         "write store header " + path_);
        }
        const size_t crc_bytes = crc_.size() * sizeof(uint32_t);
        if (crc_bytes > 0 &&
            ::pwrite(fd_, crc_.data(), crc_bytes, kHeaderFixedBytes) !=
                static_cast<ssize_t>(crc_bytes)) {
            return Errno(serving::StatusCode::kResourceExhausted,
                         "write checksum table " + path_);
        }
        return serving::Status::Ok();
    }

    uint32_t
    ZeroPageCrc() const
    {
        const std::vector<uint8_t> zero(
            static_cast<size_t>(page_bytes_), 0);
        return Crc32(zero);
    }

    serving::Status
    VerifyCrc(int64_t page, std::span<const uint8_t> data) const
    {
        const uint32_t got = Crc32(data);
        if (got != crc_[static_cast<size_t>(page)]) {
            return serving::Status::Error(
                serving::StatusCode::kInternal,
                "checksum mismatch on page " + std::to_string(page) +
                    " of " + path_ + " (torn write or corruption)");
        }
        return serving::Status::Ok();
    }

    void
    UpdateCrc(int64_t page, std::span<const uint8_t> data)
    {
        crc_[static_cast<size_t>(page)] = Crc32(data);
    }

    std::string path_;
    int64_t data_offset_;
    int fd_ = -1;
    std::vector<uint32_t> crc_;
};

class FileStore final : public FileStoreBase
{
  public:
    using FileStoreBase::FileStoreBase;

    ~FileStore() override
    {
        // Best-effort metadata flush; no fault sites in a destructor so
        // seeded hit ordinals stay a pure function of the op sequence.
        if (fd_ >= 0) (void)WriteHeader(false);
    }

    serving::Status
    ReadPage(int64_t page, std::span<uint8_t> out) override
    {
        if (auto s = CheckPageArgs(page, out.size()); !s.ok()) return s;
        if (auto s = CheckReadFault(); !s.ok()) return s;
        TELEMETRY_COUNT("store.file.read_pages", 1);
        const ssize_t n = ::pread(fd_, out.data(),
                                  static_cast<size_t>(page_bytes_),
                                  data_offset_ + page * page_bytes_);
        if (n < 0) {
            return Errno(serving::StatusCode::kInternal,
                         "pread " + path_);
        }
        if (n != page_bytes_) {
            return serving::Status::Error(
                serving::StatusCode::kInternal,
                "short read: page " + std::to_string(page) + " of " +
                    path_ + " returned " + std::to_string(n) + "/" +
                    std::to_string(page_bytes_) + " bytes");
        }
        return VerifyCrc(page, {out.data(), out.size()});
    }

    serving::Status
    WritePage(int64_t page, std::span<const uint8_t> in) override
    {
        if (auto s = CheckPageArgs(page, in.size()); !s.ok()) return s;
        if (auto s = CheckWriteFault(); !s.ok()) return s;
        TELEMETRY_COUNT("store.file.write_pages", 1);
        const ssize_t n = ::pwrite(fd_, in.data(),
                                   static_cast<size_t>(page_bytes_),
                                   data_offset_ + page * page_bytes_);
        if (n != page_bytes_) {
            return Errno(serving::StatusCode::kResourceExhausted,
                         "pwrite " + path_);
        }
        UpdateCrc(page, in);
        return serving::Status::Ok();
    }

    serving::Status
    Sync() override
    {
        if (auto s = WriteHeader(true); !s.ok()) return s;
        if (::fsync(fd_) != 0) {
            return Errno(serving::StatusCode::kInternal,
                         "fsync " + path_);
        }
        return serving::Status::Ok();
    }

    std::string_view backend_name() const override { return "file"; }
};

class MmapStore final : public FileStoreBase
{
  public:
    using FileStoreBase::FileStoreBase;

    ~MmapStore() override
    {
        if (map_ != nullptr) {
            SaveCrcToMap();
            ::munmap(map_, static_cast<size_t>(map_bytes_));
        }
    }

    serving::Status
    Map(bool create)
    {
        map_bytes_ = data_offset_ + num_pages_ * page_bytes_;
        if (!create) {
            // A truncated or grown file would SIGBUS through the mapping;
            // validate the size up front and fail typed instead.
            struct stat st{};
            if (::fstat(fd_, &st) != 0) {
                return Errno(serving::StatusCode::kInternal,
                             "fstat " + path_);
            }
            if (st.st_size != map_bytes_) {
                return serving::Status::Error(
                    serving::StatusCode::kInternal,
                    "store file " + path_ + " is " +
                        std::to_string(st.st_size) + " bytes, expected " +
                        std::to_string(map_bytes_) +
                        " (truncated or partially written)");
            }
        }
        void* p = ::mmap(nullptr, static_cast<size_t>(map_bytes_),
                         PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
        if (p == MAP_FAILED) {
            return Errno(serving::StatusCode::kInternal,
                         "mmap " + path_);
        }
        map_ = static_cast<uint8_t*>(p);
        return serving::Status::Ok();
    }

    serving::Status
    ReadPage(int64_t page, std::span<uint8_t> out) override
    {
        if (auto s = CheckPageArgs(page, out.size()); !s.ok()) return s;
        if (auto s = CheckReadFault(); !s.ok()) return s;
        TELEMETRY_COUNT("store.mmap.read_pages", 1);
        const uint8_t* src = map_ + data_offset_ + page * page_bytes_;
        std::memcpy(out.data(), src, static_cast<size_t>(page_bytes_));
        return VerifyCrc(page, {out.data(), out.size()});
    }

    serving::Status
    WritePage(int64_t page, std::span<const uint8_t> in) override
    {
        if (auto s = CheckPageArgs(page, in.size()); !s.ok()) return s;
        if (auto s = CheckWriteFault(); !s.ok()) return s;
        TELEMETRY_COUNT("store.mmap.write_pages", 1);
        std::memcpy(map_ + data_offset_ + page * page_bytes_, in.data(),
                    static_cast<size_t>(page_bytes_));
        UpdateCrc(page, in);
        return serving::Status::Ok();
    }

    serving::Status
    Sync() override
    {
        if (auto s = CheckWriteFault(); !s.ok()) return s;
        SaveCrcToMap();
        if (::msync(map_, static_cast<size_t>(map_bytes_), MS_SYNC) != 0) {
            return Errno(serving::StatusCode::kInternal,
                         "msync " + path_);
        }
        return serving::Status::Ok();
    }

    std::string_view backend_name() const override { return "mmap"; }

  private:
    void
    SaveCrcToMap()
    {
        StoreHeader h{};
        std::memcpy(h.magic, kMagic, sizeof(kMagic));
        h.version = kFormatVersion;
        h.flags = kFlagChecksums;
        h.page_bytes = page_bytes_;
        h.num_pages = num_pages_;
        std::memcpy(map_, &h, sizeof(h));
        if (!crc_.empty()) {
            std::memcpy(map_ + kHeaderFixedBytes, crc_.data(),
                        crc_.size() * sizeof(uint32_t));
        }
    }

    uint8_t* map_ = nullptr;
    int64_t map_bytes_ = 0;
};

}  // namespace

const char*
StoreBackendName(StoreBackend backend)
{
    switch (backend) {
      case StoreBackend::kMemory: return "memory";
      case StoreBackend::kFile: return "file";
      case StoreBackend::kMmap: return "mmap";
    }
    return "unknown";
}

serving::Status
BackingStore::CheckPageArgs(int64_t page, size_t span_bytes) const
{
    if (page < 0 || page >= num_pages_) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "page " + std::to_string(page) + " out of range [0, " +
                std::to_string(num_pages_) + ")");
    }
    if (span_bytes != static_cast<size_t>(page_bytes_)) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "page buffer is " + std::to_string(span_bytes) +
                " bytes, store page is " + std::to_string(page_bytes_));
    }
    return serving::Status::Ok();
}

int64_t
StoreFileDataOffset(int64_t page_bytes, int64_t num_pages)
{
    return AlignUp(kHeaderFixedBytes +
                       num_pages * static_cast<int64_t>(sizeof(uint32_t)),
                   page_bytes);
}

uint32_t
Crc32(std::span<const uint8_t> data)
{
    static const auto table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            }
            t[i] = c;
        }
        return t;
    }();
    uint32_t crc = 0xffffffffu;
    for (const uint8_t b : data) {
        crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
    }
    return crc ^ 0xffffffffu;
}

serving::Status
MakeBackingStore(const StoreConfig& config, int64_t num_pages,
                 std::unique_ptr<BackingStore>* out)
{
    out->reset();
    if (config.page_bytes < 16 || config.page_bytes % 8 != 0) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "page_bytes must be >= 16 and a multiple of 8, got " +
                std::to_string(config.page_bytes));
    }
    if (num_pages <= 0) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "num_pages must be positive, got " +
                std::to_string(num_pages));
    }
    switch (config.backend) {
      case StoreBackend::kMemory:
        if (auto s = CheckOpenFault(); !s.ok()) return s;
        *out = std::make_unique<MemoryStore>(config.page_bytes, num_pages);
        return serving::Status::Ok();
      case StoreBackend::kFile: {
        if (config.path.empty()) {
            return serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                "file backend requires a path");
        }
        auto store = std::make_unique<FileStore>(config, num_pages);
        if (auto s = store->OpenFile(config.create); !s.ok()) return s;
        *out = std::move(store);
        return serving::Status::Ok();
      }
      case StoreBackend::kMmap: {
        if (config.path.empty()) {
            return serving::Status::Error(
                serving::StatusCode::kInvalidArgument,
                "mmap backend requires a path");
        }
        auto store = std::make_unique<MmapStore>(config, num_pages);
        if (auto s = store->OpenFile(config.create); !s.ok()) return s;
        if (auto s = store->Map(config.create); !s.ok()) return s;
        *out = std::move(store);
        return serving::Status::Ok();
      }
    }
    return serving::Status::Error(serving::StatusCode::kInvalidArgument,
                                  "unknown store backend");
}

}  // namespace secemb::store
