#include "store/durable.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "store/backing_store.h"
#include "store/io_util.h"
#include "telemetry/telemetry.h"

namespace secemb::store {

namespace {

constexpr char kJournalMagic[8] = {'S', 'E', 'C', 'E', 'M', 'B', 'J', '1'};
constexpr char kCkptMagic[8] = {'S', 'E', 'C', 'E', 'M', 'B', 'C', '1'};
constexpr uint32_t kRecordMagic = 0x4c4a4553u;  // "SEJL"
constexpr uint32_t kFormatVersion = 1;
constexpr int64_t kJournalHeaderBytes = 40;
constexpr int64_t kRecordHeaderBytes = 24;  // magic + type + seq + len
constexpr int64_t kCkptPrologueBytes = 24;  // magic + version + flags + len
// Sanity bound on a single record payload (an eviction pre-image of a
// deep tree with 4 KiB pages is well under this).
constexpr int64_t kMaxRecordPayload = int64_t{1} << 28;

serving::Status
WriteAll(int fd, const uint8_t* data, size_t size, const std::string& what)
{
    size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            return Errno(serving::StatusCode::kResourceExhausted,
                         "write " + what);
        }
        done += static_cast<size_t>(n);
    }
    return serving::Status::Ok();
}

serving::Status
ReadWholeFile(const std::string& path, std::vector<uint8_t>* out,
              const std::string& what)
{
    if (auto s = CheckOpenFault(); !s.ok()) return s;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return Errno(serving::StatusCode::kInternal,
                     "open " + what + " " + path);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
        const auto s =
            Errno(serving::StatusCode::kInternal, "fstat " + path);
        ::close(fd);
        return s;
    }
    out->resize(static_cast<size_t>(st.st_size));
    size_t done = 0;
    while (done < out->size()) {
        if (auto s = CheckReadFault(); !s.ok()) {
            ::close(fd);
            return s;
        }
        const ssize_t n = ::pread(fd, out->data() + done,
                                  out->size() - done,
                                  static_cast<off_t>(done));
        if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            ::close(fd);
            return Errno(serving::StatusCode::kInternal, "read " + path);
        }
        done += static_cast<size_t>(n);
    }
    ::close(fd);
    return serving::Status::Ok();
}

std::vector<uint8_t>
JournalHeaderBytesFor(uint64_t base_seq, uint64_t geometry_hash)
{
    std::vector<uint8_t> h;
    h.reserve(static_cast<size_t>(kJournalHeaderBytes));
    PutBytes(&h, kJournalMagic, 8);
    PutU32(&h, kFormatVersion);
    PutU32(&h, 0);  // flags
    PutU64(&h, base_seq);
    PutU64(&h, geometry_hash);
    PutU32(&h, Crc32({h.data() + 8, h.size() - 8}));
    PutU32(&h, 0);  // pad to kJournalHeaderBytes
    return h;
}

/** Parse one record at `data`; returns false if damaged/short. */
bool
ParseRecordAt(const uint8_t* data, size_t size, JournalRecord* rec,
              int64_t* frame_bytes)
{
    if (size < static_cast<size_t>(kRecordHeaderBytes + 4)) return false;
    uint32_t magic = 0, type = 0;
    uint64_t seq = 0, payload_bytes = 0;
    std::memcpy(&magic, data, 4);
    std::memcpy(&type, data + 4, 4);
    std::memcpy(&seq, data + 8, 8);
    std::memcpy(&payload_bytes, data + 16, 8);
    if (magic != kRecordMagic) return false;
    if (type != static_cast<uint32_t>(JournalRecordType::kAccess) &&
        type != static_cast<uint32_t>(JournalRecordType::kEvict)) {
        return false;
    }
    if (payload_bytes > static_cast<uint64_t>(kMaxRecordPayload)) {
        return false;
    }
    const size_t frame = static_cast<size_t>(kRecordHeaderBytes) +
                         static_cast<size_t>(payload_bytes) + 4;
    if (size < frame) return false;
    uint32_t crc = 0;
    std::memcpy(&crc, data + kRecordHeaderBytes + payload_bytes, 4);
    // CRC covers type + seq + len + payload (not the magic).
    if (crc != Crc32({data + 4,
                      static_cast<size_t>(kRecordHeaderBytes - 4 +
                                          payload_bytes)})) {
        return false;
    }
    rec->type = static_cast<JournalRecordType>(type);
    rec->seq = seq;
    rec->payload.assign(data + kRecordHeaderBytes,
                        data + kRecordHeaderBytes + payload_bytes);
    *frame_bytes = static_cast<int64_t>(frame);
    return true;
}

// Crash plan: process-local, survives fork() (the harness arms it in the
// child after forking; no exec happens).
std::atomic<int> g_crash_site{0};
std::atomic<int64_t> g_crash_countdown{0};

}  // namespace

void
SetCrashPlanForTest(CrashSite site, int64_t countdown)
{
    g_crash_countdown.store(countdown, std::memory_order_relaxed);
    g_crash_site.store(static_cast<int>(site), std::memory_order_relaxed);
}

void
ClearCrashPlanForTest()
{
    g_crash_site.store(0, std::memory_order_relaxed);
    g_crash_countdown.store(0, std::memory_order_relaxed);
}

bool
CrashHit(CrashSite site)
{
    if (g_crash_site.load(std::memory_order_relaxed) !=
        static_cast<int>(site)) {
        return false;
    }
    return g_crash_countdown.fetch_sub(1, std::memory_order_relaxed) == 1;
}

void
CrashNowForTest()
{
    ::raise(SIGKILL);
    ::_exit(137);  // unreachable; SIGKILL cannot be handled
}

void
MaybeCrash(CrashSite site)
{
    if (CrashHit(site)) CrashNowForTest();
}

serving::Status
FsyncDir(const std::string& dir_path)
{
    const int fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        return Errno(serving::StatusCode::kInternal,
                     "open dir " + dir_path);
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        return Errno(serving::StatusCode::kInternal,
                     "fsync dir " + dir_path);
    }
    return serving::Status::Ok();
}

serving::Status
FsyncParentDir(const std::string& file_path)
{
    std::string dir =
        std::filesystem::path(file_path).parent_path().string();
    if (dir.empty()) dir = ".";
    return FsyncDir(dir);
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

int64_t
JournalFileHeaderBytes()
{
    return kJournalHeaderBytes;
}

int64_t
JournalRecordBytes(int64_t payload_bytes)
{
    return kRecordHeaderBytes + payload_bytes + 4;
}

int64_t
JournalAccessPayloadBytes(int64_t block_words)
{
    return 8 + 4 + 4 + 4 * block_words;  // id + leaf + op + payload
}

int64_t
JournalEvictPayloadBytes(int64_t path_slots, int64_t block_words)
{
    // evict_counter + leaf + pad, then per path slot: id + leaf + payload.
    return 8 + 4 + 4 + path_slots * (8 + 4 + 4 * block_words);
}

void
AppendJournalRecordBytes(std::vector<uint8_t>* out, JournalRecordType type,
                         uint64_t seq, std::span<const uint8_t> payload)
{
    const size_t body_start = out->size() + 4;
    PutU32(out, kRecordMagic);
    PutU32(out, static_cast<uint32_t>(type));
    PutU64(out, seq);
    PutU64(out, static_cast<uint64_t>(payload.size()));
    out->insert(out->end(), payload.begin(), payload.end());
    PutU32(out, Crc32({out->data() + body_start,
                       out->size() - body_start}));
}

Journal::~Journal()
{
    Close();
}

void
Journal::Close()
{
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

serving::Status
Journal::Reset(const std::string& path, uint64_t base_seq,
               uint64_t geometry_hash)
{
    Close();
    const std::string tmp = path + ".tmp";
    if (auto s = CheckOpenFault(); !s.ok()) return s;
    const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return Errno(serving::StatusCode::kInternal, "open " + tmp);
    }
    const std::vector<uint8_t> header =
        JournalHeaderBytesFor(base_seq, geometry_hash);
    if (auto s = CheckWriteFault(); !s.ok()) {
        ::close(fd);
        return s;
    }
    if (auto s = WriteAll(fd, header.data(), header.size(), tmp);
        !s.ok()) {
        ::close(fd);
        return s;
    }
    if (::fsync(fd) != 0) {
        const auto s =
            Errno(serving::StatusCode::kInternal, "fsync " + tmp);
        ::close(fd);
        return s;
    }
    // Atomic swap: the old journal (full records) or the fresh one; a
    // crash anywhere in between leaves a valid state either way. The fd
    // follows the inode through the rename, so appends continue on it.
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const auto s = Errno(serving::StatusCode::kInternal,
                             "rename " + tmp + " -> " + path);
        ::close(fd);
        return s;
    }
    if (auto s = FsyncParentDir(path); !s.ok()) {
        ::close(fd);
        return s;
    }
    fd_ = fd;
    path_ = path;
    base_seq_ = base_seq;
    records_ = 0;
    bytes_ = 0;
    return serving::Status::Ok();
}

serving::Status
Journal::OpenForAppend(const std::string& path, int64_t records,
                       int64_t bytes)
{
    Close();
    if (auto s = CheckOpenFault(); !s.ok()) return s;
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0) {
        return Errno(serving::StatusCode::kInternal, "open " + path);
    }
    uint8_t header[kJournalHeaderBytes];
    if (::pread(fd, header, sizeof(header), 0) !=
        static_cast<ssize_t>(sizeof(header))) {
        ::close(fd);
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "short journal header in " + path);
    }
    if (std::memcmp(header, kJournalMagic, 8) != 0) {
        ::close(fd);
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      path + " is not a secemb journal");
    }
    uint64_t base_seq = 0;
    std::memcpy(&base_seq, header + 16, 8);
    // Discard anything past the valid prefix (a dropped torn tail): new
    // appends must not leave stale bytes that a later recovery could
    // misread as corruption-with-valid-records-beyond.
    const int64_t valid_end = kJournalHeaderBytes + bytes;
    if (::ftruncate(fd, valid_end) != 0) {
        const auto s = Errno(serving::StatusCode::kInternal,
                             "ftruncate " + path);
        ::close(fd);
        return s;
    }
    if (::lseek(fd, valid_end, SEEK_SET) < 0) {
        const auto s =
            Errno(serving::StatusCode::kInternal, "lseek " + path);
        ::close(fd);
        return s;
    }
    fd_ = fd;
    path_ = path;
    base_seq_ = base_seq;
    records_ = records;
    bytes_ = bytes;
    return serving::Status::Ok();
}

serving::Status
Journal::Append(JournalRecordType type, uint64_t seq,
                std::span<const uint8_t> payload)
{
    if (fd_ < 0) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "journal is not open");
    }
    if (auto s = CheckWriteFault(); !s.ok()) return s;
    std::vector<uint8_t> frame;
    frame.reserve(static_cast<size_t>(
        JournalRecordBytes(static_cast<int64_t>(payload.size()))));
    AppendJournalRecordBytes(&frame, type, seq, payload);
    if (CrashHit(CrashSite::kJournalAppendPartial)) {
        // The torn-tail state a real crash leaves: half a record at the
        // end of the file, nothing valid beyond it.
        (void)WriteAll(fd_, frame.data(), frame.size() / 2, path_);
        CrashNowForTest();
    }
    if (auto s = WriteAll(fd_, frame.data(), frame.size(), path_);
        !s.ok()) {
        return s;
    }
    if (::fsync(fd_) != 0) {
        return Errno(serving::StatusCode::kInternal, "fsync " + path_);
    }
    MaybeCrash(CrashSite::kJournalAppendAfter);
    records_++;
    bytes_ += static_cast<int64_t>(frame.size());
    TELEMETRY_COUNT("store.ckpt.journal_records", 1);
    return serving::Status::Ok();
}

serving::Status
LoadJournal(const std::string& path, uint64_t geometry_hash,
            uint64_t skip_through, JournalLoadResult* out)
{
    *out = JournalLoadResult{};
    std::vector<uint8_t> bytes;
    if (auto s = ReadWholeFile(path, &bytes, "journal"); !s.ok()) {
        return s;
    }
    if (bytes.size() < static_cast<size_t>(kJournalHeaderBytes)) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      "short journal header in " + path);
    }
    if (std::memcmp(bytes.data(), kJournalMagic, 8) != 0) {
        return serving::Status::Error(serving::StatusCode::kInternal,
                                      path + " is not a secemb journal");
    }
    uint32_t version = 0, header_crc = 0;
    uint64_t base_seq = 0, geom = 0;
    std::memcpy(&version, bytes.data() + 8, 4);
    std::memcpy(&base_seq, bytes.data() + 16, 8);
    std::memcpy(&geom, bytes.data() + 24, 8);
    std::memcpy(&header_crc, bytes.data() + 32, 4);
    if (version != kFormatVersion ||
        header_crc != Crc32({bytes.data() + 8, 24})) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "journal header corrupt in " + path);
    }
    if (geom != geometry_hash) {
        return serving::Status::Error(
            serving::StatusCode::kInvalidArgument,
            "journal geometry mismatch in " + path);
    }
    if (base_seq > skip_through) {
        // The journal claims a newer base than the checkpoint covers:
        // the checkpoint that reset it is missing — fail closed.
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "journal base seq " + std::to_string(base_seq) +
                " is ahead of checkpoint seq " +
                std::to_string(skip_through) + " in " + path);
    }
    out->base_seq = base_seq;

    size_t off = static_cast<size_t>(kJournalHeaderBytes);
    uint64_t expected = base_seq + 1;
    while (off < bytes.size()) {
        JournalRecord rec;
        int64_t frame = 0;
        if (ParseRecordAt(bytes.data() + off, bytes.size() - off, &rec,
                          &frame)) {
            if (rec.seq != expected) {
                return serving::Status::Error(
                    serving::StatusCode::kInternal,
                    "journal sequence discontinuity in " + path +
                        ": record " + std::to_string(rec.seq) +
                        " where " + std::to_string(expected) +
                        " was expected (duplicate or reordered)");
            }
            expected++;
            if (rec.seq <= skip_through) {
                out->skipped++;
            } else {
                out->records.push_back(std::move(rec));
            }
            off += static_cast<size_t>(frame);
            continue;
        }
        // Damaged record. Legal only as the file's final record: scan
        // forward — any fully valid record beyond it means mid-journal
        // corruption, which must fail closed.
        for (size_t probe = off + 1; probe < bytes.size(); ++probe) {
            JournalRecord probe_rec;
            int64_t probe_frame = 0;
            if (ParseRecordAt(bytes.data() + probe, bytes.size() - probe,
                              &probe_rec, &probe_frame)) {
                return serving::Status::Error(
                    serving::StatusCode::kInternal,
                    "corrupt journal record at offset " +
                        std::to_string(off) + " of " + path +
                        " with valid records beyond it");
            }
        }
        out->dropped_tail = true;
        out->dropped_tail_bytes = static_cast<int64_t>(bytes.size() - off);
        break;
    }
    out->file_bytes = static_cast<int64_t>(off);
    return serving::Status::Ok();
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

uint64_t
DurableGeometryHash(const CheckpointData& d)
{
    uint64_t h = 0x9e3779b97f4a7c15ull;
    for (const int64_t v :
         {d.num_blocks, d.block_words, d.bucket_slots, d.levels,
          d.stash_capacity, d.eviction_period}) {
        h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
             (h >> 2);
    }
    return h;
}

int64_t
CheckpointSerializedBytes(int64_t num_blocks, int64_t block_words,
                          int64_t bucket_slots, int64_t levels,
                          int64_t stash_capacity)
{
    const int64_t num_buckets = 2 * (int64_t{1} << levels) - 1;
    const int64_t scalars = 11 * 8;  // 6 geometry + 3 u64 + 2 counters
    const int64_t posmap = 4 * num_blocks;
    const int64_t slots = num_buckets * bucket_slots * (8 + 4);
    const int64_t stash =
        stash_capacity * (8 + 4 + 4 * block_words);
    const int64_t versions = 8 * num_buckets;
    return kCkptPrologueBytes + scalars + posmap + slots + stash +
           versions + 4;  // trailing CRC
}

namespace {

std::vector<uint8_t>
SerializeCheckpoint(const CheckpointData& d, bool sparse)
{
    std::vector<uint8_t> payload;
    PutI64(&payload, d.num_blocks);
    PutI64(&payload, d.block_words);
    PutI64(&payload, d.bucket_slots);
    PutI64(&payload, d.levels);
    PutI64(&payload, d.stash_capacity);
    PutI64(&payload, d.eviction_period);
    PutU64(&payload, d.cipher_seed);
    PutU64(&payload, d.evict_counter);
    PutU64(&payload, d.last_seq);
    PutI64(&payload, d.accesses);
    PutI64(&payload, d.evictions);
    PutVec(&payload, d.posmap_leaves);
    PutVec(&payload, d.slot_id);
    PutVec(&payload, d.slot_leaf);
    if (!sparse) {
        // Full sweep: every stash slot, occupied or dummy — the
        // checkpoint size is a constant of the geometry.
        PutVec(&payload, d.stash_id);
        PutVec(&payload, d.stash_leaf);
        PutVec(&payload, d.stash_data);
    } else {
        // NEGATIVE CONTROL: size depends on (secret) stash occupancy.
        uint64_t occupied = 0;
        for (const uint64_t id : d.stash_id) {
            if (id != ~uint64_t{0}) ++occupied;
        }
        PutU64(&payload, occupied);
        for (size_t s = 0; s < d.stash_id.size(); ++s) {
            if (d.stash_id[s] == ~uint64_t{0}) continue;
            PutU64(&payload, d.stash_id[s]);
            PutU32(&payload, d.stash_leaf[s]);
            for (int64_t w = 0; w < d.block_words; ++w) {
                PutU32(&payload,
                       d.stash_data[s * static_cast<size_t>(
                                            d.block_words) +
                                    static_cast<size_t>(w)]);
            }
        }
    }
    PutVec(&payload, d.bucket_version);

    std::vector<uint8_t> file;
    file.reserve(payload.size() +
                 static_cast<size_t>(kCkptPrologueBytes) + 4);
    PutBytes(&file, kCkptMagic, 8);
    PutU32(&file, kFormatVersion);
    PutU32(&file, sparse ? 1u : 0u);
    PutU64(&file, static_cast<uint64_t>(payload.size()));
    file.insert(file.end(), payload.begin(), payload.end());
    PutU32(&file, Crc32(payload));
    return file;
}

}  // namespace

serving::Status
WriteCheckpointAtomic(const std::string& path, const CheckpointData& data,
                      bool sparse_negative_control, int64_t* bytes_out)
{
    const std::vector<uint8_t> file =
        SerializeCheckpoint(data, sparse_negative_control);
    if (bytes_out != nullptr) {
        *bytes_out = static_cast<int64_t>(file.size());
    }
    const std::string tmp = path + ".tmp";
    if (auto s = CheckOpenFault(); !s.ok()) return s;
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        return Errno(serving::StatusCode::kInternal, "open " + tmp);
    }
    if (auto s = CheckWriteFault(); !s.ok()) {
        ::close(fd);
        return s;
    }
    if (CrashHit(CrashSite::kCheckpointTempPartial)) {
        // Torn temp file; the live checkpoint is untouched.
        (void)WriteAll(fd, file.data(), file.size() / 2, tmp);
        CrashNowForTest();
    }
    if (auto s = WriteAll(fd, file.data(), file.size(), tmp); !s.ok()) {
        ::close(fd);
        return s;
    }
    if (::fsync(fd) != 0) {
        const auto s =
            Errno(serving::StatusCode::kInternal, "fsync " + tmp);
        ::close(fd);
        return s;
    }
    ::close(fd);
    MaybeCrash(CrashSite::kCheckpointTempBeforeRename);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        return Errno(serving::StatusCode::kInternal,
                     "rename " + tmp + " -> " + path);
    }
    return FsyncParentDir(path);
}

serving::Status
ReadCheckpoint(const std::string& path, CheckpointData* out)
{
    std::vector<uint8_t> bytes;
    if (auto s = ReadWholeFile(path, &bytes, "checkpoint"); !s.ok()) {
        return s;
    }
    if (bytes.size() < static_cast<size_t>(kCkptPrologueBytes) + 4 ||
        std::memcmp(bytes.data(), kCkptMagic, 8) != 0) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            path + " is not a secemb checkpoint");
    }
    uint32_t version = 0, flags = 0;
    uint64_t payload_bytes = 0;
    std::memcpy(&version, bytes.data() + 8, 4);
    std::memcpy(&flags, bytes.data() + 12, 4);
    std::memcpy(&payload_bytes, bytes.data() + 16, 8);
    if (version != kFormatVersion) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "unsupported checkpoint version in " + path);
    }
    if ((flags & 1u) != 0) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "refusing sparse (negative-control) checkpoint " + path);
    }
    if (bytes.size() != static_cast<size_t>(kCkptPrologueBytes) +
                            payload_bytes + 4) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "checkpoint " + path + " is torn or truncated (" +
                std::to_string(bytes.size()) + " bytes)");
    }
    const uint8_t* payload = bytes.data() + kCkptPrologueBytes;
    uint32_t crc = 0;
    std::memcpy(&crc, payload + payload_bytes, 4);
    if (crc != Crc32({payload, payload_bytes})) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "checkpoint CRC mismatch in " + path +
                " (torn write or corruption)");
    }

    CheckpointData d;
    ByteReader r(payload, payload_bytes);
    bool ok = r.GetI64(&d.num_blocks) && r.GetI64(&d.block_words) &&
              r.GetI64(&d.bucket_slots) && r.GetI64(&d.levels) &&
              r.GetI64(&d.stash_capacity) &&
              r.GetI64(&d.eviction_period) && r.GetU64(&d.cipher_seed) &&
              r.GetU64(&d.evict_counter) && r.GetU64(&d.last_seq) &&
              r.GetI64(&d.accesses) && r.GetI64(&d.evictions);
    if (ok) {
        if (d.num_blocks <= 0 || d.block_words <= 0 ||
            d.bucket_slots <= 0 || d.levels < 0 || d.levels > 40 ||
            d.stash_capacity <= 0 || d.eviction_period <= 0) {
            ok = false;
        }
    }
    if (ok) {
        const int64_t nb = d.num_buckets();
        const auto slots =
            static_cast<size_t>(nb * d.bucket_slots);
        ok = r.GetVec(&d.posmap_leaves,
                      static_cast<size_t>(d.num_blocks)) &&
             r.GetVec(&d.slot_id, slots) &&
             r.GetVec(&d.slot_leaf, slots) &&
             r.GetVec(&d.stash_id,
                      static_cast<size_t>(d.stash_capacity)) &&
             r.GetVec(&d.stash_leaf,
                      static_cast<size_t>(d.stash_capacity)) &&
             r.GetVec(&d.stash_data,
                      static_cast<size_t>(d.stash_capacity *
                                          d.block_words)) &&
             r.GetVec(&d.bucket_version, static_cast<size_t>(nb)) &&
             r.remaining() == 0;
    }
    if (!ok) {
        return serving::Status::Error(
            serving::StatusCode::kInternal,
            "checkpoint " + path + " failed structural validation");
    }
    *out = std::move(d);
    return serving::Status::Ok();
}

}  // namespace secemb::store
