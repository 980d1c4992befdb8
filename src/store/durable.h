#pragma once

/**
 * @file
 * Durable-state subsystem for the out-of-core oblivious tier: sealed
 * checkpoints of RAW ORAM client metadata plus a bounded write-ahead
 * journal of per-access deltas, so a SIGKILL'd process can reinterpret a
 * perfectly intact on-disk table instead of stranding it.
 *
 * Two files live next to the page store:
 *
 *   ckpt.bin     The full client state (posmap leaves, slot metadata,
 *                the ENTIRE stash including dummy slots, bucket versions,
 *                cipher seed, counters) serialized as one CRC-framed
 *                record and committed atomically: write a temp file,
 *                fsync it, rename over the live checkpoint, fsync the
 *                parent directory. Every checkpoint is a full sweep of
 *                fixed-size sections, so checkpoint size and write
 *                schedule are PUBLIC CONSTANTS of the geometry —
 *                independent of stash occupancy or access history (the
 *                side-channel obligation persistence adds; see DESIGN.md
 *                "Durability & crash recovery").
 *
 *   journal.bin  Append-only records framed
 *                [magic][type][seq][len][payload][crc32] with strictly
 *                monotonic sequence numbers. An access record carries the
 *                (id, new_leaf, op, payload) delta — payload included for
 *                reads too, because a RAW read moves the block into the
 *                RAM stash and invalidates the on-disk copy. An eviction
 *                record carries the decrypted pre-image of the pulled
 *                path, journaled BEFORE any page write-back, so replay
 *                re-executes the deterministic repack/re-encrypt/write
 *                idempotently without journaling page images. The journal
 *                is reset atomically (temp+rename) after each checkpoint;
 *                its length is bounded by kJournalLimit records, and each
 *                record is fsynced before its access returns.
 *
 * Recovery loads the checkpoint, verifies its CRC, replays the journal
 * with strict sequence continuity, and fails closed with typed
 * serving::Status errors on a torn checkpoint, a corrupt mid-journal
 * record, or a duplicated/reordered sequence number. Only a damaged
 * FINAL record with nothing valid beyond it is treated as a droppable
 * tail — the one state a single-appender crash can legally leave, and
 * side-effect-free by construction (page writes are ordered after their
 * record's fsync).
 *
 * Crash sites (SetCrashPlanForTest) let the kill-based harness SIGKILL
 * the process deterministically mid-journal-append or mid-checkpoint;
 * the IO paths also check the src/fault kIoOpen/kIoRead/kIoWrite sites
 * so the chaos matrix covers torn/short/failed checkpoint writes.
 */

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serving/status.h"

namespace secemb::store {

/** Journal records before a checkpoint is forced (the bounded WAL). */
constexpr int64_t kJournalLimit = 4096;

/** Durability tunables for one RawOram instance (part of RawOramConfig). */
struct DurabilityConfig
{
    /** Directory for ckpt.bin / journal.bin; empty = durability off. */
    std::string dir;
    /** Accesses between automatic checkpoints (0 = only kJournalLimit
     *  and explicit Checkpoint() calls trigger one). */
    int64_t checkpoint_interval = 0;
    /**
     * NEGATIVE CONTROL (leakage tests only): checkpoint only the
     * occupied stash entries instead of the full fixed-size sweep. The
     * checkpoint size then depends on the secret duplicate structure of
     * the access history — exactly the leak the full-sweep format
     * exists to prevent — and the statistical verify engine must reject
     * it. Such checkpoints are refused at recovery.
     */
    bool unsafe_sparse_checkpoint = false;

    bool enabled() const { return !dir.empty(); }
};

/** What recovery found and did (also surfaced by RawOram::Recover). */
struct RecoveryStats
{
    uint64_t checkpoint_seq = 0;   ///< last seq covered by the checkpoint
    uint64_t last_seq = 0;         ///< last seq after journal replay
    int64_t replayed_accesses = 0;
    int64_t replayed_evictions = 0;
    int64_t skipped_records = 0;   ///< seq <= checkpoint_seq (pre-reset)
    bool dropped_tail = false;     ///< damaged final record discarded
    int64_t dropped_tail_bytes = 0;
};

/** fsync an open-able directory so a create/rename inside it is durable. */
serving::Status FsyncDir(const std::string& dir_path);

/** FsyncDir of the directory containing `file_path`. */
serving::Status FsyncParentDir(const std::string& file_path);

// ---------------------------------------------------------------------------
// Crash sites: deterministic SIGKILL points for the kill-based harness.
// ---------------------------------------------------------------------------

enum class CrashSite : int
{
    kNone = 0,
    kJournalAppendPartial,        ///< half the record written, then kill
    kJournalAppendAfter,          ///< record durable, ack not yet sent
    kCheckpointTempPartial,       ///< half the temp checkpoint, then kill
    kCheckpointTempBeforeRename,  ///< temp durable, rename not done
    kCheckpointAfterRename,       ///< renamed, journal not yet reset
    kEvictAfterJournal,           ///< evict record durable, no page writes
    kEvictMidPages,               ///< one path page written, rest not
    kCount,
};

/**
 * Arm one crash site: the `countdown`-th hit raises SIGKILL (countdown 1
 * = first hit). Survives fork(); the harness arms it in the child. Plans
 * are process-local and cleared by ClearCrashPlanForTest().
 */
void SetCrashPlanForTest(CrashSite site, int64_t countdown);
void ClearCrashPlanForTest();

/** True (and consumes the hit) iff the armed plan fires at `site` now.
 *  Partial-write sites use the return value to write half, then call
 *  CrashNowForTest(); whole-op sites pass kill_immediately = true. */
bool CrashHit(CrashSite site);
[[noreturn]] void CrashNowForTest();

/** CrashHit + immediate SIGKILL — for sites with no partial write. */
void MaybeCrash(CrashSite site);

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

enum class JournalRecordType : uint32_t
{
    kAccess = 1,
    kEvict = 2,
};

/** Fixed framing sizes (public constants; tests craft records with them). */
int64_t JournalFileHeaderBytes();
int64_t JournalRecordBytes(int64_t payload_bytes);
/** Payload size of an access record for a given block width. */
int64_t JournalAccessPayloadBytes(int64_t block_words);
/** Payload size of an eviction record: (levels+1)*Z path-slot entries. */
int64_t JournalEvictPayloadBytes(int64_t path_slots, int64_t block_words);

/** Serialize one framed record (exposed so tests can craft journals). */
void AppendJournalRecordBytes(std::vector<uint8_t>* out,
                              JournalRecordType type, uint64_t seq,
                              std::span<const uint8_t> payload);

/**
 * Append-side handle on journal.bin. Reset() atomically replaces the file
 * with a fresh header (temp + fsync + rename + fsync-dir) and keeps the
 * fd open for appends; OpenForAppend() resumes an existing journal after
 * recovery.
 */
class Journal
{
  public:
    Journal() = default;
    ~Journal();
    Journal(const Journal&) = delete;
    Journal& operator=(const Journal&) = delete;

    serving::Status Reset(const std::string& path, uint64_t base_seq,
                          uint64_t geometry_hash);
    serving::Status OpenForAppend(const std::string& path,
                                  int64_t records, int64_t bytes);
    /** Append one record and fsync it: an acknowledged access is never
     *  lost. */
    serving::Status Append(JournalRecordType type, uint64_t seq,
                           std::span<const uint8_t> payload);

    bool open() const { return fd_ >= 0; }
    uint64_t base_seq() const { return base_seq_; }
    int64_t records() const { return records_; }
    /** File bytes past the header (the public journal write cursor). */
    int64_t bytes() const { return bytes_; }

  private:
    void Close();

    int fd_ = -1;
    std::string path_;
    uint64_t base_seq_ = 0;
    int64_t records_ = 0;
    int64_t bytes_ = 0;
};

/** One parsed journal record. */
struct JournalRecord
{
    JournalRecordType type = JournalRecordType::kAccess;
    uint64_t seq = 0;
    std::vector<uint8_t> payload;
};

/** Result of loading a journal for replay. */
struct JournalLoadResult
{
    uint64_t base_seq = 0;
    std::vector<JournalRecord> records;  ///< seq > skip_through, contiguous
    int64_t skipped = 0;                 ///< records with seq <= skip_through
    bool dropped_tail = false;
    int64_t dropped_tail_bytes = 0;
    int64_t file_bytes = 0;              ///< valid prefix incl. header
};

/**
 * Parse journal.bin. Records with seq <= `skip_through` are skipped (the
 * crash-between-checkpoint-rename-and-journal-reset window); the first
 * kept record must be skip_through+1 and each next exactly +1, else
 * kInternal. A damaged record is a droppable tail only if no valid record
 * exists beyond it; otherwise kInternal (mid-journal corruption).
 * `geometry_hash` must match the header's.
 */
serving::Status LoadJournal(const std::string& path, uint64_t geometry_hash,
                            uint64_t skip_through, JournalLoadResult* out);

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

/** The complete RAM-authoritative client state of one RawOram. */
struct CheckpointData
{
    // Geometry (validated against the recovering instance).
    int64_t num_blocks = 0;
    int64_t block_words = 0;
    int64_t bucket_slots = 0;
    int64_t levels = 0;
    int64_t stash_capacity = 0;
    int64_t eviction_period = 0;

    uint64_t cipher_seed = 0;
    uint64_t evict_counter = 0;
    uint64_t last_seq = 0;  ///< journal records <= this are in the state
    int64_t accesses = 0;
    int64_t evictions = 0;

    std::vector<uint32_t> posmap_leaves;   ///< num_blocks
    std::vector<uint64_t> slot_id;         ///< num_buckets * Z
    std::vector<uint32_t> slot_leaf;       ///< num_buckets * Z
    std::vector<uint64_t> stash_id;        ///< stash_capacity (full sweep)
    std::vector<uint32_t> stash_leaf;      ///< stash_capacity
    std::vector<uint32_t> stash_data;      ///< stash_capacity * block_words
    std::vector<uint64_t> bucket_version;  ///< num_buckets

    int64_t num_buckets() const { return 2 * (int64_t{1} << levels) - 1; }
};

/** Hash of the geometry fields (binds journal to checkpoint format). */
uint64_t DurableGeometryHash(const CheckpointData& data);

/** Serialized checkpoint size — a pure function of the geometry (the
 *  public-schedule constant the leakage proof relies on). */
int64_t CheckpointSerializedBytes(int64_t num_blocks, int64_t block_words,
                                  int64_t bucket_slots, int64_t levels,
                                  int64_t stash_capacity);

/**
 * Commit `data` to `path` atomically: serialize (full sweep, CRC framed),
 * write `path`.tmp, fsync, rename over `path`, fsync the parent dir.
 * `sparse_negative_control` selects the leaky variable-size format (see
 * DurabilityConfig::unsafe_sparse_checkpoint). bytes_out (optional)
 * receives the serialized size.
 */
serving::Status WriteCheckpointAtomic(const std::string& path,
                                      const CheckpointData& data,
                                      bool sparse_negative_control,
                                      int64_t* bytes_out);

/** Load + CRC-verify a checkpoint; rejects sparse (negative-control)
 *  checkpoints and torn/truncated files with typed kInternal errors. */
serving::Status ReadCheckpoint(const std::string& path,
                               CheckpointData* out);

}  // namespace secemb::store
