// spinscope/scanner/journal.hpp
//
// Crash-safe campaign journal: a directory of atomically published batch
// files that lets a killed sweep resume without rescanning finished work
// (DESIGN.md §11).
//
// The paper's sweeps run for days over >200 M domains; the repro's campaigns
// are long-running too, and a crash that forfeits hours of finished scans is
// an operational non-starter. The journal records every finished chunk of
// DomainScans (plus the chunk's telemetry snapshot) as one framed,
// checksummed record, and groups records of consecutive chunks into batch
// files. One layout serves the in-process merge thread and the --procs
// worker processes alike:
//
//   journal.lock             owner pid, O_EXCL-created (one campaign per dir)
//   header.rec               frame_record(serialize_header(...))
//   chunks-00000-00169.rec   a batch: the records of chunks 0..169, ascending
//   chunk-00042.lease        claim marker of the --procs worker scanning 42
//   corrupt/                 what scrub_journal quarantined
//
// Each record is framed as
//
//   #rec <payload_bytes> <crc32-hex>\n<payload>
//
// where the CRC-32 (IEEE, reflected) covers exactly the payload bytes. A
// writer streams records into a temp sibling and publishes the batch with
// one fsync, an atomic rename and a directory fsync, so a published batch
// is either complete or absent. A batch that fails any check on read — a
// frame, a CRC, a body, or a record whose chunk index disagrees with the
// filename — is treated as absent: its chunks are rescanned. Because chunk
// scans are pure functions of the campaign options (DESIGN.md §9), a rescan
// reproduces the lost records byte for byte.

#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/retry_policy.hpp"
#include "scanner/campaign.hpp"
#include "util/io.hpp"
#include "util/rng.hpp"

namespace spinscope::scanner {

/// Identity of the campaign a journal belongs to. Resume refuses to mix
/// journals across campaigns: every field here changes the scan stream, so
/// replaying records produced under different options would silently corrupt
/// the output.
struct CampaignHeader {
    std::uint64_t seed = 0;
    int week = 0;
    bool ipv6 = false;
    std::size_t chunk_domains = 0;
    std::size_t domain_count = 0;
    /// Whether the journaling campaign had a metrics registry attached (chunk
    /// records then carry telemetry snapshots).
    bool has_telemetry = false;

    friend bool operator==(const CampaignHeader&, const CampaignHeader&) = default;
};

/// The header a campaign with `options` over `domain_count` domains writes.
[[nodiscard]] CampaignHeader campaign_header(const ScanOptions& options,
                                             std::size_t domain_count, bool has_telemetry);

/// One journaled work chunk: the scans of its domains in domain-id order,
/// the chunk-private telemetry snapshot (telemetry::snapshot form; empty
/// when the campaign ran without a registry), and — for chunks the
/// supervisor quarantined — the failure note (scans are then placeholders
/// with DomainScan::error set).
struct ChunkRecord {
    std::size_t chunk_index = 0;
    bool quarantined = false;
    std::string quarantine_error;
    std::vector<DomainScan> scans;
    std::string telemetry_snapshot;
};

/// A storage operation failed past the point of retrying. Carries the errno
/// result and its reaction class so catch sites can attribute the degrade.
class JournalIoError : public std::runtime_error {
public:
    JournalIoError(std::string what, util::IoResult result)
        : std::runtime_error{std::move(what)},
          result_{result},
          error_class_{util::classify_io_error(result.err)} {}

    [[nodiscard]] util::IoResult result() const noexcept { return result_; }
    [[nodiscard]] util::IoErrorClass error_class() const noexcept { return error_class_; }

private:
    util::IoResult result_;
    util::IoErrorClass error_class_;
};

/// Serialization of one record payload (exposed for tests and tooling).
/// parse_* return nullopt on any malformed input and never throw on bad
/// bytes.
[[nodiscard]] std::string serialize_header(const CampaignHeader& header);
[[nodiscard]] std::optional<CampaignHeader> parse_header(std::string_view payload);
[[nodiscard]] std::string serialize_chunk_record(const ChunkRecord& record);
[[nodiscard]] std::optional<ChunkRecord> parse_chunk_record(std::string_view payload);

/// Frames `payload` as one journal record (`#rec <len> <crc>\n` + payload).
[[nodiscard]] std::string frame_record(const std::string& payload);

// ---------------------------------------------------------------------------
// Directory layout

/// `journal.lock` inside `dir`. Exactly one campaign may write a journal
/// directory at a time; a lock whose owner is dead is stale and broken
/// silently, a live owner makes the campaign refuse with a clear error.
[[nodiscard]] std::filesystem::path journal_lock_path(const std::filesystem::path& dir);
/// `header.rec` inside `dir`.
[[nodiscard]] std::filesystem::path journal_header_path(const std::filesystem::path& dir);
/// `chunks-FFFFF-LLLLL.rec` inside `dir`: the batch of chunks first..last.
[[nodiscard]] std::filesystem::path batch_path(const std::filesystem::path& dir,
                                               std::size_t first, std::size_t last);
/// `chunk-NNNNN.lease` inside `dir`.
[[nodiscard]] std::filesystem::path lease_path(const std::filesystem::path& dir,
                                               std::size_t chunk_index);

/// Prepares `dir` as a campaign journal and publishes `header.rec`. With
/// `wipe` (a fresh run, which rescans everything) every header, batch,
/// lease and stale temp file is removed first. Without it, a stored header
/// must equal `header`: a different campaign's header or an unreadable one
/// throws std::invalid_argument (scrub_journal quarantines the latter).
/// Storage failures throw JournalIoError. `io` null means the real disk.
void init_journal(const std::filesystem::path& dir, const CampaignHeader& header, bool wipe,
                  util::Io* io = nullptr);

/// One batch file as named on disk.
struct BatchFile {
    std::size_t first = 0;
    std::size_t last = 0;
    std::filesystem::path path;

    [[nodiscard]] std::size_t chunks() const noexcept { return last - first + 1; }
};

/// The chunks a batch file name `chunks-<first>-<last>.rec` covers (path
/// left empty); nullopt for any other name or first > last.
[[nodiscard]] std::optional<BatchFile> parse_batch_name(std::string_view filename);

/// Every well-named batch file in `dir` (first <= last), ordered by first
/// chunk and, on a tie, the longer batch first. Presence only: a listed
/// batch may still fail validation in read_batch.
[[nodiscard]] std::vector<BatchFile> list_batches(const std::filesystem::path& dir);

/// The batches a resume replays: listed batches inside [0, chunk_count)
/// that do not overlap one replayed earlier in the list order. Ascending
/// and disjoint; chunks they do not cover are rescanned.
[[nodiscard]] std::vector<BatchFile> replayable_batches(const std::filesystem::path& dir,
                                                        std::size_t chunk_count);

/// Reads one batch whole. nullopt unless every byte belongs to an intact
/// frame and the records name exactly the chunks first..last in order — a
/// batch is valid as a whole or not at all.
[[nodiscard]] std::optional<std::vector<ChunkRecord>> read_batch(const BatchFile& batch);

/// Streams chunk records into batch files. Records must arrive in ascending
/// chunk order; a record that does not follow the open batch's last chunk
/// publishes the open batch and starts a new one, so every batch holds
/// consecutive chunks. Storage failures surface as JournalIoError once
/// transient errors (EINTR, ENOMEM, ...) have been retried per
/// ScanOptions::journal_retry; the open batch is then lost, published ones
/// stay valid.
class BatchWriter {
public:
    /// Writes into ScanOptions::journal_dir through ScanOptions::io. A batch
    /// is published once its framed bytes reach `batch_bytes`, or on
    /// publish().
    BatchWriter(const ScanOptions& options, std::size_t batch_bytes);
    /// Abandons the open batch: an unpublished batch is never published by
    /// unwinding.
    ~BatchWriter();

    BatchWriter(const BatchWriter&) = delete;
    BatchWriter& operator=(const BatchWriter&) = delete;

    /// Writes one framed record into the open batch's temp file.
    void append(const ChunkRecord& record);
    /// Publishes the open batch, if any: fsync, rename to its final name,
    /// fsync the directory.
    void publish();
    /// Drops the open batch without publishing it (best-effort temp
    /// removal). Never throws.
    void abandon() noexcept;

    [[nodiscard]] std::uint64_t records_published() const noexcept { return records_published_; }
    [[nodiscard]] std::uint64_t batches_published() const noexcept { return batches_published_; }
    /// Bytes in the unpublished batch — what a crash right now would lose.
    [[nodiscard]] std::uint64_t open_bytes() const noexcept { return open_bytes_; }

private:
    void retry_or_throw(util::IoResult result, int attempt, const std::string& what);

    std::filesystem::path dir_;
    std::size_t batch_bytes_;
    util::Io* io_;
    faults::RetryPolicy retry_;
    util::Rng retry_rng_;
    int fd_ = util::Io::kBadFile;  ///< the open batch's temp file
    std::filesystem::path temp_;
    std::size_t first_ = 0;
    std::size_t last_ = 0;
    std::uint64_t open_bytes_ = 0;
    std::uint64_t open_records_ = 0;
    std::uint64_t records_published_ = 0;
    std::uint64_t batches_published_ = 0;
};

// ---------------------------------------------------------------------------
// Chunk leases (--procs workers, DESIGN.md §13)

/// A worker's claim on one chunk. The fencing token is unique per lease
/// grant (worker slot × incarnation counter), so a supervisor reclaiming a
/// dead worker's chunks removes exactly the leases that worker held — a
/// worker that was wrongly declared dead cannot have its NEW lease (new
/// token) swept away by a reclaim aimed at its old incarnation.
struct ChunkLease {
    std::size_t chunk_index = 0;
    long pid = 0;
    std::uint64_t token = 0;
    /// How many times a process died while scanning this chunk. The owner
    /// bumps it right before scanning and restores it once the scan is
    /// done, so only a death mid-scan charges the chunk — not a death while
    /// merely leasing it, nor one on a later chunk of the same batch. Drives
    /// poisoned-chunk quarantine: a chunk whose scans keep killing processes
    /// gets a bounded number of incarnations before the pool gives up on it.
    std::uint64_t attempts = 0;

    friend bool operator==(const ChunkLease&, const ChunkLease&) = default;
};

[[nodiscard]] std::string serialize_lease(const ChunkLease& lease);
[[nodiscard]] std::optional<ChunkLease> parse_lease(std::string_view payload);

/// Atomically claims `lease.chunk_index` (O_EXCL create of the lease file).
/// Exactly one of N racing claimants succeeds. Returns false when the chunk
/// is already leased or on I/O failure.
[[nodiscard]] bool claim_lease(const std::filesystem::path& dir, const ChunkLease& lease);
/// Io-threaded form: EEXIST means the chunk is already leased (the routine
/// lost race, not an error); any other errno is a real storage failure the
/// caller should surface.
[[nodiscard]] util::IoResult claim_lease(util::Io& io, const std::filesystem::path& dir,
                                         const ChunkLease& lease);

/// The current lease on a chunk; nullopt when unleased or garbled (a
/// garbled lease file blocks nobody: release_lease with token 0 removes it).
[[nodiscard]] std::optional<ChunkLease> read_lease(const std::filesystem::path& dir,
                                                   std::size_t chunk_index);

/// Removes the lease on `chunk_index` iff its fencing token matches
/// `token` (or the lease file is garbled and `token` is 0). Returns true
/// when the lease file is gone afterwards.
bool release_lease(const std::filesystem::path& dir, std::size_t chunk_index,
                   std::uint64_t token);

// ---------------------------------------------------------------------------
// Scrub: offline verify / repair (DESIGN.md §16)
//
// Resume silently rescans whatever does not validate, which is right for a
// crash but hides bit rot. scrub_journal is the forensic pass: it
// CRC-checks every frame of the header and of every batch, quarantines what
// fails (moved under corrupt/, never deleted), removes temp files left by
// killed writers, and writes a machine-readable report naming exactly which
// chunks a subsequent resume must rescan.

/// What kind of damage one finding describes.
enum class ScrubDamage {
    /// header.rec is unreadable — nothing in the journal can be attributed
    /// to a campaign, so the header and every batch are quarantined.
    header_corrupt,
    /// A batch failing frame/CRC/body validation or holding records for
    /// other chunks than its name says. Quarantined; its chunks are
    /// rescanned.
    corrupt_batch,
};

[[nodiscard]] const char* to_cstring(ScrubDamage damage) noexcept;

/// One piece of damage the scrub found.
struct ScrubFinding {
    ScrubDamage damage = ScrubDamage::corrupt_batch;
    /// File the damage was found in, relative name.
    std::string file;
    std::string detail;
    bool quarantined = false;  ///< bytes moved under corrupt/
};

struct ScrubOptions {
    /// With repair, damaged files are moved under corrupt/ with a
    /// scrub.report and stale temp files are removed; without it the scrub
    /// only inspects and classifies.
    bool repair = true;
    /// Storage seam for the repair writes; nullptr = real disk.
    util::Io* io = nullptr;
};

/// Scrub outcome. `clean()` means the journal needed nothing; otherwise
/// `findings` says what was wrong and what was done, and `chunks_to_rescan`
/// tells resume exactly what work remains.
struct ScrubReport {
    bool has_header = false;
    CampaignHeader header;
    std::uint64_t batches_checked = 0;
    /// Chunks held by intact batches.
    std::uint64_t chunks_intact = 0;
    std::uint64_t bytes_discarded = 0;
    /// Temp files of dead writers found (and, with repair, removed). Not a
    /// finding: a killed writer leaves one by design.
    std::uint64_t stale_temps = 0;
    std::vector<ScrubFinding> findings;
    /// Chunks whose batches were quarantined, ascending.
    std::vector<std::size_t> chunks_to_rescan;

    [[nodiscard]] bool clean() const noexcept { return findings.empty(); }
    /// Human-readable multi-line summary (the bench prints this).
    [[nodiscard]] std::string render() const;
    /// Machine-readable k=v lines (percent-encoded), written to
    /// corrupt/scrub.report when a repair pass changed anything.
    [[nodiscard]] std::string machine_report() const;
};

/// Walks the journal at `dir`, CRC-checks every frame, quarantines per
/// `options`, and reports. A missing or empty directory yields a clean
/// report with has_header == false. Throws JournalIoError when the scrub's
/// own repair writes fail.
[[nodiscard]] ScrubReport scrub_journal(const std::filesystem::path& dir,
                                        const ScrubOptions& options = {});

}  // namespace spinscope::scanner
