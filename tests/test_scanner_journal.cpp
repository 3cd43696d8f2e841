// Crash-safe campaign suite (DESIGN.md §11): batch-file round-trips,
// whole-batch validation, kill-and-resume byte-identity, hostile batch
// files, scrub, worker supervision (restart + quarantine) and the hung-scan
// watchdog.
//
// The recovery contract under test: a campaign killed at any chunk boundary,
// or whose journal holds torn, misnamed or overlapping batches, resumes to
// byte-identical sink streams, stats and deterministic telemetry to an
// uninterrupted run, at every thread count — and a campaign whose chunks
// crash or hang completes degraded instead of dying.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.hpp"
#include "scanner/campaign.hpp"
#include "scanner/journal.hpp"
#include "scanner/shard.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

using spinscope::testing::render_scan_stream;

// ~110 domains at seed 1 — 7 chunks at the default chunk_domains=16, small
// enough that the boundary × thread-count resume sweep stays fast.
web::Population tiny_population() { return web::Population{{2'000'000.0, 1}}; }

class JournalTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = std::filesystem::temp_directory_path() /
               ("spinscope_journal_test_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

CampaignHeader sample_header() {
    CampaignHeader header;
    header.seed = 0x5ca7;
    header.week = 3;
    header.ipv6 = true;
    header.chunk_domains = 16;
    header.domain_count = 110;
    header.has_telemetry = true;
    return header;
}

ChunkRecord sample_chunk(std::size_t index) {
    ChunkRecord record;
    record.chunk_index = index;
    DomainScan scan;
    scan.domain_id = static_cast<std::uint32_t>(100 + index);
    scan.resolved = true;
    scan.redirects_followed = 1;
    scan.retries = 2;
    scan.recovered_by_retry = true;
    scan.attempts_truncated = 3;
    scan.error = "weird bytes: % space\nnewline";
    ResponseInfo response;
    response.status = 301;
    response.body_bytes = 12345;
    response.location = "www.target.example";
    response.server_name = "nginx 1.2";
    scan.final_response = response;
    scan.attempts.push_back(DomainScan::AttemptRecord{
        1, 2, qlog::ConnectionOutcome::watchdog_cancelled, util::Duration::millis(7),
        faults::ServerFaultMode::none});
    qlog::Trace trace;
    trace.host = "www.a.example";
    trace.ip = "10.1.2.3";
    trace.outcome = qlog::ConnectionOutcome::ok;
    trace.record_sent({util::TimePoint::from_nanos(1000), quic::PacketType::initial, 0,
                       false, 1200, true, 0});
    trace.record_received({util::TimePoint::from_nanos(2500), quic::PacketType::one_rtt, 1,
                           true, 600, true, 2});
    trace.metrics.rtt_samples_ms = {1.25, 3.5};
    trace.metrics.min_rtt_ms = 1.25;
    trace.metrics.packets_sent = 7;
    scan.connections.push_back(trace);
    record.scans.push_back(std::move(scan));
    record.telemetry_snapshot = "counter scanner.connections 5\n";
    return record;
}

// --- Payload round-trips -----------------------------------------------------

TEST_F(JournalTest, HeaderPayloadRoundTrips) {
    const CampaignHeader header = sample_header();
    const auto parsed = parse_header(serialize_header(header));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == header);

    EXPECT_FALSE(parse_header("").has_value());
    EXPECT_FALSE(parse_header("campaign seed=1\n").has_value());
    EXPECT_FALSE(parse_header("chunk index=0\n").has_value());
}

TEST_F(JournalTest, ChunkPayloadRoundTripsIncludingHostileStrings) {
    const ChunkRecord record = sample_chunk(4);
    const std::string payload = serialize_chunk_record(record);
    const auto parsed = parse_chunk_record(payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->chunk_index, 4u);
    EXPECT_FALSE(parsed->quarantined);
    ASSERT_EQ(parsed->scans.size(), 1u);
    const DomainScan& scan = parsed->scans[0];
    EXPECT_EQ(scan.domain_id, 104u);
    EXPECT_TRUE(scan.resolved);
    EXPECT_EQ(scan.redirects_followed, 1u);
    EXPECT_EQ(scan.retries, 2u);
    EXPECT_TRUE(scan.recovered_by_retry);
    EXPECT_EQ(scan.attempts_truncated, 3u);
    EXPECT_EQ(scan.error, "weird bytes: % space\nnewline");
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 301);
    EXPECT_EQ(scan.final_response->body_bytes, 12345u);
    EXPECT_EQ(scan.final_response->location, "www.target.example");
    EXPECT_EQ(scan.final_response->server_name, "nginx 1.2");
    ASSERT_EQ(scan.attempts.size(), 1u);
    EXPECT_EQ(scan.attempts[0].outcome, qlog::ConnectionOutcome::watchdog_cancelled);
    EXPECT_EQ(scan.attempts[0].backoff, util::Duration::millis(7));
    ASSERT_EQ(scan.connections.size(), 1u);
    // The trace must re-serialize to the exact bytes the journal stored —
    // this is what makes resumed golden streams byte-identical.
    EXPECT_EQ(qlog::to_jsonl(scan.connections[0]),
              qlog::to_jsonl(record.scans[0].connections[0]));
    EXPECT_EQ(parsed->telemetry_snapshot, record.telemetry_snapshot);

    // A payload that survives CRC but is garbled must parse to nullopt, not
    // crash or mis-parse.
    EXPECT_FALSE(parse_chunk_record("").has_value());
    EXPECT_FALSE(parse_chunk_record("chunk index=0\n").has_value());
    std::string clipped = payload.substr(0, payload.size() / 2);
    EXPECT_FALSE(parse_chunk_record(clipped).has_value());
}

// --- Batch files -------------------------------------------------------------

/// Options for a BatchWriter publishing into `dir`.
ScanOptions writer_options(const std::filesystem::path& dir) {
    ScanOptions options;
    options.journal_dir = dir.string();
    return options;
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    return {std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{}};
}

void write_file(const std::filesystem::path& path, std::string_view bytes) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::string> file_names(const std::filesystem::path& dir) {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

TEST_F(JournalTest, WriterReplayRoundTripWithSegmentRotation) {
    std::filesystem::create_directories(dir_);
    {
        // A threshold below one record: every record publishes its own batch.
        BatchWriter writer{writer_options(dir_), 256};
        for (std::size_t c = 0; c < 3; ++c) writer.append(sample_chunk(c));
        EXPECT_EQ(writer.batches_published(), 3u);
        EXPECT_EQ(writer.open_bytes(), 0u);
    }
    {
        // A large threshold: records accumulate until publish(); a gap in
        // the chunk sequence closes the batch, so every batch is consecutive.
        BatchWriter writer{writer_options(dir_), 1u << 20};
        for (const std::size_t c : {3u, 4u, 5u, 8u, 9u}) writer.append(sample_chunk(c));
        EXPECT_EQ(writer.batches_published(), 1u);  // 3-5, closed by the gap
        EXPECT_GT(writer.open_bytes(), 0u);
        writer.publish();
        EXPECT_EQ(writer.batches_published(), 2u);
        EXPECT_EQ(writer.records_published(), 5u);
    }
    // Only published batches remain: no temp file survives a publish.
    EXPECT_EQ(file_names(dir_),
              (std::vector<std::string>{"chunks-00000-00000.rec", "chunks-00001-00001.rec",
                                        "chunks-00002-00002.rec", "chunks-00003-00005.rec",
                                        "chunks-00008-00009.rec"}));

    const std::vector<BatchFile> batches = list_batches(dir_);
    ASSERT_EQ(batches.size(), 5u);
    std::size_t records = 0;
    for (const BatchFile& batch : batches) {
        const auto read = read_batch(batch);
        ASSERT_TRUE(read.has_value()) << batch.path;
        ASSERT_EQ(read->size(), batch.chunks());
        for (std::size_t i = 0; i < read->size(); ++i) {
            EXPECT_EQ((*read)[i].chunk_index, batch.first + i);
            EXPECT_EQ((*read)[i].telemetry_snapshot, "counter scanner.connections 5\n");
        }
        records += read->size();
    }
    EXPECT_EQ(records, 8u);
}

TEST_F(JournalTest, ReplayOfMissingOrEmptyDirectoryIsEmpty) {
    EXPECT_TRUE(list_batches(dir_ / "nope").empty());
    EXPECT_TRUE(replayable_batches(dir_ / "nope", 10).empty());
    std::filesystem::create_directories(dir_);
    EXPECT_TRUE(list_batches(dir_).empty());
    const ScrubReport report = scrub_journal(dir_ / "nope");
    EXPECT_TRUE(report.clean());
    EXPECT_FALSE(report.has_header);
}

TEST_F(JournalTest, TornTailIsDetectedDiscardedAndRepaired) {
    std::filesystem::create_directories(dir_);
    {
        BatchWriter writer{writer_options(dir_), 1u << 20};
        for (std::size_t c = 0; c < 3; ++c) writer.append(sample_chunk(c));
        writer.publish();
    }
    // A batch torn mid-record (a copy cut short, a disk that lied about the
    // write) is still listed by name but reads as absent — as a whole.
    const BatchFile batch = list_batches(dir_).at(0);
    const std::string intact = read_file(batch.path);
    write_file(batch.path, std::string_view{intact}.substr(0, intact.size() - 10));
    EXPECT_FALSE(read_batch(batch).has_value());

    // Republishing the chunks repairs it: the rename replaces the torn file.
    {
        BatchWriter writer{writer_options(dir_), 1u << 20};
        for (std::size_t c = 0; c < 3; ++c) writer.append(sample_chunk(c));
        writer.publish();
    }
    EXPECT_EQ(read_file(batch.path), intact);
    EXPECT_TRUE(read_batch(batch).has_value());
}

TEST_F(JournalTest, ChecksumCorruptionInvalidatesTheWholeBatch) {
    std::filesystem::create_directories(dir_);
    {
        BatchWriter writer{writer_options(dir_), 1u << 20};
        for (std::size_t c = 0; c < 4; ++c) writer.append(sample_chunk(c));
        writer.publish();
        writer.append(sample_chunk(7));
        writer.publish();
    }
    const auto batches = list_batches(dir_);
    ASSERT_EQ(batches.size(), 2u);
    // Flip one payload byte in the middle of the 4-record batch: no record
    // of it replays, not even the intact ones before the damage.
    const auto size = std::filesystem::file_size(batches[0].path);
    {
        std::fstream file{batches[0].path, std::ios::binary | std::ios::in | std::ios::out};
        file.seekp(static_cast<std::streamoff>(size / 2));
        file.put('\xff');
    }
    EXPECT_FALSE(read_batch(batches[0]).has_value());
    EXPECT_TRUE(read_batch(batches[1]).has_value());
}

TEST_F(JournalTest, InitRejectsAForeignOrUnreadableHeader) {
    init_journal(dir_, sample_header(), /*wipe=*/true);
    EXPECT_NO_THROW(init_journal(dir_, sample_header(), /*wipe=*/false));
    CampaignHeader other = sample_header();
    other.seed ^= 1;
    EXPECT_THROW(init_journal(dir_, other, /*wipe=*/false), std::invalid_argument);

    // An unreadable header attributes nothing: refuse until scrubbed.
    write_file(journal_header_path(dir_), "#rec 3 00000000\nabc");
    EXPECT_THROW(init_journal(dir_, sample_header(), /*wipe=*/false), std::invalid_argument);
    // A wipe makes the directory a fresh campaign's journal: no objection.
    EXPECT_NO_THROW(init_journal(dir_, other, /*wipe=*/true));
    EXPECT_NO_THROW(init_journal(dir_, other, /*wipe=*/false));
}

// --- Kill-and-resume byte-identity -------------------------------------------

struct SweepResult {
    std::string stream;                ///< concatenated render_scan_stream, sink order
    std::vector<std::uint32_t> order;  ///< domain ids in sink order
    CampaignStats stats;
    std::string telemetry;  ///< telemetry::deterministic_csv
    std::vector<std::size_t> scanned;  ///< chunks this pass scanned (not replayed)
};

void expect_same_stats(const CampaignStats& a, const CampaignStats& b) {
    EXPECT_EQ(a.domains_scanned, b.domains_scanned);
    EXPECT_EQ(a.domains_resolved, b.domains_resolved);
    EXPECT_EQ(a.domains_quic_ok, b.domains_quic_ok);
    EXPECT_EQ(a.connections, b.connections);
    EXPECT_EQ(a.redirects_followed, b.redirects_followed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.domains_recovered_by_retry, b.domains_recovered_by_retry);
    EXPECT_EQ(a.domains_errored, b.domains_errored);
    EXPECT_EQ(a.outcomes, b.outcomes);
    EXPECT_EQ(a.server_faults, b.server_faults);
}

SweepResult run_to_completion(const web::Population& population, ScanOptions options,
                              bool resume) {
    SweepResult result;
    std::mutex mu;
    // The chunk fault hook fires once per chunk scan execution (workers and
    // inline rescans alike), never for a replayed chunk.
    options.chunk_fault_hook = [&, inner = options.chunk_fault_hook](std::size_t chunk) {
        {
            std::lock_guard<std::mutex> lock{mu};
            result.scanned.push_back(chunk);
        }
        if (inner) inner(chunk);
    };
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    const auto sink = [&](const web::Domain& domain, DomainScan&& scan) {
        result.order.push_back(domain.id);
        result.stream += render_scan_stream(scan);
    };
    result.stats = resume ? campaign.resume(sink) : campaign.run(sink);
    result.telemetry = telemetry::deterministic_csv(registry);
    std::sort(result.scanned.begin(), result.scanned.end());
    return result;
}

void expect_same_sweep(const SweepResult& got, const SweepResult& want,
                       const std::string& label) {
    EXPECT_EQ(got.order, want.order) << label;
    EXPECT_EQ(got.stream, want.stream) << label;
    EXPECT_EQ(got.telemetry, want.telemetry) << label;
    expect_same_stats(got.stats, want.stats);
}

std::vector<std::size_t> chunk_range(std::size_t first, std::size_t end) {
    std::vector<std::size_t> out;
    for (std::size_t c = first; c < end; ++c) out.push_back(c);
    return out;
}

/// Runs a journaled campaign and kills it (exception out of the sink) once
/// `kill_after` domains have been merged; kill_after = 0 kills on the very
/// first merge. Returns true when the kill fired (a large kill_after may let
/// the run complete).
bool run_and_kill(const web::Population& population, const ScanOptions& options,
                  std::uint64_t kill_after) {
    struct Kill {};
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    std::uint64_t merged = 0;
    try {
        campaign.run([&](const web::Domain&, DomainScan&&) {
            if (merged >= kill_after) throw Kill{};
            ++merged;
        });
    } catch (const Kill&) {
        return true;
    }
    return false;
}

TEST_F(JournalTest, ResumeAfterKillAtEveryChunkBoundaryIsByteIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 2;  // exercise backoff streams across resume
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);
    const std::size_t domain_count = baseline.order.size();
    ASSERT_GT(domain_count, 80u);
    const std::size_t chunk_count =
        (domain_count + options.chunk_domains - 1) / options.chunk_domains;
    ASSERT_GE(chunk_count, 5u);

    // One chunk per batch, then about two: a kill loses exactly the
    // unpublished batch, which resume rescans.
    for (const std::size_t batch_bytes : {std::size_t{1}, std::size_t{40'000}}) {
        for (const unsigned threads : {1u, 2u, 8u}) {
            for (std::size_t boundary = 0; boundary <= chunk_count; ++boundary) {
                const std::string label = "batch_bytes=" + std::to_string(batch_bytes) +
                                          " threads=" + std::to_string(threads) +
                                          " boundary=" + std::to_string(boundary);
                const auto journal_dir =
                    dir_ / ("boundary_" + std::to_string(batch_bytes) + "_" +
                            std::to_string(threads) + "_" + std::to_string(boundary));
                ScanOptions killed = options;
                killed.threads = threads;
                killed.journal_dir = journal_dir.string();
                killed.journal_batch_bytes = batch_bytes;
                const std::uint64_t kill_after = boundary * options.chunk_domains;
                const bool killed_early = run_and_kill(population, killed, kill_after);
                if (boundary < chunk_count) {
                    ASSERT_TRUE(killed_early) << label;
                }

                const SweepResult resumed =
                    run_to_completion(population, killed, /*resume=*/true);
                expect_same_sweep(resumed, baseline, label);
                if (batch_bytes == 1) {
                    // The kill fired merging chunk `boundary`, whose record
                    // was already published: everything up to it replays.
                    EXPECT_EQ(resumed.scanned,
                              chunk_range(std::min(boundary + 1, chunk_count), chunk_count))
                        << label;
                }
            }
        }
    }
}

TEST_F(JournalTest, ResumeFromJournalTruncatedMidRecordIsByteIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);

    // A complete single-batch journal to truncate at hostile offsets.
    const auto complete_dir = dir_ / "complete";
    ScanOptions journaled = options;
    journaled.journal_dir = complete_dir.string();
    (void)run_to_completion(population, journaled, /*resume=*/false);
    const auto batches = list_batches(complete_dir);
    ASSERT_EQ(batches.size(), 1u);
    const std::string bytes = read_file(batches[0].path);

    // Truncation corpus: mid-header, mid-record, one byte short, and a few
    // proportional cuts. A published batch cut anywhere is absent as a
    // whole: every prefix resumes to byte-identical output by rescanning.
    const std::size_t offsets[] = {0,
                                   3,
                                   bytes.size() / 7,
                                   bytes.size() / 3,
                                   bytes.size() / 2,
                                   (bytes.size() * 7) / 8,
                                   bytes.size() - 1};
    for (const std::size_t offset : offsets) {
        const auto trunc_dir = dir_ / ("trunc_" + std::to_string(offset));
        std::filesystem::create_directories(trunc_dir);
        std::filesystem::copy_file(journal_header_path(complete_dir),
                                   journal_header_path(trunc_dir));
        write_file(trunc_dir / batches[0].path.filename(),
                   std::string_view{bytes}.substr(0, offset));
        ScanOptions resume_options = options;
        resume_options.journal_dir = trunc_dir.string();
        const SweepResult resumed =
            run_to_completion(population, resume_options, /*resume=*/true);
        expect_same_sweep(resumed, baseline, "offset=" + std::to_string(offset));
        EXPECT_EQ(resumed.scanned, chunk_range(0, batches[0].chunks()))
            << "offset=" << offset;
    }
}

TEST_F(JournalTest, ResumeOfCompleteJournalRescansNothing) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "full").string();
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);
    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    EXPECT_TRUE(resumed.scanned.empty()) << "a complete journal must replay, not rescan";
    expect_same_sweep(resumed, baseline, "complete");
}

TEST_F(JournalTest, ResumeRejectsMismatchedCampaignOptions) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "mismatch").string();
    (void)run_to_completion(population, options, /*resume=*/false);

    ScanOptions other = options;
    other.week = 5;  // a different sweep: its scans are NOT interchangeable
    Campaign campaign{population, other};
    EXPECT_THROW((void)campaign.resume([](const web::Domain&, DomainScan&&) {}),
                 std::invalid_argument);

    ScanOptions no_journal;
    Campaign without{population, no_journal};
    EXPECT_THROW((void)without.resume([](const web::Domain&, DomainScan&&) {}),
                 std::invalid_argument);
}

// --- Hostile batch files -----------------------------------------------------
//
// Each case forges a batch a writer would never publish. Resume must rescan
// exactly the chunks the forgery leaves uncovered and still match an
// uninterrupted run byte for byte.

/// A complete journal with one batch per chunk, and its fault-free output.
SweepResult one_batch_per_chunk(const web::Population& population, ScanOptions& options,
                                const std::filesystem::path& dir) {
    options.journal_dir = dir.string();
    options.journal_batch_bytes = 1;
    return run_to_completion(population, options, /*resume=*/false);
}

TEST_F(JournalTest, BatchWhoseRecordsNameOtherChunksIsRescanned) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = one_batch_per_chunk(population, options, dir_ / "named");
    // chunks-00002-00002.rec now holds chunk 3's (intact, CRC-valid) record.
    write_file(batch_path(options.journal_dir, 2, 2),
               read_file(batch_path(options.journal_dir, 3, 3)));

    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "misnamed");
    EXPECT_EQ(resumed.scanned, (std::vector<std::size_t>{2}));
}

TEST_F(JournalTest, OverlappingBatchesReplayOnceAndRescanTheRest) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = one_batch_per_chunk(population, options, dir_ / "overlap");
    const std::filesystem::path dir = options.journal_dir;
    // Forge chunks 1-3 and 2-4 out of the single-chunk batches, then drop
    // the singles they were made of. The batch starting first wins; the
    // other is ignored, so chunk 4 is covered by nothing and is rescanned.
    std::string one_to_three;
    std::string two_to_four;
    for (std::size_t c = 1; c <= 4; ++c) {
        const std::string bytes = read_file(batch_path(dir, c, c));
        if (c <= 3) one_to_three += bytes;
        if (c >= 2) two_to_four += bytes;
        std::filesystem::remove(batch_path(dir, c, c));
    }
    write_file(batch_path(dir, 1, 3), one_to_three);
    write_file(batch_path(dir, 2, 4), two_to_four);
    const std::size_t chunk_count = list_batches(dir).back().last + 1;
    const auto replayable = replayable_batches(dir, chunk_count);
    ASSERT_EQ(replayable.size(), chunk_count - 3);  // 0, 1-3, 5, 6, ...
    EXPECT_EQ(replayable[1].last, 3u);

    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "overlap");
    EXPECT_EQ(resumed.scanned, (std::vector<std::size_t>{4}));
}

TEST_F(JournalTest, ScrubAndFreshRunRemoveTempFilesOfKilledWriters) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "temps").string();
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);
    const std::filesystem::path dir = options.journal_dir;

    // A killed writer's temp file (dead pid) holding an intact, CRC-valid
    // record that contradicts the journal: chunk 0 with no scans at all.
    // Reading it anywhere would change the output.
    ChunkRecord bogus;
    bogus.chunk_index = 0;
    const std::string temp_bytes = frame_record(serialize_chunk_record(bogus));
    const auto temp = dir / "chunks-00000-00000.rec.tmp.999999999.3";
    write_file(temp, temp_bytes);

    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "temp never read");
    EXPECT_TRUE(resumed.scanned.empty());

    ScrubOptions dry;
    dry.repair = false;
    EXPECT_EQ(scrub_journal(dir, dry).stale_temps, 1u);
    EXPECT_TRUE(std::filesystem::exists(temp));
    const ScrubReport report = scrub_journal(dir);
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.stale_temps, 1u);
    EXPECT_FALSE(std::filesystem::exists(temp));

    write_file(temp, temp_bytes);
    const SweepResult fresh = run_to_completion(population, options, /*resume=*/false);
    expect_same_sweep(fresh, baseline, "fresh run");
    EXPECT_FALSE(std::filesystem::exists(temp));
}

// --- Worker supervision ------------------------------------------------------

TEST_F(JournalTest, TransientChunkCrashIsRestartedWithIdenticalOutput) {
    const web::Population population = tiny_population();
    ScanOptions options;
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);

    ScanOptions faulty = options;
    faulty.worker_restart.initial_backoff = util::Duration::millis(1);
    faulty.worker_restart.max_backoff = util::Duration::millis(2);
    std::mutex mu;
    std::set<std::size_t> crashed_once;
    faulty.chunk_fault_hook = [&](std::size_t chunk) {
        std::lock_guard<std::mutex> lock{mu};
        if (chunk == 2 && crashed_once.insert(chunk).second) {
            throw std::runtime_error("injected transient chunk crash");
        }
    };
    const SweepResult recovered = run_to_completion(population, faulty, /*resume=*/false);
    EXPECT_EQ(recovered.stats.worker_restarts, 1u);
    EXPECT_EQ(recovered.stats.chunks_quarantined, 0u);
    EXPECT_EQ(recovered.stream, baseline.stream);
    EXPECT_EQ(recovered.telemetry, baseline.telemetry);
    expect_same_stats(recovered.stats, baseline.stats);
}

TEST_F(JournalTest, PersistentChunkCrashIsQuarantinedAndTheCampaignCompletes) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.threads = 4;
    options.worker_restart.initial_backoff = util::Duration::millis(1);
    options.worker_restart.max_backoff = util::Duration::millis(2);
    options.journal_dir = (dir_ / "quarantine").string();
    options.chunk_fault_hook = [](std::size_t chunk) {
        if (chunk == 3) throw std::runtime_error("poisoned chunk");
    };
    Campaign campaign{population, options};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    std::uint64_t sink_count = 0;
    std::uint64_t quarantined_scans = 0;
    const CampaignStats stats =
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            ++sink_count;
            if (scan.error.rfind("chunk quarantined:", 0) == 0) ++quarantined_scans;
        });

    EXPECT_EQ(stats.chunks_quarantined, 1u);
    EXPECT_EQ(stats.domains_quarantined, options.chunk_domains);
    EXPECT_EQ(stats.worker_restarts, 1u);  // one restart before giving up
    EXPECT_GE(stats.domains_errored, options.chunk_domains);
    EXPECT_EQ(stats.domains_scanned, sink_count);  // degraded but COMPLETE
    EXPECT_EQ(quarantined_scans, options.chunk_domains);
    const auto* quarantine_counter = registry.find_counter("campaign.quarantined_chunks");
    ASSERT_NE(quarantine_counter, nullptr);
    EXPECT_EQ(quarantine_counter->value(), 1u);

    // The quarantine is journaled: a resume replays the degraded state
    // instead of rescanning (and re-crashing on) the poisoned chunk.
    ScanOptions resume_options = options;
    resume_options.chunk_fault_hook = nullptr;
    Campaign resumed{population, resume_options};
    telemetry::MetricsRegistry resume_registry;
    resumed.set_metrics(&resume_registry);
    std::uint64_t resumed_quarantined = 0;
    const CampaignStats resumed_stats =
        resumed.resume([&](const web::Domain&, DomainScan&& scan) {
            if (scan.error.rfind("chunk quarantined:", 0) == 0) ++resumed_quarantined;
        });
    EXPECT_EQ(resumed_stats.chunks_quarantined, 1u);
    EXPECT_EQ(resumed_quarantined, options.chunk_domains);
}

/// A chunk telemetry snapshot with each wall-clock histogram cut to its
/// name, geometry and count: its values time this host, not the scan.
std::string without_wall_clock_values(const std::string& snapshot) {
    std::istringstream in{snapshot};
    std::string out;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields{line};
        std::string kind;
        std::string name;
        fields >> kind >> name;
        if (telemetry::is_wall_clock_metric(name)) {
            line = kind + ' ' + name;
            std::string token;
            // min_value factor bucket_count count
            for (int i = 0; i < 4 && fields >> token; ++i) line += ' ' + token;
        }
        out += line;
        out.push_back('\n');
    }
    return out;
}

TEST_F(JournalTest, SlotTelemetryJournalsWhatAFreshChunkRegistryWould) {
    // Each result-ring slot keeps its chunk registry across the chunks it
    // holds, rewound between them. Every journaled chunk snapshot must
    // still equal the one a fresh registry gives for that chunk alone: no
    // instrument, value or zero left over from the slot's earlier chunks,
    // at any thread count, after a restarted chunk and around quarantined
    // ones.
    const web::Population population = tiny_population();
    ScanOptions options;
    // 2-domain chunks: more chunks than the 32-slot ring, so the later ones
    // land in slots an earlier chunk already used.
    options.chunk_domains = 2;
    options.worker_restart.initial_backoff = util::Duration::millis(1);
    options.worker_restart.max_backoff = util::Duration::millis(2);

    Campaign reference{population, options};
    telemetry::MetricsRegistry reference_registry;
    reference.set_metrics(&reference_registry);
    const std::size_t chunks = reference.chunk_count();
    ASSERT_GE(chunks, 40u);
    std::vector<std::string> fresh(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        fresh[c] = without_wall_clock_values(reference.scan_chunk(c).telemetry_snapshot);
        ASSERT_FALSE(fresh[c].empty()) << "chunk " << c;
    }

    constexpr std::size_t kQuarantinedFirst = 3;  // its slot's first chunk
    constexpr std::size_t kRestarted = 34;        // crashes once, in a reused slot
    constexpr std::size_t kQuarantinedReused = 36;
    for (const unsigned threads : {1u, 2u, 8u}) {
        ScanOptions run_options = options;
        run_options.threads = threads;
        run_options.journal_dir = (dir_ / ("threads" + std::to_string(threads))).string();
        std::mutex mu;
        std::set<std::size_t> crashed_once;
        run_options.chunk_fault_hook = [&](std::size_t chunk) {
            if (chunk == kQuarantinedFirst || chunk == kQuarantinedReused) {
                throw std::runtime_error("poisoned chunk");
            }
            std::lock_guard<std::mutex> lock{mu};
            if (chunk == kRestarted && crashed_once.insert(chunk).second) {
                throw std::runtime_error("injected transient chunk crash");
            }
        };
        Campaign campaign{population, run_options};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        const CampaignStats stats = campaign.run([](const web::Domain&, DomainScan&&) {});
        EXPECT_EQ(stats.chunks_quarantined, 2u);
        EXPECT_EQ(stats.worker_restarts, 3u);

        std::size_t records_seen = 0;
        for (const BatchFile& batch : list_batches(run_options.journal_dir)) {
            const auto records = read_batch(batch);
            ASSERT_TRUE(records.has_value());
            for (const ChunkRecord& record : *records) {
                ++records_seen;
                if (record.quarantined) {
                    EXPECT_TRUE(record.chunk_index == kQuarantinedFirst ||
                                record.chunk_index == kQuarantinedReused);
                    EXPECT_TRUE(record.telemetry_snapshot.empty());
                    continue;
                }
                EXPECT_EQ(without_wall_clock_values(record.telemetry_snapshot),
                          fresh.at(record.chunk_index))
                    << "threads=" << threads << " chunk " << record.chunk_index;
            }
        }
        EXPECT_EQ(records_seen, chunks) << "threads=" << threads;
    }
}

TEST(RunSupervisedTest, QuarantinesInAscendingOrderAndKeepsMerging) {
    const ShardConfig config{4, 1};
    const ShardPlan plan{10, 1};
    SupervisorConfig supervisor;
    supervisor.restart.max_attempts = 2;
    supervisor.restart.initial_backoff = util::Duration::zero();
    supervisor.sleep_on_restart = false;
    std::vector<std::string> events;  // merge-thread only
    const SupervisionReport report = run_supervised(
        config, plan, supervisor,
        [&](std::size_t chunk, std::size_t) {
            if (chunk == 3 || chunk == 7) throw std::runtime_error("boom");
        },
        [&](std::size_t chunk) { events.push_back("merge " + std::to_string(chunk)); },
        [&](const ChunkFailure& failure) {
            EXPECT_EQ(failure.attempts, 2);
            EXPECT_EQ(failure.error, "boom");
            events.push_back("quarantine " + std::to_string(failure.chunk));
        });
    EXPECT_EQ(report.quarantined, 2u);
    EXPECT_EQ(report.restarts, 2u);
    ASSERT_EQ(events.size(), 10u);
    for (std::size_t c = 0; c < 10; ++c) {
        const std::string expected =
            (c == 3 || c == 7) ? "quarantine " + std::to_string(c)
                               : "merge " + std::to_string(c);
        EXPECT_EQ(events[c], expected);
    }
}

TEST(RunSupervisedTest, MergeExceptionStillCancelsAndRethrows) {
    const ShardConfig config{2, 1};
    const ShardPlan plan{8, 1};
    SupervisorConfig supervisor;
    supervisor.sleep_on_restart = false;
    EXPECT_THROW(
        run_supervised(
            config, plan, supervisor, [](std::size_t, std::size_t) {},
            [](std::size_t chunk) {
                if (chunk == 1) throw std::logic_error("merge failed");
            },
            [](const ChunkFailure&) {}),
        std::logic_error);
}

// --- Scrub: offline verify / repair (DESIGN.md §16) --------------------------
//
// The corruption corpus: each case damages a journal in a distinct way, then
// asserts that scrub_journal classifies the damage correctly, quarantines it
// (never deletes bytes), and that a resume over the scrubbed journal is
// byte-identical to an uninterrupted run — the no-silent-corruption
// invariant end to end.

TEST_F(JournalTest, ScrubOfCleanJournalFindsNothing) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "clean").string();
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);

    const ScrubReport report = scrub_journal(options.journal_dir);
    EXPECT_TRUE(report.clean());
    EXPECT_TRUE(report.has_header);
    EXPECT_EQ(report.bytes_discarded, 0u);
    EXPECT_EQ(report.batches_checked, 1u);
    EXPECT_GE(report.chunks_intact, 5u);
    EXPECT_TRUE(report.chunks_to_rescan.empty());
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                         "corrupt"));

    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "clean");
}

TEST_F(JournalTest, ScrubClassifiesHeaderCorruptionAndQuarantinesEverything) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "hdr").string();
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);

    // Garble the frame marker of the header: it no longer parses, so NOTHING
    // in the journal can be attributed to a campaign.
    const auto header = journal_header_path(options.journal_dir);
    {
        std::fstream file{header, std::ios::binary | std::ios::in | std::ios::out};
        file.write("XXXX", 4);
    }
    // Resume refuses an unattributable journal until it is scrubbed.
    Campaign refused{population, options};
    EXPECT_THROW((void)refused.resume([](const web::Domain&, DomainScan&&) {}),
                 std::invalid_argument);

    const ScrubReport report = scrub_journal(options.journal_dir);
    ASSERT_EQ(report.findings.size(), 2u);  // the header, then its one batch
    EXPECT_FALSE(report.has_header);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::header_corrupt);
    EXPECT_EQ(report.findings[1].damage, ScrubDamage::corrupt_batch);
    EXPECT_TRUE(report.findings[0].quarantined);
    EXPECT_EQ(report.chunks_intact, 0u);
    EXPECT_GT(report.bytes_discarded, 0u);
    // Quarantined, never deleted: the damaged files live under corrupt/.
    const auto corrupt = std::filesystem::path{options.journal_dir} / "corrupt";
    EXPECT_TRUE(std::filesystem::exists(corrupt / "header.rec"));
    EXPECT_TRUE(std::filesystem::exists(corrupt / report.findings[1].file));
    EXPECT_FALSE(std::filesystem::exists(header));
    EXPECT_TRUE(list_batches(options.journal_dir).empty());

    // Resume over the emptied journal rescans everything — byte-identical.
    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "header");
}

TEST_F(JournalTest, ScrubQuarantinesABitFlippedBatchAndResumeIsIdentical) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "flip").string();
    options.journal_batch_bytes = 1024;  // one batch per chunk
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);

    const auto batches = list_batches(options.journal_dir);
    ASSERT_GE(batches.size(), 3u);
    // Flip one payload bit in the MIDDLE batch.
    const auto& victim = batches[1];
    const auto size = std::filesystem::file_size(victim.path);
    {
        std::fstream file{victim.path, std::ios::binary | std::ios::in | std::ios::out};
        char byte = 0;
        file.seekg(static_cast<std::streamoff>(size / 2));
        file.get(byte);
        file.seekp(static_cast<std::streamoff>(size / 2));
        file.put(static_cast<char>(byte ^ 0x01));
    }

    const ScrubReport report = scrub_journal(options.journal_dir);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::corrupt_batch);
    EXPECT_EQ(report.findings[0].file, victim.path.filename().string());
    EXPECT_TRUE(report.findings[0].quarantined);
    EXPECT_EQ(report.bytes_discarded, size);
    EXPECT_EQ(report.chunks_intact, batches.size() - 1);
    EXPECT_EQ(report.chunks_to_rescan, (std::vector<std::size_t>{1}));
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                        "corrupt" / "scrub.report"));

    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "flip");
    EXPECT_EQ(resumed.scanned, (std::vector<std::size_t>{1}));
}

TEST_F(JournalTest, ADeletedMiddleBatchIsRescannedOnResume) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "gap").string();
    options.journal_batch_bytes = 1024;
    const SweepResult baseline = run_to_completion(population, options, /*resume=*/false);

    ASSERT_TRUE(std::filesystem::remove(batch_path(options.journal_dir, 1, 1)));
    // A missing batch is work nobody finished, not damage: scrub is clean.
    EXPECT_TRUE(scrub_journal(options.journal_dir).clean());

    const SweepResult resumed = run_to_completion(population, options, /*resume=*/true);
    expect_same_sweep(resumed, baseline, "gap");
    EXPECT_EQ(resumed.scanned, (std::vector<std::size_t>{1}));
    EXPECT_TRUE(std::filesystem::exists(batch_path(options.journal_dir, 1, 1)))
        << "the rescanned chunk is published again";
}

TEST_F(JournalTest, ScrubQuarantinesAMapChunkThatFramesButFailsCrc) {
    // Single-chunk batches, as the --procs map pass publishes for
    // quarantined chunks: rewrite chunk 1's with a frame whose declared CRC
    // does not match its payload.
    const CampaignHeader header = sample_header();
    init_journal(dir_, header, /*wipe=*/true);
    {
        BatchWriter writer{writer_options(dir_), 1};
        for (std::size_t c = 0; c < 3; ++c) writer.append(sample_chunk(c));
    }
    std::string framed = frame_record(serialize_chunk_record(sample_chunk(1)));
    framed[framed.size() - 1] ^= 0x01;  // parses as a frame, fails the CRC
    write_file(batch_path(dir_, 1, 1), framed);
    ASSERT_FALSE(read_batch(list_batches(dir_).at(1)).has_value());

    const ScrubReport report = scrub_journal(dir_);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].damage, ScrubDamage::corrupt_batch);
    EXPECT_TRUE(report.findings[0].quarantined);
    EXPECT_EQ(report.chunks_to_rescan, (std::vector<std::size_t>{1}));
    EXPECT_EQ(report.chunks_intact, 2u);
    EXPECT_TRUE(report.has_header);
    EXPECT_TRUE(report.header == header);
    // The corrupt batch is preserved under corrupt/, not deleted, and the
    // live directory no longer lists it — resume will rescan chunk 1.
    EXPECT_FALSE(std::filesystem::exists(batch_path(dir_, 1, 1)));
    EXPECT_TRUE(std::filesystem::exists(dir_ / "corrupt" / "chunks-00001-00001.rec"));
    EXPECT_EQ(list_batches(dir_).size(), 2u);
    EXPECT_NE(report.render().find("resume rescans chunk(s) 1\n"), std::string::npos)
        << report.render();
}

TEST_F(JournalTest, ScrubWithoutRepairOnlyClassifies) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.journal_dir = (dir_ / "dry").string();
    (void)run_to_completion(population, options, /*resume=*/false);

    const auto batch = list_batches(options.journal_dir).at(0);
    const auto size = std::filesystem::file_size(batch.path);
    {
        std::fstream file{batch.path, std::ios::binary | std::ios::in | std::ios::out};
        file.seekp(static_cast<std::streamoff>(size - 4));
        file.put('\xff');
    }

    ScrubOptions dry;
    dry.repair = false;
    const ScrubReport report = scrub_journal(options.journal_dir, dry);
    ASSERT_FALSE(report.clean());
    for (const ScrubFinding& finding : report.findings) {
        EXPECT_FALSE(finding.quarantined);
    }
    // The whole batch is rescanned, reported as one run of chunks.
    EXPECT_NE(report.render().find("resume rescans chunk(s) 0-" + std::to_string(batch.last) +
                                   "\n"),
              std::string::npos)
        << report.render();
    // Dry run: the damaged bytes are untouched and nothing was quarantined.
    EXPECT_EQ(std::filesystem::file_size(batch.path), size);
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path{options.journal_dir} /
                                         "corrupt"));
}

// --- Watchdog and bounded buffers --------------------------------------------

TEST(WatchdogTest, HungScanIsCancelledWithWatchdogOutcome) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 3;
    // Budget below one handshake timeout: every non-QUIC target's simulation
    // is still busy when the watchdog fires.
    options.domain_deadline = util::Duration::seconds(2);
    Campaign campaign{population, options};
    const CampaignStats stats = campaign.run([](const web::Domain&, DomainScan&&) {});
    EXPECT_GT(stats.outcome(qlog::ConnectionOutcome::watchdog_cancelled), 0u);
    // The watchdog kill is terminal for the domain: no retries follow it, so
    // no domain records more than one watchdog_cancelled attempt... which
    // also means the retry knob must not multiply cancelled attempts.
    EXPECT_LE(stats.outcome(qlog::ConnectionOutcome::watchdog_cancelled),
              stats.domains_resolved);
}

TEST(WatchdogTest, WatchdogKillStopsRetriesAndRedirects) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 5;
    options.domain_deadline = util::Duration::seconds(2);
    Campaign campaign{population, options};
    bool saw_cancelled = false;
    (void)campaign.run([&](const web::Domain&, DomainScan&& scan) {
        for (std::size_t i = 0; i < scan.attempts.size(); ++i) {
            if (scan.attempts[i].outcome == qlog::ConnectionOutcome::watchdog_cancelled) {
                saw_cancelled = true;
                EXPECT_EQ(i + 1, scan.attempts.size())
                    << "attempts continued after a watchdog kill";
            }
        }
    });
    EXPECT_TRUE(saw_cancelled);
}

TEST(WatchdogTest, DefaultDeadlineNeverFiresOnAHealthySweep) {
    const web::Population population = tiny_population();
    Campaign campaign{population, {}};
    const CampaignStats stats = campaign.run([](const web::Domain&, DomainScan&&) {});
    EXPECT_EQ(stats.outcome(qlog::ConnectionOutcome::watchdog_cancelled), 0u);
}

TEST(AttemptCapTest, AttemptRecordsAreBoundedAndCounted) {
    const web::Population population = tiny_population();
    ScanOptions options;
    options.retry.max_attempts = 5;
    options.max_attempt_records = 2;
    Campaign campaign{population, options};
    bool saw_truncation = false;
    (void)campaign.run([&](const web::Domain&, DomainScan&& scan) {
        EXPECT_LE(scan.attempts.size(), 2u);
        EXPECT_LE(scan.connections.size(), 2u);
        if (scan.attempts_truncated > 0) saw_truncation = true;
    });
    // ~90% of the tiny universe fails its handshake and retries 5 times —
    // truncation must have kicked in somewhere.
    EXPECT_TRUE(saw_truncation);
}

}  // namespace
}  // namespace spinscope::scanner
