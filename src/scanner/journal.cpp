#include "scanner/journal.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "scanner/shard.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/proc.hpp"

namespace spinscope::scanner {

namespace {

constexpr std::string_view kFrameMarker = "#rec ";

// ---------------------------------------------------------------------------
// Token encoding: journal scalar strings (error messages, response headers)
// are percent-encoded into single whitespace-free tokens so that every
// payload line splits unambiguously on spaces. The empty string encodes to
// the empty token, which the positional key=value parser accepts.

[[nodiscard]] std::string encode_token(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto b = static_cast<unsigned char>(c);
        if (b > 0x20 && b < 0x7f && b != '%') {
            out.push_back(c);
        } else {
            out.push_back('%');
            out.push_back(kHex[b >> 4]);
            out.push_back(kHex[b & 0xf]);
        }
    }
    return out;
}

[[nodiscard]] int hex_digit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
}

[[nodiscard]] std::optional<std::string> decode_token(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out.push_back(s[i]);
            continue;
        }
        if (i + 2 >= s.size()) return std::nullopt;
        const int hi = hex_digit(s[i + 1]);
        const int lo = hex_digit(s[i + 2]);
        if (hi < 0 || lo < 0) return std::nullopt;
        out.push_back(static_cast<char>((hi << 4) | lo));
        i += 2;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Payload cursor: line- and raw-byte-oriented reads over one record payload.

struct Cursor {
    std::string_view data;
    std::size_t pos = 0;

    [[nodiscard]] bool done() const noexcept { return pos >= data.size(); }

    /// Next line without its '\n'; nullopt when no full line remains.
    [[nodiscard]] std::optional<std::string_view> line() {
        if (done()) return std::nullopt;
        const auto nl = data.find('\n', pos);
        if (nl == std::string_view::npos) return std::nullopt;
        std::string_view out = data.substr(pos, nl - pos);
        pos = nl + 1;
        return out;
    }

    /// Next `n` raw bytes; nullopt when fewer remain.
    [[nodiscard]] std::optional<std::string_view> raw(std::size_t n) {
        if (data.size() - pos < n) return std::nullopt;
        std::string_view out = data.substr(pos, n);
        pos += n;
        return out;
    }
};

[[nodiscard]] std::vector<std::string_view> split_tokens(std::string_view line) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    while (start <= line.size()) {
        const auto space = line.find(' ', start);
        if (space == std::string_view::npos) {
            out.push_back(line.substr(start));
            break;
        }
        out.push_back(line.substr(start, space - start));
        start = space + 1;
    }
    return out;
}

template <typename T>
[[nodiscard]] bool parse_number(std::string_view token, T& out) {
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), out);
    return ec == std::errc{} && ptr == token.data() + token.size();
}

/// Strips "key=" and parses the remainder as a number.
template <typename T>
[[nodiscard]] bool parse_kv(std::string_view token, std::string_view key, T& out) {
    if (token.size() < key.size() + 1 || token.substr(0, key.size()) != key ||
        token[key.size()] != '=') {
        return false;
    }
    return parse_number(token.substr(key.size() + 1), out);
}

[[nodiscard]] bool parse_kv_bool(std::string_view token, std::string_view key, bool& out) {
    int v = 0;
    if (!parse_kv(token, key, v) || (v != 0 && v != 1)) return false;
    out = v == 1;
    return true;
}

[[nodiscard]] std::optional<std::string> parse_kv_token(std::string_view token,
                                                        std::string_view key) {
    if (token.size() < key.size() + 1 || token.substr(0, key.size()) != key ||
        token[key.size()] != '=') {
        return std::nullopt;
    }
    return decode_token(token.substr(key.size() + 1));
}

void append_kv(std::string& out, std::string_view key, std::uint64_t v) {
    out += ' ';
    out += key;
    out += '=';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
    out += buf;
}

void append_kv_signed(std::string& out, std::string_view key, long long v) {
    out += ' ';
    out += key;
    out += '=';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%lld", v);
    out += buf;
}

void append_length_block(std::string& out, std::string_view keyword, std::string_view bytes) {
    out += keyword;
    out += ' ';
    char buf[24];
    std::snprintf(buf, sizeof buf, "%zu", bytes.size());
    out += buf;
    out += '\n';
    out += bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// Record payloads

std::string serialize_header(const CampaignHeader& header) {
    std::string out = "campaign";
    append_kv(out, "seed", header.seed);
    append_kv_signed(out, "week", header.week);
    append_kv(out, "ipv6", header.ipv6 ? 1 : 0);
    append_kv(out, "chunk_domains", header.chunk_domains);
    append_kv(out, "domain_count", header.domain_count);
    append_kv(out, "telemetry", header.has_telemetry ? 1 : 0);
    out += '\n';
    return out;
}

std::optional<CampaignHeader> parse_header(std::string_view payload) {
    Cursor cur{payload};
    const auto line = cur.line();
    if (!line || !cur.done()) return std::nullopt;
    const auto tok = split_tokens(*line);
    CampaignHeader header;
    long long week = 0;
    std::uint64_t chunk_domains = 0;
    std::uint64_t domain_count = 0;
    if (tok.size() != 7 || tok[0] != "campaign" || !parse_kv(tok[1], "seed", header.seed) ||
        !parse_kv(tok[2], "week", week) || !parse_kv_bool(tok[3], "ipv6", header.ipv6) ||
        !parse_kv(tok[4], "chunk_domains", chunk_domains) ||
        !parse_kv(tok[5], "domain_count", domain_count) ||
        !parse_kv_bool(tok[6], "telemetry", header.has_telemetry)) {
        return std::nullopt;
    }
    header.week = static_cast<int>(week);
    header.chunk_domains = static_cast<std::size_t>(chunk_domains);
    header.domain_count = static_cast<std::size_t>(domain_count);
    return header;
}

std::string serialize_chunk_record(const ChunkRecord& record) {
    std::string out = "chunk";
    append_kv(out, "index", record.chunk_index);
    append_kv(out, "quarantined", record.quarantined ? 1 : 0);
    out += " error=";
    out += encode_token(record.quarantine_error);
    append_kv(out, "domains", record.scans.size());
    out += '\n';

    for (const auto& scan : record.scans) {
        out += "domain";
        append_kv(out, "id", scan.domain_id);
        append_kv(out, "resolved", scan.resolved ? 1 : 0);
        append_kv(out, "redirects", scan.redirects_followed);
        append_kv(out, "retries", scan.retries);
        append_kv(out, "recovered", scan.recovered_by_retry ? 1 : 0);
        append_kv(out, "attempts_truncated", scan.attempts_truncated);
        append_kv_signed(out, "sim_ns", scan.sim_time.count_nanos());
        out += " error=";
        out += encode_token(scan.error);
        append_kv(out, "response", scan.final_response ? 1 : 0);
        const ResponseInfo response = scan.final_response.value_or(ResponseInfo{});
        append_kv_signed(out, "status", response.status);
        append_kv(out, "body", response.body_bytes);
        out += " location=";
        out += encode_token(response.location);
        out += " server=";
        out += encode_token(response.server_name);
        append_kv(out, "attempts", scan.attempts.size());
        append_kv(out, "connections", scan.connections.size());
        out += '\n';

        for (const auto& attempt : scan.attempts) {
            out += "attempt";
            append_kv_signed(out, "hop", attempt.redirect_hop);
            append_kv_signed(out, "retry", attempt.retry);
            append_kv(out, "outcome", static_cast<std::uint64_t>(attempt.outcome));
            append_kv_signed(out, "backoff_ns", attempt.backoff.count_nanos());
            append_kv(out, "fault", static_cast<std::uint64_t>(attempt.server_fault));
            out += '\n';
        }
        for (const auto& trace : scan.connections) {
            append_length_block(out, "trace", qlog::to_jsonl(trace));
        }
    }
    append_length_block(out, "telemetry", record.telemetry_snapshot);
    return out;
}

namespace {

/// Parses one `<keyword> <nbytes>` line followed by that many raw bytes.
[[nodiscard]] std::optional<std::string_view> parse_length_block(Cursor& cur,
                                                                 std::string_view keyword) {
    const auto line = cur.line();
    if (!line) return std::nullopt;
    const auto tok = split_tokens(*line);
    std::uint64_t n = 0;
    if (tok.size() != 2 || tok[0] != keyword || !parse_number(tok[1], n)) {
        return std::nullopt;
    }
    return cur.raw(static_cast<std::size_t>(n));
}

}  // namespace

std::optional<ChunkRecord> parse_chunk_record(std::string_view payload) {
    Cursor cur{payload};
    const auto chunk_line = cur.line();
    if (!chunk_line) return std::nullopt;
    const auto chunk_tok = split_tokens(*chunk_line);
    ChunkRecord record;
    std::uint64_t index = 0;
    std::uint64_t domain_count = 0;
    if (chunk_tok.size() != 5 || chunk_tok[0] != "chunk" ||
        !parse_kv(chunk_tok[1], "index", index) ||
        !parse_kv_bool(chunk_tok[2], "quarantined", record.quarantined)) {
        return std::nullopt;
    }
    const auto quarantine_error = parse_kv_token(chunk_tok[3], "error");
    if (!quarantine_error || !parse_kv(chunk_tok[4], "domains", domain_count)) {
        return std::nullopt;
    }
    record.chunk_index = static_cast<std::size_t>(index);
    record.quarantine_error = *quarantine_error;

    record.scans.reserve(static_cast<std::size_t>(domain_count));
    for (std::uint64_t d = 0; d < domain_count; ++d) {
        const auto domain_line = cur.line();
        if (!domain_line) return std::nullopt;
        const auto tok = split_tokens(*domain_line);
        if (tok.size() != 16 || tok[0] != "domain") return std::nullopt;

        DomainScan scan;
        std::uint64_t attempt_count = 0;
        std::uint64_t connection_count = 0;
        bool has_response = false;
        long long status = 0;
        std::uint64_t body_bytes = 0;
        long long sim_ns = 0;
        if (!parse_kv(tok[1], "id", scan.domain_id) ||
            !parse_kv_bool(tok[2], "resolved", scan.resolved) ||
            !parse_kv(tok[3], "redirects", scan.redirects_followed) ||
            !parse_kv(tok[4], "retries", scan.retries) ||
            !parse_kv_bool(tok[5], "recovered", scan.recovered_by_retry) ||
            !parse_kv(tok[6], "attempts_truncated", scan.attempts_truncated) ||
            !parse_kv(tok[7], "sim_ns", sim_ns)) {
            return std::nullopt;
        }
        const auto error = parse_kv_token(tok[8], "error");
        if (!error || !parse_kv_bool(tok[9], "response", has_response) ||
            !parse_kv(tok[10], "status", status) || !parse_kv(tok[11], "body", body_bytes)) {
            return std::nullopt;
        }
        const auto location = parse_kv_token(tok[12], "location");
        const auto server = parse_kv_token(tok[13], "server");
        if (!location || !server || !parse_kv(tok[14], "attempts", attempt_count) ||
            !parse_kv(tok[15], "connections", connection_count)) {
            return std::nullopt;
        }
        scan.sim_time = util::Duration::nanos(sim_ns);
        scan.error = *error;
        if (has_response) {
            ResponseInfo response;
            response.status = static_cast<int>(status);
            response.body_bytes = static_cast<std::size_t>(body_bytes);
            response.location = *location;
            response.server_name = *server;
            scan.final_response = response;
        }

        scan.attempts.reserve(static_cast<std::size_t>(attempt_count));
        for (std::uint64_t a = 0; a < attempt_count; ++a) {
            const auto attempt_line = cur.line();
            if (!attempt_line) return std::nullopt;
            const auto atok = split_tokens(*attempt_line);
            if (atok.size() != 6 || atok[0] != "attempt") return std::nullopt;
            DomainScan::AttemptRecord attempt;
            long long hop = 0;
            long long retry = 0;
            std::uint64_t outcome = 0;
            long long backoff_ns = 0;
            std::uint64_t fault = 0;
            if (!parse_kv(atok[1], "hop", hop) || !parse_kv(atok[2], "retry", retry) ||
                !parse_kv(atok[3], "outcome", outcome) ||
                !parse_kv(atok[4], "backoff_ns", backoff_ns) ||
                !parse_kv(atok[5], "fault", fault)) {
                return std::nullopt;
            }
            if (outcome >= qlog::kConnectionOutcomeCount ||
                fault >= faults::kServerFaultModeCount) {
                return std::nullopt;
            }
            attempt.redirect_hop = static_cast<int>(hop);
            attempt.retry = static_cast<int>(retry);
            attempt.outcome = static_cast<qlog::ConnectionOutcome>(outcome);
            attempt.backoff = util::Duration::nanos(backoff_ns);
            attempt.server_fault = static_cast<faults::ServerFaultMode>(fault);
            scan.attempts.push_back(attempt);
        }

        scan.connections.reserve(static_cast<std::size_t>(connection_count));
        for (std::uint64_t c = 0; c < connection_count; ++c) {
            const auto raw = parse_length_block(cur, "trace");
            if (!raw) return std::nullopt;
            auto trace = qlog::parse_jsonl(std::string{*raw});
            if (!trace) return std::nullopt;
            scan.connections.push_back(std::move(*trace));
        }

        record.scans.push_back(std::move(scan));
    }

    const auto telemetry = parse_length_block(cur, "telemetry");
    if (!telemetry || !cur.done()) return std::nullopt;
    record.telemetry_snapshot = std::string{*telemetry};
    return record;
}

// ---------------------------------------------------------------------------
// Record framing

std::string frame_record(const std::string& payload) {
    char head[48];
    std::snprintf(head, sizeof head, "#rec %zu %08x\n", payload.size(),
                  util::crc32(payload));
    return head + payload;
}

namespace {

/// One parsed frame: payload view plus the offset just past the frame.
struct Frame {
    std::string_view payload;
    std::size_t end = 0;
};

[[nodiscard]] std::optional<Frame> next_frame(std::string_view content, std::size_t pos) {
    if (content.substr(pos, kFrameMarker.size()) != kFrameMarker) return std::nullopt;
    const auto nl = content.find('\n', pos);
    if (nl == std::string_view::npos) return std::nullopt;
    const auto head = split_tokens(content.substr(pos, nl - pos));
    std::uint64_t len = 0;
    if (head.size() != 3 || !parse_number(head[1], len)) return std::nullopt;
    std::uint32_t crc = 0;
    {
        const auto tok = head[2];
        const auto [ptr, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), crc, 16);
        if (ec != std::errc{} || ptr != tok.data() + tok.size()) return std::nullopt;
    }
    const std::size_t body_start = nl + 1;
    if (content.size() - body_start < len) return std::nullopt;
    Frame frame;
    frame.payload = content.substr(body_start, static_cast<std::size_t>(len));
    frame.end = body_start + static_cast<std::size_t>(len);
    if (util::crc32(frame.payload) != crc) return std::nullopt;
    return frame;
}

[[nodiscard]] std::string read_whole_file(const std::filesystem::path& path) {
    std::ifstream in{path, std::ios::binary};
    std::string content;
    if (!in) return content;
    content.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    return content;
}

/// Payload of a single-record framed file; nullopt when the file is absent,
/// torn, fails CRC, or has trailing bytes past the frame.
[[nodiscard]] std::optional<std::string> read_framed_file(
    const std::filesystem::path& path) {
    if (!std::filesystem::is_regular_file(path)) return std::nullopt;
    const std::string content = read_whole_file(path);
    const auto frame = next_frame(content, 0);
    if (!frame || frame->end != content.size()) return std::nullopt;
    return std::string{frame->payload};
}

[[noreturn]] void throw_io(const std::string& what, util::IoResult result) {
    throw JournalIoError{what + ": " + result.message(), result};
}

constexpr const char* kHeaderName = "header.rec";
constexpr std::string_view kBatchPrefix = "chunks-";
constexpr std::string_view kRecSuffix = ".rec";
constexpr std::string_view kLeasePrefix = "chunk-";
constexpr std::string_view kLeaseSuffix = ".lease";

[[nodiscard]] bool is_lease_name(std::string_view name) {
    return name.starts_with(kLeasePrefix) && name.ends_with(kLeaseSuffix);
}

/// Temp files in `dir` whose writer is gone: a dead pid, or this process,
/// which never calls this with a batch open. A live foreign writer's temp
/// is left alone.
[[nodiscard]] std::vector<std::filesystem::path> stale_temps(const std::filesystem::path& dir) {
    std::vector<std::filesystem::path> out;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        const auto owner = util::temp_sibling_owner(entry.path());
        if (owner && (*owner == util::current_pid() || !util::process_alive(*owner))) {
            out.push_back(entry.path());
        }
    }
    return out;
}

void remove_or_throw(util::Io& io, const std::filesystem::path& path) {
    const util::IoResult removed = io.remove(path);
    if (!removed) throw_io("journal: cannot remove " + path.string(), removed);
}

}  // namespace

CampaignHeader campaign_header(const ScanOptions& options, std::size_t domain_count,
                               bool has_telemetry) {
    CampaignHeader header;
    header.seed = options.seed;
    header.week = options.week;
    header.ipv6 = options.ipv6;
    header.chunk_domains = options.chunk_domains;
    header.domain_count = domain_count;
    header.has_telemetry = has_telemetry;
    return header;
}

// ---------------------------------------------------------------------------
// Directory layout

std::filesystem::path journal_lock_path(const std::filesystem::path& dir) {
    return dir / "journal.lock";
}

std::filesystem::path journal_header_path(const std::filesystem::path& dir) {
    return dir / kHeaderName;
}

std::filesystem::path batch_path(const std::filesystem::path& dir, std::size_t first,
                                 std::size_t last) {
    char name[64];
    std::snprintf(name, sizeof name, "chunks-%05zu-%05zu.rec", first, last);
    return dir / name;
}

std::filesystem::path lease_path(const std::filesystem::path& dir, std::size_t chunk_index) {
    char name[48];
    std::snprintf(name, sizeof name, "chunk-%05zu.lease", chunk_index);
    return dir / name;
}

void init_journal(const std::filesystem::path& dir, const CampaignHeader& header, bool wipe,
                  util::Io* io_seam) {
    util::Io& io = util::resolve_io(io_seam);
    std::filesystem::create_directories(dir);
    // Persist the directory's own existence: a power cut right after mkdir
    // must not orphan every file published into it.
    (void)util::fsync_dir(io, dir.has_parent_path() ? dir.parent_path()
                                                    : std::filesystem::path{"."});
    const auto header_file = journal_header_path(dir);
    if (wipe) {
        std::vector<std::filesystem::path> doomed = stale_temps(dir);
        for (const auto& entry : std::filesystem::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name == kHeaderName || is_lease_name(name) || parse_batch_name(name)) {
                doomed.push_back(entry.path());
            }
        }
        for (const auto& path : doomed) remove_or_throw(io, path);
    } else if (std::filesystem::exists(header_file)) {
        const auto payload = read_framed_file(header_file);
        const auto stored = payload ? parse_header(*payload) : std::nullopt;
        if (!stored) {
            throw std::invalid_argument("journal: " + header_file.string() +
                                        " is unreadable; scrub the journal before resuming");
        }
        if (!(*stored == header)) {
            throw std::invalid_argument(
                "journal: header mismatch — this journal belongs to a different campaign "
                "(seed/week/family/chunking/population differ)");
        }
        return;
    }
    const util::IoResult written =
        util::write_file_atomic(io, header_file, frame_record(serialize_header(header)));
    if (!written) throw_io("journal: cannot write header in " + dir.string(), written);
}

std::optional<BatchFile> parse_batch_name(std::string_view name) {
    if (!name.starts_with(kBatchPrefix) || !name.ends_with(kRecSuffix)) return std::nullopt;
    name.remove_prefix(kBatchPrefix.size());
    name.remove_suffix(kRecSuffix.size());
    const auto dash = name.find('-');
    BatchFile batch;
    if (dash == std::string_view::npos || !parse_number(name.substr(0, dash), batch.first) ||
        !parse_number(name.substr(dash + 1), batch.last) || batch.first > batch.last) {
        return std::nullopt;
    }
    return batch;
}

std::vector<BatchFile> list_batches(const std::filesystem::path& dir) {
    std::vector<BatchFile> out;
    if (!std::filesystem::is_directory(dir)) return out;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        if (auto batch = parse_batch_name(entry.path().filename().string())) {
            batch->path = entry.path();
            out.push_back(std::move(*batch));
        }
    }
    std::sort(out.begin(), out.end(), [](const BatchFile& a, const BatchFile& b) {
        return a.first != b.first ? a.first < b.first : a.last > b.last;
    });
    return out;
}

std::vector<BatchFile> replayable_batches(const std::filesystem::path& dir,
                                          std::size_t chunk_count) {
    std::vector<BatchFile> out;
    for (BatchFile& batch : list_batches(dir)) {
        if (batch.last >= chunk_count) continue;
        if (!out.empty() && batch.first <= out.back().last) continue;
        out.push_back(std::move(batch));
    }
    return out;
}

std::optional<std::vector<ChunkRecord>> read_batch(const BatchFile& batch) {
    const std::string content = read_whole_file(batch.path);
    std::vector<ChunkRecord> records;
    std::size_t pos = 0;
    while (pos < content.size()) {
        const auto frame = next_frame(content, pos);
        if (!frame) return std::nullopt;
        auto record = parse_chunk_record(frame->payload);
        if (!record || record->chunk_index != batch.first + records.size()) return std::nullopt;
        records.push_back(std::move(*record));
        pos = frame->end;
    }
    if (records.size() != batch.chunks()) return std::nullopt;
    return records;
}

// ---------------------------------------------------------------------------
// BatchWriter

BatchWriter::BatchWriter(const ScanOptions& options, std::size_t batch_bytes)
    : dir_{options.journal_dir},
      batch_bytes_{batch_bytes},
      io_{&util::resolve_io(options.io)},
      retry_{options.journal_retry},
      // Storage retries never touch any scan-facing RNG, so the determinism
      // contract (DESIGN.md §9) holds whether or not the disk stutters.
      retry_rng_{util::derive_stream_seed(options.seed, 0xd15cULL)} {}

BatchWriter::~BatchWriter() { abandon(); }

void BatchWriter::abandon() noexcept {
    if (fd_ != util::Io::kBadFile) {
        (void)io_->close(fd_);
        fd_ = util::Io::kBadFile;
    }
    if (!temp_.empty()) {
        (void)io_->remove(temp_);
        temp_.clear();
    }
    open_bytes_ = 0;
    open_records_ = 0;
}

void BatchWriter::retry_or_throw(util::IoResult result, int attempt, const std::string& what) {
    if (util::classify_io_error(result.err) != util::IoErrorClass::transient ||
        attempt + 1 >= retry_.max_attempts) {
        abandon();
        throw_io("journal: " + what + " in " + dir_.string(), result);
    }
    // Wall-clock backoff: unlike scan retries (simulated time), the disk is
    // a real resource and giving it a millisecond is the whole point.
    const util::Duration delay = retry_.backoff_delay(attempt + 1, retry_rng_);
    if (delay.count_nanos() > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds{delay.count_nanos()});
    }
}

void BatchWriter::append(const ChunkRecord& record) {
    if (fd_ != util::Io::kBadFile && record.chunk_index != last_ + 1) publish();
    if (fd_ == util::Io::kBadFile) {
        first_ = record.chunk_index;
        temp_ = util::temp_sibling(batch_path(dir_, first_, first_));
        // Append mode: after a rollback ftruncate the next write still lands
        // at end-of-file, so a retried record never leaves a hole.
        for (int attempt = 0;; ++attempt) {
            util::IoResult opened;
            fd_ = io_->open_write(temp_, util::Io::OpenMode::append, opened);
            if (fd_ != util::Io::kBadFile) break;
            retry_or_throw(opened, attempt, "cannot open a batch");
        }
    }
    const std::string framed = frame_record(serialize_chunk_record(record));
    // The frame goes out in ONE write, so a fault either loses the whole
    // record or tears exactly one frame at the end of the temp file.
    for (int attempt = 0;; ++attempt) {
        const util::IoResult written = io_->write(fd_, framed);
        if (written) break;
        if (!io_->truncate(fd_, open_bytes_)) {
            abandon();
            throw_io("journal: batch write failed (rollback failed too) in " + dir_.string(),
                     written);
        }
        retry_or_throw(written, attempt, "batch write failed");
    }
    last_ = record.chunk_index;
    open_bytes_ += framed.size();
    ++open_records_;
    if (open_bytes_ >= batch_bytes_) publish();
}

void BatchWriter::publish() {
    if (fd_ == util::Io::kBadFile) return;
    // A batch that cannot be flushed is never published: after a failed
    // fsync the bytes on media are anyone's guess.
    for (int attempt = 0;; ++attempt) {
        const util::IoResult synced = io_->fsync(fd_);
        if (synced) break;
        retry_or_throw(synced, attempt, "fsync failed publishing a batch");
    }
    const util::IoResult closed = io_->close(fd_);
    fd_ = util::Io::kBadFile;
    if (!closed) {
        abandon();
        throw_io("journal: close failed publishing a batch in " + dir_.string(), closed);
    }
    const util::IoResult renamed =
        util::rename_durable(*io_, temp_, batch_path(dir_, first_, last_));
    if (!renamed) {
        abandon();
        throw_io("journal: cannot publish a batch in " + dir_.string(), renamed);
    }
    temp_.clear();
    ++batches_published_;
    records_published_ += open_records_;
    open_bytes_ = 0;
    open_records_ = 0;
}

// ---------------------------------------------------------------------------
// Chunk leases

std::string serialize_lease(const ChunkLease& lease) {
    std::string out = "lease";
    append_kv(out, "chunk", lease.chunk_index);
    append_kv_signed(out, "pid", lease.pid);
    append_kv(out, "token", lease.token);
    append_kv(out, "attempts", lease.attempts);
    out += '\n';
    return out;
}

std::optional<ChunkLease> parse_lease(std::string_view payload) {
    Cursor cur{payload};
    const auto line = cur.line();
    if (!line || !cur.done()) return std::nullopt;
    const auto tok = split_tokens(*line);
    ChunkLease lease;
    std::uint64_t chunk = 0;
    long long pid = 0;
    if (tok.size() != 5 || tok[0] != "lease" || !parse_kv(tok[1], "chunk", chunk) ||
        !parse_kv(tok[2], "pid", pid) || !parse_kv(tok[3], "token", lease.token) ||
        !parse_kv(tok[4], "attempts", lease.attempts)) {
        return std::nullopt;
    }
    lease.chunk_index = static_cast<std::size_t>(chunk);
    lease.pid = static_cast<long>(pid);
    return lease;
}

util::IoResult claim_lease(util::Io& io, const std::filesystem::path& dir,
                           const ChunkLease& lease) {
    return util::create_file_exclusive(io, lease_path(dir, lease.chunk_index),
                                       serialize_lease(lease));
}

bool claim_lease(const std::filesystem::path& dir, const ChunkLease& lease) {
    return claim_lease(util::Io::real(), dir, lease).ok();
}

std::optional<ChunkLease> read_lease(const std::filesystem::path& dir,
                                     std::size_t chunk_index) {
    const auto path = lease_path(dir, chunk_index);
    if (!std::filesystem::is_regular_file(path)) return std::nullopt;
    auto lease = parse_lease(read_whole_file(path));
    if (!lease || lease->chunk_index != chunk_index) return std::nullopt;
    return lease;
}

bool release_lease(const std::filesystem::path& dir, std::size_t chunk_index,
                   std::uint64_t token) {
    const auto path = lease_path(dir, chunk_index);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return true;
    const auto lease = read_lease(dir, chunk_index);
    if (lease) {
        if (lease->token != token) return false;  // fencing: not our lease
    } else if (token != 0) {
        return false;  // garbled lease needs the explicit token-0 override
    }
    std::filesystem::remove(path, ec);
    return !std::filesystem::exists(path, ec);
}

// ---------------------------------------------------------------------------
// Scrub

const char* to_cstring(ScrubDamage damage) noexcept {
    switch (damage) {
        case ScrubDamage::header_corrupt: return "header_corrupt";
        case ScrubDamage::corrupt_batch: return "corrupt_batch";
    }
    return "unknown";
}

std::string ScrubReport::render() const {
    std::string out;
    char line[256];
    std::snprintf(line, sizeof line,
                  "scrub: %llu batch(es) checked; %llu chunk(s) intact; %llu byte(s) "
                  "discarded; %llu stale temp file(s)\n",
                  static_cast<unsigned long long>(batches_checked),
                  static_cast<unsigned long long>(chunks_intact),
                  static_cast<unsigned long long>(bytes_discarded),
                  static_cast<unsigned long long>(stale_temps));
    out += line;
    if (clean()) {
        out += "scrub: journal is clean\n";
        return out;
    }
    for (const auto& finding : findings) {
        std::snprintf(line, sizeof line, "scrub: %s in %s [%s]: %s\n",
                      to_cstring(finding.damage), finding.file.c_str(),
                      finding.quarantined ? "quarantined" : "not quarantined",
                      finding.detail.c_str());
        out += line;
    }
    if (!chunks_to_rescan.empty()) {
        // A quarantined batch costs a run of chunks: print runs as first-last.
        out += "scrub: resume rescans chunk(s)";
        for (std::size_t i = 0; i < chunks_to_rescan.size();) {
            std::size_t j = i;
            while (j + 1 < chunks_to_rescan.size() &&
                   chunks_to_rescan[j + 1] == chunks_to_rescan[j] + 1) {
                ++j;
            }
            out += ' ' + std::to_string(chunks_to_rescan[i]);
            if (j > i) out += '-' + std::to_string(chunks_to_rescan[j]);
            i = j + 1;
        }
        out += '\n';
    }
    return out;
}

std::string ScrubReport::machine_report() const {
    std::string out = "scrub";
    append_kv(out, "header", has_header ? 1 : 0);
    append_kv(out, "batches", batches_checked);
    append_kv(out, "chunks_intact", chunks_intact);
    append_kv(out, "bytes_discarded", bytes_discarded);
    append_kv(out, "stale_temps", stale_temps);
    append_kv(out, "findings", findings.size());
    out += '\n';
    for (const auto& finding : findings) {
        out += "finding damage=";
        out += to_cstring(finding.damage);
        out += " file=";
        out += encode_token(finding.file);
        append_kv(out, "quarantined", finding.quarantined ? 1 : 0);
        out += " detail=";
        out += encode_token(finding.detail);
        out += '\n';
    }
    for (const std::size_t index : chunks_to_rescan) {
        out += "rescan";
        append_kv(out, "chunk", index);
        out += '\n';
    }
    return out;
}

ScrubReport scrub_journal(const std::filesystem::path& dir, const ScrubOptions& options) {
    ScrubReport report;
    if (!std::filesystem::is_directory(dir)) return report;
    util::Io& io = util::resolve_io(options.io);
    const auto corrupt_dir = dir / "corrupt";

    const auto temps = stale_temps(dir);
    report.stale_temps = temps.size();
    if (options.repair) {
        for (const auto& path : temps) remove_or_throw(io, path);
    }

    // Quarantined, never deleted: the damaged file moves under corrupt/.
    const auto condemn = [&](ScrubDamage damage, const std::filesystem::path& path,
                             std::string detail) {
        ScrubFinding finding;
        finding.damage = damage;
        finding.file = path.filename().string();
        finding.detail = std::move(detail);
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec) report.bytes_discarded += size;
        if (options.repair) {
            std::filesystem::create_directories(corrupt_dir);
            const util::IoResult moved =
                util::rename_durable(io, path, corrupt_dir / path.filename());
            if (!moved) throw_io("journal: scrub cannot quarantine " + path.string(), moved);
            finding.quarantined = true;
        }
        report.findings.push_back(std::move(finding));
    };

    const auto batches = list_batches(dir);
    report.batches_checked = batches.size();
    const auto header_file = journal_header_path(dir);
    bool attributable = true;
    std::size_t chunk_count = 0;
    if (std::filesystem::exists(header_file)) {
        const auto payload = read_framed_file(header_file);
        const auto parsed = payload ? parse_header(*payload) : std::nullopt;
        if (parsed) {
            report.has_header = true;
            report.header = *parsed;
            chunk_count = ShardPlan{parsed->domain_count, parsed->chunk_domains}.chunk_count();
        } else {
            attributable = false;
            // Nothing here can be attributed to a campaign, so no batch is
            // safe to replay.
            condemn(ScrubDamage::header_corrupt, header_file,
                    "campaign header unreadable; quarantining every batch, resume "
                    "rescans every chunk");
            for (const BatchFile& batch : batches) {
                condemn(ScrubDamage::corrupt_batch, batch.path,
                        "batch of a campaign whose header is unreadable");
            }
        }
    }
    if (attributable) {
        for (const BatchFile& batch : batches) {
            if (read_batch(batch)) {
                report.chunks_intact += batch.chunks();
                continue;
            }
            condemn(ScrubDamage::corrupt_batch, batch.path,
                    "frame/CRC/body validation fails or a record names another chunk");
            // Chunks past the campaign's last one do not exist to rescan
            // (and a forged name must not make the list huge).
            for (std::size_t c = batch.first; c <= batch.last && c < chunk_count; ++c) {
                report.chunks_to_rescan.push_back(c);
            }
        }
    }
    std::sort(report.chunks_to_rescan.begin(), report.chunks_to_rescan.end());
    report.chunks_to_rescan.erase(
        std::unique(report.chunks_to_rescan.begin(), report.chunks_to_rescan.end()),
        report.chunks_to_rescan.end());

    if (options.repair && !report.clean()) {
        std::filesystem::create_directories(corrupt_dir);
        const util::IoResult written =
            util::write_file_atomic(io, corrupt_dir / "scrub.report", report.machine_report());
        if (!written) throw_io("journal: scrub cannot save scrub.report", written);
    }
    return report;
}

}  // namespace spinscope::scanner
