// spinbench/harness.cpp
//
// The spinscope benchmark harness. It drives one named workload through the
// library's public entry points, times every call from outside, checks the
// workload's output and prints one JSON report as its last line (run.py
// turns that report into the benchmark's result line).
//
//   spinbench --workload NAME --seed N --seconds S --trace 0|1 [--work DIR]
//   spinbench --workload NAME --seed N --reference-only
//
// Workloads (README.md says why each was chosen):
//   sweep_v4       Table 1 IPv4 campaign, Campaign::run, threads=2
//   spin_accuracy  Fig. 3/4 corpus: Campaign::scan_domain per spin-candidate
//                  QUIC domain over sampled weeks, core::assess_connection,
//                  analysis::AccuracyAggregator, analysis::ObserverReplay
//
// --trace 0 reports end-to-end metrics: every run() is timed with the span
// log off, repeated until --seconds have passed, and summarised by medians.
// --trace 1 runs the workload once, with spans around its top-level campaign
// calls, then serial "ledger" passes that make the same layer calls one by
// one, in pairs with the span log off and on. Per-layer numbers come from
// the spans and the run's telemetry; the wall-time ratio of the two passes
// of a pair is the tracing overhead. The report carries the run's output
// digest and values; run.py compares them with the committed expected.tsv.
//
// CampaignStats::wall_seconds and domains_per_sec are never read: the first
// covers only the merge/reduce phase. Work counters come from the campaign's
// MetricsRegistry; heap counts come from the interposer below.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/accuracy.hpp"
#include "analysis/adoption.hpp"
#include "analysis/observer.hpp"
#include "core/accuracy.hpp"
#include "core/constrained_monitor.hpp"
#include "qlog/trace.hpp"
#include "scanner/campaign.hpp"
#include "spans.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
#include "web/population.hpp"
// Heap accounting; this file is the binary's single translation unit.
#include "telemetry/alloc_interpose.hpp"

using namespace spinscope;
using spinbench::SpanLog;

namespace {

using Clock = std::chrono::steady_clock;

/// Qlog encode/parse and per-domain scan_domain probes run on every
/// kProbeEvery-th chunk (sweeps) or scan (spin_accuracy) of the ledger pass.
constexpr std::size_t kProbeEvery = 8;
/// Domains per materialized block when selecting the spin_accuracy corpus.
constexpr std::size_t kSelectBlock = 4096;
/// Set-ups timed before the first repetition and after each one; set-up
/// takes microseconds, so its time follows the machine's speed of the moment.
constexpr std::size_t kSetupSamples = 101;
/// Workload sizes: population scale (1:N of the paper's universe) and the
/// weeks spin_accuracy samples from CW 0 to CW 57.
constexpr double kSweepScale = 2000.0;
constexpr double kSpinScale = 6000.0;
constexpr unsigned kSpinWeeks = 12;
/// Span rows written per traced run (about one sweep_v4 ledger pass); the
/// per-name totals always cover every span.
constexpr std::size_t kMaxSpanRows = 250000;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds (user + system) of RUSAGE_SELF or RUSAGE_CHILDREN (the
/// waited-for children; the workloads start none, so the term stays 0
/// unless a library change moves work into child processes).
double cpu_seconds(int who) {
    rusage usage{};
    getrusage(who, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double cpu_seconds() { return cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN); }

/// The larger of this process's and its largest child's max RSS, in MB.
double peak_rss_mb() {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

std::string fnv1a_hex(const std::string& text) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
    return buf;
}

std::string fixed6(double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", value);
    return buf;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Deterministic work counts and workload shape

/// Deterministic work counters of a campaign registry: every netsim.* and
/// quic.* counter plus the event-queue high-water mark. These must repeat
/// exactly for the same campaign, whatever the thread or process count.
using Counts = std::map<std::string, std::uint64_t>;

Counts work_counts(const telemetry::MetricsRegistry& registry) {
    Counts counts;
    for (const auto& [name, counter] : registry.counters()) {
        if (name.rfind("netsim.", 0) == 0 || name.rfind("quic.", 0) == 0) {
            counts[name] = counter->value();
        }
    }
    if (const auto* hwm = registry.find_gauge("netsim.sim.queue_depth_hwm");
        hwm != nullptr && hwm->has_value()) {
        counts["netsim.sim.queue_depth_hwm"] = static_cast<std::uint64_t>(hwm->value());
    }
    return counts;
}

std::uint64_t count_of(const Counts& counts, const std::string& name) {
    const auto it = counts.find(name);
    return it == counts.end() ? 0 : it->second;
}

/// What a workload is made of: the share of attempts that target live
/// (Domain::quic) hosts. A seed that hollows a workload out shows here.
struct Shape {
    std::uint64_t domains = 0;
    std::uint64_t live_domains = 0;
    std::uint64_t attempts = 0;
    std::uint64_t live_attempts = 0;

    void add(const web::Domain& domain, const scanner::DomainScan& scan) {
        ++domains;
        attempts += scan.connections.size();
        if (domain.quic) {
            ++live_domains;
            live_attempts += scan.connections.size();
        }
    }
    bool operator==(const Shape&) const = default;
};

/// Output and work record of one execution of a workload.
struct RunResult {
    std::uint64_t domains = 0;
    std::uint64_t failed = 0;  ///< errored + quarantined domains
    std::string digest;        ///< fingerprint of the rendered output
    /// Fingerprint of the output the ledger pass reproduces: the adoption
    /// table on the sweeps, the whole output on spin_accuracy.
    std::string ledger_digest;
    Counts counts;
    Shape shape;
    /// Named output values compared with the committed expectations
    /// (spin_accuracy: the Fig. 3 headline shares).
    std::map<std::string, std::string> values;
    std::uint64_t allocs = 0;
    std::uint64_t alloc_bytes = 0;
    double pool_hit_ratio = 0.0;
};

double pool_hit_ratio(const telemetry::MetricsRegistry& registry) {
    const auto* hits = registry.find_counter("bytes.pool.hits");
    const auto* acquires = registry.find_counter("bytes.pool.acquires");
    if (hits == nullptr || acquires == nullptr) return 0.0;
    return ratio(static_cast<double>(hits->value()), static_cast<double>(acquires->value()));
}

// ---------------------------------------------------------------------------
// Ledger pass: the workload's layer calls made one at a time under spans

struct Ledger {
    double wall_s = 0.0;
    std::uint64_t domains = 0;
    std::string digest;  ///< must equal the workload's own run() output
    Counts counts;
    Shape shape;
    std::uint64_t materialized = 0;
    std::uint64_t ok_traces = 0;
    std::uint64_t ok_trace_packets = 0;  ///< sent + received events of ok traces
    std::uint64_t replay_packets = 0;    ///< 1-RTT packets the replay drives
    std::uint64_t qlog_traces = 0;
    std::uint64_t qlog_bytes = 0;
    std::uint64_t mismatches = 0;  ///< probe results that disagree with the scan
    /// Constrained-observer flows measured / spin candidates, over all replays.
    std::uint64_t constrained_measured = 0;
    std::uint64_t constrained_candidates = 0;
    double constrained_coverage = 0.0;
    /// Constrained-table pressure, over all replays.
    std::uint64_t constrained_collisions = 0;
    std::uint64_t constrained_evictions = 0;
};

/// Feeds one trace through the accuracy layers (ok connections only); the
/// observer replay registers it only when `replay` is given.
void assess_trace(const qlog::Trace& trace, analysis::AccuracyAggregator& accuracy,
                  analysis::ObserverReplay* replay, SpanLog& log, Ledger& out) {
    if (trace.outcome != qlog::ConnectionOutcome::ok) return;
    ++out.ok_traces;
    out.ok_trace_packets += trace.sent.size() + trace.received.size();
    core::ConnectionAssessment assessment;
    {
        SpanLog::Scope span{log, "core.assess_connection"};
        assessment = core::assess_connection(trace);
    }
    {
        SpanLog::Scope span{log, "analysis.accuracy_add"};
        accuracy.add(assessment);
    }
    if (replay == nullptr) return;
    for (const auto& ev : trace.received) {
        if (ev.type == quic::PacketType::one_rtt) ++out.replay_packets;
    }
    SpanLog::Scope span{log, "analysis.replay_add"};
    replay->add(trace);
}

/// qlog round trip of every trace of `scan`.
void probe_qlog(const scanner::DomainScan& scan, SpanLog& log, Ledger& out) {
    for (const auto& trace : scan.connections) {
        std::string line;
        {
            SpanLog::Scope span{log, "qlog.to_jsonl"};
            line = qlog::to_jsonl(trace);
        }
        std::optional<qlog::Trace> parsed;
        {
            SpanLog::Scope span{log, "qlog.parse_jsonl"};
            parsed = qlog::parse_jsonl(line);
        }
        ++out.qlog_traces;
        out.qlog_bytes += line.size();
        if (!parsed || parsed->outcome != trace.outcome ||
            parsed->sent.size() != trace.sent.size() ||
            parsed->received.size() != trace.received.size()) {
            ++out.mismatches;
        }
    }
}

/// Re-scans one domain through Campaign::scan_domain, bucketed by whether
/// its host answers QUIC, and checks it against the chunk's scan.
void probe_scan(const scanner::Campaign& campaign, const web::Domain& domain,
                const scanner::DomainScan& scan, SpanLog& log, Ledger& out) {
    scanner::DomainScan again;
    {
        SpanLog::Scope span{log, domain.quic ? "scanner.scan_domain.live"
                                             : "scanner.scan_domain.dead"};
        again = campaign.scan_domain(domain);
    }
    bool same = again.connections.size() == scan.connections.size();
    for (std::size_t i = 0; same && i < scan.connections.size(); ++i) {
        same = again.connections[i].outcome == scan.connections[i].outcome &&
               again.connections[i].received.size() == scan.connections[i].received.size();
    }
    if (!same) ++out.mismatches;
}

core::ConstrainedConfig lru_64k() {
    core::ConstrainedConfig config;
    config.log2_slots = 16;
    config.eviction = core::EvictionPolicy::lru;
    return config;
}

std::string summary_line(const char* name, const analysis::ObserverRunSummary& s) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s connections=%" PRIu64 " candidates=%" PRIu64 " measured=%" PRIu64
                  " comparable=%" PRIu64 " within_25ms=%" PRIu64 " coverage=%.9g err=%.9g\n",
                  name, s.connections, s.candidates, s.measured, s.comparable, s.within_25ms,
                  s.coverage, s.mean_abs_err_ms);
    return buf;
}

/// Both observer replays; returns the rendered summaries.
std::string run_replays(const analysis::ObserverReplay& replay, SpanLog& log, Ledger& out) {
    std::string text;
    {
        SpanLog::Scope span{log, "core.replay_idealized"};
        const auto run = replay.run_idealized();
        text += summary_line("idealized", run.summary);
    }
    SpanLog::Scope span{log, "core.replay_constrained"};
    const auto run = replay.run_constrained(lru_64k());
    text += summary_line("constrained_lru_64k", run.summary);
    out.constrained_measured += run.summary.measured;
    out.constrained_candidates += run.summary.candidates;
    out.constrained_collisions += run.summary.table.collisions;
    out.constrained_evictions += run.summary.table.evictions;
    return text;
}

/// Serial decomposition of a sweep: per chunk, materialize, scan_chunk and
/// the adoption sink, and the accuracy layers on every ok trace. Every
/// kProbeEvery-th chunk also gets a scan_domain re-scan and a qlog round trip
/// per domain, and its ok traces feed the observer replay.
Ledger sweep_ledger(const web::PopulationModel& model, scanner::ScanOptions options,
                    SpanLog& log) {
    options.threads = 1;
    scanner::Campaign campaign{model, options};
    scanner::Campaign probe{model, options};
    telemetry::MetricsRegistry attached;  // makes scan_chunk snapshot its telemetry
    campaign.set_metrics(&attached);
    telemetry::MetricsRegistry merged;
    analysis::AdoptionAggregator adoption{model, options.ipv6};
    analysis::AccuracyAggregator accuracy;
    analysis::ObserverReplay replay;
    Ledger out;

    const auto start = Clock::now();
    {
        SpanLog::Scope root{log, "ledger.sweep"};
        for (std::size_t chunk = 0; chunk < campaign.chunk_count(); ++chunk) {
            SpanLog::Scope chunk_span{log, "ledger.chunk"};
            web::DomainBlock block;
            {
                SpanLog::Scope span{log, "web.materialize"};
                block = model.materialize_chunk(chunk, options.chunk_domains);
            }
            out.materialized += block.size();
            scanner::ScannedChunk scanned;
            {
                SpanLog::Scope span{log, "scanner.scan_chunk"};
                scanned = campaign.scan_chunk(chunk);
            }
            auto snapshot = telemetry::parse_snapshot(scanned.telemetry_snapshot);
            if (!snapshot || scanned.scans.size() != block.size()) {
                throw std::runtime_error("ledger: malformed chunk " + std::to_string(chunk));
            }
            merged.merge_from(*snapshot);
            const bool probe_chunk = chunk % kProbeEvery == 0;
            for (std::size_t i = 0; i < block.size(); ++i) {
                const auto& domain = block.domains[i];
                const auto& scan = scanned.scans[i];
                if (scan.domain_id != domain.id) ++out.mismatches;
                {
                    SpanLog::Scope span{log, "analysis.adoption_add"};
                    adoption.add(domain, scan);
                }
                out.shape.add(domain, scan);
                for (const auto& trace : scan.connections) {
                    assess_trace(trace, accuracy, probe_chunk ? &replay : nullptr, log, out);
                }
                if (probe_chunk) {
                    probe_scan(probe, domain, scan, log, out);
                    probe_qlog(scan, log, out);
                }
            }
        }
        run_replays(replay, log, out);
    }
    out.constrained_coverage = ratio(static_cast<double>(out.constrained_measured),
                                     static_cast<double>(out.constrained_candidates));
    out.wall_s = seconds_since(start);
    out.domains = out.shape.domains;
    out.digest = fnv1a_hex(adoption.render_overview_table());
    out.counts = work_counts(merged);
    return out;
}

// ---------------------------------------------------------------------------
// Workloads

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string work = ".";
    bool reference_only = false;
};

class Workload {
public:
    virtual ~Workload() = default;
    /// Model and campaign construction (setup_s).
    virtual void setup() = 0;
    /// The workload's public calls, timed from outside; `log` gets a span
    /// around each top-level campaign call.
    virtual RunResult run(SpanLog& log) = 0;
    /// Destroys what setup() built; untimed, so setup_s is construction only.
    virtual void teardown() = 0;
    /// The same output produced another way (another thread count); run()
    /// must match it exactly. nullopt when there is no other way: the first
    /// timed run is the reference.
    virtual std::optional<RunResult> reference() = 0;
    /// The serial ledger pass; its digest and counts must match run().
    virtual Ledger ledger(SpanLog& log) = 0;
};

/// The Table 1 campaign (CW 20/2023 = week 57, IPv4).
scanner::ScanOptions table1_options(unsigned threads) {
    scanner::ScanOptions options;
    options.ipv6 = false;
    options.week = 57;
    options.threads = threads;
    return options;
}

/// In-process Campaign::run into an adoption aggregator.
RunResult scan_in_process(const web::PopulationModel& model, scanner::Campaign& campaign,
                          SpanLog& log) {
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    analysis::AdoptionAggregator aggregator{model, campaign.options().ipv6};
    RunResult out;
    const telemetry::AllocSnapshot allocs;
    scanner::CampaignStats stats;
    {
        SpanLog::Scope span{log, "scanner.campaign_run"};
        stats = campaign.run([&](const web::Domain& domain, scanner::DomainScan&& scan) {
            aggregator.add(domain, scan);
            out.shape.add(domain, scan);
        });
    }
    out.allocs = allocs.count_since();
    out.alloc_bytes = allocs.bytes_since();
    campaign.set_metrics(nullptr);
    out.domains = stats.domains_scanned;
    out.failed = stats.domains_errored;
    const auto table = aggregator.render_overview_table();
    out.ledger_digest = fnv1a_hex(table);
    out.digest = fnv1a_hex(table + "\n" + telemetry::deterministic_csv(registry));
    out.counts = work_counts(registry);
    out.pool_hit_ratio = pool_hit_ratio(registry);
    return out;
}

class SweepV4 final : public Workload {
public:
    explicit SweepV4(const Args& args) : args_{args} {}

    void setup() override {
        model_ = std::make_unique<web::PopulationModel>(
            web::PopulationConfig{kSweepScale, args_.seed});
        campaign_ = std::make_unique<scanner::Campaign>(*model_, table1_options(2));
    }
    RunResult run(SpanLog& log) override {
        return scan_in_process(*model_, *campaign_, log);
    }
    void teardown() override {
        campaign_.reset();
        model_.reset();
    }
    std::optional<RunResult> reference() override {
        scanner::Campaign serial{*model_, table1_options(1)};
        SpanLog off{false};
        return scan_in_process(*model_, serial, off);
    }
    Ledger ledger(SpanLog& log) override {
        return sweep_ledger(*model_, table1_options(1), log);
    }

private:
    const Args& args_;
    std::unique_ptr<web::PopulationModel> model_;
    std::unique_ptr<scanner::Campaign> campaign_;
};

class SpinAccuracy final : public Workload {
public:
    explicit SpinAccuracy(const Args& args) : args_{args} {}

    void setup() override {
        model_ = std::make_unique<web::PopulationModel>(
            web::PopulationConfig{kSpinScale, args_.seed});
        for (unsigned sample = 0; sample < kSpinWeeks; ++sample) {
            scanner::ScanOptions options;
            options.week = static_cast<int>(sample * 57 / (kSpinWeeks - 1));
            campaigns_.push_back(std::make_unique<scanner::Campaign>(*model_, options));
        }
    }
    void teardown() override {
        campaigns_.clear();
        model_.reset();
    }
    /// Untraced even in the traced run: the ledger pass makes the same calls
    /// under spans.
    RunResult run(SpanLog&) override {
        SpanLog off{false};
        Ledger tally;
        return pipeline(off, tally, /*probe=*/false);
    }
    std::optional<RunResult> reference() override { return std::nullopt; }
    Ledger ledger(SpanLog& log) override {
        Ledger out;
        const auto start = Clock::now();
        const auto result = pipeline(log, out, /*probe=*/true);
        out.wall_s = seconds_since(start);
        out.domains = result.domains;
        out.digest = result.digest;
        out.counts = result.counts;
        out.shape = result.shape;
        return out;
    }

private:
    /// The spin-candidate QUIC domains of the universe (bench_fig3's corpus).
    std::vector<web::Domain> candidates(SpanLog& log, Ledger& tally) const {
        std::vector<web::Domain> out;
        const std::size_t total = model_->domain_count();
        for (std::size_t begin = 0; begin < total; begin += kSelectBlock) {
            web::DomainBlock block;
            {
                SpanLog::Scope span{log, "web.materialize"};
                block = model_->materialize(begin, std::min(total, begin + kSelectBlock));
            }
            tally.materialized += block.size();
            for (const auto& domain : block.domains) {
                if (domain.quic && model_->org_of(domain).spin_host_rate > 0.0) {
                    out.push_back(domain);
                }
            }
        }
        return out;
    }

    RunResult pipeline(SpanLog& log, Ledger& tally, bool probe) {
        telemetry::MetricsRegistry registry;
        for (auto& campaign : campaigns_) campaign->set_metrics(&registry);
        analysis::AccuracyAggregator accuracy;
        RunResult out;
        const telemetry::AllocSnapshot allocs;
        {
            SpanLog::Scope root{log, "ledger.spin_accuracy"};
            const auto corpus = candidates(log, tally);
            std::size_t scans = 0;
            std::string replays;
            for (const auto& campaign : campaigns_) {
                SpanLog::Scope week{log, "ledger.week"};
                // One observer per sampled week: flows of different weeks
                // never share the wire, so they never share the table.
                analysis::ObserverReplay replay;
                for (const auto& domain : corpus) {
                    scanner::DomainScan scan;
                    {
                        SpanLog::Scope span{log, "scanner.scan_domain.live"};
                        scan = campaign->scan_domain(domain);
                    }
                    out.shape.add(domain, scan);
                    if (!scan.error.empty()) ++out.failed;
                    for (const auto& trace : scan.connections) {
                        assess_trace(trace, accuracy, &replay, log, tally);
                    }
                    if (probe && scans % kProbeEvery == 0) probe_qlog(scan, log, tally);
                    ++scans;
                }
                replays += run_replays(replay, log, tally);
            }
            tally.constrained_coverage = ratio(static_cast<double>(tally.constrained_measured),
                                               static_cast<double>(tally.constrained_candidates));
            out.digest = fnv1a_hex(accuracy.render_headlines() +
                                   accuracy.render_reordering_impact() + replays +
                                   telemetry::deterministic_csv(registry));
            out.ledger_digest = out.digest;
        }
        out.allocs = allocs.count_since();
        out.alloc_bytes = allocs.bytes_since();
        for (auto& campaign : campaigns_) campaign->set_metrics(nullptr);
        out.domains = out.shape.domains;
        out.counts = work_counts(registry);
        out.pool_hit_ratio = pool_hit_ratio(registry);
        for (const auto series : {analysis::AccuracySeries::spin_received,
                                  analysis::AccuracySeries::grease_received}) {
            const auto h = accuracy.headline(series);
            const std::string prefix =
                series == analysis::AccuracySeries::spin_received ? "spin_r." : "grease_r.";
            out.values[prefix + "connections"] = std::to_string(h.connections);
            out.values[prefix + "overestimate_share"] = fixed6(h.overestimate_share);
            out.values[prefix + "within_25ms_share"] = fixed6(h.within_25ms_share);
            out.values[prefix + "over_200ms_share"] = fixed6(h.over_200ms_share);
            out.values[prefix + "underestimate_share"] = fixed6(h.underestimate_share);
        }
        return out;
    }

    const Args& args_;
    std::unique_ptr<web::PopulationModel> model_;
    std::vector<std::unique_ptr<scanner::Campaign>> campaigns_;
};

// ---------------------------------------------------------------------------
// Output checks

class Checker {
public:
    void expect(bool ok, const std::string& what) {
        if (!ok) failures_.push_back(what);
    }
    void same_output(const RunResult& a, const RunResult& b, const std::string& what) {
        expect(a.digest == b.digest, what + ": output digest differs");
        expect(a.counts == b.counts, what + ": work counts differ");
        expect(a.shape == b.shape, what + ": workload shape differs");
    }
    void complete(const RunResult& run, std::uint64_t domains, const std::string& what) {
        expect(run.domains == domains && run.domains > 0,
               what + ": scanned " + std::to_string(run.domains) + " of " +
                   std::to_string(domains) + " domains");
    }
    [[nodiscard]] bool ok() const noexcept { return failures_.empty(); }
    [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

private:
    std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// Report

class Report {
public:
    void metric(const std::string& name, double value, const std::string& unit) {
        metrics_.emplace_back(name, value, unit);
    }
    void count(const std::string& name, std::uint64_t value) { counts_[name] = value; }
    /// The output values run.py compares with expected.tsv.
    void outputs(const RunResult& run) {
        outputs_ = run.values;
        outputs_["digest"] = run.digest;
    }

    void print(const Args& args, const Checker& checker, std::uint64_t attempted,
               std::uint64_t failed, std::size_t reps) const {
        for (const auto& failure : checker.failures()) {
            std::printf("CHECK FAILED: %s\n", failure.c_str());
        }
        std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %d, "
                    "\"reps\": %zu, \"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": {",
                    args.workload.c_str(), args.seed, args.trace ? 1 : 0, reps,
                    checker.ok() ? "true" : "false", attempted, failed);
        const char* sep = "";
        for (const auto& [name, value, unit] : metrics_) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                        value, unit.c_str());
            sep = ", ";
        }
        std::printf("}, \"counts\": {");
        sep = "";
        for (const auto& [name, value] : counts_) {
            std::printf("%s\"%s\": %" PRIu64, sep, name.c_str(), value);
            sep = ", ";
        }
        std::printf("}, \"outputs\": {");
        sep = "";
        for (const auto& [key, value] : outputs_) {
            std::printf("%s\"%s\": \"%s\"", sep, key.c_str(), value.c_str());
            sep = ", ";
        }
        std::printf("}}\n");
        std::fflush(stdout);
    }

private:
    std::vector<std::tuple<std::string, double, std::string>> metrics_;
    std::map<std::string, std::uint64_t> counts_;
    std::map<std::string, std::string> outputs_;
};

void report_counts(Report& report, const RunResult& run) {
    for (const auto& [name, value] : run.counts) report.count(name, value);
    report.count("domains", run.domains);
    report.count("shape.live_domains", run.shape.live_domains);
    report.count("shape.attempts", run.shape.attempts);
    report.count("shape.live_attempts", run.shape.live_attempts);
}

void report_shape(Report& report, const Shape& shape) {
    report.metric("scanner.live_attempt_share",
                  ratio(static_cast<double>(shape.live_attempts),
                        static_cast<double>(shape.attempts)),
                  "ratio");
}

/// --trace 0: end-to-end metrics, medians over repeated timed runs.
int measure(const Args& args, Workload& workload, Checker& checker, Report& report) {
    // Set-up samples span the whole run, like the repetitions they report
    // beside. Each teardown runs off the clock.
    std::vector<double> setup_s;
    const auto time_setups = [&] {
        for (std::size_t i = 0; i < kSetupSamples; ++i) {
            const auto start = Clock::now();
            workload.setup();
            setup_s.push_back(seconds_since(start));
            workload.teardown();
        }
    };
    time_setups();

    // Warm-up and output reference: not timed.
    workload.setup();
    auto reference = workload.reference();
    const auto print_reference = [&] {
        std::printf("reference: %" PRIu64 " domains, digest %s\n", reference->domains,
                    reference->digest.c_str());
    };
    if (reference) print_reference();

    SpanLog untraced{false};
    std::vector<double> rate;
    std::vector<double> cpu_ms_per_kdomain;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::optional<std::uint64_t> first_allocs;
    const auto window = Clock::now();
    std::size_t reps = 0;
    do {
        if (reps > 0) workload.setup();
        const double cpu_before = cpu_seconds();
        const auto start = Clock::now();
        const auto run = workload.run(untraced);
        const double wall = seconds_since(start);
        const double cpu = cpu_seconds() - cpu_before;
        workload.teardown();
        time_setups();
        ++reps;

        if (!reference) {
            reference = run;
            print_reference();
        }
        Checker rep;
        rep.same_output(run, *reference, "rep " + std::to_string(reps) + " vs reference");
        rep.complete(run, reference->domains, "rep " + std::to_string(reps));
        if (!first_allocs) first_allocs = run.allocs;
        rep.expect(run.allocs == *first_allocs,
                   "rep " + std::to_string(reps) + ": heap allocations differ from rep 1");
        attempted += run.domains;
        failed += run.failed;
        for (const auto& failure : rep.failures()) checker.expect(false, failure);

        rate.push_back(static_cast<double>(run.domains) / wall);
        cpu_ms_per_kdomain.push_back(cpu * 1e6 / static_cast<double>(run.domains));
        std::printf("rep %zu: %" PRIu64 " domains in %.3f s (%.0f domains/s), cpu %.3f s, "
                    "%" PRIu64 " allocs\n",
                    reps, run.domains, wall, rate.back(), cpu, run.allocs);
    } while (seconds_since(window) < args.seconds);
    // A failed output check counts every domain as failed.
    if (!checker.ok()) failed = attempted;

    report.metric("domains_per_s", median(rate), "1/s");
    report.metric("cpu_ms_per_kdomain", median(cpu_ms_per_kdomain), "ms");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("setup_s", median(setup_s), "s");
    report.metric("failed_share",
                  ratio(static_cast<double>(failed), static_cast<double>(attempted)), "ratio");
    report_shape(report, reference->shape);
    report_counts(report, *reference);
    report.count("telemetry.allocs", *first_allocs);
    report.outputs(*reference);
    report.print(args, checker, attempted, failed, reps);
    return checker.ok() ? 0 : 1;
}

/// --trace 1: one run of the workload, then the ledger pass without and with
/// spans; per-layer metrics from the spans and the run's telemetry.
int trace(const Args& args, Workload& workload, Checker& checker, Report& report) {
    SpanLog log{true};
    workload.setup();
    const auto run = workload.run(log);

    // Ledger passes in pairs, span log off and on, alternating which goes
    // first, while another pair still fits in --seconds (at least one pair).
    // Span totals accumulate over every traced pass; the per-pass counts
    // below are the same in each pass.
    SpanLog off{false};
    Ledger traced;
    std::vector<double> overhead;  // traced / untraced wall time per pair
    const auto window = Clock::now();
    double pair_s = 0.0;
    do {
        const auto pair_start = Clock::now();
        const bool traced_first = overhead.size() % 2 == 1;
        Ledger untraced;
        if (traced_first) traced = workload.ledger(log);
        untraced = workload.ledger(off);
        if (!traced_first) traced = workload.ledger(log);
        for (const auto* pass : {&untraced, &traced}) {
            checker.expect(pass->digest == run.ledger_digest,
                           "ledger output differs from the workload's");
            checker.expect(pass->counts == run.counts,
                           "ledger work counts differ from the workload's");
            checker.expect(pass->shape == run.shape, "ledger workload shape differs");
            checker.expect(pass->mismatches == 0, "ledger probes disagree with the scans");
        }
        overhead.push_back(traced.wall_s / untraced.wall_s);
        pair_s = seconds_since(pair_start);
    } while (seconds_since(window) + pair_s < args.seconds);
    workload.teardown();
    const auto passes = static_cast<double>(overhead.size());

    const auto totals = log.totals();
    const auto total = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? SpanLog::Totals{} : it->second;
    };
    const auto mean_us = [&](std::initializer_list<const char*> names) {
        std::int64_t ns = 0;
        std::uint64_t n = 0;
        for (const char* name : names) {
            ns += total(name).total_ns;
            n += total(name).count;
        }
        return ratio(static_cast<double>(ns) / 1e3, static_cast<double>(n));
    };
    const auto domains = static_cast<double>(run.domains);
    const auto attempts = static_cast<double>(count_of(run.counts, "quic.conn.attempts"));

    report.metric("web.materialize_us_per_kdomain",
                  ratio(static_cast<double>(total("web.materialize").total_ns) / 1e3,
                        passes * static_cast<double>(traced.materialized) / 1e3),
                  "us");
    report.metric("scanner.scan_us_per_domain",
                  mean_us({"scanner.scan_domain.live", "scanner.scan_domain.dead"}), "us");
    report.metric("scanner.live_us_per_domain", mean_us({"scanner.scan_domain.live"}), "us");
    if (total("scanner.scan_domain.dead").count > 0) {
        report.metric("scanner.dead_host_us_per_domain", mean_us({"scanner.scan_domain.dead"}),
                      "us");
    }
    if (total("scanner.scan_chunk").count > 0) {
        std::vector<double> chunk_ms;
        for (const auto ns : log.durations("scanner.scan_chunk")) chunk_ms.push_back(ns / 1e6);
        report.metric("scanner.chunk_ms_p50", spinbench::percentile(chunk_ms, 0.50), "ms");
        report.metric("scanner.chunk_ms_p99", spinbench::percentile(chunk_ms, 0.99), "ms");
    }
    report.metric("scanner.attempts_per_domain", ratio(attempts, domains), "count");
    report.metric("scanner.handshake_ok_share",
                  ratio(static_cast<double>(count_of(run.counts, "quic.conn.handshake_completed")),
                        attempts),
                  "ratio");
    report_shape(report, run.shape);

    const auto per_domain = [&](std::uint64_t value) {
        return ratio(static_cast<double>(value), domains);
    };
    const auto& c = run.counts;
    report.metric("netsim.events_per_domain", per_domain(count_of(c, "netsim.sim.events_processed")),
                  "count");
    report.metric("netsim.timer_events_per_domain",
                  per_domain(count_of(c, "netsim.sim.events.timer")), "count");
    report.metric("netsim.delivery_events_per_domain",
                  per_domain(count_of(c, "netsim.sim.events.link.delivery")), "count");
    report.metric("netsim.queue_depth_hwm",
                  static_cast<double>(count_of(c, "netsim.sim.queue_depth_hwm")), "count");
    report.metric("netsim.datagrams_per_domain",
                  per_domain(count_of(c, "netsim.link.forward.sent") +
                             count_of(c, "netsim.link.return.sent")),
                  "count");
    report.metric("netsim.bytes_per_domain",
                  per_domain(count_of(c, "netsim.link.forward.delivered_bytes") +
                             count_of(c, "netsim.link.forward.dropped_bytes") +
                             count_of(c, "netsim.link.return.delivered_bytes") +
                             count_of(c, "netsim.link.return.dropped_bytes")),
                  "B");
    report.metric("quic.pto_per_attempt",
                  ratio(static_cast<double>(count_of(c, "quic.conn.pto_fired")), attempts),
                  "count");
    report.metric("quic.packets_per_ok_conn",
                  ratio(static_cast<double>(traced.ok_trace_packets),
                        static_cast<double>(traced.ok_traces)),
                  "count");

    report.metric("qlog.encode_us_per_trace", mean_us({"qlog.to_jsonl"}), "us");
    report.metric("qlog.parse_us_per_trace", mean_us({"qlog.parse_jsonl"}), "us");
    report.metric("qlog.jsonl_bytes_per_trace",
                  ratio(static_cast<double>(traced.qlog_bytes),
                        static_cast<double>(traced.qlog_traces)),
                  "B");

    const auto per_packet_ns = [&](const char* name) {
        return ratio(static_cast<double>(total(name).total_ns),
                     passes * static_cast<double>(traced.replay_packets));
    };
    report.metric("core.assess_us_per_conn", mean_us({"core.assess_connection"}), "us");
    report.metric("core.replay_idealized_ns_per_pkt", per_packet_ns("core.replay_idealized"),
                  "ns");
    report.metric("core.replay_constrained_ns_per_pkt", per_packet_ns("core.replay_constrained"),
                  "ns");
    report.metric("core.constrained_coverage", traced.constrained_coverage, "ratio");
    report.metric("core.constrained_collisions", static_cast<double>(traced.constrained_collisions),
                  "count");
    report.metric("core.constrained_evictions", static_cast<double>(traced.constrained_evictions),
                  "count");

    if (total("analysis.adoption_add").count > 0) {
        report.metric("analysis.adoption_add_us_per_domain", mean_us({"analysis.adoption_add"}),
                      "us");
    }
    report.metric("analysis.accuracy_add_us_per_conn", mean_us({"analysis.accuracy_add"}), "us");
    report.metric("analysis.replay_add_us_per_conn", mean_us({"analysis.replay_add"}), "us");

    report.metric("bytes.pool_hit_ratio", run.pool_hit_ratio, "ratio");
    report.metric("telemetry.allocs_per_domain", per_domain(run.allocs), "count");
    report.metric("telemetry.alloc_bytes_per_domain", per_domain(run.alloc_bytes), "B");
    // Traced / untraced wall time over the same ledger work.
    report.metric("telemetry.trace_overhead_ratio", median(overhead), "ratio");

    const std::string spans_path =
        (std::filesystem::path{args.work} / ("spans-" + args.workload + ".tsv")).string();
    checker.expect(log.write(spans_path, kMaxSpanRows), "cannot write " + spans_path);
    std::printf("spans: %zu recorded, totals written to %s\n", log.spans().size(),
                spans_path.c_str());
    for (const auto& [name, t] : totals) {
        std::printf("  %-28s n=%-9" PRIu64 " total %10.3f ms  self %10.3f ms\n", name.c_str(),
                    t.count, static_cast<double>(t.total_ns) / 1e6,
                    static_cast<double>(t.self_ns) / 1e6);
    }

    report_counts(report, run);
    report.outputs(run);
    const std::uint64_t failed = checker.ok() ? run.failed : run.domains;
    report.print(args, checker, run.domains, failed, 1);
    return checker.ok() ? 0 : 1;
}

/// --reference-only: one untimed run; prints the values expected.tsv pins.
int print_reference(const Args& args, Workload& workload) {
    workload.setup();
    SpanLog off{false};
    const auto run = workload.run(off);
    workload.teardown();
    if (run.failed != 0) {
        std::fprintf(stderr, "reference run has %" PRIu64 " failed domains\n", run.failed);
        return 1;
    }
    std::printf("%s\t%" PRIu64 "\tdigest\t%s\n", args.workload.c_str(), args.seed,
                run.digest.c_str());
    for (const auto& [key, value] : run.values) {
        std::printf("%s\t%" PRIu64 "\t%s\t%s\n", args.workload.c_str(), args.seed, key.c_str(),
                    value.c_str());
    }
    return 0;
}

Args parse_args(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--reference-only") {
            args.reference_only = true;
            continue;
        }
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--work") {
            args.work = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
    if (args.workload == "sweep_v4") return std::make_unique<SweepV4>(args);
    if (args.workload == "spin_accuracy") return std::make_unique<SpinAccuracy>(args);
    throw std::invalid_argument("unknown workload '" + args.workload +
                                "' (sweep_v4, spin_accuracy)");
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parse_args(argc, argv);
        auto workload = make_workload(args);
        std::filesystem::create_directories(args.work);
        if (args.reference_only) return print_reference(args, *workload);
        Checker checker;
        Report report;
        return args.trace ? trace(args, *workload, checker, report)
                          : measure(args, *workload, checker, report);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "spinbench: %s\n", e.what());
        return 2;
    }
}
