#include "scanner/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "scanner/journal.hpp"
#include "scanner/shard.hpp"
#include "telemetry/export.hpp"
#include "telemetry/resource.hpp"
#include "telemetry/span.hpp"
#include "telemetry/trace.hpp"
#include "util/distributions.hpp"
#include "util/format.hpp"
#include "util/proc.hpp"

namespace spinscope::scanner {

using netsim::Datagram;
using netsim::LinkConfig;
using netsim::Path;
using netsim::Simulator;
using quic::Connection;
using quic::ConnectionConfig;
using util::Duration;
using util::Rng;
using util::TimePoint;

void ScanOptions::validate() {
    const auto checked_probability = [](double p, const char* name) {
        if (std::isnan(p)) {
            throw std::invalid_argument(std::string{"scanner: ScanOptions."} + name +
                                        " is NaN");
        }
        return std::clamp(p, 0.0, 1.0);
    };
    loss_rate = checked_probability(loss_rate, "loss_rate");
    reorder_rate = checked_probability(reorder_rate, "reorder_rate");
    if (max_redirects < 0) {
        throw std::invalid_argument("scanner: ScanOptions.max_redirects is negative");
    }
    if (attempt_deadline.is_negative() || attempt_deadline.is_zero()) {
        throw std::invalid_argument("scanner: ScanOptions.attempt_deadline must be > 0");
    }
    if (domain_deadline.is_negative() || domain_deadline.is_zero()) {
        throw std::invalid_argument("scanner: ScanOptions.domain_deadline must be > 0");
    }
    if (max_attempt_records == 0) {
        throw std::invalid_argument("scanner: ScanOptions.max_attempt_records must be >= 1");
    }
    if (journal_segment_bytes == 0) {
        throw std::invalid_argument(
            "scanner: ScanOptions.journal_segment_bytes must be >= 1");
    }
    retry.validate();
    worker_restart.validate();
    journal_retry.validate();
    if (fault_plan) fault_plan->validate();
    if (observer) observer->validate();
    ShardConfig{threads, chunk_domains}.validate();
}

bool DomainScan::quic_ok() const noexcept {
    return std::any_of(connections.begin(), connections.end(), [](const qlog::Trace& t) {
        return t.outcome == qlog::ConnectionOutcome::ok;
    });
}

std::string CampaignStats::render() const {
    util::TextTable table;
    table.add_row({"campaign", "value"});
    table.add_row({"domains scanned", util::group_digits(domains_scanned)});
    table.add_row({"domains resolved", util::group_digits(domains_resolved)});
    table.add_row({"domains QUIC ok", util::group_digits(domains_quic_ok)});
    table.add_row({"QUIC-ok rate (resolved)", util::percent(quic_ok_rate())});
    table.add_row({"connections", util::group_digits(connections)});
    table.add_row({"redirects followed", util::group_digits(redirects_followed)});
    table.add_row({"retries", util::group_digits(retries)});
    table.add_row({"domains recovered by retry", util::group_digits(domains_recovered_by_retry)});
    table.add_row({"domains errored", util::group_digits(domains_errored)});
    // Recovery rows only when the supervisor actually intervened — the
    // healthy sweep's table stays as it always was.
    if (chunks_quarantined > 0 || domains_quarantined > 0) {
        table.add_row({"chunks quarantined", util::group_digits(chunks_quarantined)});
        table.add_row({"domains quarantined", util::group_digits(domains_quarantined)});
    }
    if (worker_restarts > 0) {
        table.add_row({"worker restarts", util::group_digits(worker_restarts)});
    }
    if (proc_restarts > 0) {
        table.add_row({"process restarts", util::group_digits(proc_restarts)});
    }
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        table.add_row({std::string{"outcome "} +
                           qlog::to_cstring(static_cast<qlog::ConnectionOutcome>(i)),
                       util::group_digits(outcomes[i])});
    }
    // Server-fault exposure rows only when some fault fired — the healthy
    // sweep's table stays as it always was.
    for (std::size_t i = 1; i < server_faults.size(); ++i) {
        if (server_faults[i] == 0) continue;
        table.add_row({std::string{"server fault "} +
                           faults::to_cstring(static_cast<faults::ServerFaultMode>(i)),
                       util::group_digits(server_faults[i])});
    }
    table.add_row({"wall seconds", util::fixed(wall_seconds, 2)});
    table.add_row({"domains/sec", util::fixed(domains_per_sec(), 1)});
    return table.render(true);
}

Campaign::ScanTelemetry::ScanTelemetry(telemetry::MetricsRegistry& registry)
    : registry{&registry},
      sim{registry},
      forward_link{registry, "netsim.link.forward"},
      return_link{registry, "netsim.link.return"},
      conn{registry},
      pool{registry},
      attempt_ms{registry, "scanner.phase.attempt_ms", telemetry::wall_ms_spec()},
      redirect_ms{registry, "scanner.phase.redirect_ms", telemetry::wall_ms_spec()},
      finalize_ms{registry, "scanner.phase.finalize_ms", telemetry::wall_ms_spec()},
      resolve_ms{registry, "scanner.phase.resolve_ms", telemetry::wall_ms_spec()},
      attempt_sim_ms{registry, "scanner.attempt_sim_ms", telemetry::sim_ms_spec()},
      watchdog_cancelled{registry, "scanner.watchdog_cancelled"},
      redirects_followed{registry, "scanner.redirects_followed"} {}

Campaign::AttemptOutcome Campaign::run_attempt(const web::Domain& domain,
                                               const std::string& host, int redirect_hop,
                                               int retry, bool serve_redirect,
                                               Duration deadline,
                                               ScanTelemetry* instruments,
                                               bytes::BufferPool* pool,
                                               netsim::QueueStorage* queue,
                                               core::ConstrainedMonitor* observer) const {
    // The watchdog capped this attempt below the normal per-attempt
    // deadline: a cut-off is then a kill, not an ordinary timeout.
    const bool watchdog_capped = deadline < options_.attempt_deadline;
    const web::PopulationModel& pop = *model_;
    // Redirect follow-ups are profiled as their own phase: their cost is
    // extra connections, which the first-attempt phase must not absorb.
    std::optional<telemetry::ScopedTimer> attempt_timer;
    if (instruments != nullptr) {
        attempt_timer.emplace(redirect_hop == 0 ? *instruments->attempt_ms
                                                : *instruments->redirect_ms);
    }
    AttemptOutcome out;
    out.trace.host = host;
    out.trace.ip = pop.host_address(domain, options_.ipv6);

    Simulator sim{queue};
    // Attempt randomness is a domain-keyed sub-stream (the sharded
    // determinism contract, DESIGN.md §9): never a function of scan order,
    // shard assignment or thread count. (hop | retry << 16) keeps retry 0
    // byte-identical to the pre-retry seeding while giving every retry an
    // independent stream.
    const std::uint64_t attempt_key = static_cast<std::uint64_t>(redirect_hop) |
                                      (static_cast<std::uint64_t>(retry) << 16);
    const std::uint64_t attempt_seed =
        util::derive_stream_seed(options_.seed, domain.id) ^
        (static_cast<std::uint64_t>(options_.week) << 32) ^
        (options_.ipv6 ? 0x10000ULL : 0ULL) ^ attempt_key;
    Rng rng{attempt_seed};
    // Fault decisions run on their own streams so attaching a fault plan (or
    // drawing a server-fault lottery that comes up healthy) never perturbs
    // the attempt's own randomness.
    Rng server_fault_rng{~attempt_seed};

    const auto one_way = Duration::from_ms(domain.rtt_ms() / 2.0);
    LinkConfig link;
    link.base_delay = one_way;
    link.jitter_scale = one_way.scaled(0.03);
    link.jitter_sigma = 0.5;
    link.loss_probability = options_.loss_rate;
    link.reorder_probability = options_.reorder_rate;
    link.reorder_extra_min = Duration::micros(60);
    link.reorder_extra_max = Duration::from_ms(1.5);
    Path path{sim, link, link, rng};
    // The constrained observer sits on the server→client direction — the
    // one the paper's passive measurement watches (the server reflects the
    // client's spin; its packets carry the measurable wave) and the one
    // whose DCID is the client-chosen connection ID.
    if (observer != nullptr) path.return_link().add_tap(observer->tap());
    if (options_.fault_plan) {
        path.forward_link().attach_faults(*options_.fault_plan, Rng{attempt_seed ^ 0xFA017'F0ULL});
        path.return_link().attach_faults(*options_.fault_plan, Rng{attempt_seed ^ 0xFA017'F1ULL});
    }

    ConnectionConfig client_cfg;
    client_cfg.role = quic::Role::client;
    client_cfg.spin = options_.client_spin;
    client_cfg.handshake_timeout = Duration::seconds(5);
    Connection client{sim, client_cfg, rng.fork(100),
                      [&path](Datagram dg) { path.forward_link().send(std::move(dg)); },
                      &out.trace, pool};

    // Shared attempt epilogue: trace finalization (its own profiled phase),
    // the deadline-vs-drained outcome decision, and per-attempt telemetry.
    const auto finish_attempt = [&](bool drained, bool got_response) {
        {
            std::optional<telemetry::ScopedTimer> finalize_timer;
            if (instruments != nullptr) finalize_timer.emplace(*instruments->finalize_ms);
            client.finalize_trace();
            if (got_response) {
                out.trace.outcome = qlog::ConnectionOutcome::ok;
            } else if (!drained && !client.failed() && !client.closed()) {
                // The deadline cut the simulation short with events still
                // pending: the attempt neither completed nor failed on its
                // own. Record that distinctly instead of pretending the
                // queue drained (the old behaviour left `aborted`, which
                // conflated deadline hits with protocol-level aborts) — and
                // distinguish the watchdog's kill from the ordinary
                // per-attempt timeout.
                out.trace.outcome = watchdog_capped
                                        ? qlog::ConnectionOutcome::watchdog_cancelled
                                        : qlog::ConnectionOutcome::attempt_timeout;
            }
        }
        out.sim_elapsed = sim.now() - TimePoint::origin();
        if (instruments != nullptr) {
            sim.publish_metrics(instruments->sim);
            path.forward_link().publish_metrics(instruments->forward_link);
            path.return_link().publish_metrics(instruments->return_link);
            client.publish_metrics(instruments->conn);
            telemetry::record_sim_time(*instruments->attempt_sim_ms, out.sim_elapsed);
        }
    };

    if (!domain.quic) {
        // Nothing QUIC-capable listens: Initials vanish, the client retries
        // via PTO and gives up at the handshake timeout (paper §3.3: "check
        // whether the endpoints answer to QUIC packets").
        client.connect();
        const bool drained = sim.run_until(TimePoint::origin() + deadline);
        finish_attempt(drained, /*got_response=*/false);
        return out;
    }

    const auto& stack = pop.stack_of(domain);
    const bool spins = pop.host_spins(domain, options_.week, options_.ipv6);

    // Serving-side fault lottery: the mode is a host property, whether it
    // fires is a per-attempt draw (transient faults are what retries can
    // beat). A healthy profile draws nothing, keeping fault-free campaigns
    // byte-identical.
    const faults::ServerFaultProfile fault_profile =
        pop.server_fault_profile(domain, options_.ipv6);
    faults::ServerFaultMode active_fault = faults::ServerFaultMode::none;
    if (!fault_profile.healthy() &&
        server_fault_rng.chance(fault_profile.per_attempt_probability)) {
        active_fault = fault_profile.mode;
    }
    out.server_fault = active_fault;

    ConnectionConfig server_cfg;
    server_cfg.role = quic::Role::server;
    server_cfg.spin = spins ? stack.spin_enabled
                            : quic::SpinConfig{pop.host_disabled_policy(domain, options_.ipv6),
                                               0, quic::SpinPolicy::always_zero};
    server_cfg.params.max_ack_delay = stack.max_ack_delay;
    server_cfg.fault_stall_handshake =
        active_fault == faults::ServerFaultMode::handshake_stall;
    server_cfg.fault_never_ack = active_fault == faults::ServerFaultMode::never_ack;
    Connection server{sim, server_cfg, rng.fork(200),
                      [&path](Datagram dg) { path.return_link().send(std::move(dg)); },
                      nullptr, pool};

    path.forward_link().set_receiver(
        [&server](bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver(
        [&client](bytes::ConstByteSpan dg) { client.on_datagram(dg); });

    // --- server application (HTTP/3-mini) -----------------------------------
    server.on_handshake_complete = [&server] {
        server.send_stream(kServerControlStream, build_settings(true), true);
    };
    server.on_stream_complete = [&, serve_redirect](std::uint64_t stream_id,
                                                    std::vector<std::uint8_t> data) {
        if (stream_id != kRequestStream) return;
        const auto requested = parse_request(data);
        const std::string redirect_target =
            serve_redirect ? pop.domain_name(domain) : std::string{};
        const Duration header_delay = stack.header_delay.sample(rng);
        (void)requested;

        sim.schedule_after(header_delay, [&, redirect_target, active_fault] {
            if (server.closed() || server.failed()) return;
            if (active_fault == faults::ServerFaultMode::garbage_payload) {
                // Instead of a response, emit an undecodable 1-RTT payload
                // (unknown frame type + noise). The client must classify
                // this as protocol_error — never crash or hang.
                std::vector<std::uint8_t> junk(48);
                junk[0] = 0x21;  // unknown frame type
                for (std::size_t i = 1; i < junk.size(); ++i) {
                    junk[i] = static_cast<std::uint8_t>(server_fault_rng.next());
                }
                server.send_raw_payload(std::move(junk));
                return;
            }
            if (active_fault == faults::ServerFaultMode::mid_transfer_abort) {
                // Headers arrive, then the server tears the connection down
                // where the body should begin (worker crash, LB drain).
                server.send_stream(kRequestStream,
                                   build_response_headers(200, "", stack.name), false);
                sim.schedule_after(stack.body_delay.sample(server_fault_rng), [&] {
                    if (server.closed() || server.failed()) return;
                    server.close(0x10c, "backend worker lost");
                });
                return;
            }
            if (!redirect_target.empty()) {
                server.send_stream(
                    kRequestStream,
                    build_response_headers(301, redirect_target, stack.name), true);
                return;
            }
            server.send_stream(kRequestStream,
                               build_response_headers(200, "", stack.name), false);
            const double sampled =
                util::sample_lognormal(rng, stack.body_log_mu, stack.body_log_sigma);
            const auto body_size = static_cast<std::size_t>(
                std::clamp(sampled, 400.0, static_cast<double>(kMaxBodyBytes)));
            // Dynamic pages are generated and flushed in pieces (template
            // rendering, database queries); each app-limited pause can land
            // between two spin edges and inflate one RTT sample — the §5.2
            // end-host-delay effect.
            std::size_t chunk_count = 1;
            if (rng.chance(stack.chunked_body_rate)) {
                chunk_count = 2 + rng.uniform_u64(3);  // 2..4 chunks
            }
            Duration at = Duration::zero();
            std::size_t offset = 0;
            for (std::size_t chunk = 0; chunk < chunk_count; ++chunk) {
                at += stack.body_delay.sample(rng);
                const std::size_t end =
                    chunk + 1 == chunk_count ? body_size
                                             : body_size * (chunk + 1) / chunk_count;
                const std::size_t part = end - offset;
                const bool fin = chunk + 1 == chunk_count;
                sim.schedule_after(at, [&, part, fin] {
                    if (server.closed() || server.failed()) return;
                    // Each chunk restarts the filler at its first byte.
                    server.send_stream(kRequestStream, body_view(part), fin);
                });
                offset = end;
            }
        });
    };

    // --- client application --------------------------------------------------
    bool got_response = false;
    client.on_handshake_complete = [&client, &host] {
        client.send_stream(kClientControlStream, build_settings(false), true);
        client.send_stream(kRequestStream, build_request(host), true);
    };
    client.on_stream_complete = [&](std::uint64_t stream_id, std::vector<std::uint8_t> data) {
        if (stream_id != kRequestStream) return;
        out.response = parse_response(data);
        got_response = true;
        client.close(0, "done");
    };

    client.connect();
    const bool drained = sim.run_until(TimePoint::origin() + deadline);
    finish_attempt(drained, got_response);
    return out;
}

DomainScan Campaign::scan_domain(const web::Domain& domain) const {
    // One-off scans get a transient pool: the first attempt seeds it and
    // later attempts of the same domain reuse the recycled datagram storage.
    bytes::BufferPool pool;
    ScanTelemetry* instruments = nullptr;
    if (metrics_ != nullptr) {
        if (!scan_telemetry_) scan_telemetry_ = std::make_unique<ScanTelemetry>(*metrics_);
        instruments = scan_telemetry_.get();
    }
    DomainScan scan = scan_domain_into(domain, instruments, &pool, scan_queue_.get());
    if (instruments != nullptr) pool.publish_metrics(instruments->pool);
    return scan;
}

std::size_t Campaign::chunk_count() const {
    return ShardPlan{model_->domain_count(), options_.chunk_domains}.chunk_count();
}

std::vector<std::uint32_t> Campaign::chunk_domain_ids(std::size_t chunk_index) const {
    // Domain ids ARE global indices (PopulationModel's purity contract), so
    // the chunk's ids follow from the geometry alone — no materialization.
    const ShardPlan plan{model_->domain_count(), options_.chunk_domains};
    if (chunk_index >= plan.chunk_count()) {
        throw std::out_of_range("scanner: chunk_domain_ids index past chunk_count()");
    }
    std::vector<std::uint32_t> ids;
    ids.reserve(plan.chunk_end(chunk_index) - plan.chunk_begin(chunk_index));
    for (std::size_t i = plan.chunk_begin(chunk_index); i < plan.chunk_end(chunk_index);
         ++i) {
        ids.push_back(static_cast<std::uint32_t>(i));
    }
    return ids;
}

ScannedChunk Campaign::scan_chunk(std::size_t chunk_index) const {
    const ShardPlan plan{model_->domain_count(), options_.chunk_domains};
    if (chunk_index >= plan.chunk_count()) {
        throw std::out_of_range("scanner: scan_chunk index past chunk_count()");
    }
    if (options_.chunk_fault_hook) options_.chunk_fault_hook(chunk_index);
    // The worker regenerates exactly its own chunk's domains and drops them
    // with this frame: chunk scans touch O(chunk_domains) population memory
    // no matter how large the universe is.
    const web::DomainBlock block = model_->materialize(
        static_cast<std::uint32_t>(plan.chunk_begin(chunk_index)),
        static_cast<std::uint32_t>(plan.chunk_end(chunk_index)));
    // Chunk-private registry and pool, exactly as run()'s workers build them:
    // the snapshot below must be byte-identical to what run() journals for
    // this chunk, or the reducer's merged telemetry would drift.
    std::unique_ptr<telemetry::MetricsRegistry> metrics;
    std::optional<ScanTelemetry> instruments;
    if (metrics_ != nullptr) {
        metrics = std::make_unique<telemetry::MetricsRegistry>();
        instruments.emplace(*metrics);
    }
    bytes::BufferPool pool;
    netsim::QueueStorage queue;
    ScannedChunk out;
    out.scans.reserve(block.size());
    for (const web::Domain& domain : block.domains) {
        DomainScan scan;
        try {
            scan = scan_domain_into(domain, instruments ? &*instruments : nullptr, &pool,
                                    &queue);
        } catch (const std::exception& e) {
            scan = DomainScan{};
            scan.domain_id = domain.id;
            scan.error = e.what();
        }
        out.scans.push_back(std::move(scan));
    }
    if (metrics != nullptr) {
        pool.publish_metrics(instruments->pool);
        out.telemetry_snapshot = telemetry::snapshot(*metrics);
    }
    return out;
}

DomainScan Campaign::scan_domain_into(const web::Domain& domain, ScanTelemetry* instruments,
                                      bytes::BufferPool* pool,
                                      netsim::QueueStorage* queue) const {
    telemetry::MetricsRegistry* const metrics =
        instruments != nullptr ? instruments->registry : nullptr;
    DomainScan scan;
    scan.domain_id = domain.id;
    {
        // DNS is modelled as a population lookup, but it is still a campaign
        // phase: profiling it keeps the phase breakdown exhaustive.
        std::optional<telemetry::ScopedTimer> resolve_timer;
        if (instruments != nullptr) resolve_timer.emplace(*instruments->resolve_ms);
        scan.resolved = domain.resolves && (!options_.ipv6 || domain.has_ipv6);
    }
    if (!scan.resolved) return scan;

    // Per-DOMAIN constrained observer (DESIGN.md §14): its counters are a
    // pure function of this domain's packet stream, never of shard/chunk
    // geometry, so the observer.* telemetry below stays byte-identical for
    // every thread count and --procs setting.
    std::optional<core::ConstrainedMonitor> observer;
    if (options_.observer) observer.emplace(*options_.observer);

    std::string host = "www." + model_->domain_name(domain);
    bool serve_redirect = domain.redirects;
    // Backoff jitter runs on its own per-domain stream: with retries off it
    // is never drawn from, and with them on it cannot perturb attempt seeds.
    Rng backoff_rng = faults::RetryPolicy::backoff_stream(options_.seed, domain.id);
    // Watchdog budget: total simulated time this domain may consume across
    // every hop, retry and backoff. Purely per-domain bookkeeping — never a
    // function of shard assignment — so the determinism contract holds.
    Duration budget = options_.domain_deadline;
    bool budget_exhausted = false;
    for (int hop = 0; hop <= options_.max_redirects && !budget_exhausted; ++hop) {
        std::optional<AttemptOutcome> outcome;
        Duration backoff = Duration::zero();
        bool first_try_failed = false;
        for (int retry = 0;; ++retry) {
            const Duration deadline = std::min(options_.attempt_deadline, budget);
            outcome = run_attempt(domain, host, hop, retry, serve_redirect, deadline,
                                  instruments, pool, queue, observer ? &*observer : nullptr);
            scan.sim_time += outcome->sim_elapsed;
            budget -= outcome->sim_elapsed;
            if (budget <= Duration::zero()) budget_exhausted = true;
            const bool ok = outcome->trace.outcome == qlog::ConnectionOutcome::ok;
            if (outcome->trace.outcome == qlog::ConnectionOutcome::watchdog_cancelled) {
                budget_exhausted = true;
                if (instruments != nullptr) instruments->watchdog_cancelled->add(1);
            }
            // Bounded attempt log: past the cap, the attempt still ran (and
            // is counted below) but its record and trace are dropped.
            if (scan.attempts.size() < options_.max_attempt_records) {
                scan.attempts.push_back(DomainScan::AttemptRecord{
                    hop, retry, outcome->trace.outcome, backoff, outcome->server_fault});
                scan.connections.push_back(std::move(outcome->trace));
            } else {
                ++scan.attempts_truncated;
            }
            if (retry > 0) ++scan.retries;
            if (ok) {
                if (first_try_failed) scan.recovered_by_retry = true;
                break;
            }
            first_try_failed = true;
            if (budget_exhausted || !options_.retry.should_retry(retry, false)) break;
            // Attempts run on per-attempt simulators, so the backoff is
            // campaign bookkeeping in simulated time, not a sim event — but
            // it still burns watchdog budget.
            backoff = options_.retry.backoff_delay(retry + 1, backoff_rng);
            scan.sim_time += backoff;
            budget -= backoff;
            if (budget <= Duration::zero()) {
                budget_exhausted = true;
                break;
            }
        }
        const bool redirected =
            outcome->response.has_value() && outcome->response->status == 301 &&
            !outcome->response->location.empty();
        scan.final_response = outcome->response;
        if (!redirected) break;
        ++scan.redirects_followed;
        if (instruments != nullptr) instruments->redirects_followed->add(1);
        host = outcome->response->location;
        serve_redirect = false;  // the canonical target serves the page
    }
    if (observer && metrics != nullptr) {
        const core::ConstrainedTableCounters& t = observer->counters();
        metrics->counter("observer.offered").add(t.offered);
        metrics->counter("observer.non_flow").add(t.non_flow);
        metrics->counter("observer.sampled_out").add(t.sampled_out);
        metrics->counter("observer.tracked").add(t.tracked);
        metrics->counter("observer.untracked").add(t.untracked);
        metrics->counter("observer.collisions").add(t.collisions);
        metrics->counter("observer.evictions").add(t.evictions);
        metrics->counter("observer.flows").add(t.active_slots);
        std::uint64_t samples = 0;
        std::uint64_t rejected = 0;
        std::uint64_t spin_candidates = 0;
        for (const auto& [key, stats] : observer->flows()) {
            samples += stats.samples;
            rejected += stats.rejected_samples;
            if (stats.spin_candidate()) ++spin_candidates;
        }
        metrics->counter("observer.samples").add(samples);
        metrics->counter("observer.rejected_samples").add(rejected);
        metrics->counter("observer.spin_candidate_flows").add(spin_candidates);
    }
    return scan;
}

CampaignStats Campaign::run(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink) const {
    return run_impl(sink, RunMode::fresh);
}

CampaignStats Campaign::resume(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink) const {
    if (options_.journal_dir.empty()) {
        throw std::invalid_argument("scanner: resume() requires ScanOptions.journal_dir");
    }
    return run_impl(sink, RunMode::resume);
}

CampaignStats Campaign::reduce(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink) const {
    if (options_.journal_dir.empty()) {
        throw std::invalid_argument("scanner: reduce() requires ScanOptions.journal_dir");
    }
    return run_impl(sink, RunMode::reduce);
}

CampaignStats Campaign::run_impl(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink,
    RunMode mode) const {
    CampaignStats stats;
    const auto wall_start = std::chrono::steady_clock::now();
    const auto wall_elapsed = [&wall_start] {
        return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();
    };

    // The population is never materialized here: the merge thread works from
    // the model's closed-form geometry and regenerates single domains on
    // demand, so run_impl's footprint is O(merge window), not O(universe).
    const std::size_t universe = model_->domain_count();
    const ShardConfig shard{options_.threads, options_.chunk_domains};
    const ShardPlan plan{universe, options_.chunk_domains};

    // Whole-sweep host-resource observation: wall time, allocation traffic
    // (when the binary links the interposer) and peak RSS, published as
    // obs.resource.campaign.* gauges — host facts, excluded from the
    // deterministic telemetry view.
    std::optional<telemetry::ResourceProbe> resource_probe;
    if (metrics_ != nullptr) resource_probe.emplace("campaign");

    // ---- flight recorder ----------------------------------------------------
    // Simulated-time events are recorded ONLY here on the merge thread, in
    // ascending chunk order, positioned at cumulative simulated-nanosecond
    // offsets — a pure function of the scan results, so the sim trace is
    // byte-identical for every thread count and across kill/resume. Worker
    // scheduling, merge and journal latencies go to the wall clock (the
    // recorder's sidecar file).
    telemetry::TraceRecorder* const trace = trace_;
    using telemetry::TraceArg;
    using telemetry::TraceClock;
    const int sim_lane =
        trace != nullptr ? trace->lane(TraceClock::sim, "merge (chunk timeline)") : 0;
    const int wall_merge_lane =
        trace != nullptr ? trace->lane(TraceClock::wall, "merge") : 0;
    std::int64_t sim_cursor_ns = 0;
    std::uint64_t traced_domains = 0;
    std::uint64_t traced_quic_ok = 0;

    // Declared before merge_scan so the progress snapshot can report journal
    // durability; assigned in the journal setup block below.
    std::unique_ptr<JournalWriter> journal;

    // One chunk's sim-timeline events: a span covering the chunk's total
    // simulated time, instants for retries/watchdog kills/quarantine at the
    // owning domain's offset, and cumulative counter tracks. Shared verbatim
    // between the live merge path, the quarantine path and journal replay —
    // the `replayed` arg is ALWAYS present (0 or 1) so a resume trace equals
    // the uninterrupted one after flipping that single flag.
    const auto trace_chunk = [&](std::size_t chunk_index,
                                 const std::vector<DomainScan>& scans, bool replayed,
                                 bool quarantined) {
        if (trace == nullptr) return;
        const std::int64_t start_ns = sim_cursor_ns;
        std::int64_t dur_ns = 0;
        std::uint64_t quic_ok = 0;
        std::uint64_t errors = 0;
        std::uint64_t retries = 0;
        for (const auto& scan : scans) {
            if (scan.quic_ok()) ++quic_ok;
            if (!scan.error.empty()) ++errors;
            retries += scan.retries;
            dur_ns += scan.sim_time.count_nanos();
        }
        // The span first, instants after: per-lane timestamps then never
        // decrease (the span starts at or before every instant it contains).
        trace->complete(
            TraceClock::sim, sim_lane, "chunk", start_ns, dur_ns,
            {TraceArg::num("chunk", static_cast<std::uint64_t>(chunk_index)),
             TraceArg::num("domains", static_cast<std::uint64_t>(scans.size())),
             TraceArg::num("quic_ok", quic_ok), TraceArg::num("errors", errors),
             TraceArg::num("retries", retries),
             TraceArg::num("replayed", static_cast<std::uint64_t>(replayed ? 1 : 0)),
             TraceArg::num("quarantined",
                           static_cast<std::uint64_t>(quarantined ? 1 : 0))});
        if (quarantined) {
            trace->instant(TraceClock::sim, sim_lane, "quarantine", start_ns,
                           {TraceArg::num("chunk", static_cast<std::uint64_t>(chunk_index))});
        }
        std::int64_t offset_ns = 0;
        for (const auto& scan : scans) {
            if (scan.retries > 0) {
                trace->instant(
                    TraceClock::sim, sim_lane, "retry", start_ns + offset_ns,
                    {TraceArg::num("domain", static_cast<std::uint64_t>(scan.domain_id)),
                     TraceArg::num("retries", scan.retries)});
            }
            const bool watchdog_killed = std::any_of(
                scan.attempts.begin(), scan.attempts.end(),
                [](const DomainScan::AttemptRecord& a) {
                    return a.outcome == qlog::ConnectionOutcome::watchdog_cancelled;
                });
            if (watchdog_killed) {
                trace->instant(
                    TraceClock::sim, sim_lane, "watchdog", start_ns + offset_ns,
                    {TraceArg::num("domain", static_cast<std::uint64_t>(scan.domain_id))});
            }
            offset_ns += scan.sim_time.count_nanos();
        }
        sim_cursor_ns = start_ns + dur_ns;
        traced_domains += scans.size();
        traced_quic_ok += quic_ok;
        trace->counter(TraceClock::sim, "domains", sim_cursor_ns,
                       static_cast<double>(traced_domains));
        trace->counter(TraceClock::sim, "domains quic_ok", sim_cursor_ns,
                       static_cast<double>(traced_quic_ok));
    };

    // Per-scan merge bookkeeping, shared verbatim between the live merge
    // path and journal replay: replayed chunks re-drive exactly the counters
    // an uninterrupted merge would have driven, which is what makes resumed
    // output byte-identical.
    const auto merge_scan = [&](std::size_t domain_index, DomainScan&& scan) {
        // Regenerated, not looked up: the sink's Domain is a pure function of
        // (seed, id), so handing it a fresh copy keeps the merge thread free
        // of any materialized population.
        const web::Domain domain =
            model_->domain(static_cast<std::uint32_t>(domain_index));

        ++stats.domains_scanned;
        if (scan.resolved) ++stats.domains_resolved;
        if (scan.quic_ok()) ++stats.domains_quic_ok;
        stats.connections += scan.connections.size();
        stats.redirects_followed += scan.redirects_followed;
        stats.retries += scan.retries;
        if (scan.recovered_by_retry) ++stats.domains_recovered_by_retry;
        if (!scan.error.empty()) ++stats.domains_errored;
        for (const auto& trace : scan.connections) {
            ++stats.outcomes[static_cast<std::size_t>(trace.outcome)];
            if (metrics_ != nullptr) {
                metrics_->counter(std::string{"scanner.outcome."} +
                                  qlog::to_cstring(trace.outcome))
                    .add(1);
            }
        }
        for (const auto& attempt : scan.attempts) {
            ++stats.server_faults[static_cast<std::size_t>(attempt.server_fault)];
            if (metrics_ != nullptr &&
                attempt.server_fault != faults::ServerFaultMode::none) {
                metrics_->counter(std::string{"scanner.server_fault."} +
                                  faults::to_cstring(attempt.server_fault))
                    .add(1);
            }
        }
        if (metrics_ != nullptr) {
            metrics_->counter("scanner.domains_scanned").add(1);
            if (scan.resolved) metrics_->counter("scanner.domains_resolved").add(1);
            if (scan.quic_ok()) metrics_->counter("scanner.domains_quic_ok").add(1);
            metrics_->counter("scanner.connections").add(scan.connections.size());
            if (scan.retries > 0) {
                metrics_->counter("scanner.retries").add(scan.retries);
            }
            if (scan.recovered_by_retry) {
                metrics_->counter("scanner.domains_recovered_by_retry").add(1);
            }
            if (!scan.error.empty()) {
                metrics_->counter("scanner.domains_errored").add(1);
            }
        }

        sink(domain, std::move(scan));

        if (progress_ && progress_every_ > 0 &&
            stats.domains_scanned % progress_every_ == 0) {
            stats.wall_seconds = wall_elapsed();
            if (journal != nullptr) {
                stats.journal_records_appended = journal->records_appended();
                stats.journal_open_bytes = journal->open_bytes();
            }
            progress_(stats);
        }
    };

    // ---- journal lock, replay (resume/reduce) and writer setup --------------
    const bool journaling = !options_.journal_dir.empty();
    CampaignHeader header;
    header.seed = options_.seed;
    header.week = options_.week;
    header.ipv6 = options_.ipv6;
    header.chunk_domains = options_.chunk_domains;
    header.domain_count = universe;
    header.has_telemetry = metrics_ != nullptr;

    // Exactly one campaign may write a journal directory at a time: two
    // writers interleaving appends (or a reduce racing a scan) would corrupt
    // it. Held until this run returns; a stale lock whose owner died is
    // broken silently, a live owner makes this run refuse loudly.
    util::PidLockFile journal_lock;
    if (journaling) {
        std::filesystem::create_directories(options_.journal_dir);
        try {
            journal_lock.acquire(journal_lock_path(options_.journal_dir));
        } catch (const std::runtime_error& e) {
            throw std::runtime_error(std::string{"scanner: journal dir '"} +
                                     options_.journal_dir +
                                     "' is in use by another campaign (" + e.what() +
                                     "); this campaign spans domains [0, " +
                                     std::to_string(universe) + ") in " +
                                     std::to_string(plan.chunk_count()) + " chunks");
        }
    }

    // Re-drives the merge bookkeeping for one journaled chunk record —
    // telemetry, quarantine accounting, trace and per-scan merge — exactly
    // as the live path would have. Shared by resume (segment journal) and
    // reduce (map journal): replayed chunks producing the same counters the
    // uninterrupted merge would have produced is what makes recovered output
    // byte-identical.
    const auto replay_record = [&](ChunkRecord& record) {
        const std::size_t begin = plan.chunk_begin(record.chunk_index);
        const std::size_t end = plan.chunk_end(record.chunk_index);
        if (record.scans.size() != end - begin) {
            throw std::invalid_argument(
                "scanner: journal chunk geometry does not match the population at " +
                describe_chunk(plan, record.chunk_index) + ": record holds " +
                std::to_string(record.scans.size()) + " scans");
        }
        // Same merge order as the live path: chunk telemetry first, then
        // per-scan bookkeeping.
        if (metrics_ != nullptr && !record.telemetry_snapshot.empty()) {
            auto parsed = telemetry::parse_snapshot(record.telemetry_snapshot);
            if (!parsed) {
                throw std::invalid_argument(
                    "scanner: journal telemetry snapshot is malformed");
            }
            metrics_->merge_from(*parsed);
        }
        if (record.quarantined) {
            ++stats.chunks_quarantined;
            stats.domains_quarantined += record.scans.size();
            if (metrics_ != nullptr) {
                metrics_->counter("campaign.quarantined_chunks").add(1);
                metrics_->counter("campaign.quarantined_domains")
                    .add(record.scans.size());
            }
        }
        trace_chunk(record.chunk_index, record.scans, /*replayed=*/true,
                    record.quarantined);
        for (std::size_t j = 0; j < record.scans.size(); ++j) {
            // Model ids are global indices, so the expected id is arithmetic.
            if (record.scans[j].domain_id != begin + j) {
                throw std::invalid_argument(
                    "scanner: journal domain ids do not match the population at " +
                    describe_chunk(plan, record.chunk_index));
            }
            merge_scan(begin + j, std::move(record.scans[j]));
        }
    };

    if (mode == RunMode::reduce) {
        // ---- multi-process reducer (map-layout journal, DESIGN.md §13) ------
        // Recorded chunks may be ANY subset — worker processes finish out of
        // order and die mid-campaign — so the reducer interleaves replays of
        // recorded chunks with fresh scans of missing ones, keeping merges in
        // strict ascending chunk order. Chunks it scans are published back
        // into the map journal BEFORE merging (atomic, idempotent), so a
        // killed reduce rescans nothing it already published.
        // Only chunk PRESENCE is loaded eagerly (one byte per chunk): each
        // recorded chunk's bytes are read when its turn to merge comes and
        // die with the merge, so the reducer's RSS is bounded by the merge
        // window — never by how many chunks the workers already published.
        util::Io& map_io = util::resolve_io(options_.io);
        init_map_journal(map_io, options_.journal_dir, header, /*wipe=*/false);
        std::vector<char> recorded(plan.chunk_count(), 0);
        for (const std::size_t index : list_map_chunks(options_.journal_dir)) {
            if (index >= plan.chunk_count()) {
                throw std::invalid_argument(
                    "scanner: map journal chunk index " + std::to_string(index) +
                    " is past this campaign's chunk count (" +
                    std::to_string(plan.chunk_count()) + " chunks over " +
                    std::to_string(universe) + " domains)");
            }
            recorded[index] = 1;
        }
        std::vector<std::size_t> missing;
        for (std::size_t c = 0; c < plan.chunk_count(); ++c) {
            if (recorded[c] == 0) missing.push_back(c);
        }

        std::uint64_t records_replayed = 0;
        std::uint64_t corrupt_chunks = 0;
        // Next global chunk whose replay is still pending; recorded chunks
        // below a freshly-scanned chunk replay right before it merges.
        std::size_t replay_cursor = 0;
        // Storage-retry jitter stream (wall-clock backoff); independent of
        // every scan-facing RNG, so disk stutter never perturbs the output.
        util::Rng io_retry_rng{util::derive_stream_seed(options_.seed, 0xd15cULL)};
        const auto io_backoff = [&](int retry_index) {
            const Duration delay =
                options_.journal_retry.backoff_delay(retry_index, io_retry_rng);
            if (delay.count_nanos() > 0) {
                std::this_thread::sleep_for(std::chrono::nanoseconds{delay.count_nanos()});
            }
        };
        // Set when a non-transient publish failure disabled the map journal:
        // merging continues (the sink output stays byte-identical); only
        // durability is lost, and loudly so.
        bool map_degraded = false;
        const auto degrade_map_journal = [&](const std::string& what, int err) {
            map_degraded = true;
            stats.journal_degraded = true;
            stats.journal_degraded_error = what;
            if (metrics_ != nullptr) {
                metrics_->counter("campaign.journal.degraded").add(1);
                metrics_->counter(std::string{"campaign.journal.io_errors."} +
                                  util::to_cstring(util::classify_io_error(err)))
                    .add(1);
            }
            if (trace != nullptr) {
                trace->instant(TraceClock::wall, wall_merge_lane, "journal degraded",
                               trace->wall_now_ns(), {TraceArg::str("error", what)});
            }
        };
        const auto publish_and_merge = [&](ChunkRecord&& record) {
            if (!map_degraded) {
                util::IoResult published;
                for (int attempt = 0;; ++attempt) {
                    published = write_map_chunk(map_io, options_.journal_dir, record);
                    if (published) break;
                    if (util::classify_io_error(published.err) !=
                            util::IoErrorClass::transient ||
                        attempt + 1 >= options_.journal_retry.max_attempts) {
                        break;
                    }
                    io_backoff(attempt + 1);
                }
                if (published) {
                    ++stats.journal_records_appended;
                } else {
                    degrade_map_journal(
                        "scanner: cannot publish map chunk record for " +
                            describe_chunk(plan, record.chunk_index) + " in " +
                            options_.journal_dir + ": " + published.message(),
                        published.err);
                }
            }
            if (metrics_ != nullptr && !record.telemetry_snapshot.empty()) {
                auto parsed = telemetry::parse_snapshot(record.telemetry_snapshot);
                if (parsed) metrics_->merge_from(*parsed);
            }
            trace_chunk(record.chunk_index, record.scans, /*replayed=*/false,
                        record.quarantined);
            const std::size_t begin = plan.chunk_begin(record.chunk_index);
            for (std::size_t j = 0; j < record.scans.size(); ++j) {
                merge_scan(begin + j, std::move(record.scans[j]));
            }
            replay_cursor = record.chunk_index + 1;
        };
        const auto replay_up_to = [&](std::size_t limit) {
            while (replay_cursor < limit) {
                const std::size_t c = replay_cursor;
                if (recorded[c] != 0) {
                    auto record = read_map_chunk(options_.journal_dir, c);
                    if (record) {
                        replay_record(*record);
                        ++records_replayed;
                    } else {
                        // Present at the presence scan but unreadable now
                        // (torn publish of a killed worker): rescan inline on
                        // the merge thread and republish — byte-identical by
                        // the purity contract, so the repair is idempotent.
                        ++corrupt_chunks;
                        ScannedChunk rescan = scan_chunk(c);
                        ChunkRecord fresh;
                        fresh.chunk_index = c;
                        fresh.scans = std::move(rescan.scans);
                        fresh.telemetry_snapshot = std::move(rescan.telemetry_snapshot);
                        publish_and_merge(std::move(fresh));
                        continue;  // publish_and_merge advanced replay_cursor
                    }
                }
                replay_cursor = c + 1;
            }
        };

        // One missing chunk per work item: the campaign chunk is already the
        // unit of journaling, so the reducer's shard layer must not regroup.
        const ShardConfig reduce_shard{options_.threads, 1};
        const ShardPlan missing_plan{missing.size(), 1};
        // Scanned-chunk ring sized to the shard merge window: backpressure in
        // run_supervised guarantees at most `window` scanned-but-unmerged
        // chunks are live, so slot c % window is free by the time chunk
        // c + window is admitted.
        const std::size_t window = std::max<std::size_t>(
            std::min<std::size_t>(reduce_shard.resolved_merge_window(), missing.size()),
            1);
        std::vector<ScannedChunk> scanned(window);
        const auto scan_missing = [&](std::size_t c) {
            const std::int64_t scan_start_ns =
                trace != nullptr ? trace->wall_now_ns() : 0;
            scanned[c % window] = scan_chunk(missing[c]);
            if (trace != nullptr) {
                const std::int64_t end_ns = trace->wall_now_ns();
                trace->complete(
                    TraceClock::wall, trace->wall_lane_for_current_thread("worker"),
                    "scan chunk", scan_start_ns, end_ns - scan_start_ns,
                    {TraceArg::num("chunk", static_cast<std::uint64_t>(missing[c])),
                     TraceArg::num("domains", static_cast<std::uint64_t>(
                                                  scanned[c % window].scans.size()))});
            }
        };
        const auto merge_missing = [&](std::size_t c) {
            const std::size_t g = missing[c];
            replay_up_to(g);
            ChunkRecord record;
            record.chunk_index = g;
            record.scans = std::move(scanned[c % window].scans);
            record.telemetry_snapshot = std::move(scanned[c % window].telemetry_snapshot);
            scanned[c % window] = ScannedChunk{};  // release the slot's storage
            publish_and_merge(std::move(record));
        };
        const auto quarantine_missing = [&](const ChunkFailure& failure) {
            const std::size_t g = missing[failure.chunk];
            replay_up_to(g);
            ChunkRecord record;
            record.chunk_index = g;
            record.quarantined = true;
            record.quarantine_error = failure.error;
            record.scans.reserve(plan.chunk_end(g) - plan.chunk_begin(g));
            for (std::size_t i = plan.chunk_begin(g); i < plan.chunk_end(g); ++i) {
                DomainScan scan;
                scan.domain_id = static_cast<std::uint32_t>(i);
                scan.error = "chunk quarantined: " + failure.error;
                record.scans.push_back(std::move(scan));
            }
            ++stats.chunks_quarantined;
            stats.domains_quarantined += record.scans.size();
            if (metrics_ != nullptr) {
                metrics_->counter("campaign.quarantined_chunks").add(1);
                metrics_->counter("campaign.quarantined_domains")
                    .add(record.scans.size());
            }
            publish_and_merge(std::move(record));
        };

        SupervisorConfig supervisor;
        supervisor.restart = options_.worker_restart;
        supervisor.seed = options_.seed;
        const SupervisionReport report =
            run_supervised(reduce_shard, missing_plan, supervisor, scan_missing,
                           merge_missing, quarantine_missing);
        replay_up_to(plan.chunk_count());
        stats.worker_restarts = report.restarts;
        if (metrics_ != nullptr) {
            if (report.restarts > 0) {
                metrics_->counter("campaign.restarted_workers").add(report.restarts);
            }
            metrics_->counter("campaign.journal.records_replayed")
                .add(records_replayed);
            if (corrupt_chunks > 0) {
                metrics_->counter("campaign.journal.corrupt_map_chunks")
                    .add(corrupt_chunks);
            }
        }
        stats.wall_seconds = wall_elapsed();
        if (metrics_ != nullptr) {
            metrics_->gauge("scanner.domains_per_sec").set(stats.domains_per_sec());
            metrics_->gauge("scanner.quic_ok_rate").set(stats.quic_ok_rate());
            if (resource_probe) resource_probe->publish(*metrics_);
            if (trace != nullptr) trace->publish_metrics(*metrics_);
        }
        return stats;
    }

    std::size_t chunks_replayed = 0;
    if (journaling) {
        JournalOptions journal_options;
        journal_options.segment_bytes = options_.journal_segment_bytes;
        journal_options.io = options_.io;
        journal_options.io_retry = options_.journal_retry;
        journal_options.io_retry_seed = options_.seed;
        if (mode == RunMode::resume) {
            // Streaming replay: each journaled chunk is parsed, merged and
            // dropped in one step — the header is vetted before the first
            // record so a foreign journal is refused without consuming any.
            const ReplayStreamResult replayed = replay_journal(
                options_.journal_dir,
                [&header](const CampaignHeader& stored) {
                    if (!(stored == header)) {
                        throw std::invalid_argument(
                            "scanner: resume() journal belongs to a different "
                            "campaign (options or population changed since it was "
                            "written)");
                    }
                },
                [&replay_record](ChunkRecord&& record) { replay_record(record); });
            if (replayed.has_header) {
                chunks_replayed = static_cast<std::size_t>(replayed.chunks_replayed);
                if (metrics_ != nullptr) {
                    metrics_->counter("campaign.journal.records_replayed")
                        .add(chunks_replayed);
                    if (replayed.torn_bytes_discarded > 0) {
                        metrics_->counter("campaign.journal.torn_bytes_discarded")
                            .add(replayed.torn_bytes_discarded);
                    }
                }
            }
            journal = std::make_unique<JournalWriter>(options_.journal_dir, header,
                                                      JournalWriter::Mode::attach,
                                                      journal_options);
        } else {
            journal = std::make_unique<JournalWriter>(options_.journal_dir, header,
                                                      JournalWriter::Mode::fresh,
                                                      journal_options);
        }
    }

    // ---- scan the remaining chunks ------------------------------------------
    // Chunk indices stay GLOBAL (replayed prefix + local index): the journal,
    // quarantine notes and chunk-keyed restart streams all name campaign
    // chunks, not positions within this (possibly partial) run.
    const std::size_t base_domain =
        std::min(plan.chunk_begin(chunks_replayed), universe);
    const ShardPlan rest_plan{universe - base_domain, options_.chunk_domains};

    // Slot c % window is written by exactly one worker (inside scan(c)) and
    // read by the merge thread only after run_supervised reports the chunk
    // done. A restarted scan rebuilds and overwrites its slot from scratch.
    // Rings, not per-chunk vectors: the shard merge window bounds how many
    // chunks are ever live past the merge frontier, so slot c % window is
    // free again by the time chunk c + window is admitted — in-flight results
    // cost O(window), never O(chunk count).
    struct ChunkResult {
        std::vector<DomainScan> scans;
        /// Chunk-private telemetry; null when the campaign has no registry.
        std::unique_ptr<telemetry::MetricsRegistry> metrics;
    };
    const std::size_t window = std::max<std::size_t>(
        std::min<std::size_t>(shard.resolved_merge_window(), rest_plan.chunk_count()),
        1);
    std::vector<ChunkResult> chunks(window);
    // Wall-clock instant each chunk's scan finished (same single-writer slot
    // discipline as `chunks`): the merge span reports its distance to this as
    // the chunk's time spent queued for merge.
    std::vector<std::int64_t> scan_done_ns(window, 0);

    const auto scan_chunk = [&](std::size_t c) {
        const std::int64_t scan_start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        if (options_.chunk_fault_hook) options_.chunk_fault_hook(c + chunks_replayed);
        // Regenerate exactly this chunk's domains from the model and drop
        // them with this frame — workers never touch a shared domain span.
        const web::DomainBlock block = model_->materialize(
            static_cast<std::uint32_t>(base_domain + rest_plan.chunk_begin(c)),
            static_cast<std::uint32_t>(base_domain + rest_plan.chunk_end(c)));
        ChunkResult result;
        std::optional<ScanTelemetry> instruments;
        if (metrics_ != nullptr) {
            result.metrics = std::make_unique<telemetry::MetricsRegistry>();
            instruments.emplace(*result.metrics);
        }
        // Chunk-private datagram pool, same ownership story as the chunk
        // registry: touched by exactly one worker, so no locking. Datagram
        // storage recycles across every attempt of the chunk's domains; all
        // buffers are dead by the time the chunk completes (each attempt's
        // simulator drains before the next starts), so the pool can die
        // here. Pool counters depend on chunk geometry, which is why
        // deterministic_csv excludes the bytes.pool prefix.
        bytes::BufferPool pool;
        // Event-queue storage, recycled across the chunk's attempts the same
        // way (DESIGN.md §10.2).
        netsim::QueueStorage queue;
        result.scans.reserve(block.size());
        for (const web::Domain& domain : block.domains) {
            // Per-domain fault isolation: one pathological target must cost
            // one scan record, never the sweep. Telemetry/stats may be
            // partially written for the failed domain; counters stay
            // monotonic either way.
            DomainScan scan;
            try {
                scan = scan_domain_into(domain, instruments ? &*instruments : nullptr, &pool,
                                        &queue);
            } catch (const std::exception& e) {
                scan = DomainScan{};
                scan.domain_id = domain.id;
                scan.error = e.what();
            }
            result.scans.push_back(std::move(scan));
        }
        if (instruments) pool.publish_metrics(instruments->pool);
        chunks[c % window] = std::move(result);
        if (trace != nullptr) {
            const std::int64_t end_ns = trace->wall_now_ns();
            scan_done_ns[c % window] = end_ns;
            trace->complete(
                TraceClock::wall, trace->wall_lane_for_current_thread("worker"),
                "scan chunk", scan_start_ns, end_ns - scan_start_ns,
                {TraceArg::num("chunk",
                               static_cast<std::uint64_t>(c + chunks_replayed)),
                 TraceArg::num("domains",
                               static_cast<std::uint64_t>(rest_plan.chunk_end(c) -
                                                          rest_plan.chunk_begin(c)))});
        }
    };

    // Journal degrade (DESIGN.md §16): a non-transient storage error must not
    // kill a sweep whose OUTPUT is still perfectly computable. The journal is
    // shut down — sealing the durable prefix when the tail is clean,
    // abandoning the .open tail for scrub otherwise — the cause is attributed
    // loudly (stats flag + campaign.journal.* telemetry), and scanning
    // continues journal-free. Construction-time failures still throw: before
    // any work is done, refusing loudly beats running without durability the
    // caller explicitly asked for.
    const auto degrade_journal = [&](const JournalIoError& e) {
        if (journal == nullptr) return;
        stats.journal_records_appended = journal->records_appended();
        stats.journal_open_bytes = 0;
        stats.journal_degraded = true;
        stats.journal_degraded_error = e.what();
        if (journal->tail_clean()) {
            // The failed append rolled back cleanly: everything on disk is
            // intact records, so best-effort seal the durable prefix.
            try {
                journal->close();
            } catch (const std::exception&) {  // NOLINT(bugprone-empty-catch)
                journal->abandon();
            }
        } else {
            // The tail may hold a torn frame; leave it .open for scrub.
            journal->abandon();
        }
        if (metrics_ != nullptr) {
            metrics_->counter("campaign.journal.records_appended")
                .add(journal->records_appended());
            metrics_->counter("campaign.journal.segments_sealed")
                .add(journal->segments_sealed());
            metrics_->counter("campaign.journal.degraded").add(1);
            metrics_->counter(std::string{"campaign.journal.io_errors."} +
                              util::to_cstring(e.error_class()))
                .add(1);
        }
        journal.reset();
        if (trace != nullptr) {
            trace->instant(TraceClock::wall, wall_merge_lane, "journal degraded",
                           trace->wall_now_ns(), {TraceArg::str("error", e.what())});
        }
    };

    const auto merge_chunk = [&](std::size_t c) {
        const std::int64_t merge_start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        ChunkResult result = std::move(chunks[c % window]);
        chunks[c % window] = ChunkResult{};  // release the slot's storage
        // Journal FIRST, then merge: a crash in between costs nothing (the
        // record is durable; resume re-drives the merge from it), while the
        // opposite order could emit sink output that a resume then repeats.
        if (journal != nullptr) {
            ChunkRecord record;
            record.chunk_index = c + chunks_replayed;
            record.scans = std::move(result.scans);
            if (metrics_ != nullptr && result.metrics != nullptr) {
                record.telemetry_snapshot = telemetry::snapshot(*result.metrics);
            }
            const std::int64_t append_start_ns =
                trace != nullptr ? trace->wall_now_ns() : 0;
            try {
                journal->append_chunk(record);
            } catch (const JournalIoError& e) {
                degrade_journal(e);
            }
            if (trace != nullptr && journal != nullptr) {
                trace->complete(
                    TraceClock::wall, wall_merge_lane, "journal append",
                    append_start_ns, trace->wall_now_ns() - append_start_ns,
                    {TraceArg::num("chunk", static_cast<std::uint64_t>(
                                                record.chunk_index)),
                     TraceArg::num("open_bytes", journal->open_bytes())});
            }
            result.scans = std::move(record.scans);
        }
        if (trace != nullptr && result.metrics != nullptr) {
            // Chunk-local efficiency, sampled from the chunk's private
            // registry before it merges away: datagram-pool hit rate and the
            // simulator event-queue high-water mark. Read-only probes — the
            // merged registry must not grow instruments just because a
            // recorder is attached.
            const auto* hits = result.metrics->find_counter("bytes.pool.hits");
            const auto* acquires = result.metrics->find_counter("bytes.pool.acquires");
            if (hits != nullptr && acquires != nullptr && acquires->value() > 0) {
                trace->counter(TraceClock::wall, "pool hit rate",
                               trace->wall_now_ns(),
                               static_cast<double>(hits->value()) /
                                   static_cast<double>(acquires->value()));
            }
            if (const auto* hwm =
                    result.metrics->find_gauge("netsim.sim.queue_depth_hwm");
                hwm != nullptr && hwm->has_value()) {
                trace->counter(TraceClock::wall, "event queue hwm",
                               trace->wall_now_ns(), hwm->value());
            }
        }
        if (metrics_ != nullptr && result.metrics != nullptr) {
            metrics_->merge_from(*result.metrics);
        }
        trace_chunk(c + chunks_replayed, result.scans, /*replayed=*/false,
                    /*quarantined=*/false);
        for (std::size_t j = 0; j < result.scans.size(); ++j) {
            merge_scan(base_domain + rest_plan.chunk_begin(c) + j,
                       std::move(result.scans[j]));
        }
        if (trace != nullptr) {
            const std::int64_t end_ns = trace->wall_now_ns();
            const double queued_ms =
                static_cast<double>(merge_start_ns - scan_done_ns[c % window]) / 1e6;
            trace->complete(TraceClock::wall, wall_merge_lane, "merge chunk",
                            merge_start_ns, end_ns - merge_start_ns,
                            {TraceArg::num("chunk", static_cast<std::uint64_t>(
                                                        c + chunks_replayed)),
                             TraceArg::num("queued_ms", queued_ms)});
            const double elapsed = wall_elapsed();
            if (elapsed > 0.0) {
                trace->counter(TraceClock::wall, "domains_per_sec", end_ns,
                               static_cast<double>(stats.domains_scanned) / elapsed);
            }
        }
    };

    const auto quarantine_chunk = [&](const ChunkFailure& failure) {
        // The chunk crashed repeatedly even after restarts: give its domains
        // placeholder error scans and complete the campaign degraded rather
        // than losing the sweep.
        const std::size_t begin = base_domain + rest_plan.chunk_begin(failure.chunk);
        const std::size_t end = base_domain + rest_plan.chunk_end(failure.chunk);
        std::vector<DomainScan> placeholders;
        placeholders.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
            DomainScan scan;
            scan.domain_id = static_cast<std::uint32_t>(i);
            scan.error = "chunk quarantined: " + failure.error;
            placeholders.push_back(std::move(scan));
        }
        if (journal != nullptr) {
            ChunkRecord record;
            record.chunk_index = failure.chunk + chunks_replayed;
            record.quarantined = true;
            record.quarantine_error = failure.error;
            record.scans = std::move(placeholders);
            try {
                journal->append_chunk(record);
            } catch (const JournalIoError& e) {
                degrade_journal(e);
            }
            placeholders = std::move(record.scans);
        }
        ++stats.chunks_quarantined;
        stats.domains_quarantined += end - begin;
        if (metrics_ != nullptr) {
            metrics_->counter("campaign.quarantined_chunks").add(1);
            metrics_->counter("campaign.quarantined_domains").add(end - begin);
        }
        trace_chunk(failure.chunk + chunks_replayed, placeholders, /*replayed=*/false,
                    /*quarantined=*/true);
        if (trace != nullptr) {
            trace->instant(
                TraceClock::wall, wall_merge_lane, "quarantine", trace->wall_now_ns(),
                {TraceArg::num("chunk",
                               static_cast<std::uint64_t>(failure.chunk +
                                                          chunks_replayed)),
                 TraceArg::num("attempts", static_cast<std::uint64_t>(failure.attempts)),
                 TraceArg::str("error", failure.error)});
        }
        for (std::size_t j = 0; j < placeholders.size(); ++j) {
            merge_scan(begin + j, std::move(placeholders[j]));
        }
    };

    SupervisorConfig supervisor;
    supervisor.restart = options_.worker_restart;
    supervisor.seed = options_.seed;
    const SupervisionReport report =
        run_supervised(shard, rest_plan, supervisor, scan_chunk, merge_chunk,
                       quarantine_chunk);
    stats.worker_restarts = report.restarts;
    // restarted_workers = thread-level scan re-executions (run_supervised);
    // its sibling campaign.restarted_procs counts worker PROCESS re-forks
    // and is published by scanner::run_procs — keeping the two attribution
    // paths distinct for the progress reporter and the flight recorder.
    if (metrics_ != nullptr && report.restarts > 0) {
        metrics_->counter("campaign.restarted_workers").add(report.restarts);
    }

    if (journal != nullptr) {
        try {
            journal->close();
        } catch (const JournalIoError& e) {
            degrade_journal(e);  // resets `journal`
        }
    }
    if (journal != nullptr) {
        stats.journal_records_appended = journal->records_appended();
        stats.journal_open_bytes = 0;  // everything sealed and durable
        if (metrics_ != nullptr) {
            metrics_->counter("campaign.journal.records_appended")
                .add(journal->records_appended());
            metrics_->counter("campaign.journal.segments_sealed")
                .add(journal->segments_sealed());
        }
    }

    // Wall clock is aggregated exactly once, here on the merge thread —
    // never accumulated per domain, which would double-count overlapping
    // worker time under sharding.
    stats.wall_seconds = wall_elapsed();
    if (metrics_ != nullptr) {
        metrics_->gauge("scanner.domains_per_sec").set(stats.domains_per_sec());
        metrics_->gauge("scanner.quic_ok_rate").set(stats.quic_ok_rate());
        if (resource_probe) resource_probe->publish(*metrics_);
        if (trace != nullptr) trace->publish_metrics(*metrics_);
    }
    return stats;
}

}  // namespace spinscope::scanner
