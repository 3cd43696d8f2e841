#include "scanner/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
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
    if (journal_batch_bytes == 0) {
        throw std::invalid_argument("scanner: ScanOptions.journal_batch_bytes must be >= 1");
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

std::shared_ptr<Campaign::ScanPool> Campaign::ScanPool::of_this_thread() {
    thread_local std::weak_ptr<ScanPool> current;
    std::shared_ptr<ScanPool> pool = current.lock();
    if (pool == nullptr) {
        pool = std::make_shared<ScanPool>();
        current = pool;
    }
    return pool;
}

DomainScan Campaign::scan_domain(const web::Domain& domain) const {
    // One-off scans borrow the thread's shared pool, warm from earlier
    // calls; a caller that finds it lent out gets a transient one, which the
    // first attempt seeds for the domain's later attempts.
    std::optional<bytes::BufferPool> transient;
    const bool borrowed = !scan_pool_->lent.exchange(true, std::memory_order_acquire);
    bytes::BufferPool& pool = borrowed ? scan_pool_->pool : transient.emplace();
    struct GiveBack {
        ScanPool* lender;
        ~GiveBack() {
            if (lender != nullptr) lender->lent.store(false, std::memory_order_release);
        }
    } give_back{borrowed ? scan_pool_.get() : nullptr};

    ScanTelemetry* instruments = nullptr;
    if (metrics_ != nullptr) {
        if (!scan_telemetry_) scan_telemetry_ = std::make_unique<ScanTelemetry>(*metrics_);
        instruments = scan_telemetry_.get();
    }
    const bytes::BufferPool::Stats before = pool.begin_use();
    DomainScan scan = scan_domain_into(domain, instruments, &pool, scan_queue_.get());
    if (instruments != nullptr) pool.publish_metrics(instruments->pool, before);
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
    LiveChunk live;
    scan_live_chunk(chunk_index, live);
    ScannedChunk out;
    out.scans = std::move(live.scans);
    if (live.metrics() != nullptr) out.telemetry_snapshot = telemetry::snapshot(*live.metrics());
    return out;
}

void Campaign::scan_live_chunk(std::size_t chunk_index, LiveChunk& into) const {
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
    ScanTelemetry* instruments = nullptr;
    if (metrics_ != nullptr) {
        if (into.telemetry == nullptr) into.telemetry = std::make_unique<ChunkTelemetry>();
        into.telemetry->registry.rewind();
        instruments = &into.telemetry->instruments;
    }
    // Chunk-private datagram pool: touched by exactly one worker, so no
    // locking. Datagram storage recycles across every attempt of the chunk's
    // domains; all buffers are dead by the time the chunk completes (each
    // attempt's simulator drains before the next starts), so the pool can
    // die here. Pool counters depend on chunk geometry, which is why
    // deterministic_csv excludes the bytes.pool prefix.
    bytes::BufferPool pool;
    // Event-queue and timer storage, recycled across the chunk's attempts
    // the same way (DESIGN.md §10.2).
    netsim::QueueStorage queue;
    into.scans.clear();
    into.scans.reserve(block.size());
    for (const web::Domain& domain : block.domains) {
        // Per-domain fault isolation: one pathological target must cost one
        // scan record, never the sweep. Telemetry may be partially written
        // for the failed domain; counters stay monotonic either way.
        DomainScan scan;
        try {
            scan = scan_domain_into(domain, instruments, &pool, &queue);
        } catch (const std::exception& e) {
            scan = DomainScan{};
            scan.domain_id = domain.id;
            scan.error = e.what();
        }
        into.scans.push_back(std::move(scan));
    }
    if (instruments != nullptr) pool.publish_metrics(instruments->pool);
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
    return run_impl(sink, /*fresh=*/true);
}

CampaignStats Campaign::resume(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink) const {
    if (options_.journal_dir.empty()) {
        throw std::invalid_argument("scanner: resume() requires ScanOptions.journal_dir");
    }
    return run_impl(sink, /*fresh=*/false);
}

CampaignStats Campaign::run_impl(
    const std::function<void(const web::Domain&, DomainScan&&)>& sink, bool fresh) const {
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
    std::unique_ptr<BatchWriter> journal;

    // One chunk's sim-timeline events: a span covering the chunk's total
    // simulated time, instants for retries/watchdog kills/quarantine at the
    // owning domain's offset, and cumulative counter tracks. Shared verbatim
    // between the scan, quarantine and replay paths — the `replayed` arg is
    // ALWAYS present (0 or 1) so a resume trace equals the uninterrupted one
    // after flipping that single flag.
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

    // scanner.* merge counters, resolved once per run instead of building a
    // name and walking the registry per domain and per trace. Lazy: a
    // counter still appears only once something increments it.
    struct MergeCounters {
        explicit MergeCounters(telemetry::MetricsRegistry& registry)
            : domains_scanned{registry, "scanner.domains_scanned"},
              domains_resolved{registry, "scanner.domains_resolved"},
              domains_quic_ok{registry, "scanner.domains_quic_ok"},
              connections{registry, "scanner.connections"},
              retries{registry, "scanner.retries"},
              recovered_by_retry{registry, "scanner.domains_recovered_by_retry"},
              domains_errored{registry, "scanner.domains_errored"} {
            outcome.reserve(qlog::kConnectionOutcomeCount);
            for (std::size_t i = 0; i < qlog::kConnectionOutcomeCount; ++i) {
                outcome.emplace_back(
                    registry, std::string{"scanner.outcome."} +
                                  qlog::to_cstring(static_cast<qlog::ConnectionOutcome>(i)));
            }
            server_fault.reserve(faults::kServerFaultModeCount);
            for (std::size_t i = 0; i < faults::kServerFaultModeCount; ++i) {
                server_fault.emplace_back(
                    registry, std::string{"scanner.server_fault."} +
                                  faults::to_cstring(static_cast<faults::ServerFaultMode>(i)));
            }
        }
        std::vector<telemetry::Lazy<telemetry::Counter>> outcome;       ///< by ConnectionOutcome
        std::vector<telemetry::Lazy<telemetry::Counter>> server_fault;  ///< by ServerFaultMode
        telemetry::Lazy<telemetry::Counter> domains_scanned;
        telemetry::Lazy<telemetry::Counter> domains_resolved;
        telemetry::Lazy<telemetry::Counter> domains_quic_ok;
        telemetry::Lazy<telemetry::Counter> connections;
        telemetry::Lazy<telemetry::Counter> retries;
        telemetry::Lazy<telemetry::Counter> recovered_by_retry;
        telemetry::Lazy<telemetry::Counter> domains_errored;
    };
    std::optional<MergeCounters> merge_counters;
    if (metrics_ != nullptr) merge_counters.emplace(*metrics_);

    // Per-scan merge bookkeeping, shared verbatim between the scan and
    // replay paths: replayed chunks re-drive exactly the counters an
    // uninterrupted merge would have driven, which is what makes resumed
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
            const auto outcome = static_cast<std::size_t>(trace.outcome);
            ++stats.outcomes[outcome];
            if (merge_counters) merge_counters->outcome[outcome]->add(1);
        }
        for (const auto& attempt : scan.attempts) {
            const auto fault = static_cast<std::size_t>(attempt.server_fault);
            ++stats.server_faults[fault];
            if (merge_counters && attempt.server_fault != faults::ServerFaultMode::none) {
                merge_counters->server_fault[fault]->add(1);
            }
        }
        if (merge_counters) {
            MergeCounters& c = *merge_counters;
            c.domains_scanned->add(1);
            if (scan.resolved) c.domains_resolved->add(1);
            if (scan.quic_ok()) c.domains_quic_ok->add(1);
            c.connections->add(scan.connections.size());
            if (scan.retries > 0) c.retries->add(scan.retries);
            if (scan.recovered_by_retry) c.recovered_by_retry->add(1);
            if (!scan.error.empty()) c.domains_errored->add(1);
        }

        sink(domain, std::move(scan));

        if (progress_ && progress_every_ > 0 &&
            stats.domains_scanned % progress_every_ == 0) {
            stats.wall_seconds = wall_elapsed();
            if (journal != nullptr) {
                stats.journal_records_published = journal->records_published();
                stats.journal_open_bytes = journal->open_bytes();
            }
            progress_(stats);
        }
    };

    // ---- journal lock, header and replay plan -------------------------------
    // Exactly one campaign may write a journal directory at a time: two
    // writers interleaving batches (or a resume racing a map pass) would
    // corrupt it. Held until this run returns; a stale lock whose owner died
    // is broken silently, a live owner makes this run refuse loudly.
    const bool journaling = !options_.journal_dir.empty();
    util::PidLockFile journal_lock;
    std::vector<BatchFile> batches;  // replayable, ascending, disjoint
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
        // Before any work: a journal that cannot even take its header
        // refuses loudly rather than running without the durability the
        // caller asked for.
        init_journal(options_.journal_dir,
                     campaign_header(options_, universe, metrics_ != nullptr), fresh,
                     options_.io);
        if (!fresh) batches = replayable_batches(options_.journal_dir, plan.chunk_count());
        journal = std::make_unique<BatchWriter>(options_, options_.journal_batch_bytes);
    }
    // The work list: every chunk no replayable batch covers, kept as runs
    // of consecutive chunks so a journal-free sweep holds no per-chunk
    // state. Work item c is chunk `first + (c - work_begin)` of its run.
    struct WorkRun {
        std::size_t first = 0;
        std::size_t work_begin = 0;
    };
    std::vector<WorkRun> runs;
    std::size_t work_items = 0;
    {
        std::size_t next = 0;
        const auto add_run = [&](std::size_t end) {
            if (next >= end) return;
            runs.push_back({next, work_items});
            work_items += end - next;
        };
        for (const BatchFile& batch : batches) {
            add_run(batch.first);
            next = batch.last + 1;
        }
        add_run(plan.chunk_count());
    }
    const auto missing = [&runs](std::size_t c) {
        const auto run = std::prev(std::upper_bound(
            runs.begin(), runs.end(), c,
            [](std::size_t item, const WorkRun& r) { return item < r.work_begin; }));
        return run->first + (c - run->work_begin);
    };

    // Journal degrade (DESIGN.md §16): a non-transient storage error must not
    // kill a sweep whose OUTPUT is still perfectly computable. The open batch
    // is dropped (published batches stay valid), the cause is attributed
    // loudly (stats flag + campaign.journal.* telemetry), and scanning
    // continues journal-free.
    const auto publish_journal_counters = [&] {
        stats.journal_records_published = journal->records_published();
        stats.journal_open_bytes = 0;
        if (metrics_ != nullptr) {
            metrics_->counter("campaign.journal.records_published")
                .add(journal->records_published());
            metrics_->counter("campaign.journal.batches_published")
                .add(journal->batches_published());
        }
    };
    const auto degrade_journal = [&](const JournalIoError& e) {
        journal->abandon();
        publish_journal_counters();
        stats.journal_degraded = true;
        stats.journal_degraded_error = e.what();
        if (metrics_ != nullptr) {
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
    // Journal FIRST, then merge: a crash in between costs nothing (the chunk
    // is replayed, or rescanned when its batch never got published), while
    // the opposite order could emit sink output that a resume then repeats.
    const auto journal_record = [&](const ChunkRecord& record) {
        if (journal == nullptr) return;
        const std::int64_t append_start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        try {
            journal->append(record);
        } catch (const JournalIoError& e) {
            degrade_journal(e);
        }
        if (trace != nullptr && journal != nullptr) {
            trace->complete(
                TraceClock::wall, wall_merge_lane, "journal append", append_start_ns,
                trace->wall_now_ns() - append_start_ns,
                {TraceArg::num("chunk", static_cast<std::uint64_t>(record.chunk_index)),
                 TraceArg::num("open_bytes", journal->open_bytes())});
        }
    };

    // Merges `result` in place: its storage stays with the caller, so a
    // worker-scanned chunk is freed by its worker (release_missing below).
    const auto merge_scanned = [&](std::size_t chunk, LiveChunk& result,
                                   std::int64_t scan_done_ns) {
        const std::int64_t merge_start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        if (journal != nullptr) {
            ChunkRecord record;
            record.chunk_index = chunk;
            record.scans = std::move(result.scans);
            if (result.metrics() != nullptr) {
                record.telemetry_snapshot = telemetry::snapshot(*result.metrics());
            }
            journal_record(record);
            result.scans = std::move(record.scans);
        }
        const telemetry::MetricsRegistry* const chunk_metrics = result.metrics();
        if (trace != nullptr && chunk_metrics != nullptr) {
            // Chunk-local efficiency, sampled from the chunk's private
            // registry before it merges away: datagram-pool hit rate and the
            // simulator event-queue high-water mark. Read-only probes — the
            // merged registry must not grow instruments just because a
            // recorder is attached.
            const auto* hits = chunk_metrics->find_counter("bytes.pool.hits");
            const auto* acquires = chunk_metrics->find_counter("bytes.pool.acquires");
            if (hits != nullptr && acquires != nullptr && acquires->value() > 0) {
                trace->counter(TraceClock::wall, "pool hit rate", trace->wall_now_ns(),
                               static_cast<double>(hits->value()) /
                                   static_cast<double>(acquires->value()));
            }
            if (const auto* hwm = chunk_metrics->find_gauge("netsim.sim.queue_depth_hwm");
                hwm != nullptr && hwm->has_value()) {
                trace->counter(TraceClock::wall, "event queue hwm", trace->wall_now_ns(),
                               hwm->value());
            }
        }
        // The chunk registry merges directly; only a journaled record pays
        // for the snapshot above.
        if (metrics_ != nullptr && chunk_metrics != nullptr) {
            metrics_->merge_from(*chunk_metrics);
        }
        trace_chunk(chunk, result.scans, /*replayed=*/false, /*quarantined=*/false);
        const std::size_t begin = plan.chunk_begin(chunk);
        for (std::size_t j = 0; j < result.scans.size(); ++j) {
            merge_scan(begin + j, std::move(result.scans[j]));
        }
        if (trace != nullptr) {
            const std::int64_t end_ns = trace->wall_now_ns();
            const double queued_ms =
                static_cast<double>(merge_start_ns - scan_done_ns) / 1e6;
            trace->complete(TraceClock::wall, wall_merge_lane, "merge chunk", merge_start_ns,
                            end_ns - merge_start_ns,
                            {TraceArg::num("chunk", static_cast<std::uint64_t>(chunk)),
                             TraceArg::num("queued_ms", queued_ms)});
            const double elapsed = wall_elapsed();
            if (elapsed > 0.0) {
                trace->counter(TraceClock::wall, "domains_per_sec", end_ns,
                               static_cast<double>(stats.domains_scanned) / elapsed);
            }
        }
    };

    const auto count_quarantine = [&](std::size_t domains) {
        ++stats.chunks_quarantined;
        stats.domains_quarantined += domains;
        if (metrics_ != nullptr) {
            metrics_->counter("campaign.quarantined_chunks").add(1);
            metrics_->counter("campaign.quarantined_domains").add(domains);
        }
    };

    const auto merge_quarantined = [&](std::size_t chunk, const ChunkFailure& failure) {
        // The chunk crashed repeatedly even after restarts: give its domains
        // placeholder error scans and complete the campaign degraded rather
        // than losing the sweep.
        ChunkRecord record;
        record.chunk_index = chunk;
        record.quarantined = true;
        record.quarantine_error = failure.error;
        record.scans.reserve(plan.chunk_end(chunk) - plan.chunk_begin(chunk));
        for (std::size_t i = plan.chunk_begin(chunk); i < plan.chunk_end(chunk); ++i) {
            DomainScan scan;
            scan.domain_id = static_cast<std::uint32_t>(i);
            scan.error = "chunk quarantined: " + failure.error;
            record.scans.push_back(std::move(scan));
        }
        journal_record(record);
        count_quarantine(record.scans.size());
        trace_chunk(chunk, record.scans, /*replayed=*/false, /*quarantined=*/true);
        if (trace != nullptr) {
            trace->instant(
                TraceClock::wall, wall_merge_lane, "quarantine", trace->wall_now_ns(),
                {TraceArg::num("chunk", static_cast<std::uint64_t>(chunk)),
                 TraceArg::num("attempts", static_cast<std::uint64_t>(failure.attempts)),
                 TraceArg::str("error", failure.error)});
        }
        const std::size_t begin = plan.chunk_begin(chunk);
        for (std::size_t j = 0; j < record.scans.size(); ++j) {
            merge_scan(begin + j, std::move(record.scans[j]));
        }
    };

    // Re-drives the merge bookkeeping for one journaled chunk record —
    // telemetry, quarantine accounting, trace and per-scan merge — exactly
    // as the scan path would have.
    const auto replay_record = [&](ChunkRecord& record) {
        const std::size_t begin = plan.chunk_begin(record.chunk_index);
        const std::size_t end = plan.chunk_end(record.chunk_index);
        if (record.scans.size() != end - begin) {
            throw std::invalid_argument(
                "scanner: journal chunk geometry does not match the population at " +
                describe_chunk(plan, record.chunk_index) + ": record holds " +
                std::to_string(record.scans.size()) + " scans");
        }
        // Same merge order as the scan path: chunk telemetry first, then
        // per-scan bookkeeping.
        if (metrics_ != nullptr && !record.telemetry_snapshot.empty()) {
            auto parsed = telemetry::parse_snapshot(record.telemetry_snapshot);
            if (!parsed) {
                throw std::invalid_argument(
                    "scanner: journal telemetry snapshot is malformed");
            }
            metrics_->merge_from(*parsed);
        }
        if (record.quarantined) count_quarantine(record.scans.size());
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

    // Replays, in ascending order, every batch that starts below `limit`, one
    // batch resident at a time. A batch that fails validation was planned as
    // covered, so no worker scans its chunks: they are rescanned inline on
    // the merge thread (byte-identical by the purity contract) and journaled
    // afresh.
    std::uint64_t records_replayed = 0;
    std::uint64_t corrupt_batches = 0;
    std::size_t next_batch = 0;
    const auto replay_up_to = [&](std::size_t limit) {
        for (; next_batch < batches.size() && batches[next_batch].first < limit; ++next_batch) {
            const BatchFile& batch = batches[next_batch];
            if (auto records = read_batch(batch)) {
                for (ChunkRecord& record : *records) replay_record(record);
                records_replayed += records->size();
                continue;
            }
            ++corrupt_batches;
            LiveChunk rescan;
            for (std::size_t c = batch.first; c <= batch.last; ++c) {
                scan_live_chunk(c, rescan);
                merge_scanned(c, rescan, trace != nullptr ? trace->wall_now_ns() : 0);
            }
        }
    };

    // ---- scan the missing chunks ---------------------------------------------
    // One campaign chunk per work item (missing(c) names it). Slot c % window
    // is written by exactly one worker (inside scan(c)), read by the merge
    // thread only after run_supervised reports the chunk done, and cleared
    // by that same worker once the chunk is merged; a restarted scan
    // overwrites it from scratch. Rings, not per-chunk vectors: run_supervised
    // reuses slot c % window for chunk c + window only after chunk c's
    // release, so in-flight results cost O(window), never O(chunk count).
    // Worker-affine frees (DESIGN.md §9): a chunk's scans and traces are
    // allocated by its worker and freed by it too, never by the merge
    // thread, which keeps the allocator's per-thread caches warm and its
    // arena locks uncontended. The slot's telemetry outlives the release:
    // the next chunk scanned into the slot rewinds and reuses it
    // (DESIGN.md §12.2). It belongs to the slot, not to a worker, because
    // slot c % window always holds the same chunks while which worker scans
    // them is up to scheduling: per-slot first-use instruments keep a
    // sweep's allocations the same every run.
    const ShardConfig shard{options_.threads, 1};
    const ShardPlan work{work_items, 1};
    const std::size_t window = shard.ring_slots(work_items);
    std::vector<LiveChunk> slots(window);
    // Wall-clock instant each chunk's scan finished (same slot discipline):
    // the merge span reports its distance to this as time queued for merge.
    std::vector<std::int64_t> scan_done_ns(window, 0);

    const auto scan_missing = [&](std::size_t c, std::size_t /*worker*/) {
        const std::int64_t scan_start_ns = trace != nullptr ? trace->wall_now_ns() : 0;
        scan_live_chunk(missing(c), slots[c % window]);
        if (trace != nullptr) {
            const std::int64_t end_ns = trace->wall_now_ns();
            scan_done_ns[c % window] = end_ns;
            trace->complete(
                TraceClock::wall, trace->wall_lane_for_current_thread("worker"),
                "scan chunk", scan_start_ns, end_ns - scan_start_ns,
                {TraceArg::num("chunk", static_cast<std::uint64_t>(missing(c))),
                 TraceArg::num("domains",
                               static_cast<std::uint64_t>(slots[c % window].scans.size()))});
        }
    };
    const auto merge_missing = [&](std::size_t c) {
        replay_up_to(missing(c));
        merge_scanned(missing(c), slots[c % window], scan_done_ns[c % window]);
    };
    const auto quarantine_missing = [&](const ChunkFailure& failure) {
        replay_up_to(missing(failure.chunk));
        merge_quarantined(missing(failure.chunk), failure);
    };
    const auto release_missing = [&](std::size_t c, std::size_t /*worker*/) {
        slots[c % window].scans.clear();
    };

    SupervisorConfig supervisor;
    supervisor.restart = options_.worker_restart;
    supervisor.seed = options_.seed;
    const SupervisionReport report =
        run_supervised(shard, work, supervisor, scan_missing, merge_missing,
                       quarantine_missing, release_missing);
    replay_up_to(plan.chunk_count());
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
            journal->publish();
            publish_journal_counters();
        } catch (const JournalIoError& e) {
            degrade_journal(e);
        }
    }
    if (journaling && !fresh && metrics_ != nullptr) {
        metrics_->counter("campaign.journal.records_replayed").add(records_replayed);
        if (corrupt_batches > 0) {
            metrics_->counter("campaign.journal.corrupt_batches").add(corrupt_batches);
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
