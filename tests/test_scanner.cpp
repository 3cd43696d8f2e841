// Unit and integration tests for the HTTP/3-mini protocol and the campaign
// scanner.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "netsim/link.hpp"
#include "quic/connection.hpp"
#include "quic/packet.hpp"
#include "scanner/campaign.hpp"
#include "util/format.hpp"
#include "scanner/http3_mini.hpp"
#include "web/population.hpp"

namespace spinscope::scanner {
namespace {

// --- HTTP/3-mini -------------------------------------------------------------

TEST(Http3Mini, RequestRoundTrip) {
    const auto request = build_request("www.example.org");
    const auto host = parse_request(request);
    ASSERT_TRUE(host.has_value());
    EXPECT_EQ(*host, "www.example.org");
}

TEST(Http3Mini, RequestCarriesResearchHint) {
    // The paper's ethics appendix: every request embeds a research hint.
    const auto request = build_request("www.example.org");
    const std::string text{request.begin(), request.end()};
    EXPECT_NE(text.find("research"), std::string::npos);
}

TEST(Http3Mini, RequestRejectsGarbage) {
    EXPECT_FALSE(parse_request({}).has_value());
    const std::string junk = "POST /";
    EXPECT_FALSE(parse_request(spinscope::util::as_bytes(junk)).has_value());
}

TEST(Http3Mini, OkResponseRoundTrip) {
    auto response = build_response_headers(200, "", "LiteSpeed");
    const auto body = build_body(500);
    response.insert(response.end(), body.begin(), body.end());
    const auto info = parse_response(response);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->status, 200);
    EXPECT_EQ(info->server_name, "LiteSpeed");
    EXPECT_TRUE(info->location.empty());
    EXPECT_EQ(info->body_bytes, 500u);
}

TEST(Http3Mini, RedirectResponseRoundTrip) {
    const auto response = build_response_headers(301, "example.org", "nginx-quic");
    const auto info = parse_response(response);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->status, 301);
    EXPECT_EQ(info->location, "example.org");
    EXPECT_EQ(info->body_bytes, 0u);
}

TEST(Http3Mini, ResponseRejectsGarbage) {
    EXPECT_FALSE(parse_response({}).has_value());
    const std::string junk = "HTTP/1.1 200 OK";
    EXPECT_FALSE(parse_response(spinscope::util::as_bytes(junk)).has_value());
}

TEST(Http3Mini, BodyIsDeterministicFiller) {
    const auto a = build_body(1000);
    const auto b = build_body(1000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 1000u);
}

// The body bytes as first defined: filler[i % 39] from the chunk's first
// byte. Serving them from a shared block must not change one byte on the
// wire (golden traces depend on it).
std::vector<std::uint8_t> reference_body(std::size_t size) {
    constexpr std::string_view kFiller = "<p>spinscope synthetic page content</p>";
    std::vector<std::uint8_t> body(size);
    for (std::size_t i = 0; i < size; ++i) {
        body[i] = static_cast<std::uint8_t>(kFiller[i % kFiller.size()]);
    }
    return body;
}

TEST(Http3Mini, BodyBytesMatchFillerDefinition) {
    for (const std::size_t size : {0, 1, 38, 39, 40, 1000, 300'000}) {
        const auto expected = reference_body(size);
        EXPECT_EQ(build_body(size), expected) << size;
        const auto view = body_view(size);
        EXPECT_TRUE(std::equal(view.begin(), view.end(), expected.begin(), expected.end()))
            << size;
    }
    // Past the shared block, build_body() continues the pattern seamlessly.
    EXPECT_EQ(build_body(kMaxBodyBytes + 1'000), reference_body(kMaxBodyBytes + 1'000));
    EXPECT_THROW((void)body_view(kMaxBodyBytes + 1), std::length_error);
}

TEST(Http3Mini, ChunkedResponseRestartsFillerEachChunk) {
    // A chunked response (the campaign's dynamic pages) sends each chunk as
    // its own body_view(): on the wire, every chunk restarts the filler at
    // its first byte, exactly as one build_body() per chunk did.
    const std::vector<std::size_t> parts{1'000, 40, 38'000};
    netsim::Simulator sim;
    util::Rng rng{7};
    netsim::LinkConfig link;
    link.base_delay = util::Duration::millis(10);
    netsim::Path path{sim, link, link, rng};
    quic::ConnectionConfig client_cfg;
    client_cfg.role = quic::Role::client;
    quic::Connection client{
        sim, client_cfg, rng.fork(1),
        [&path](netsim::Datagram dg) { path.forward_link().send(std::move(dg)); }};
    quic::ConnectionConfig server_cfg;
    server_cfg.role = quic::Role::server;
    quic::Connection server{
        sim, server_cfg, rng.fork(2),
        [&path](netsim::Datagram dg) { path.return_link().send(std::move(dg)); }};
    path.forward_link().set_receiver([&](bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver([&](bytes::ConstByteSpan dg) { client.on_datagram(dg); });

    const auto headers = build_response_headers(200, "", "test-stack");
    server.on_stream_complete = [&](std::uint64_t id, std::vector<std::uint8_t>) {
        if (id != kRequestStream) return;
        server.send_stream(kRequestStream, headers, false);
        util::Duration at = util::Duration::zero();
        for (std::size_t i = 0; i < parts.size(); ++i) {
            at += util::Duration::millis(3);
            const bool fin = i + 1 == parts.size();
            sim.schedule_after(at, [&server, part = parts[i], fin] {
                server.send_stream(kRequestStream, body_view(part), fin);
            });
        }
    };
    client.on_handshake_complete = [&] {
        client.send_stream(kRequestStream, build_request("www.example.org"), true);
    };
    std::vector<std::uint8_t> received;
    client.on_stream_complete = [&](std::uint64_t id, std::vector<std::uint8_t> data) {
        if (id == kRequestStream) received = std::move(data);
    };
    client.connect();
    sim.run_until(util::TimePoint::origin() + util::Duration::seconds(10));

    std::vector<std::uint8_t> expected = headers;
    for (const std::size_t part : parts) {
        const auto chunk = reference_body(part);
        expected.insert(expected.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(received, expected);
}

TEST(Http3Mini, LostStreamDataIsResentFromTheSendBuffer) {
    // Loss recovery keeps STREAM data by position and re-reads it from the
    // stream's send buffer. Dropping chosen 1-RTT datagrams of a chunked
    // response must bring each lost frame back with the same offset, bytes
    // and FIN, and the body must still arrive as per-chunk filler.
    const std::vector<std::size_t> parts{1'000, 40, 38'000};
    netsim::Simulator sim;
    util::Rng rng{11};
    netsim::LinkConfig link;
    link.base_delay = util::Duration::millis(10);
    netsim::Path path{sim, link, link, rng};

    struct SentStream {
        std::uint64_t offset = 0;
        std::vector<std::uint8_t> bytes;
        bool fin = false;
    };
    std::vector<SentStream> sent;     // every response STREAM frame, in send order
    std::vector<SentStream> dropped;  // the ones the link never saw
    std::size_t first_sends = 0;
    const auto server_send = [&](netsim::Datagram dg) {
        bool drop = false;
        const auto packet = quic::decode_packet(dg, 8, quic::kInvalidPacketNumber);
        const auto frames = packet && packet->header.type == quic::PacketType::one_rtt
                                ? quic::decode_frames(packet->payload, 3)
                                : std::nullopt;
        for (const auto& frame : frames.value_or(std::vector<quic::Frame>{})) {
            const auto* stream = std::get_if<quic::StreamFrame>(&frame);
            if (stream == nullptr || stream->stream_id != kRequestStream) continue;
            SentStream record{stream->offset, {stream->data.begin(), stream->data.end()},
                              stream->fin};
            const bool resend = std::any_of(sent.begin(), sent.end(), [&](const auto& s) {
                return s.offset == record.offset;
            });
            if (!resend) {
                ++first_sends;
                // The 2nd and 9th frames (recovered by packet-threshold loss
                // detection) and the FIN-bearing tail (recovered by a PTO
                // probe).
                drop = first_sends == 2 || first_sends == 9 || record.fin;
            }
            if (drop) dropped.push_back(record);
            sent.push_back(std::move(record));
        }
        if (!drop) path.return_link().send(std::move(dg));
    };

    quic::ConnectionConfig client_cfg;
    client_cfg.role = quic::Role::client;
    quic::Connection client{
        sim, client_cfg, rng.fork(1),
        [&path](netsim::Datagram dg) { path.forward_link().send(std::move(dg)); }};
    quic::ConnectionConfig server_cfg;
    server_cfg.role = quic::Role::server;
    quic::Connection server{sim, server_cfg, rng.fork(2), server_send};
    path.forward_link().set_receiver([&](bytes::ConstByteSpan dg) { server.on_datagram(dg); });
    path.return_link().set_receiver([&](bytes::ConstByteSpan dg) { client.on_datagram(dg); });

    const auto headers = build_response_headers(200, "", "test-stack");
    server.on_stream_complete = [&](std::uint64_t id, std::vector<std::uint8_t>) {
        if (id != kRequestStream) return;
        server.send_stream(kRequestStream, headers, false);
        util::Duration at = util::Duration::zero();
        for (std::size_t i = 0; i < parts.size(); ++i) {
            at += util::Duration::millis(3);
            const bool fin = i + 1 == parts.size();
            sim.schedule_after(at, [&server, part = parts[i], fin] {
                server.send_stream(kRequestStream, body_view(part), fin);
            });
        }
    };
    client.on_handshake_complete = [&] {
        client.send_stream(kRequestStream, build_request("www.example.org"), true);
    };
    std::vector<std::uint8_t> received;
    client.on_stream_complete = [&](std::uint64_t id, std::vector<std::uint8_t> data) {
        if (id == kRequestStream) received = std::move(data);
    };
    client.connect();
    sim.run_until(util::TimePoint::origin() + util::Duration::seconds(10));

    ASSERT_EQ(dropped.size(), 3u);
    EXPECT_TRUE(dropped.back().fin);
    for (const auto& lost : dropped) {
        const auto first = std::find_if(sent.begin(), sent.end(), [&](const auto& s) {
            return s.offset == lost.offset;
        });
        const auto resent = std::find_if(std::next(first), sent.end(), [&](const auto& s) {
            return s.offset == lost.offset;
        });
        ASSERT_NE(resent, sent.end()) << "offset " << lost.offset << " never resent";
        EXPECT_EQ(resent->bytes, lost.bytes) << "offset " << lost.offset;
        EXPECT_EQ(resent->fin, lost.fin) << "offset " << lost.offset;
    }
    // Both recovery paths ran: requeued ranges and a probe of the tail.
    EXPECT_GT(server.counters().packets_lost, 0u);
    EXPECT_GT(server.counters().pto_fired_total, 0u);

    std::vector<std::uint8_t> expected = headers;
    for (const std::size_t part : parts) {
        const auto chunk = reference_body(part);
        expected.insert(expected.end(), chunk.begin(), chunk.end());
    }
    EXPECT_EQ(received, expected);
}

TEST(Http3Mini, SettingsDifferPerRole) {
    EXPECT_NE(build_settings(true), build_settings(false));
}

// --- Campaign ----------------------------------------------------------------

class CampaignTest : public ::testing::Test {
protected:
    CampaignTest() : population_{{20000.0, 20230520}} {}

    const web::Domain* find_domain(bool quic, bool resolves = true,
                                   bool want_spin_org = false) {
        for (const auto& d : population_.domains()) {
            if (d.resolves != resolves) continue;
            if (resolves && d.quic != quic) continue;
            if (want_spin_org && population_.org_of(d).spin_host_rate <= 0.3) continue;
            return &d;
        }
        return nullptr;
    }

    web::Population population_;
};

TEST_F(CampaignTest, UnresolvedDomainIsNotScanned) {
    const auto* domain = find_domain(false, false);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    EXPECT_FALSE(scan.resolved);
    EXPECT_TRUE(scan.connections.empty());
    EXPECT_FALSE(scan.quic_ok());
}

TEST_F(CampaignTest, NonQuicDomainTimesOut) {
    const auto* domain = find_domain(false);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    EXPECT_TRUE(scan.resolved);
    ASSERT_EQ(scan.connections.size(), 1u);
    EXPECT_EQ(scan.connections[0].outcome, qlog::ConnectionOutcome::handshake_timeout);
    EXPECT_FALSE(scan.quic_ok());
    // The client sent Initials (PTO retries) into the void.
    EXPECT_GE(scan.connections[0].sent.size(), 2u);
    EXPECT_TRUE(scan.connections[0].received.empty());
}

TEST_F(CampaignTest, QuicDomainCompletes) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    EXPECT_TRUE(scan.quic_ok());
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 200);
    EXPECT_EQ(scan.final_response->server_name, population_.stack_of(*domain).name);
    // The final trace carries a usable stack baseline.
    EXPECT_FALSE(scan.connections.back().metrics.rtt_samples_ms.empty());
}

TEST_F(CampaignTest, HostsArePrefixedWithWww) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    ASSERT_FALSE(scan.connections.empty());
    EXPECT_EQ(scan.connections.front().host.rfind("www.", 0), 0u);
}

TEST_F(CampaignTest, RedirectsFollowedOnce) {
    const web::Domain* redirecting = nullptr;
    for (const auto& d : population_.domains()) {
        if (d.quic && d.redirects) {
            redirecting = &d;
            break;
        }
    }
    ASSERT_NE(redirecting, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*redirecting);
    ASSERT_EQ(scan.connections.size(), 2u);
    EXPECT_TRUE(scan.quic_ok());
    ASSERT_TRUE(scan.final_response.has_value());
    EXPECT_EQ(scan.final_response->status, 200);
    // Second connection targets the redirect location (no www prefix).
    EXPECT_NE(scan.connections[0].host, scan.connections[1].host);
}

TEST_F(CampaignTest, Ipv6ScanSkipsV4OnlyDomains) {
    const web::Domain* v4_only = nullptr;
    for (const auto& d : population_.domains()) {
        if (d.resolves && !d.has_ipv6) {
            v4_only = &d;
            break;
        }
    }
    ASSERT_NE(v4_only, nullptr);
    ScanOptions options;
    options.ipv6 = true;
    Campaign campaign{population_, options};
    const auto scan = campaign.scan_domain(*v4_only);
    EXPECT_FALSE(scan.resolved);
}

TEST_F(CampaignTest, ScanIsDeterministic) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto a = campaign.scan_domain(*domain);
    const auto b = campaign.scan_domain(*domain);
    ASSERT_EQ(a.connections.size(), b.connections.size());
    for (std::size_t i = 0; i < a.connections.size(); ++i) {
        ASSERT_EQ(a.connections[i].received.size(), b.connections[i].received.size());
        for (std::size_t p = 0; p < a.connections[i].received.size(); ++p) {
            ASSERT_EQ(a.connections[i].received[p].time.count_nanos(),
                      b.connections[i].received[p].time.count_nanos());
            ASSERT_EQ(a.connections[i].received[p].spin, b.connections[i].received[p].spin);
        }
    }
}

TEST_F(CampaignTest, DifferentWeeksResampleBehaviour) {
    const auto* domain = find_domain(true, true, true);
    ASSERT_NE(domain, nullptr);
    ScanOptions week0;
    week0.week = 0;
    ScanOptions week9;
    week9.week = 9;
    const auto a = Campaign{population_, week0}.scan_domain(*domain);
    const auto b = Campaign{population_, week9}.scan_domain(*domain);
    EXPECT_TRUE(a.quic_ok());
    EXPECT_TRUE(b.quic_ok());
    // Packet timings differ across weeks (new RNG stream).
    ASSERT_FALSE(a.connections[0].received.empty());
    ASSERT_FALSE(b.connections[0].received.empty());
    EXPECT_NE(a.connections[0].received.back().time.count_nanos(),
              b.connections[0].received.back().time.count_nanos());
}

TEST_F(CampaignTest, StackRttBaselineNearConfiguredPathRtt) {
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    Campaign campaign{population_, {}};
    const auto scan = campaign.scan_domain(*domain);
    ASSERT_TRUE(scan.quic_ok());
    const auto& metrics = scan.connections.back().metrics;
    ASSERT_GT(metrics.min_rtt_ms, 0.0);
    EXPECT_NEAR(metrics.min_rtt_ms, domain->rtt_ms(), domain->rtt_ms() * 0.4 + 3.0);
}

TEST_F(CampaignTest, RunVisitsEveryDomain) {
    // A tiny population keeps the full sweep fast.
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    std::size_t visited = 0;
    campaign.run([&](const web::Domain&, DomainScan&&) { ++visited; });
    EXPECT_EQ(visited, tiny.domains().size());
}

TEST_F(CampaignTest, DeadlineWithPendingEventsIsAttemptTimeout) {
    // A deadline far below the handshake timeout cuts the simulation short
    // while timers are still queued: the attempt must be reported as
    // attempt_timeout, not conflated with a protocol-level abort.
    const auto* domain = find_domain(true);
    ASSERT_NE(domain, nullptr);
    ScanOptions options;
    options.attempt_deadline = util::Duration::micros(50);  // < one-way delay
    Campaign campaign{population_, options};
    const auto scan = campaign.scan_domain(*domain);
    ASSERT_EQ(scan.connections.size(), 1u);
    EXPECT_EQ(scan.connections[0].outcome, qlog::ConnectionOutcome::attempt_timeout);
    EXPECT_FALSE(scan.quic_ok());
}

TEST_F(CampaignTest, RunReturnsConsistentStats) {
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    std::uint64_t quic_ok_seen = 0;
    const CampaignStats stats =
        campaign.run([&](const web::Domain&, DomainScan&& scan) {
            if (scan.quic_ok()) ++quic_ok_seen;
        });
    EXPECT_EQ(stats.domains_scanned, tiny.domains().size());
    EXPECT_GE(stats.domains_scanned, stats.domains_resolved);
    EXPECT_GE(stats.domains_resolved, stats.domains_quic_ok);
    EXPECT_EQ(stats.domains_quic_ok, quic_ok_seen);
    // Every connection has exactly one outcome.
    std::uint64_t outcome_total = 0;
    for (const auto count : stats.outcomes) outcome_total += count;
    EXPECT_EQ(outcome_total, stats.connections);
    EXPECT_EQ(stats.outcome(qlog::ConnectionOutcome::ok) > 0, stats.domains_quic_ok > 0);
    EXPECT_GE(stats.quic_ok_rate(), 0.0);
    EXPECT_LE(stats.quic_ok_rate(), 1.0);
    EXPECT_GE(stats.wall_seconds, 0.0);
    // The snapshot renders (labels + outcome breakdown).
    const std::string rendered = stats.render();
    EXPECT_NE(rendered.find("domains scanned"), std::string::npos);
    EXPECT_NE(rendered.find("outcome ok"), std::string::npos);
}

TEST_F(CampaignTest, ProgressCallbackFiresEveryN) {
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    std::vector<std::uint64_t> checkpoints;
    campaign.set_progress(2, [&](const CampaignStats& stats) {
        checkpoints.push_back(stats.domains_scanned);
    });
    campaign.run([](const web::Domain&, DomainScan&&) {});
    ASSERT_EQ(checkpoints.size(), tiny.domains().size() / 2);
    for (std::size_t i = 0; i < checkpoints.size(); ++i) {
        EXPECT_EQ(checkpoints[i], (i + 1) * 2);
    }
}

TEST_F(CampaignTest, ScanDomainPublishesOnlyItsOwnPoolHighWaterMark) {
    // Campaigns made on one thread share one scan_domain() datagram pool. A
    // campaign's registry must read the high-water mark of its own scans,
    // as a campaign with a pool of its own would, not the pool's lifetime
    // maximum reached by another campaign's scans.
    const auto* quiet = find_domain(false);
    const auto* busy = find_domain(true);
    ASSERT_NE(quiet, nullptr);
    ASSERT_NE(busy, nullptr);
    const auto hwm_of = [](const telemetry::MetricsRegistry& registry) {
        const auto* gauge = registry.find_gauge("bytes.pool.outstanding_hwm");
        return gauge != nullptr ? gauge->value() : -1.0;
    };
    double alone = 0.0;
    std::thread fresh_thread{[&] {
        Campaign campaign{population_, {}};
        telemetry::MetricsRegistry registry;
        campaign.set_metrics(&registry);
        (void)campaign.scan_domain(*quiet);
        alone = hwm_of(registry);
    }};
    fresh_thread.join();

    Campaign first{population_, {}};
    telemetry::MetricsRegistry first_registry;
    first.set_metrics(&first_registry);
    (void)first.scan_domain(*busy);
    ASSERT_GT(hwm_of(first_registry), alone) << "the busy scan must reach higher";

    Campaign second{population_, {}};
    telemetry::MetricsRegistry second_registry;
    second.set_metrics(&second_registry);
    (void)second.scan_domain(*quiet);
    EXPECT_DOUBLE_EQ(hwm_of(second_registry), alone);
}

TEST_F(CampaignTest, MetricsRegistrySpansAllLayers) {
    web::Population tiny{{200000.0, 1}};
    Campaign campaign{tiny, {}};
    telemetry::MetricsRegistry registry;
    campaign.set_metrics(&registry);
    const auto stats = campaign.run([](const web::Domain&, DomainScan&&) {});

    // The sidecar's acceptance bar: >= 10 distinct metrics spanning netsim,
    // quic and scanner.
    EXPECT_GE(registry.size(), 10u);
    std::size_t netsim = 0;
    std::size_t quic = 0;
    std::size_t scanner = 0;
    const auto tally = [&](const std::string& name) {
        if (name.rfind("netsim.", 0) == 0) ++netsim;
        if (name.rfind("quic.", 0) == 0) ++quic;
        if (name.rfind("scanner.", 0) == 0) ++scanner;
    };
    for (const auto& entry : registry.counters()) tally(entry.first);
    for (const auto& entry : registry.gauges()) tally(entry.first);
    for (const auto& entry : registry.histograms()) tally(entry.first);
    EXPECT_GT(netsim, 0u);
    EXPECT_GT(quic, 0u);
    EXPECT_GT(scanner, 0u);

    // Cross-layer consistency: scanner counters match the returned stats,
    // and every attempt produced exactly one quic.conn attempt record.
    EXPECT_EQ(registry.counter("scanner.domains_scanned").value(), stats.domains_scanned);
    EXPECT_EQ(registry.counter("scanner.connections").value(), stats.connections);
    EXPECT_EQ(registry.counter("quic.conn.attempts").value(), stats.connections);
    EXPECT_EQ(registry.counter("scanner.outcome.ok").value(),
              stats.outcome(qlog::ConnectionOutcome::ok));
    // Phase histograms recorded one attempt-phase sample per first attempt.
    const auto* attempt_hist = registry.find_histogram("scanner.phase.attempt_ms");
    ASSERT_NE(attempt_hist, nullptr);
    EXPECT_EQ(attempt_hist->count(), stats.domains_resolved);
    // Simulated time was accounted separately from wall clock.
    const auto* sim_hist = registry.find_histogram("scanner.attempt_sim_ms");
    ASSERT_NE(sim_hist, nullptr);
    EXPECT_EQ(sim_hist->count(), stats.connections);
    // The simulator layer reported event totals.
    EXPECT_GT(registry.counter("netsim.sim.events_processed").value(), 0u);
    EXPECT_GT(registry.counter("netsim.sim.events.link.delivery").value(), 0u);
}

}  // namespace
}  // namespace spinscope::scanner
