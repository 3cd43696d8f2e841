#include "analysis/observer.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "quic/packet.hpp"
#include "util/rng.hpp"

namespace spinscope::analysis {

void ObserverReplay::add(const qlog::Trace& trace) {
    const auto observations = core::spin_observations(trace);
    if (observations.empty()) return;

    Connection conn;
    // Flow identity is a derived sub-stream of the replay seed keyed by the
    // registration index (DESIGN.md §9 scheme) — stable across runs, and
    // 64-bit, so accidental key sharing between connections is negligible
    // while slot collisions in the constrained table remain the experiment.
    conn.key = util::derive_stream_seed(seed_, static_cast<std::uint64_t>(connections_.size()));
    conn.assessment = core::assess_connection(trace);
    const auto conn_index = static_cast<std::uint32_t>(connections_.size());
    connections_.push_back(std::move(conn));

    std::uint32_t seq = 0;
    for (const auto& obs : observations) {
        events_.push_back(Event{obs.time.count_nanos(), conn_index, seq++, obs});
    }
}

std::vector<ObserverReplay::Event> ObserverReplay::sorted_events() const {
    std::vector<Event> sorted = events_;
    std::sort(sorted.begin(), sorted.end(), [](const Event& a, const Event& b) {
        return std::tie(a.time_ns, a.conn, a.seq) < std::tie(b.time_ns, b.conn, b.seq);
    });
    return sorted;
}

void ObserverReplay::drive(core::ConstrainedMonitor& monitor) const {
    std::vector<std::uint8_t> datagram;
    static constexpr std::uint8_t kPing[] = {0x01};
    for (const Event& event : sorted_events()) {
        quic::PacketHeader header;
        header.type = quic::PacketType::one_rtt;
        header.dcid = quic::ConnectionId::from_u64(connections_[event.conn].key);
        header.packet_number = event.obs.packet_number;
        header.spin = event.obs.spin;
        header.vec = event.obs.vec;
        datagram.clear();
        quic::encode_packet(datagram, header, kPing,
                            event.obs.packet_number > 0 ? event.obs.packet_number - 1 : 0);
        monitor.on_datagram(util::TimePoint::origin() + util::Duration::nanos(event.time_ns),
                            bytes::ConstByteSpan{datagram.data(), datagram.size()});
    }
}

template <typename Observe>
ObserverRun ObserverReplay::score(Observe observe) const {
    ObserverRun run;
    run.summary.connections = connections_.size();
    double err_sum = 0.0;
    for (const Connection& conn : connections_) {
        if (conn.assessment.spin_received.has_samples()) ++run.summary.candidates;
        // A wire observer sees arrival order only (PNs are protected), so
        // both series carry its one result.
        core::ConnectionAssessment assessed = conn.assessment;
        assessed.spin_received = observe(conn);
        assessed.spin_sorted = assessed.spin_received;
        const core::SpinRttResult& observed = assessed.spin_received;
        if (observed.has_samples()) {
            ++run.summary.measured;
            if (conn.assessment.has_quic_baseline) {
                ++run.summary.comparable;
                const double err = std::abs(observed.mean_ms() - conn.assessment.quic_mean_ms);
                err_sum += err;
                if (err <= 25.0) ++run.summary.within_25ms;
            }
        }
        run.aggregator.add(assessed);
    }
    if (run.summary.candidates > 0) {
        run.summary.coverage = static_cast<double>(run.summary.measured) /
                               static_cast<double>(run.summary.candidates);
    }
    if (run.summary.comparable > 0) {
        run.summary.mean_abs_err_ms =
            err_sum / static_cast<double>(run.summary.comparable);
    }
    return run;
}

ObserverRun ObserverReplay::run_idealized() const {
    return score([](const Connection& conn) { return conn.assessment.spin_received; });
}

ObserverRun ObserverReplay::run_constrained(const core::ConstrainedConfig& config) const {
    core::ConstrainedMonitor monitor{config};
    drive(monitor);

    ObserverRun run = score([&monitor](const Connection& conn) {
        core::SpinRttResult observed;
        const auto stats = monitor.find_key(conn.key);
        if (!stats) return observed;
        observed.edge_count = stats->edge_count;
        observed.saw_zero = stats->saw_zero;
        observed.saw_one = stats->saw_one;
        // The hardware estimate is one number: the integer EWMA. Wrap it as
        // a single sample so the Fig. 3/4 machinery (per-connection means)
        // scores it like any other estimator.
        if (stats->has_estimate) observed.samples_ms.push_back(stats->srtt_ms());
        return observed;
    });
    run.summary.table = monitor.counters();
    return run;
}

}  // namespace spinscope::analysis
