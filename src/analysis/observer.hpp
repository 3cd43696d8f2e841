// spinscope/analysis/observer.hpp
//
// On-path observer replay: re-runs the paper's Fig. 3/4 RTT-accuracy
// pipeline from the viewpoint of a passive device on the server→client
// path, under either observer model —
//
//   idealized    an unbounded, collision-free table of core::SpinEdgeObserver
//                (float EWMA), scored without a wire pass (run_idealized)
//   constrained  core::ConstrainedMonitor (fixed slots, eviction, integer
//                EWMA, sampling — DESIGN.md §14)
//
// Campaign traces are endpoint-side records; a wire observer instead sees an
// interleaved datagram mix of every concurrent connection. The constrained
// replay synthesizes that mix: each registered connection gets a
// deterministic 8-byte DCID, its received 1-RTT packets are re-encoded as
// short-header datagrams, and the union is ordered by observation time
// before being fed to the monitor. Both runs are scored by one loop with the
// same AccuracyAggregator the endpoint pipeline uses, so constrained-observer
// histograms are directly comparable with the paper's figures.

#pragma once

#include <cstdint>
#include <vector>

#include "analysis/accuracy.hpp"
#include "core/accuracy.hpp"
#include "core/constrained_monitor.hpp"
#include "core/observer.hpp"
#include "qlog/trace.hpp"

namespace spinscope::analysis {

/// Aggregate outcome of one replay run.
struct ObserverRunSummary {
    std::uint64_t connections = 0;  ///< registered connections (1-RTT traffic)
    /// Connections whose endpoint-side record yields spin RTT samples — the
    /// coverage denominator (an observer cannot beat full information).
    std::uint64_t candidates = 0;
    std::uint64_t measured = 0;    ///< flows the observer produced an estimate for
    std::uint64_t comparable = 0;  ///< measured flows with a QUIC stack baseline
    /// measured / candidates (0 when there are no candidates).
    double coverage = 0.0;
    /// Mean |observer estimate - stack mean| over comparable flows, ms.
    double mean_abs_err_ms = 0.0;
    /// Comparable flows whose |error| is within 25 ms (the Fig. 3 bucket).
    std::uint64_t within_25ms = 0;
    /// Table pressure counters; all zero for the idealized run.
    core::ConstrainedTableCounters table;
};

/// One replay run: the Fig. 3/4 aggregator plus the summary row.
struct ObserverRun {
    AccuracyAggregator aggregator;
    ObserverRunSummary summary;
};

/// Builds the interleaved wire stream from campaign traces and drives either
/// observer model over it.
class ObserverReplay {
public:
    explicit ObserverReplay(std::uint64_t seed = 0x0b5e'feedULL) : seed_{seed} {}

    /// Registers one connection's trace (ignored unless it received 1-RTT
    /// packets). The registration index keys the flow's synthetic DCID, so
    /// add order — not scan order — defines flow identity.
    void add(const qlog::Trace& trace);

    [[nodiscard]] std::size_t connection_count() const noexcept {
        return connections_.size();
    }

    /// Scores the idealized wire observer. In an unbounded, collision-free
    /// table each flow's SpinEdgeObserver sees exactly its own packets in
    /// arrival order. A trace's received times do not decrease, so that is
    /// its received order and every interval is non-negative; the
    /// arrival-index PNs could never trip the PN filter, which is off
    /// anyway; and the zero plausibility floor rejects no interval. Each
    /// flow's result is therefore the endpoint-side received-order series,
    /// which the run scores directly as R and S.
    [[nodiscard]] ObserverRun run_idealized() const;

    /// Replays the stream through a ConstrainedMonitor with the given budget.
    [[nodiscard]] ObserverRun run_constrained(const core::ConstrainedConfig& config) const;

private:
    struct Connection {
        std::uint64_t key = 0;  ///< raw 8-byte DCID (packed big-endian)
        core::ConnectionAssessment assessment;  ///< endpoint-side baseline
    };
    struct Event {
        std::int64_t time_ns = 0;
        std::uint32_t conn = 0;
        std::uint32_t seq = 0;  ///< per-connection arrival index (tie order)
        core::SpinObservation obs;
    };

    /// Events sorted by (time, conn, seq) — the deterministic interleave.
    [[nodiscard]] std::vector<Event> sorted_events() const;
    void drive(core::ConstrainedMonitor& monitor) const;
    /// The shared scoring loop: `observe(conn)` is the observer's result for
    /// one connection, scored as both R and S against its stack baseline.
    template <typename Observe>
    [[nodiscard]] ObserverRun score(Observe observe) const;

    std::uint64_t seed_;
    std::vector<Connection> connections_;
    std::vector<Event> events_;
};

}  // namespace spinscope::analysis
