// spinscope/core/observer.hpp
//
// Passive spin-bit RTT measurement — the heart of the paper.
//
// An observer watching one direction of a QUIC flow sees the spin bit flip
// ("spin edges") once per round trip; the time between consecutive edges is
// an RTT estimate (paper §2.1). This module holds the one floating-point
// edge-to-edge state machine, SpinEdgeObserver, with the RFC 9312 robustness
// heuristics (packet-number filtering, implausible-sample rejection) that the
// paper calls out as untested at scale, and the batch measurement that
// drives it over a recorded packet sequence in received order ("R") or
// packet-number-sorted order ("S"), the paper's §5.1 method for quantifying
// the impact of reordering.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "quic/types.hpp"
#include "util/time.hpp"

namespace spinscope::core {

using util::Duration;
using util::TimePoint;

/// One observed 1-RTT packet: arrival time, packet number, spin value.
/// This is exactly the triple the paper extracts from qlog (§3.3).
struct SpinObservation {
    TimePoint time;
    quic::PacketNumber packet_number = 0;
    bool spin = false;
    /// Valid Edge Counter (VEC extension); 0 for standard traffic.
    std::uint8_t vec = 0;
};

/// Packet iteration order for batch measurement (paper §5.1 terminology).
enum class PacketOrder : std::uint8_t {
    received,  ///< "R": order of arrival, reordering included
    sorted,    ///< "S": sorted by packet number, reordering corrected
};

/// Result of a batch spin-RTT measurement over one connection.
struct SpinRttResult {
    /// Edge-to-edge intervals, milliseconds, in edge order.
    std::vector<double> samples_ms;
    std::size_t edge_count = 0;
    bool saw_zero = false;
    bool saw_one = false;

    /// The paper's §3.3 candidate criterion: both spin values observed.
    [[nodiscard]] bool spin_candidate() const noexcept { return saw_zero && saw_one; }
    [[nodiscard]] bool has_samples() const noexcept { return !samples_ms.empty(); }
    [[nodiscard]] double mean_ms() const noexcept;
    [[nodiscard]] double min_ms() const noexcept;
};

/// Computes spin RTT samples over a full packet record by feeding it, in the
/// chosen order, through a SpinEdgeObserver with no heuristics.
///
/// Edges are detected as changes of the spin value between consecutive
/// packets in the chosen order; each edge-to-edge interval yields one
/// sample, negative ones included (possible in sorted order). Duplicate
/// packet numbers are skipped in sorted order.
[[nodiscard]] SpinRttResult measure_spin_rtt(std::span<const SpinObservation> packets,
                                             PacketOrder order);

/// Robustness heuristics for the streaming observer (RFC 9312 §4.2/4.3).
struct ObserverConfig {
    /// Only treat a value change as an edge if it appears on a packet with a
    /// higher packet number than the packet that set the current value.
    /// This is the RFC's reordering defence (needs PN visibility, i.e. an
    /// endpoint-side observer; a mid-network one cannot read PNs).
    bool packet_number_filter = false;
    /// Reject samples below this floor (static plausibility check).
    Duration min_plausible_rtt = Duration::zero();
    /// Reject samples smaller than `dynamic_reject_ratio` times the current
    /// smoothed spin RTT (0 disables). Accepted samples update the smoothed
    /// value with weight 1/8 (mirrors RFC 9002 smoothing).
    double dynamic_reject_ratio = 0.0;
    /// Valid Edge Counter mode (De Vaere et al. extension): treat a value
    /// change as an edge only if the packet carries VEC > 0, and record a
    /// sample only when the edge is fully validated (VEC == 3). Requires
    /// VEC-enabled endpoints; standard traffic yields no samples.
    bool require_vec = false;
};

/// Streaming spin observer: feed packets in arrival order, collect samples.
///
/// This is spinscope's only floating-point spin-edge state machine.
/// measure_spin_rtt drives it over a recorded sequence and WireSpinTap over
/// the raw datagrams of one flow; one per flow is the reference that the
/// constrained-monitor tests and bench_observer hold the integer
/// core::ConstrainedMonitor against. With a default config it reproduces
/// measure_spin_rtt(..., received) on time-ordered input.
class SpinEdgeObserver {
public:
    explicit SpinEdgeObserver(ObserverConfig config = {}) : config_{config} {}

    /// Processes one observed packet.
    void on_packet(const SpinObservation& packet);

    [[nodiscard]] const SpinRttResult& result() const& noexcept { return result_; }
    [[nodiscard]] SpinRttResult result() && noexcept { return std::move(result_); }
    /// Samples rejected by the plausibility heuristics.
    [[nodiscard]] std::size_t rejected_samples() const noexcept { return rejected_; }
    /// Current smoothed spin RTT (ms); nullopt before the first sample.
    [[nodiscard]] std::optional<double> smoothed_ms() const noexcept;

private:
    ObserverConfig config_;
    SpinRttResult result_;
    bool have_value_ = false;
    bool current_value_ = false;
    quic::PacketNumber value_set_by_pn_ = 0;
    TimePoint last_edge_ = TimePoint::never();
    std::size_t rejected_ = 0;
    double smoothed_ms_ = 0.0;
    bool have_smoothed_ = false;
};

}  // namespace spinscope::core
