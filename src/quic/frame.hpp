// spinscope/quic/frame.hpp
//
// QUIC v1 frame encoding/decoding (RFC 9000 §19) for the frame subset the
// spinscope endpoints exchange: PADDING, PING, ACK, CRYPTO, NEW_TOKEN-free
// handshake, STREAM, CONNECTION_CLOSE and HANDSHAKE_DONE.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bytes/cursor.hpp"
#include "quic/types.hpp"
#include "util/time.hpp"

namespace spinscope::quic {

using util::Duration;

/// Run of PADDING frames (type 0x00), collapsed into one count.
struct PaddingFrame {
    std::size_t length = 1;
};

/// PING (type 0x01): ack-eliciting no-op.
struct PingFrame {};

/// One contiguous acknowledged range, inclusive on both ends.
struct AckRange {
    PacketNumber smallest = 0;
    PacketNumber largest = 0;
};

/// ACK frame (type 0x02). `ranges` are ordered descending by packet number;
/// ranges[0].largest is the largest acknowledged packet.
/// `ack_delay` is the decoded host delay between receiving the largest
/// acknowledged packet and sending this ACK (the field the QUIC stack's RTT
/// estimator subtracts and the spin bit cannot, which is one root of the
/// paper's overestimation findings).
struct AckFrame {
    std::vector<AckRange> ranges;
    Duration ack_delay = Duration::zero();

    [[nodiscard]] PacketNumber largest_acked() const noexcept {
        return ranges.empty() ? kInvalidPacketNumber : ranges.front().largest;
    }
    /// True if `pn` falls inside any acknowledged range.
    [[nodiscard]] bool acknowledges(PacketNumber pn) const noexcept;
};

/// CRYPTO frame (type 0x06): carries the simulated TLS handshake bytes.
/// `data` borrows: a decoded frame views the payload it was decoded from,
/// and a frame to send views the sender's bytes (the connection's static
/// handshake tokens).
struct CryptoFrame {
    std::uint64_t offset = 0;
    bytes::ConstByteSpan data;
};

/// STREAM frame (types 0x08-0x0f): application data. spinscope uses client
/// bidi stream 0 for the HTTP/3-mini request/response. `data` borrows like
/// CryptoFrame's: the received datagram or the stream's send buffer.
struct StreamFrame {
    std::uint64_t stream_id = 0;
    std::uint64_t offset = 0;
    bool fin = false;
    bytes::ConstByteSpan data;
};

/// MAX_DATA (type 0x10): connection flow-control credit. spinscope does not
/// enforce flow control, but the frame matters for the spin bit: clients
/// send credit updates while receiving a response, and those ack-eliciting
/// packets keep the spin wave advancing even on single-flight transfers.
struct MaxDataFrame {
    std::uint64_t maximum = 0;
};

/// CONNECTION_CLOSE (0x1c transport / 0x1d application).
struct ConnectionCloseFrame {
    std::uint64_t error_code = 0;
    bool application = false;
    std::string reason;
};

/// HANDSHAKE_DONE (type 0x1e), server -> client only.
struct HandshakeDoneFrame {};

using Frame = std::variant<PaddingFrame, PingFrame, AckFrame, CryptoFrame, StreamFrame,
                           MaxDataFrame, ConnectionCloseFrame, HandshakeDoneFrame>;

/// True for frames that elicit an acknowledgement (everything but ACK,
/// PADDING and CONNECTION_CLOSE — RFC 9002 §2).
[[nodiscard]] bool is_ack_eliciting(const Frame& frame) noexcept;

/// True if any frame in `frames` is ack-eliciting.
[[nodiscard]] bool any_ack_eliciting(std::span<const Frame> frames) noexcept;

/// Encodes one frame through a writer (which may target a pooled
/// bytes::Buffer — the hot path appends frames in place, no intermediate
/// vector). ACK delays are encoded in units of 2^ack_delay_exponent
/// microseconds (RFC 9000 §18.2, default exponent 3).
void encode_frame(bytes::ByteWriter& w, const Frame& frame, std::uint8_t ack_delay_exponent);

/// Vector-compat overload (tests, benches).
inline void encode_frame(std::vector<std::uint8_t>& out, const Frame& frame,
                         std::uint8_t ack_delay_exponent) {
    bytes::ByteWriter w{out};
    encode_frame(w, frame, ack_delay_exponent);
}

/// Appends a frame sequence through `w`.
void encode_frames(bytes::ByteWriter& w, std::span<const Frame> frames,
                   std::uint8_t ack_delay_exponent);

/// Encodes a frame sequence into a fresh payload buffer (compat shape; the
/// connection hot path uses the writer overload instead).
[[nodiscard]] std::vector<std::uint8_t> encode_frames(std::span<const Frame> frames,
                                                      std::uint8_t ack_delay_exponent);

/// Decodes all frames in a packet payload. Returns nullopt on malformed
/// input (unknown frame type, truncation). CRYPTO and STREAM data borrow
/// `payload`, which must outlive the frames.
[[nodiscard]] std::optional<std::vector<Frame>> decode_frames(
    std::span<const std::uint8_t> payload, std::uint8_t ack_delay_exponent);

/// Decodes all frames in a packet payload into `frames`, replacing its
/// contents but keeping its capacity (the connection decodes every packet
/// into one reused vector). Returns false on malformed input; `frames` then
/// holds the frames decoded before the fault. CRYPTO and STREAM data borrow
/// `payload`, which must outlive the frames.
[[nodiscard]] bool decode_frames(std::span<const std::uint8_t> payload,
                                 std::uint8_t ack_delay_exponent, std::vector<Frame>& frames);

}  // namespace spinscope::quic
