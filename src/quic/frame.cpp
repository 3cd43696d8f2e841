#include "quic/frame.hpp"

#include <algorithm>
#include <cassert>

namespace spinscope::quic {

namespace {

constexpr std::uint64_t kTypePadding = 0x00;
constexpr std::uint64_t kTypePing = 0x01;
constexpr std::uint64_t kTypeAck = 0x02;
constexpr std::uint64_t kTypeCrypto = 0x06;
constexpr std::uint64_t kTypeStreamBase = 0x08;  // ..0x0f with OFF/LEN/FIN bits
constexpr std::uint64_t kTypeMaxData = 0x10;
constexpr std::uint64_t kTypeCloseTransport = 0x1c;
constexpr std::uint64_t kTypeCloseApplication = 0x1d;
constexpr std::uint64_t kTypeHandshakeDone = 0x1e;

constexpr std::uint8_t kStreamFin = 0x01;
constexpr std::uint8_t kStreamLen = 0x02;
constexpr std::uint8_t kStreamOff = 0x04;

/// Ack-delay ceiling (~52 days in µs). Wire values are clamped here so that
/// `units << exponent` and the µs→ns conversion can never overflow int64 —
/// a hostile peer cannot poison RTT adjustment with a wrap-around delay.
constexpr std::uint64_t kMaxAckDelayMicros = 1ULL << 42;

[[nodiscard]] std::optional<AckFrame> decode_ack(bytes::ByteReader& r, std::uint8_t exponent) {
    AckFrame ack;
    const auto largest = r.varint();
    const auto delay_units = r.varint();
    const auto range_count = r.varint();
    const auto first_range = r.varint();
    if (!largest || !delay_units || !range_count || !first_range) return std::nullopt;
    if (*first_range > *largest) return std::nullopt;

    const std::uint64_t delay_micros =
        std::min(*delay_units, kMaxAckDelayMicros >> exponent) << exponent;
    ack.ack_delay = Duration::micros(static_cast<std::int64_t>(delay_micros));
    PacketNumber smallest = *largest - *first_range;
    ack.ranges.push_back(AckRange{smallest, *largest});

    for (std::uint64_t i = 0; i < *range_count; ++i) {
        const auto gap = r.varint();
        const auto length = r.varint();
        if (!gap || !length) return std::nullopt;
        // RFC 9000 §19.3.1: next largest = previous smallest - gap - 2.
        if (smallest < *gap + 2) return std::nullopt;
        const PacketNumber next_largest = smallest - *gap - 2;
        if (*length > next_largest) return std::nullopt;
        smallest = next_largest - *length;
        ack.ranges.push_back(AckRange{smallest, next_largest});
    }
    return ack;
}

void encode_ack(bytes::ByteWriter& w, const AckFrame& ack, std::uint8_t exponent) {
    assert(!ack.ranges.empty());
    // Ranges must be descending with a gap of >= 2 between them (RFC 9000
    // §19.3.1 cannot express adjacency). Skip violators rather than emit an
    // unparseable frame; the tracker merges, so this never fires in
    // practice. Two passes over the ranges: the count goes first on the
    // wire.
    const auto for_each_valid = [&ack](auto&& emit) {
        const AckRange* previous = &ack.ranges.front();
        for (std::size_t i = 1; i < ack.ranges.size(); ++i) {
            const auto& range = ack.ranges[i];
            assert(range.largest + 2 <= previous->smallest);
            if (range.largest + 2 > previous->smallest) continue;
            emit(*previous, range);
            previous = &range;
        }
    };
    std::size_t extra_ranges = 0;
    for_each_valid([&extra_ranges](const AckRange&, const AckRange&) { ++extra_ranges; });

    w.varint(kTypeAck);
    const auto& first = ack.ranges.front();
    w.varint(first.largest);
    const auto micros = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, ack.ack_delay.count_micros()));
    w.varint(micros >> exponent);
    w.varint(extra_ranges);
    w.varint(first.largest - first.smallest);
    for_each_valid([&w](const AckRange& previous, const AckRange& range) {
        w.varint(previous.smallest - range.largest - 2);
        w.varint(range.largest - range.smallest);
    });
}

}  // namespace

bool AckFrame::acknowledges(PacketNumber pn) const noexcept {
    return std::any_of(ranges.begin(), ranges.end(), [pn](const AckRange& r) {
        return r.smallest <= pn && pn <= r.largest;
    });
}

bool is_ack_eliciting(const Frame& frame) noexcept {
    return !std::holds_alternative<AckFrame>(frame) &&
           !std::holds_alternative<PaddingFrame>(frame) &&
           !std::holds_alternative<ConnectionCloseFrame>(frame);
}

bool any_ack_eliciting(std::span<const Frame> frames) noexcept {
    return std::any_of(frames.begin(), frames.end(),
                       [](const Frame& f) { return is_ack_eliciting(f); });
}

void encode_frame(bytes::ByteWriter& w, const Frame& frame, std::uint8_t ack_delay_exponent) {
    std::visit(
        [&](const auto& f) {
            using T = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<T, PaddingFrame>) {
                w.fill(f.length, static_cast<std::uint8_t>(kTypePadding));
            } else if constexpr (std::is_same_v<T, PingFrame>) {
                w.varint(kTypePing);
            } else if constexpr (std::is_same_v<T, AckFrame>) {
                encode_ack(w, f, ack_delay_exponent);
            } else if constexpr (std::is_same_v<T, CryptoFrame>) {
                w.varint(kTypeCrypto);
                w.varint(f.offset);
                w.varint(f.data.size());
                w.bytes(f.data);
            } else if constexpr (std::is_same_v<T, StreamFrame>) {
                std::uint64_t type = kTypeStreamBase | kStreamLen;
                if (f.offset != 0) type |= kStreamOff;
                if (f.fin) type |= kStreamFin;
                w.varint(type);
                w.varint(f.stream_id);
                if (f.offset != 0) w.varint(f.offset);
                w.varint(f.data.size());
                w.bytes(f.data);
            } else if constexpr (std::is_same_v<T, MaxDataFrame>) {
                w.varint(kTypeMaxData);
                w.varint(f.maximum);
            } else if constexpr (std::is_same_v<T, ConnectionCloseFrame>) {
                w.varint(f.application ? kTypeCloseApplication : kTypeCloseTransport);
                w.varint(f.error_code);
                if (!f.application) w.varint(0);  // offending frame type
                w.varint(f.reason.size());
                w.bytes({reinterpret_cast<const std::uint8_t*>(f.reason.data()),
                         f.reason.size()});
            } else if constexpr (std::is_same_v<T, HandshakeDoneFrame>) {
                w.varint(kTypeHandshakeDone);
            }
        },
        frame);
}

void encode_frames(bytes::ByteWriter& w, std::span<const Frame> frames,
                   std::uint8_t ack_delay_exponent) {
    for (const auto& f : frames) encode_frame(w, f, ack_delay_exponent);
}

std::vector<std::uint8_t> encode_frames(std::span<const Frame> frames,
                                        std::uint8_t ack_delay_exponent) {
    std::vector<std::uint8_t> out;
    bytes::ByteWriter w{out};
    encode_frames(w, frames, ack_delay_exponent);
    return out;
}

std::optional<std::vector<Frame>> decode_frames(std::span<const std::uint8_t> payload,
                                                std::uint8_t ack_delay_exponent) {
    std::vector<Frame> frames;
    if (!decode_frames(payload, ack_delay_exponent, frames)) return std::nullopt;
    return frames;
}

bool decode_frames(std::span<const std::uint8_t> payload, std::uint8_t ack_delay_exponent,
                   std::vector<Frame>& frames) {
    frames.clear();
    bytes::ByteReader r{payload};
    while (!r.done()) {
        // Frame types must use the minimal varint encoding (RFC 9000 §12.4);
        // an overlong type is a FRAME_ENCODING_ERROR, not an alias.
        const auto type = r.varint_minimal();
        if (!type) return false;
        switch (*type) {
            case kTypePadding: {
                PaddingFrame pad;
                while (!r.done() && r.peek_rest().front() == 0) {
                    (void)r.u8();
                    ++pad.length;
                }
                frames.emplace_back(pad);
                break;
            }
            case kTypePing:
                frames.emplace_back(PingFrame{});
                break;
            case kTypeAck: {
                auto ack = decode_ack(r, ack_delay_exponent);
                if (!ack) return false;
                frames.emplace_back(std::move(*ack));
                break;
            }
            case kTypeCrypto: {
                const auto offset = r.varint();
                const auto length = r.varint();
                if (!offset || !length) return false;
                // RFC 9000 §19.6: offset + length must stay a valid varint.
                if (*offset > bytes::kVarintMax - *length) return false;
                const auto data = r.bytes(*length);
                if (!data) return false;
                frames.emplace_back(CryptoFrame{*offset, *data});
                break;
            }
            case kTypeCloseTransport:
            case kTypeCloseApplication: {
                ConnectionCloseFrame close;
                close.application = *type == kTypeCloseApplication;
                const auto code = r.varint();
                if (!code) return false;
                close.error_code = *code;
                if (!close.application && !r.varint()) return false;
                const auto reason_length = r.varint();
                if (!reason_length) return false;
                const auto reason = r.bytes(*reason_length);
                if (!reason) return false;
                close.reason.assign(reason->begin(), reason->end());
                frames.emplace_back(std::move(close));
                break;
            }
            case kTypeMaxData: {
                const auto maximum = r.varint();
                if (!maximum) return false;
                frames.emplace_back(MaxDataFrame{*maximum});
                break;
            }
            case kTypeHandshakeDone:
                frames.emplace_back(HandshakeDoneFrame{});
                break;
            default: {
                if (*type >= kTypeStreamBase && *type <= (kTypeStreamBase | 0x07)) {
                    StreamFrame stream;
                    const auto bits = static_cast<std::uint8_t>(*type & 0x07);
                    stream.fin = (bits & kStreamFin) != 0;
                    const auto id = r.varint();
                    if (!id) return false;
                    stream.stream_id = *id;
                    if ((bits & kStreamOff) != 0) {
                        const auto offset = r.varint();
                        if (!offset) return false;
                        stream.offset = *offset;
                    }
                    std::uint64_t length = r.remaining();
                    if ((bits & kStreamLen) != 0) {
                        const auto explicit_length = r.varint();
                        if (!explicit_length) return false;
                        length = *explicit_length;
                    }
                    // RFC 9000 §19.8: the final byte offset must stay a
                    // valid varint — rejects hostile offsets near 2^62.
                    if (stream.offset > bytes::kVarintMax - length) return false;
                    const auto data = r.bytes(static_cast<std::size_t>(length));
                    if (!data) return false;
                    stream.data = *data;
                    frames.emplace_back(std::move(stream));
                    break;
                }
                return false;  // unknown frame type
            }
        }
    }
    return true;
}

}  // namespace spinscope::quic
