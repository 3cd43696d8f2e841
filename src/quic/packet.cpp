#include "quic/packet.hpp"

#include <cassert>

namespace spinscope::quic {

namespace {

constexpr std::uint8_t kHeaderFormBit = 0x80;  // 1 = long header
constexpr std::uint8_t kFixedBit = 0x40;
constexpr std::uint8_t kSpinBit = 0x20;        // short header only
constexpr std::uint8_t kKeyPhaseBit = 0x04;    // short header only
constexpr std::uint8_t kVecShift = 3;          // reserved bits carry the VEC extension

[[nodiscard]] constexpr std::uint8_t long_type_bits(PacketType t) noexcept {
    switch (t) {
        case PacketType::initial: return 0;
        case PacketType::zero_rtt: return 1;
        case PacketType::handshake: return 2;
        case PacketType::retry: return 3;
        default: return 0;
    }
}

[[nodiscard]] constexpr PacketType long_type_from_bits(std::uint8_t bits) noexcept {
    switch (bits & 0x3) {
        case 0: return PacketType::initial;
        case 1: return PacketType::zero_rtt;
        case 2: return PacketType::handshake;
        default: return PacketType::retry;
    }
}

void write_cid(bytes::ByteWriter& w, const ConnectionId& cid) {
    w.u8(static_cast<std::uint8_t>(cid.size()));
    w.bytes({cid.data(), cid.size()});
}

[[nodiscard]] std::optional<ConnectionId> read_cid(bytes::ByteReader& r) noexcept {
    const auto len = r.u8();
    if (!len || *len > ConnectionId::kMaxLength) return std::nullopt;
    const auto body = r.bytes(*len);
    if (!body) return std::nullopt;
    ConnectionId cid;
    cid.assign(body->data(), body->size());
    return cid;
}

}  // namespace

std::size_t packet_number_length(PacketNumber full, PacketNumber largest_acked) noexcept {
    // RFC 9000 A.2: the encoding must cover a window of twice the number of
    // packets in flight, i.e. 2 * (full - largest_acked) must fit.
    const PacketNumber base = largest_acked == kInvalidPacketNumber ? 0 : largest_acked;
    const std::uint64_t distance = (full - base) * 2 + 1;
    if (distance < (1ULL << 8)) return 1;
    if (distance < (1ULL << 16)) return 2;
    if (distance < (1ULL << 24)) return 3;
    return 4;
}

PacketNumber expand_packet_number(PacketNumber largest_received, std::uint64_t truncated,
                                  std::size_t pn_length) noexcept {
    assert(pn_length >= 1 && pn_length <= 4);
    const std::uint64_t pn_nbits = pn_length * 8;
    const std::uint64_t pn_win = 1ULL << pn_nbits;
    const std::uint64_t pn_hwin = pn_win / 2;
    const std::uint64_t pn_mask = pn_win - 1;

    const PacketNumber expected =
        largest_received == kInvalidPacketNumber ? 0 : largest_received + 1;
    const PacketNumber candidate = (expected & ~pn_mask) | truncated;
    if (candidate + pn_hwin <= expected && candidate + pn_win < (1ULL << 62)) {
        return candidate + pn_win;
    }
    if (candidate > expected + pn_hwin && candidate >= pn_win) {
        return candidate - pn_win;
    }
    return candidate;
}

void encode_short_header(bytes::ByteWriter& w, const PacketHeader& header,
                         PacketNumber largest_acked) {
    assert(header.type == PacketType::one_rtt);
    const std::size_t pn_len = packet_number_length(header.packet_number, largest_acked);
    std::uint8_t first = kFixedBit;
    if (header.spin) first |= kSpinBit;
    if (header.key_phase) first |= kKeyPhaseBit;
    first |= static_cast<std::uint8_t>((header.vec & 0x3) << kVecShift);
    first |= static_cast<std::uint8_t>(pn_len - 1);
    w.u8(first);
    w.bytes({header.dcid.data(), header.dcid.size()});
    w.be_truncated(header.packet_number, pn_len);
}

void encode_packet(bytes::ByteWriter& w, const PacketHeader& header,
                   std::span<const std::uint8_t> payload, PacketNumber largest_acked) {
    const std::size_t pn_len = packet_number_length(header.packet_number, largest_acked);

    if (header.type == PacketType::one_rtt) {
        encode_short_header(w, header, largest_acked);
        w.bytes(payload);
        return;
    }

    std::uint8_t first = kHeaderFormBit | kFixedBit;
    first |= static_cast<std::uint8_t>(long_type_bits(header.type) << 4);
    first |= static_cast<std::uint8_t>(pn_len - 1);
    w.u8(first);
    w.u32(static_cast<std::uint32_t>(header.version));
    write_cid(w, header.dcid);
    write_cid(w, header.scid);
    if (header.type == PacketType::initial) {
        w.varint(0);  // token length: spinscope never retries
    }
    w.varint(pn_len + payload.size());
    w.be_truncated(header.packet_number, pn_len);
    w.bytes(payload);
}

std::optional<DecodedPacket> decode_packet(std::span<const std::uint8_t> datagram,
                                           std::size_t short_dcid_length,
                                           PacketNumber largest_received) noexcept {
    bytes::ByteReader r{datagram};
    const auto first_opt = r.u8();
    if (!first_opt) return std::nullopt;
    const std::uint8_t first = *first_opt;

    DecodedPacket packet;

    if ((first & kHeaderFormBit) == 0) {
        // Short header (1-RTT).
        if ((first & kFixedBit) == 0) return std::nullopt;
        packet.header.type = PacketType::one_rtt;
        packet.header.spin = (first & kSpinBit) != 0;
        packet.header.key_phase = (first & kKeyPhaseBit) != 0;
        packet.header.vec = static_cast<std::uint8_t>((first >> kVecShift) & 0x3);
        packet.pn_length = static_cast<std::size_t>(first & 0x03) + 1;

        const auto dcid = r.bytes(short_dcid_length);
        if (!dcid) return std::nullopt;
        packet.header.dcid.assign(dcid->data(), dcid->size());

        const auto truncated = r.be_truncated(packet.pn_length);
        if (!truncated) return std::nullopt;
        packet.header.packet_number =
            expand_packet_number(largest_received, *truncated, packet.pn_length);
        packet.payload = r.peek_rest();
        packet.total_size = datagram.size();
        return packet;
    }

    // Long header.
    if ((first & kFixedBit) == 0) return std::nullopt;
    const auto version = r.u32();
    if (!version) return std::nullopt;
    if (*version == 0) {
        packet.header.type = PacketType::version_negotiation;
        packet.total_size = datagram.size();
        return packet;
    }
    packet.header.version = static_cast<Version>(*version);
    packet.header.type = long_type_from_bits(static_cast<std::uint8_t>(first >> 4));
    packet.pn_length = static_cast<std::size_t>(first & 0x03) + 1;

    const auto dcid = read_cid(r);
    const auto scid = dcid ? read_cid(r) : std::nullopt;
    if (!scid) return std::nullopt;
    packet.header.dcid = *dcid;
    packet.header.scid = *scid;

    if (packet.header.type == PacketType::initial) {
        const auto token_length = r.varint();
        if (!token_length || !r.bytes(*token_length)) return std::nullopt;
    }

    const auto length = r.varint();
    if (!length || *length < packet.pn_length || r.remaining() < *length) return std::nullopt;

    const auto truncated = r.be_truncated(packet.pn_length);
    if (!truncated) return std::nullopt;
    packet.header.packet_number =
        expand_packet_number(largest_received, *truncated, packet.pn_length);

    const auto payload = r.bytes(*length - packet.pn_length);
    if (!payload) return std::nullopt;
    packet.payload = *payload;
    packet.total_size = r.consumed();
    return packet;
}

std::optional<ShortHeaderView> peek_short_header(
    std::span<const std::uint8_t> datagram) noexcept {
    if (datagram.empty()) return std::nullopt;
    const std::uint8_t first = datagram[0];
    if ((first & kHeaderFormBit) != 0) return std::nullopt;  // long header
    if ((first & kFixedBit) == 0) return std::nullopt;
    ShortHeaderView view;
    view.spin = (first & kSpinBit) != 0;
    view.vec = static_cast<std::uint8_t>((first >> kVecShift) & 0x3);
    view.dcid_offset = 1;
    return view;
}

}  // namespace spinscope::quic
