// spinscope/bytes/cursor.hpp
//
// Sequential byte cursors over std::span, plus the RFC 9000 §16
// variable-length integer codec every wire format in this library uses.
// They live here, below quic/, so the cursors can write straight into
// pooled bytes::Buffer storage without a dependency cycle.
//
// Varint wire format: the two most significant bits of the first byte
// select the encoded length (1, 2, 4 or 8 bytes); the remaining bits carry
// the value big-endian. Maximum representable value is 2^62 - 1.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "bytes/bytes.hpp"

namespace spinscope::bytes {

/// Largest value a QUIC varint can carry.
inline constexpr std::uint64_t kVarintMax = (1ULL << 62) - 1;

/// Number of bytes encode_varint() will use for `value` (1, 2, 4 or 8).
/// Values above kVarintMax are not encodable; callers must check first.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t value) noexcept {
    if (value < (1ULL << 6)) return 1;
    if (value < (1ULL << 14)) return 2;
    if (value < (1ULL << 30)) return 4;
    return 8;
}

/// Appends the minimal-length varint encoding of `value` (<= kVarintMax).
void encode_varint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Decodes a varint from the front of `in`. Returns the value and the number
/// of bytes consumed, or nullopt if `in` is too short.
struct VarintDecode {
    std::uint64_t value;
    std::size_t consumed;
};
[[nodiscard]] std::optional<VarintDecode> decode_varint(ConstByteSpan in) noexcept;

/// Sequential byte writer appending to a growable byte sink — an external
/// vector, a (pooled) Buffer, or an internally owned vector.
class ByteWriter {
public:
    ByteWriter() = default;
    explicit ByteWriter(std::vector<std::uint8_t>& out) : out_{&out} {}
    /// Appends into the buffer's storage in place (a pooled datagram is
    /// encoded without any intermediate vector).
    explicit ByteWriter(Buffer& out) : out_{&out.storage_} {}

    void u8(std::uint8_t v) { buffer().push_back(v); }
    /// Big-endian fixed-width writes (network byte order).
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    /// Big-endian truncated write of the low `width` bytes (1..8) of `v`;
    /// used for packet-number encoding.
    void be_truncated(std::uint64_t v, std::size_t width);
    void varint(std::uint64_t v) { encode_varint(buffer(), v); }
    void bytes(ConstByteSpan data);
    /// Appends `n` copies of `fill` (PADDING frames).
    void fill(std::size_t n, std::uint8_t fill);

    /// Bytes in the target sink so far (not just bytes this writer wrote).
    [[nodiscard]] std::size_t size() const noexcept {
        return out_ != nullptr ? out_->size() : owned_.size();
    }

    [[nodiscard]] std::vector<std::uint8_t>& buffer() noexcept {
        return out_ != nullptr ? *out_ : owned_;
    }
    [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(owned_); }

private:
    std::vector<std::uint8_t>* out_ = nullptr;
    std::vector<std::uint8_t> owned_;
};

/// Sequential bounds-checked byte reader over a fixed span. All accessors
/// return nullopt past the end instead of throwing; wire input is untrusted.
class ByteReader {
public:
    explicit ByteReader(ConstByteSpan data) noexcept : data_{data} {}

    [[nodiscard]] std::optional<std::uint8_t> u8() noexcept;
    [[nodiscard]] std::optional<std::uint16_t> u16() noexcept;
    [[nodiscard]] std::optional<std::uint32_t> u32() noexcept;
    [[nodiscard]] std::optional<std::uint64_t> u64() noexcept;
    /// Big-endian read of `width` bytes (1..8) into the low bits.
    [[nodiscard]] std::optional<std::uint64_t> be_truncated(std::size_t width) noexcept;
    [[nodiscard]] std::optional<std::uint64_t> varint() noexcept;
    /// Like varint(), but rejects non-minimal ("overlong") encodings —
    /// required for frame types (RFC 9000 §12.4). Does not advance on
    /// failure.
    [[nodiscard]] std::optional<std::uint64_t> varint_minimal() noexcept;
    /// Returns a view of the next `n` bytes and advances, or nullopt.
    [[nodiscard]] std::optional<ConstByteSpan> bytes(std::size_t n) noexcept;

    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
    [[nodiscard]] std::size_t consumed() const noexcept { return pos_; }
    [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
    /// Remaining bytes as a view without advancing.
    [[nodiscard]] ConstByteSpan peek_rest() const noexcept { return data_.subspan(pos_); }

private:
    ConstByteSpan data_;
    std::size_t pos_ = 0;
};

}  // namespace spinscope::bytes
