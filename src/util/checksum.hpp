// spinscope/util/checksum.hpp
//
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) for record-level
// integrity checks: the campaign journal frames every record with a length
// and a checksum so that a torn write is detectable and bit rot in a
// published batch never replays as valid data.
//
// Header-only and constexpr: the lookup table is generated at compile time
// and checksums of compile-time constants can be folded into constants.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace spinscope::util {

namespace detail {

[[nodiscard]] constexpr std::array<std::uint32_t, 256> make_crc32_table() noexcept {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit) {
            crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
        }
        table[i] = crc;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace detail

/// Incremental form: feed `data` into a running CRC state. Start from
/// crc32_init(), finish with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() noexcept { return 0xFFFFFFFFu; }

[[nodiscard]] constexpr std::uint32_t crc32_update(std::uint32_t state,
                                                   const char* data,
                                                   std::size_t size) noexcept {
    for (std::size_t i = 0; i < size; ++i) {
        const auto byte = static_cast<std::uint8_t>(data[i]);
        state = (state >> 8) ^ detail::kCrc32Table[(state ^ byte) & 0xFFu];
    }
    return state;
}

[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) noexcept {
    return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte string. crc32("123456789") == 0xCBF43926.
[[nodiscard]] constexpr std::uint32_t crc32(std::string_view data) noexcept {
    return crc32_final(crc32_update(crc32_init(), data.data(), data.size()));
}

[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
    return crc32_final(crc32_update(
        crc32_init(), reinterpret_cast<const char*>(data.data()), data.size()));
}

}  // namespace spinscope::util
