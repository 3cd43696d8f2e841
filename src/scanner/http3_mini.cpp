#include "scanner/http3_mini.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <stdexcept>

#include "util/format.hpp"

namespace spinscope::scanner {

namespace {

constexpr std::string_view kRequestPrefix = "GET https://";
constexpr std::string_view kRequestSuffix = "/ H3-MINI\nvia: spinscope-research-scan\n";
constexpr std::string_view kStatusPrefix = "H3-MINI ";
constexpr std::string_view kLocationPrefix = "location: ";
constexpr std::string_view kServerPrefix = "server: ";
constexpr std::string_view kHeaderEnd = "\n\n";

using util::as_bytes;
using util::as_text;

constexpr std::string_view kFiller = "<p>spinscope synthetic page content</p>";

/// The shared body buffer: kMaxBodyBytes rounded up to whole filler
/// periods, so back-to-back views of it continue the pattern seamlessly.
constexpr std::size_t kBodyBlockBytes =
    (kMaxBodyBytes + kFiller.size() - 1) / kFiller.size() * kFiller.size();

struct BodyBlock {
    BodyBlock() noexcept {
        // One filler period, then doubling block copies: every copy length
        // is a whole number of periods until the last, so the pattern holds.
        std::memcpy(bytes.data(), kFiller.data(), kFiller.size());
        for (std::size_t filled = kFiller.size(); filled < bytes.size();) {
            const std::size_t n = std::min(filled, bytes.size() - filled);
            std::memcpy(bytes.data() + filled, bytes.data(), n);
            filled += n;
        }
    }
    std::array<std::uint8_t, kBodyBlockBytes> bytes;
};

/// Built on first use (by the first response served, not by campaign
/// set-up) and shared read-only by every thread afterwards.
const BodyBlock& body_block() {
    static const BodyBlock block;
    return block;
}

}  // namespace

std::vector<std::uint8_t> build_request(const std::string& host) {
    std::string out;
    out += kRequestPrefix;
    out += host;
    out += kRequestSuffix;
    return as_bytes(out);
}

std::optional<std::string> parse_request(std::span<const std::uint8_t> request) {
    const std::string_view text = as_text(request);
    if (text.rfind(kRequestPrefix, 0) != 0) return std::nullopt;
    const auto host_begin = kRequestPrefix.size();
    const auto host_end = text.find('/', host_begin);
    if (host_end == std::string_view::npos) return std::nullopt;
    return std::string{text.substr(host_begin, host_end - host_begin)};
}

std::vector<std::uint8_t> build_response_headers(int status, const std::string& location,
                                                 const std::string& server_name) {
    std::string out;
    out += kStatusPrefix;
    out += std::to_string(status);
    out += "\n";
    out += kServerPrefix;
    out += server_name;
    out += "\n";
    if (!location.empty()) {
        out += kLocationPrefix;
        out += location;
        out += "\n";
    }
    out += "\n";  // blank line ends headers
    return as_bytes(out);
}

std::span<const std::uint8_t> body_view(std::size_t size) {
    if (size > kMaxBodyBytes) {
        throw std::length_error("scanner: body_view size exceeds kMaxBodyBytes");
    }
    return std::span<const std::uint8_t>{body_block().bytes}.first(size);
}

std::vector<std::uint8_t> build_body(std::size_t size) {
    const std::span<const std::uint8_t> block{body_block().bytes};
    std::vector<std::uint8_t> body;
    body.reserve(size);
    while (body.size() < size) {
        const auto part = block.first(std::min(block.size(), size - body.size()));
        body.insert(body.end(), part.begin(), part.end());
    }
    return body;
}

std::optional<ResponseInfo> parse_response(std::span<const std::uint8_t> response) {
    const std::string_view text = as_text(response);
    if (text.rfind(kStatusPrefix, 0) != 0) return std::nullopt;
    ResponseInfo info;
    const std::string_view status_text = text.substr(kStatusPrefix.size());
    std::from_chars(status_text.data(), status_text.data() + status_text.size(), info.status);

    const auto headers_end = text.find(kHeaderEnd);
    if (headers_end == std::string_view::npos) return std::nullopt;
    const std::string_view headers = text.substr(0, headers_end + 1);
    info.body_bytes = text.size() - headers_end - kHeaderEnd.size();

    const auto find_header = [&headers](std::string_view prefix) -> std::string {
        const auto pos = headers.find(prefix);
        if (pos == std::string_view::npos) return {};
        const auto value_begin = pos + prefix.size();
        const auto value_end = headers.find('\n', value_begin);
        return std::string{headers.substr(value_begin, value_end - value_begin)};
    };
    info.location = find_header(kLocationPrefix);
    info.server_name = find_header(kServerPrefix);
    return info;
}

std::vector<std::uint8_t> build_settings(bool server) {
    std::string out = server ? "SETTINGS qpack=0 max_field_section=16384 srv=1\n"
                             : "SETTINGS qpack=0 max_field_section=16384 cli=1\n";
    return as_bytes(out);
}

}  // namespace spinscope::scanner
