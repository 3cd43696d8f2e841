// Unit tests for the QUIC frame codec (RFC 9000 §19 subset).

#include <gtest/gtest.h>

#include <vector>

#include "quic/frame.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {
namespace {

constexpr std::uint8_t kExp = 3;  // default ack_delay_exponent

/// An encoded frame and what decoding it gave. Decoded CRYPTO and STREAM
/// data borrow `wire`, so the two travel together (moving the vector keeps
/// its buffer, and with it the views).
struct RoundTrip {
    std::vector<std::uint8_t> wire;
    std::optional<std::vector<Frame>> frames;

    [[nodiscard]] bool has_value() const { return frames.has_value(); }
    const std::vector<Frame>* operator->() const { return &*frames; }
};

RoundTrip round_trip(const Frame& frame) {
    RoundTrip out;
    encode_frame(out.wire, frame, kExp);
    out.frames = decode_frames(out.wire, kExp);
    return out;
}

std::vector<std::uint8_t> copy_of(bytes::ConstByteSpan data) { return {data.begin(), data.end()}; }

/// True when `view` lies inside `buffer` (a borrowed, not copied, payload).
bool borrows_from(bytes::ConstByteSpan view, const std::vector<std::uint8_t>& buffer) {
    return view.data() >= buffer.data() &&
           view.data() + view.size() <= buffer.data() + buffer.size();
}

TEST(Frames, PingRoundTrip) {
    const auto decoded = round_trip(PingFrame{});
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    EXPECT_TRUE(std::holds_alternative<PingFrame>(decoded->front()));
}

TEST(Frames, PaddingRunsCollapse) {
    std::vector<std::uint8_t> wire(17, 0x00);
    const auto decoded = decode_frames(wire, kExp);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 1u);
    const auto& pad = std::get<PaddingFrame>(decoded->front());
    EXPECT_EQ(pad.length, 17u);
}

TEST(Frames, PaddingEncodesAsZeros) {
    std::vector<std::uint8_t> wire;
    encode_frame(wire, PaddingFrame{5}, kExp);
    EXPECT_EQ(wire, std::vector<std::uint8_t>(5, 0x00));
}

TEST(Frames, AckSingleRangeRoundTrip) {
    AckFrame ack;
    ack.ranges.push_back(AckRange{3, 17});
    ack.ack_delay = Duration::micros(800);
    const auto decoded = round_trip(Frame{ack});
    ASSERT_TRUE(decoded.has_value());
    const auto& out = std::get<AckFrame>(decoded->front());
    ASSERT_EQ(out.ranges.size(), 1u);
    EXPECT_EQ(out.ranges[0].smallest, 3u);
    EXPECT_EQ(out.ranges[0].largest, 17u);
    EXPECT_EQ(out.largest_acked(), 17u);
    EXPECT_EQ(out.ack_delay, Duration::micros(800));
}

TEST(Frames, AckDelayQuantizedByExponent) {
    AckFrame ack;
    ack.ranges.push_back(AckRange{0, 0});
    ack.ack_delay = Duration::micros(1234);  // 1234 >> 3 = 154; 154 << 3 = 1232
    const auto decoded = round_trip(Frame{ack});
    const auto& out = std::get<AckFrame>(decoded->front());
    EXPECT_EQ(out.ack_delay, Duration::micros(1232));
}

TEST(Frames, AckMultiRangeRoundTrip) {
    AckFrame ack;
    ack.ranges.push_back(AckRange{20, 25});
    ack.ranges.push_back(AckRange{10, 15});
    ack.ranges.push_back(AckRange{0, 3});
    const auto decoded = round_trip(Frame{ack});
    ASSERT_TRUE(decoded.has_value());
    const auto& out = std::get<AckFrame>(decoded->front());
    ASSERT_EQ(out.ranges.size(), 3u);
    EXPECT_EQ(out.ranges[0].largest, 25u);
    EXPECT_EQ(out.ranges[0].smallest, 20u);
    EXPECT_EQ(out.ranges[1].largest, 15u);
    EXPECT_EQ(out.ranges[1].smallest, 10u);
    EXPECT_EQ(out.ranges[2].largest, 3u);
    EXPECT_EQ(out.ranges[2].smallest, 0u);
}

TEST(Frames, AckAcknowledgesMembership) {
    AckFrame ack;
    ack.ranges.push_back(AckRange{10, 15});
    ack.ranges.push_back(AckRange{0, 3});
    EXPECT_TRUE(ack.acknowledges(0));
    EXPECT_TRUE(ack.acknowledges(3));
    EXPECT_TRUE(ack.acknowledges(12));
    EXPECT_FALSE(ack.acknowledges(4));
    EXPECT_FALSE(ack.acknowledges(9));
    EXPECT_FALSE(ack.acknowledges(16));
}

TEST(Frames, CryptoRoundTrip) {
    const std::vector<std::uint8_t> payload{0xde, 0xad, 0xbe, 0xef};
    CryptoFrame crypto;
    crypto.offset = 42;
    crypto.data = payload;
    const auto decoded = round_trip(Frame{crypto});
    const auto& out = std::get<CryptoFrame>(decoded->front());
    EXPECT_EQ(out.offset, 42u);
    EXPECT_EQ(copy_of(out.data), payload);
    EXPECT_TRUE(borrows_from(out.data, decoded.wire));
}

TEST(Frames, StreamRoundTripVariants) {
    const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
    for (const std::uint64_t offset : {std::uint64_t{0}, std::uint64_t{5000}}) {
        for (const bool fin : {false, true}) {
            StreamFrame stream;
            stream.stream_id = 4;
            stream.offset = offset;
            stream.fin = fin;
            stream.data = payload;
            const auto decoded = round_trip(Frame{stream});
            ASSERT_TRUE(decoded.has_value());
            const auto& out = std::get<StreamFrame>(decoded->front());
            EXPECT_EQ(out.stream_id, 4u);
            EXPECT_EQ(out.offset, offset);
            EXPECT_EQ(out.fin, fin);
            EXPECT_EQ(copy_of(out.data), payload);
            EXPECT_TRUE(borrows_from(out.data, decoded.wire));
        }
    }
}

TEST(Frames, EmptyFinStreamRoundTrip) {
    StreamFrame stream;
    stream.stream_id = 0;
    stream.offset = 100;
    stream.fin = true;
    const auto decoded = round_trip(Frame{stream});
    const auto& out = std::get<StreamFrame>(decoded->front());
    EXPECT_TRUE(out.fin);
    EXPECT_TRUE(out.data.empty());
    EXPECT_EQ(out.offset, 100u);
}

TEST(Frames, MaxDataRoundTrip) {
    const auto decoded = round_trip(Frame{MaxDataFrame{123456}});
    const auto& out = std::get<MaxDataFrame>(decoded->front());
    EXPECT_EQ(out.maximum, 123456u);
}

TEST(Frames, ConnectionCloseRoundTrip) {
    for (const bool application : {false, true}) {
        ConnectionCloseFrame close;
        close.application = application;
        close.error_code = 7;
        close.reason = "done";
        const auto decoded = round_trip(Frame{close});
        const auto& out = std::get<ConnectionCloseFrame>(decoded->front());
        EXPECT_EQ(out.application, application);
        EXPECT_EQ(out.error_code, 7u);
        EXPECT_EQ(out.reason, "done");
    }
}

TEST(Frames, HandshakeDoneRoundTrip) {
    const auto decoded = round_trip(Frame{HandshakeDoneFrame{}});
    EXPECT_TRUE(std::holds_alternative<HandshakeDoneFrame>(decoded->front()));
}

TEST(Frames, MultipleFramesInOnePayload) {
    AckFrame ack;
    ack.ranges.push_back(AckRange{0, 5});
    const std::vector<std::uint8_t> payload{9, 9};
    StreamFrame stream;
    stream.stream_id = 0;
    stream.data = payload;
    const std::vector<Frame> frames{Frame{ack}, Frame{MaxDataFrame{100}}, Frame{stream}};
    const auto wire = encode_frames(frames, kExp);
    const auto decoded = decode_frames(wire, kExp);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->size(), 3u);
    EXPECT_TRUE(std::holds_alternative<AckFrame>((*decoded)[0]));
    EXPECT_TRUE(std::holds_alternative<MaxDataFrame>((*decoded)[1]));
    ASSERT_TRUE(std::holds_alternative<StreamFrame>((*decoded)[2]));
    const auto& out = std::get<StreamFrame>((*decoded)[2]);
    EXPECT_EQ(copy_of(out.data), payload);
    EXPECT_TRUE(borrows_from(out.data, wire));
}

TEST(Frames, UnknownTypeRejected) {
    std::vector<std::uint8_t> wire;
    bytes::encode_varint(wire, 0x33);  // not implemented
    EXPECT_FALSE(decode_frames(wire, kExp).has_value());
}

TEST(Frames, TruncatedStreamRejected) {
    const std::vector<std::uint8_t> payload{1, 2, 3, 4};
    StreamFrame stream;
    stream.stream_id = 0;
    stream.data = payload;
    std::vector<std::uint8_t> wire;
    encode_frame(wire, Frame{stream}, kExp);
    wire.pop_back();
    EXPECT_FALSE(decode_frames(wire, kExp).has_value());
}

TEST(Frames, MalformedAckRejected) {
    // first_range > largest is impossible.
    std::vector<std::uint8_t> wire;
    bytes::encode_varint(wire, 0x02);  // ACK
    bytes::encode_varint(wire, 5);     // largest
    bytes::encode_varint(wire, 0);     // delay
    bytes::encode_varint(wire, 0);     // range count
    bytes::encode_varint(wire, 9);     // first range length > largest
    EXPECT_FALSE(decode_frames(wire, kExp).has_value());
}

TEST(Frames, AckElicitingClassification) {
    EXPECT_TRUE(is_ack_eliciting(Frame{PingFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{CryptoFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{StreamFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{MaxDataFrame{}}));
    EXPECT_TRUE(is_ack_eliciting(Frame{HandshakeDoneFrame{}}));
    EXPECT_FALSE(is_ack_eliciting(Frame{PaddingFrame{}}));
    EXPECT_FALSE(is_ack_eliciting(Frame{AckFrame{}}));
    EXPECT_FALSE(is_ack_eliciting(Frame{ConnectionCloseFrame{}}));

    const std::vector<Frame> ack_only{Frame{AckFrame{}}, Frame{PaddingFrame{}}};
    EXPECT_FALSE(any_ack_eliciting(ack_only));
    const std::vector<Frame> with_ping{Frame{AckFrame{}}, Frame{PingFrame{}}};
    EXPECT_TRUE(any_ack_eliciting(with_ping));
}

// Property sweep: ACK frames with random descending ranges round-trip.
class AckRangesProperty : public ::testing::TestWithParam<int> {};

TEST_P(AckRangesProperty, RandomRangesRoundTrip) {
    util::Rng rng{static_cast<std::uint64_t>(GetParam())};
    for (int iteration = 0; iteration < 200; ++iteration) {
        AckFrame ack;
        // Build descending ranges with gaps >= 2.
        std::uint64_t cursor = 1'000'000 + rng.uniform_u64(1'000'000);
        const int range_count = 1 + static_cast<int>(rng.uniform_u64(6));
        for (int i = 0; i < range_count && cursor > 100; ++i) {
            const std::uint64_t largest = cursor;
            const std::uint64_t length = rng.uniform_u64(20);
            const std::uint64_t smallest = largest - length;
            ack.ranges.push_back(AckRange{smallest, largest});
            cursor = smallest - 2 - rng.uniform_u64(50);
        }
        std::vector<std::uint8_t> wire;
        encode_frame(wire, Frame{ack}, kExp);
        const auto decoded = decode_frames(wire, kExp);
        ASSERT_TRUE(decoded.has_value());
        const auto& out = std::get<AckFrame>(decoded->front());
        ASSERT_EQ(out.ranges.size(), ack.ranges.size());
        for (std::size_t i = 0; i < out.ranges.size(); ++i) {
            EXPECT_EQ(out.ranges[i].largest, ack.ranges[i].largest);
            EXPECT_EQ(out.ranges[i].smallest, ack.ranges[i].smallest);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AckRangesProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace spinscope::quic
