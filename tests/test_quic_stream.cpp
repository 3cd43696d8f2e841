// Unit tests for stream reassembly and the send queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "quic/stream.hpp"
#include "util/rng.hpp"

namespace spinscope::quic {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> list) { return {list}; }

TEST(Reassembly, InOrderDelivery) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1, 2, 3}));
    EXPECT_EQ(buffer.contiguous_length(), 3u);
    EXPECT_FALSE(buffer.complete());
    buffer.insert(3, bytes({4, 5}));
    buffer.set_final_size(5);
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(buffer.take(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
}

TEST(Reassembly, OutOfOrderChunks) {
    ReassemblyBuffer buffer;
    buffer.insert(3, bytes({4, 5}));
    EXPECT_EQ(buffer.contiguous_length(), 0u);
    buffer.insert(0, bytes({1, 2, 3}));
    EXPECT_EQ(buffer.contiguous_length(), 5u);
    buffer.set_final_size(5);
    EXPECT_TRUE(buffer.complete());
}

TEST(Reassembly, DuplicatesAndOverlapsAreIdempotent) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1, 2, 3, 4}));
    buffer.insert(2, bytes({3, 4, 5, 6}));  // overlap extends
    buffer.insert(0, bytes({1, 2}));        // pure duplicate
    buffer.set_final_size(6);
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(buffer.take(), (std::vector<std::uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(Reassembly, HoleBlocksCompletion) {
    ReassemblyBuffer buffer;
    buffer.insert(0, bytes({1}));
    buffer.insert(2, bytes({3}));
    buffer.set_final_size(3);
    EXPECT_FALSE(buffer.complete());
    EXPECT_EQ(buffer.contiguous_length(), 1u);
    buffer.insert(1, bytes({2}));
    EXPECT_TRUE(buffer.complete());
}

TEST(Reassembly, FinWithEmptyStream) {
    ReassemblyBuffer buffer;
    buffer.set_final_size(0);
    EXPECT_TRUE(buffer.complete());
    EXPECT_TRUE(buffer.take().empty());
}

TEST(Reassembly, ManyTinyOutOfOrderChunks) {
    ReassemblyBuffer buffer;
    std::vector<std::uint8_t> expected(97);
    std::iota(expected.begin(), expected.end(), 0);
    // Insert even offsets first, then odd.
    for (std::size_t i = 0; i < expected.size(); i += 2) {
        buffer.insert(i, {&expected[i], 1});
    }
    for (std::size_t i = 1; i < expected.size(); i += 2) {
        buffer.insert(i, {&expected[i], 1});
    }
    buffer.set_final_size(expected.size());
    ASSERT_TRUE(buffer.complete());
    EXPECT_EQ(buffer.take(), expected);
}

TEST(Reassembly, PropertySweepMatchesReferenceByteMap) {
    // Seeded sweep against a reference byte map: random chunking, in-order
    // runs, reordering, duplicates, overlapping spans, and the FIN learnt
    // first, last or with the chunk that ends the stream. After every
    // insert contiguous_length() and complete() must agree with the
    // reference, and take() must return the stream's bytes once complete.
    util::Rng rng{20230520};
    constexpr int kCases = 10'000;
    int completed = 0;
    for (int c = 0; c < kCases; ++c) {
        const std::size_t length = rng.chance(0.05) ? 0 : 1 + rng.uniform_u64(2'000);
        std::vector<std::uint8_t> content(length);
        for (auto& byte : content) byte = static_cast<std::uint8_t>(rng.next());

        // Partition into chunks, then add duplicates and overlapping spans.
        const std::size_t max_chunk = 1 + rng.uniform_u64(rng.chance(0.5) ? 16 : 400);
        std::vector<std::pair<std::size_t, std::size_t>> chunks;  // [begin, end)
        for (std::size_t at = 0; at < length;) {
            const std::size_t end = std::min(length, at + 1 + rng.uniform_u64(max_chunk));
            chunks.emplace_back(at, end);
            at = end;
        }
        const std::size_t partition_size = chunks.size();
        for (std::size_t i = 0; i < partition_size; ++i) {
            if (rng.chance(0.15)) chunks.push_back(chunks[i]);  // retransmission
        }
        if (length > 0) {
            const auto spans = rng.uniform_u64(4);
            for (std::uint64_t i = 0; i < spans; ++i) {
                const std::size_t begin = rng.uniform_u64(length);
                chunks.emplace_back(begin, begin + 1 + rng.uniform_u64(length - begin));
            }
        }
        // Delivery order: in order with tail extras, fully shuffled, or
        // in order with a few adjacent swaps (mild reordering).
        const auto order = rng.uniform_u64(3);
        if (order == 1) {
            std::shuffle(chunks.begin(), chunks.end(), rng);
        } else if (order == 2) {
            for (std::size_t i = 1; i < chunks.size(); ++i) {
                if (rng.chance(0.2)) std::swap(chunks[i - 1], chunks[i]);
            }
        }
        // FIN: 0 = before any data, 1 = after all data, 2 = with the first
        // delivered chunk that ends at `length` (as a FIN-bearing frame).
        const auto fin_mode = length == 0 ? 0 : rng.uniform_u64(3);

        ReassemblyBuffer buffer;
        std::vector<bool> reference(length);  // byte i has arrived
        std::size_t reference_prefix = 0;
        bool fin_known = false;
        bool delivered = false;
        const auto check = [&] {
            if (delivered) return;  // take() hands the bytes over; nothing left to compare
            while (reference_prefix < length && reference[reference_prefix]) ++reference_prefix;
            ASSERT_EQ(buffer.contiguous_length(), reference_prefix) << "case " << c;
            ASSERT_EQ(buffer.has_final_size(), fin_known) << "case " << c;
            const bool reference_complete = fin_known && reference_prefix >= length;
            ASSERT_EQ(buffer.complete(), reference_complete) << "case " << c;
            if (reference_complete && !delivered) {
                ASSERT_EQ(buffer.take(), content) << "case " << c;
                delivered = true;
            }
        };
        const auto learn_fin = [&] {
            fin_known = true;
            buffer.set_final_size(length);
        };

        if (fin_mode == 0) learn_fin();
        check();
        for (const auto& [begin, end] : chunks) {
            if (delivered) break;
            buffer.insert(begin, std::span{content}.subspan(begin, end - begin));
            std::fill(reference.begin() + static_cast<std::ptrdiff_t>(begin),
                      reference.begin() + static_cast<std::ptrdiff_t>(end), true);
            if (fin_mode == 2 && end == length && !fin_known) learn_fin();
            check();
        }
        if (!fin_known) learn_fin();
        check();
        ASSERT_TRUE(delivered) << "case " << c;
        ++completed;
    }
    EXPECT_EQ(completed, kCases);
}

TEST(SendQueue, ChunksRespectLimit) {
    SendQueue queue;
    std::vector<std::uint8_t> data(10);
    std::iota(data.begin(), data.end(), 0);
    queue.append(data, true);
    auto c1 = queue.next_chunk(4);
    ASSERT_TRUE(c1.has_value());
    EXPECT_EQ(c1->offset, 0u);
    EXPECT_EQ(c1->data.size(), 4u);
    EXPECT_FALSE(c1->fin);
    auto c2 = queue.next_chunk(4);
    EXPECT_EQ(c2->offset, 4u);
    auto c3 = queue.next_chunk(4);
    EXPECT_EQ(c3->data.size(), 2u);
    EXPECT_TRUE(c3->fin);
    EXPECT_FALSE(queue.has_pending());
    EXPECT_FALSE(queue.next_chunk(4).has_value());
}

TEST(SendQueue, FinOnlyChunk) {
    SendQueue queue;
    queue.append({}, true);
    EXPECT_TRUE(queue.has_pending());
    const auto chunk = queue.next_chunk(100);
    ASSERT_TRUE(chunk.has_value());
    EXPECT_TRUE(chunk->fin);
    EXPECT_TRUE(chunk->data.empty());
    EXPECT_FALSE(queue.has_pending());
}

TEST(SendQueue, AppendAcrossChunks) {
    SendQueue queue;
    queue.append(bytes({1, 2}), false);
    auto c1 = queue.next_chunk(10);
    EXPECT_EQ(c1->data.size(), 2u);
    EXPECT_FALSE(c1->fin);
    EXPECT_FALSE(queue.has_pending());
    queue.append(bytes({3}), true);
    EXPECT_TRUE(queue.has_pending());
    auto c2 = queue.next_chunk(10);
    EXPECT_EQ(c2->offset, 2u);
    EXPECT_TRUE(c2->fin);
}

TEST(SendQueue, RequeuePriority) {
    SendQueue queue;
    std::vector<std::uint8_t> data(8, 0xaa);
    queue.append(data, true);
    auto lost = queue.next_chunk(4);
    ASSERT_TRUE(lost.has_value());
    queue.requeue({lost->offset, lost->data.size(), lost->fin});
    EXPECT_TRUE(queue.has_pending());
    // Retransmission comes out before new data, re-read from the same bytes.
    const auto again = queue.next_chunk(100);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->offset, lost->offset);
    EXPECT_EQ(again->data.data(), lost->data.data());
    EXPECT_EQ(again->data.size(), lost->data.size());
    // New data continues afterwards.
    const auto rest = queue.next_chunk(100);
    ASSERT_TRUE(rest.has_value());
    EXPECT_EQ(rest->offset, 4u);
    EXPECT_TRUE(rest->fin);
}

TEST(SendQueue, RequeueOfFinChunkKeepsPendingUntilResent) {
    SendQueue queue;
    queue.append(bytes({1}), true);
    auto chunk = queue.next_chunk(10);
    ASSERT_TRUE(chunk->fin);
    EXPECT_FALSE(queue.has_pending());
    queue.requeue({chunk->offset, chunk->data.size(), chunk->fin});
    EXPECT_TRUE(queue.has_pending());
    auto again = queue.next_chunk(10);
    EXPECT_TRUE(again->fin);
    EXPECT_FALSE(queue.has_pending());
}

}  // namespace
}  // namespace spinscope::quic
