#include "quic/stream.hpp"

#include <algorithm>
#include <cassert>

namespace spinscope::quic {

void ReassemblyBuffer::insert(std::uint64_t offset, std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    const std::uint64_t end = offset + data.size();
    // Overwrite what overlaps the buffer, append the rest: the buffer only
    // zero-fills a gap ahead of an out-of-order chunk.
    if (bytes_.size() < offset) bytes_.resize(offset);
    const std::size_t overlap = std::min<std::uint64_t>(bytes_.size() - offset, data.size());
    std::copy_n(data.begin(), overlap, bytes_.begin() + static_cast<std::ptrdiff_t>(offset));
    bytes_.insert(bytes_.end(), data.begin() + static_cast<std::ptrdiff_t>(overlap), data.end());

    if (offset <= prefix_) {
        // In order (or overlapping the prefix): extend the prefix and absorb
        // the runs it now reaches.
        if (end <= prefix_) return;
        prefix_ = end;
        auto it = runs_.begin();
        while (it != runs_.end() && it->first <= prefix_) {
            prefix_ = std::max(prefix_, it->second);
            it = runs_.erase(it);
        }
        return;
    }

    // Past a gap: merge [offset, end) into the run map.
    std::uint64_t new_start = offset;
    std::uint64_t new_end = end;
    auto it = runs_.lower_bound(new_start);
    if (it != runs_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= new_start) {
            new_start = prev->first;
            new_end = std::max(new_end, prev->second);
            it = runs_.erase(prev);
        }
    }
    while (it != runs_.end() && it->first <= new_end) {
        new_end = std::max(new_end, it->second);
        it = runs_.erase(it);
    }
    runs_.emplace(new_start, new_end);
}

void ReassemblyBuffer::set_final_size(std::uint64_t final_size) noexcept {
    final_size_ = final_size;
}

std::uint64_t ReassemblyBuffer::contiguous_length() const noexcept { return prefix_; }

bool ReassemblyBuffer::complete() const noexcept {
    return final_size_.has_value() && contiguous_length() >= *final_size_;
}

std::vector<std::uint8_t> ReassemblyBuffer::take() {
    assert(complete());
    bytes_.resize(*final_size_);
    prefix_ = 0;
    runs_.clear();
    return std::move(bytes_);
}

void SendQueue::append(std::span<const std::uint8_t> data, bool fin) {
    buffer_.insert(buffer_.end(), data.begin(), data.end());
    if (fin) fin_ = true;
}

std::optional<SendQueue::Chunk> SendQueue::next_chunk(std::size_t max_bytes) {
    if (!retransmit_.empty()) {
        const Range range = retransmit_.back();
        retransmit_.pop_back();
        return chunk_of(range);
    }
    if (!has_pending() || max_bytes == 0) return std::nullopt;
    const std::uint64_t available = buffer_.size() - next_offset_;
    const std::uint64_t take = std::min<std::uint64_t>(available, max_bytes);
    Chunk chunk{next_offset_, std::span{buffer_}.subspan(next_offset_, take), false};
    next_offset_ += take;
    if (fin_ && next_offset_ == buffer_.size()) {
        chunk.fin = true;
        fin_sent_ = true;
    }
    return chunk;
}

void SendQueue::requeue(const Range& range) { retransmit_.push_back(range); }

SendQueue::Chunk SendQueue::chunk_of(const Range& range) const {
    assert(range.offset + range.length <= next_offset_);
    return {range.offset, std::span{buffer_}.subspan(range.offset, range.length), range.fin};
}

}  // namespace spinscope::quic
