#include "bytes/bytes.hpp"

namespace spinscope::bytes {

Buffer Buffer::clone() const {
    if (pool_ == nullptr) return copy_of(span());
    Buffer copy = pool_->acquire(size());
    copy.append(span());
    return copy;
}

std::vector<std::uint8_t> Buffer::detach() && {
    if (pool_ != nullptr) {
        pool_->forget();
        pool_ = nullptr;
    }
    return std::move(storage_);
}

Buffer BufferPool::acquire(std::size_t size_hint) {
    ++stats_.acquires;
    Buffer buffer;
    if (!free_.empty()) {
        ++stats_.hits;
        buffer.storage_ = std::move(free_.back());
        free_.pop_back();
        buffer.storage_.clear();
    } else {
        ++stats_.misses;
    }
    if (size_hint > 0) buffer.storage_.reserve(size_hint);
    buffer.pool_ = this;
    ++stats_.outstanding;
    if (stats_.outstanding > stats_.outstanding_hwm) {
        stats_.outstanding_hwm = stats_.outstanding;
    }
    return buffer;
}

void BufferPool::recycle(std::vector<std::uint8_t>&& storage) noexcept {
    --stats_.outstanding;
    if (free_.size() >= max_free_) {
        ++stats_.trimmed;
        return;  // storage freed by the caller's moved-from destructor
    }
    ++stats_.recycled;
    free_.push_back(std::move(storage));
}

void BufferPool::forget() noexcept { --stats_.outstanding; }

BufferPool::Metrics::Metrics(telemetry::MetricsRegistry& registry, const std::string& prefix)
    : acquires{registry, prefix + ".acquires"},
      hits{registry, prefix + ".hits"},
      misses{registry, prefix + ".misses"},
      recycled{registry, prefix + ".recycled"},
      trimmed{registry, prefix + ".trimmed"},
      outstanding_hwm{registry, prefix + ".outstanding_hwm"} {}

void BufferPool::publish_metrics(telemetry::MetricsRegistry& registry,
                                 const std::string& prefix) const {
    Metrics metrics{registry, prefix};
    publish_metrics(metrics);
}

void BufferPool::publish_metrics(Metrics& metrics) const { publish_metrics(metrics, Stats{}); }

void BufferPool::publish_metrics(Metrics& metrics, const Stats& since) const {
    metrics.acquires->add(stats_.acquires - since.acquires);
    metrics.hits->add(stats_.hits - since.hits);
    metrics.misses->add(stats_.misses - since.misses);
    metrics.recycled->add(stats_.recycled - since.recycled);
    metrics.trimmed->add(stats_.trimmed - since.trimmed);
    metrics.outstanding_hwm->set_max(static_cast<double>(stats_.outstanding_hwm));
}

}  // namespace spinscope::bytes
