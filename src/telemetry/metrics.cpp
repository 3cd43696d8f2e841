#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace spinscope::telemetry {

Histogram::Histogram(HistogramSpec spec) : spec_{spec} {
    assert(spec_.min_value > 0.0);
    assert(spec_.factor > 1.0);
    if (spec_.bucket_count == 0) spec_.bucket_count = 1;
    bounds_.reserve(spec_.bucket_count);
    double bound = spec_.min_value;
    for (std::size_t i = 0; i < spec_.bucket_count; ++i) {
        bounds_.push_back(bound);
        bound *= spec_.factor;
    }
    counts_.assign(spec_.bucket_count, 0);
}

void Histogram::record(double value) noexcept {
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;

    // upper_bound over the precomputed bounds: first bound > value, minus
    // one, clamped into [0, buckets). Exact and platform-independent, unlike
    // a log()-based index.
    const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t index =
        it == bounds_.begin() ? 0 : static_cast<std::size_t>(it - bounds_.begin()) - 1;
    ++counts_[std::min(index, counts_.size() - 1)];
}

void Histogram::merge_from(const Histogram& other) {
    if (spec_.min_value != other.spec_.min_value || spec_.factor != other.spec_.factor ||
        spec_.bucket_count != other.spec_.bucket_count) {
        throw std::invalid_argument("telemetry: histogram merge with mismatched geometry");
    }
    if (other.count_ == 0) return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
}

void Histogram::restore(std::uint64_t count, double sum, double min, double max,
                        const std::vector<std::uint64_t>& bucket_counts) {
    if (bucket_counts.size() != counts_.size()) {
        throw std::invalid_argument("telemetry: histogram restore with mismatched geometry");
    }
    std::uint64_t bucket_total = 0;
    for (const auto c : bucket_counts) bucket_total += c;
    if (bucket_total != count) {
        throw std::invalid_argument("telemetry: histogram restore bucket total != count");
    }
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
    counts_ = bucket_counts;
}

void Histogram::reset() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

template <>
MetricsRegistry::Table<Counter>& MetricsRegistry::table<Counter>() noexcept {
    return counters_;
}
template <>
MetricsRegistry::Table<Gauge>& MetricsRegistry::table<Gauge>() noexcept {
    return gauges_;
}
template <>
MetricsRegistry::Table<Histogram>& MetricsRegistry::table<Histogram>() noexcept {
    return histograms_;
}

template <typename Instrument>
void MetricsRegistry::unpark(Entry<Instrument>& entry, const HistogramSpec& spec) {
    if (entry.epoch_ == epoch_) return;
    if constexpr (std::is_same_v<Instrument, Histogram>) {
        // A fresh registry would create the histogram with this lookup's
        // spec, so a parked one of another geometry is rebuilt, not reset.
        if (entry.instrument_->spec() == spec) {
            entry.instrument_->reset();
        } else {
            entry.instrument_ = std::make_unique<Histogram>(spec);
        }
    } else {
        (void)spec;
        entry.instrument_->reset();
    }
    entry.epoch_ = epoch_;
    ++table<Instrument>().visible;
}

template <typename Instrument>
MetricsRegistry::Entry<Instrument>& MetricsRegistry::lookup(const std::string& name,
                                                            const HistogramSpec& spec) {
    Table<Instrument>& kind = table<Instrument>();
    auto it = kind.entries.lower_bound(name);
    if (it != kind.entries.end() && it->first == name) {
        unpark(it->second, spec);
        return it->second;
    }
    std::unique_ptr<Instrument> created;
    if constexpr (std::is_same_v<Instrument, Histogram>) {
        created = std::make_unique<Histogram>(spec);
    } else {
        created = std::make_unique<Instrument>();
    }
    it = kind.entries.emplace_hint(it, name, Entry<Instrument>{std::move(created), epoch_});
    ++kind.visible;
    return it->second;
}

template MetricsRegistry::Entry<Counter>& MetricsRegistry::lookup<Counter>(
    const std::string&, const HistogramSpec&);
template MetricsRegistry::Entry<Gauge>& MetricsRegistry::lookup<Gauge>(const std::string&,
                                                                       const HistogramSpec&);
template MetricsRegistry::Entry<Histogram>& MetricsRegistry::lookup<Histogram>(
    const std::string&, const HistogramSpec&);
template void MetricsRegistry::unpark<Counter>(Entry<Counter>&, const HistogramSpec&);
template void MetricsRegistry::unpark<Gauge>(Entry<Gauge>&, const HistogramSpec&);
template void MetricsRegistry::unpark<Histogram>(Entry<Histogram>&, const HistogramSpec&);

Counter& MetricsRegistry::counter(const std::string& name) {
    return *lookup<Counter>(name, {});
}

Gauge& MetricsRegistry::gauge(const std::string& name) { return *lookup<Gauge>(name, {}); }

Histogram& MetricsRegistry::histogram(const std::string& name, HistogramSpec spec) {
    return *lookup<Histogram>(name, spec);
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    for (const auto& [name, src] : other.counters()) counter(name).merge_from(*src);
    for (const auto& [name, src] : other.gauges()) gauge(name).merge_from(*src);
    for (const auto& [name, src] : other.histograms()) {
        histogram(name, src->spec()).merge_from(*src);
    }
}

void MetricsRegistry::rewind() noexcept {
    ++epoch_;
    counters_.visible = 0;
    gauges_.visible = 0;
    histograms_.visible = 0;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
    return find_visible(counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
    return find_visible(gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
    return find_visible(histograms_, name);
}

}  // namespace spinscope::telemetry
