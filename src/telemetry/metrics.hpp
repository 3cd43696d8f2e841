// spinscope/telemetry/metrics.hpp
//
// The campaign observability substrate: a registry of named counters, gauges
// and fixed-bucket log-scale histograms that every layer (netsim, quic,
// scanner, bench) records into.
//
// The paper's measurement pipeline (§3.2-3.3) is only trustworthy if the
// operator can see what the scanner actually did — how many domains resolved,
// how handshakes ended, how often PTO fired, where the wall-clock time went.
// This module is deliberately simple: plain structs, no locks, no atomics.
// An instance is single-threaded by design; the sharded campaign scans every
// work chunk into a private registry — one per result-ring slot, rewound
// (MetricsRegistry::rewind) at the start of each chunk so it reads exactly
// like a fresh one — and merges them (merge_from) on the merge thread in
// ascending chunk order, which keeps aggregate telemetry deterministic
// across thread counts without any atomics on the hot path.
// Merge semantics per instrument: counters add, gauges max-merge (worker
// threads must only publish high-water-mark style gauges; last-write gauges
// such as rates belong to the merge thread after aggregation), histograms
// add counts/sums bucket-wise and require identical geometry.

#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace spinscope::telemetry {

/// Monotonically increasing event count.
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
    /// Shard merge: counts are additive.
    void merge_from(const Counter& other) noexcept { value_ += other.value_; }

private:
    friend class MetricsRegistry;
    void reset() noexcept { value_ = 0; }

    std::uint64_t value_ = 0;
};

/// Last-written scalar, with a max-merge helper for high-water marks.
class Gauge {
public:
    void set(double v) noexcept { value_ = v; has_value_ = true; }
    /// Keeps the larger of the current and the new value (high-water marks
    /// published once per attempt merge correctly across attempts).
    void set_max(double v) noexcept {
        if (!has_value_ || v > value_) value_ = v;
        has_value_ = true;
    }
    [[nodiscard]] double value() const noexcept { return value_; }
    [[nodiscard]] bool has_value() const noexcept { return has_value_; }
    /// Shard merge: max-merge (commutative, so the result is independent of
    /// merge order). Worker-published gauges must therefore be high-water
    /// marks; last-write gauges are set by the merge thread post-merge.
    void merge_from(const Gauge& other) noexcept {
        if (other.has_value_) set_max(other.value_);
    }

private:
    friend class MetricsRegistry;
    void reset() noexcept { *this = Gauge{}; }

    double value_ = 0.0;
    bool has_value_ = false;
};

/// Geometry of a log-scale histogram: bucket i spans
/// [min_value * factor^i, min_value * factor^(i+1)); values below the first
/// bound land in bucket 0, values at or above the last bound in the final
/// bucket. Fixed at creation so exported bucket arrays always line up.
struct HistogramSpec {
    double min_value = 0.001;  ///< lower bound of bucket 0 (e.g. 1 us in ms)
    double factor = 2.0;       ///< geometric bucket growth (> 1)
    std::size_t bucket_count = 32;

    friend bool operator==(const HistogramSpec&, const HistogramSpec&) = default;
};

/// Fixed-bucket log-scale histogram (durations, sizes — anything spanning
/// orders of magnitude). Bucket bounds are precomputed by repeated
/// multiplication, so bucketing is exact and platform-independent.
class Histogram {
public:
    explicit Histogram(HistogramSpec spec);

    void record(double value) noexcept;

    [[nodiscard]] const HistogramSpec& spec() const noexcept { return spec_; }
    [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
    [[nodiscard]] double sum() const noexcept { return sum_; }
    /// Smallest / largest recorded value; 0 when empty.
    [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
    [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
    [[nodiscard]] double mean() const noexcept {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept { return counts_; }
    /// Inclusive lower bound of bucket i.
    [[nodiscard]] double bucket_lower_bound(std::size_t i) const { return bounds_.at(i); }

    /// Shard merge: bucket counts, count, min and max merge exactly; `sum`
    /// adds the partial sums, which regroups the floating-point additions —
    /// deterministic for a fixed chunking, but not bit-promised across
    /// different chunk sizes (see telemetry::deterministic_csv). Throws
    /// std::invalid_argument when the geometries differ.
    void merge_from(const Histogram& other);

    /// Journal replay: overwrites the recorded state with a previously
    /// exported snapshot (count/sum/min/max plus per-bucket counts). Throws
    /// std::invalid_argument when `bucket_counts` does not match this
    /// histogram's geometry or the bucket total disagrees with `count`.
    void restore(std::uint64_t count, double sum, double min, double max,
                 const std::vector<std::uint64_t>& bucket_counts);

private:
    friend class MetricsRegistry;
    /// Back to the freshly constructed state; keeps the bucket storage.
    void reset() noexcept;

    HistogramSpec spec_;
    std::vector<double> bounds_;  ///< bounds_[i] = min_value * factor^i
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Owns all metrics of one campaign / bench run, addressed by name.
///
/// Lookup is by full dotted name ("netsim.link.delivered"); the first lookup
/// creates the instrument, later lookups return the same instance, so call
/// sites need no registration step. Instruments are heap-allocated and never
/// freed before the registry, so references stay valid for its lifetime;
/// after rewind() they stay valid but stop being visible until looked up
/// again.
class MetricsRegistry {
public:
    /// One instrument in a view: dereferences like the std::unique_ptr that
    /// owns it (`entry->value()`, `entry.get()`).
    template <typename Instrument>
    class Entry {
    public:
        [[nodiscard]] Instrument* get() const noexcept { return instrument_.get(); }
        [[nodiscard]] Instrument& operator*() const noexcept { return *instrument_; }
        [[nodiscard]] Instrument* operator->() const noexcept { return instrument_.get(); }

    private:
        friend class MetricsRegistry;
        Entry(std::unique_ptr<Instrument> instrument, std::uint64_t epoch) noexcept
            : instrument_{std::move(instrument)}, epoch_{epoch} {}

        std::unique_ptr<Instrument> instrument_;
        /// The registry epoch of the instrument's last lookup: it is visible
        /// while this equals the registry's epoch, parked otherwise.
        std::uint64_t epoch_;
    };
    template <typename Instrument>
    using Map = std::map<std::string, Entry<Instrument>>;

    /// The visible instruments of one kind, name-sorted (std::map order) for
    /// deterministic export; parked ones are skipped.
    template <typename Instrument>
    class View {
    public:
        class iterator {
        public:
            using value_type = typename Map<Instrument>::value_type;
            using reference = const value_type&;
            using pointer = const value_type*;
            using difference_type = std::ptrdiff_t;
            using iterator_category = std::forward_iterator_tag;

            iterator() = default;
            [[nodiscard]] reference operator*() const { return *it_; }
            [[nodiscard]] pointer operator->() const { return &*it_; }
            iterator& operator++() {
                ++it_;
                skip_parked();
                return *this;
            }
            iterator operator++(int) {
                iterator old = *this;
                ++*this;
                return old;
            }
            friend bool operator==(const iterator& a, const iterator& b) noexcept {
                return a.it_ == b.it_;
            }

        private:
            friend class View;
            using Base = typename Map<Instrument>::const_iterator;
            iterator(Base it, Base end, std::uint64_t epoch) : it_{it}, end_{end}, epoch_{epoch} {
                skip_parked();
            }
            void skip_parked() {
                while (it_ != end_ && it_->second.epoch_ != epoch_) ++it_;
            }

            Base it_{};
            Base end_{};
            std::uint64_t epoch_ = 0;
        };

        [[nodiscard]] iterator begin() const { return {map_->begin(), map_->end(), epoch_}; }
        [[nodiscard]] iterator end() const { return {map_->end(), map_->end(), epoch_}; }
        [[nodiscard]] std::size_t size() const noexcept { return size_; }
        [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

    private:
        friend class MetricsRegistry;
        View(const Map<Instrument>& map, std::size_t size, std::uint64_t epoch) noexcept
            : map_{&map}, size_{size}, epoch_{epoch} {}

        const Map<Instrument>* map_;
        std::size_t size_;
        std::uint64_t epoch_;
    };

    [[nodiscard]] Counter& counter(const std::string& name);
    [[nodiscard]] Gauge& gauge(const std::string& name);
    /// `spec` applies only when `name` is first created; later calls return
    /// the existing histogram unchanged (the geometry is part of the schema).
    [[nodiscard]] Histogram& histogram(const std::string& name, HistogramSpec spec = {});

    /// nullptr when the metric does not exist (read-only probes for tests
    /// and exporters; never creates).
    [[nodiscard]] const Counter* find_counter(const std::string& name) const;
    [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
    [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

    [[nodiscard]] View<Counter> counters() const noexcept { return view(counters_); }
    [[nodiscard]] View<Gauge> gauges() const noexcept { return view(gauges_); }
    [[nodiscard]] View<Histogram> histograms() const noexcept { return view(histograms_); }

    /// Total number of registered instruments of all kinds.
    [[nodiscard]] std::size_t size() const noexcept {
        return counters_.visible + gauges_.visible + histograms_.visible;
    }

    /// Merges every instrument of `other` into this registry, creating
    /// missing instruments (histograms inherit the source geometry). The
    /// sharded campaign calls this once per work chunk, in ascending chunk
    /// order on the merge thread, so merged telemetry is deterministic and
    /// independent of worker scheduling. Counters add, gauges max-merge,
    /// histograms merge per Histogram::merge_from.
    void merge_from(const MetricsRegistry& other);

    /// Makes the registry read like a freshly constructed one without
    /// freeing anything: every instrument is parked, in O(1). The views,
    /// find_*, size, merge_from and the exporters see only instruments
    /// looked up since — by name, or through a Lazy handle resolved before
    /// the rewind, which notices the new epoch and brings its instrument
    /// back without a by-name lookup — and a lookup brings a parked
    /// instrument back in its freshly constructed state, allocating
    /// nothing. A reference taken before the rewind still points at the
    /// parked instrument: look it up again instead of keeping it. The
    /// campaign rewinds each result-ring slot's registry at the start of
    /// every chunk it scans (DESIGN.md §12.2).
    void rewind() noexcept;
    /// Number of rewinds so far.
    [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

private:
    template <typename Instrument>
    friend class Lazy;

    /// Instruments of one kind, parked or visible, and how many are visible.
    template <typename Instrument>
    struct Table {
        Map<Instrument> entries;
        std::size_t visible = 0;
    };

    template <typename Instrument>
    [[nodiscard]] View<Instrument> view(const Table<Instrument>& table) const noexcept {
        return {table.entries, table.visible, epoch_};
    }
    template <typename Instrument>
    [[nodiscard]] const Instrument* find_visible(const Table<Instrument>& table,
                                                 const std::string& name) const {
        const auto it = table.entries.find(name);
        return it == table.entries.end() || it->second.epoch_ != epoch_ ? nullptr
                                                                         : it->second.get();
    }
    template <typename Instrument>
    [[nodiscard]] Table<Instrument>& table() noexcept;
    /// The entry of `name`, created or brought back so that it is visible.
    /// `spec` is used only for histograms.
    template <typename Instrument>
    [[nodiscard]] Entry<Instrument>& lookup(const std::string& name, const HistogramSpec& spec);
    /// Makes `entry` visible: a parked one comes back in the state a fresh
    /// lookup with `spec` would create.
    template <typename Instrument>
    void unpark(Entry<Instrument>& entry, const HistogramSpec& spec);

    Table<Counter> counters_;
    Table<Gauge> gauges_;
    Table<Histogram> histograms_;
    std::uint64_t epoch_ = 0;
};

/// An instrument of one registry, looked up by name on first use and then
/// cached. Publishing through a Lazy creates the instrument exactly where a
/// direct `registry.counter(name)` call would: a handle that is never used
/// leaves no instrument behind, so caching cannot change which instruments
/// a registry holds. Per-attempt publishers keep one set of handles per
/// registry instead of building `prefix + ".name"` and walking the map on
/// every publish. A handle resolved before MetricsRegistry::rewind() brings
/// its instrument back on next use, exactly where a fresh handle would
/// create it. The registry must outlive the handle.
template <typename Instrument>
class Lazy {
public:
    /// `spec` is used only for histograms, when the lookup creates one.
    Lazy(MetricsRegistry& registry, std::string name, HistogramSpec spec = {})
        : registry_{&registry}, name_{std::move(name)}, spec_{spec} {}

    [[nodiscard]] Instrument& operator*() {
        if (entry_ == nullptr) {
            entry_ = &registry_->lookup<Instrument>(name_, spec_);
            epoch_ = registry_->epoch();
        } else if (epoch_ != registry_->epoch()) {
            registry_->unpark(*entry_, spec_);
            epoch_ = registry_->epoch();
        }
        return **entry_;
    }
    [[nodiscard]] Instrument* operator->() { return &**this; }

private:
    MetricsRegistry* registry_;
    std::string name_;
    HistogramSpec spec_;
    MetricsRegistry::Entry<Instrument>* entry_ = nullptr;
    std::uint64_t epoch_ = 0;  ///< registry epoch entry_ was last made visible in
};

}  // namespace spinscope::telemetry
