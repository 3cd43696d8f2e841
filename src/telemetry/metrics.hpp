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
// An instance is single-threaded by design; the sharded campaign gives every
// work chunk its own private registry and merges them (merge_from) on the
// merge thread in ascending chunk order, which keeps aggregate telemetry
// deterministic across thread counts without any atomics on the hot path.
// Merge semantics per instrument: counters add, gauges max-merge (worker
// threads must only publish high-water-mark style gauges; last-write gauges
// such as rates belong to the merge thread after aggregation), histograms
// add counts/sums bucket-wise and require identical geometry.

#pragma once

#include <cstdint>
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
/// sites need no registration step. References stay valid for the registry's
/// lifetime (instruments are heap-allocated and never removed).
class MetricsRegistry {
public:
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

    /// Name-sorted views (std::map order) for deterministic export.
    [[nodiscard]] const std::map<std::string, std::unique_ptr<Counter>>& counters() const noexcept {
        return counters_;
    }
    [[nodiscard]] const std::map<std::string, std::unique_ptr<Gauge>>& gauges() const noexcept {
        return gauges_;
    }
    [[nodiscard]] const std::map<std::string, std::unique_ptr<Histogram>>& histograms()
        const noexcept {
        return histograms_;
    }

    /// Total number of registered instruments of all kinds.
    [[nodiscard]] std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Merges every instrument of `other` into this registry, creating
    /// missing instruments (histograms inherit the source geometry). The
    /// sharded campaign calls this once per work chunk, in ascending chunk
    /// order on the merge thread, so merged telemetry is deterministic and
    /// independent of worker scheduling. Counters add, gauges max-merge,
    /// histograms merge per Histogram::merge_from.
    void merge_from(const MetricsRegistry& other);

private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// An instrument of one registry, looked up by name on first use and then
/// cached. Publishing through a Lazy creates the instrument exactly where a
/// direct `registry.counter(name)` call would: a handle that is never used
/// leaves no instrument behind, so caching cannot change which instruments
/// a registry holds. Per-attempt publishers keep one set of handles per
/// registry instead of building `prefix + ".name"` and walking the map on
/// every publish. The registry must outlive the handle.
template <typename Instrument>
class Lazy {
public:
    /// `spec` is used only for histograms, when the lookup creates one.
    Lazy(MetricsRegistry& registry, std::string name, HistogramSpec spec = {})
        : registry_{&registry}, name_{std::move(name)}, spec_{spec} {}

    [[nodiscard]] Instrument& operator*() {
        if (instrument_ == nullptr) {
            if constexpr (std::is_same_v<Instrument, Counter>) {
                instrument_ = &registry_->counter(name_);
            } else if constexpr (std::is_same_v<Instrument, Gauge>) {
                instrument_ = &registry_->gauge(name_);
            } else {
                instrument_ = &registry_->histogram(name_, spec_);
            }
        }
        return *instrument_;
    }
    [[nodiscard]] Instrument* operator->() { return &**this; }

private:
    MetricsRegistry* registry_;
    std::string name_;
    HistogramSpec spec_;
    Instrument* instrument_ = nullptr;
};

}  // namespace spinscope::telemetry
