// spinscope/telemetry/span.hpp
//
// Wall-clock spans for profiling campaign phases (resolve → attempt →
// redirect → trace-finalize) plus simulated-time accounting.
//
// A Span measures host wall-clock time — where the *scanner* spends its CPU
// budget, the quantity every perf PR optimizes. Simulated time (where the
// *modelled network* spends its time) is recorded separately via
// record_sim_time; the two must never be mixed, which is why the sim-time
// helper takes a util::Duration and the span does not expose one.

#pragma once

#include <chrono>
#include <string>

#include "telemetry/metrics.hpp"
#include "util/time.hpp"

namespace spinscope::telemetry {

/// Default geometry for wall-clock phase histograms: bucket 0 starts at
/// 1 us, doubling 32 times (covers 1 us .. ~4300 s).
[[nodiscard]] constexpr HistogramSpec wall_ms_spec() noexcept {
    return HistogramSpec{0.001, 2.0, 32};
}

/// Default geometry for simulated-time histograms: bucket 0 starts at
/// 0.1 ms, doubling 24 times (covers 0.1 ms .. ~28 min of sim time).
[[nodiscard]] constexpr HistogramSpec sim_ms_spec() noexcept {
    return HistogramSpec{0.1, 2.0, 24};
}

/// One manually finished wall-clock measurement. finish() records the
/// elapsed milliseconds into histogram `<name>` (created with wall_ms_spec)
/// and returns them; a Span abandoned without finish() records nothing.
class Span {
public:
    Span(MetricsRegistry& registry, std::string name);
    /// Records into an already resolved histogram.
    explicit Span(Histogram& histogram);

    /// Records the elapsed time; idempotent (only the first call records).
    double finish();

    [[nodiscard]] bool finished() const noexcept { return finished_; }

private:
    MetricsRegistry* registry_ = nullptr;
    std::string name_;
    Histogram* histogram_ = nullptr;
    std::chrono::steady_clock::time_point start_;
    bool finished_ = false;
};

/// RAII wrapper: records on scope exit. The workhorse for phase profiling:
///
///     { telemetry::ScopedTimer t{reg, "scanner.phase.attempt_ms"}; ... }
class ScopedTimer {
public:
    ScopedTimer(MetricsRegistry& registry, std::string name)
        : span_{registry, std::move(name)} {}
    explicit ScopedTimer(Histogram& histogram) : span_{histogram} {}
    ~ScopedTimer() { span_.finish(); }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
    Span span_;
};

/// Records a simulated-time duration (ms) into histogram `<name>` (created
/// with sim_ms_spec). Negative durations are clamped to zero.
void record_sim_time(MetricsRegistry& registry, const std::string& name, util::Duration d);
/// Same, into an already resolved histogram.
void record_sim_time(Histogram& histogram, util::Duration d);

}  // namespace spinscope::telemetry
