#include "telemetry/span.hpp"

#include <algorithm>
#include <utility>

namespace spinscope::telemetry {

Span::Span(MetricsRegistry& registry, std::string name)
    : registry_{&registry}, name_{std::move(name)}, start_{std::chrono::steady_clock::now()} {}

Span::Span(Histogram& histogram)
    : histogram_{&histogram}, start_{std::chrono::steady_clock::now()} {}

double Span::finish() {
    if (finished_) return 0.0;
    finished_ = true;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const double ms = std::chrono::duration<double, std::milli>(elapsed).count();
    (histogram_ != nullptr ? *histogram_ : registry_->histogram(name_, wall_ms_spec()))
        .record(ms);
    return ms;
}

void record_sim_time(MetricsRegistry& registry, const std::string& name, util::Duration d) {
    record_sim_time(registry.histogram(name, sim_ms_spec()), d);
}

void record_sim_time(Histogram& histogram, util::Duration d) {
    histogram.record(std::max(0.0, d.as_ms()));
}

}  // namespace spinscope::telemetry
