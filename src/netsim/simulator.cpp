#include "netsim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace spinscope::netsim {

void Simulator::check_owner() const {
    if (std::this_thread::get_id() != owner_) {
        throw std::logic_error(
            "netsim: Simulator used from a thread other than its owner "
            "(simulators are single-threaded; shard workers must create "
            "their own)");
    }
}

void Simulator::schedule_at(TimePoint t, Callback cb, const char* category) {
    check_owner();
    if (t < now_) t = now_;
    queue_.push_back(Event{t, next_seq_++, std::move(cb), category});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    if (queue_.size() > queue_hwm_) queue_hwm_ = queue_.size();
}

void Simulator::schedule_after(Duration d, Callback cb, const char* category) {
    if (d.is_negative()) d = Duration::zero();
    schedule_at(now_ + d, std::move(cb), category);
}

void Simulator::pop_and_run() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Event ev = std::move(queue_.back());
    queue_.pop_back();
    now_ = ev.at;
    ++processed_;
    if (ev.category != nullptr) {
        bool found = false;
        for (auto& [name, count] : category_counts_) {
            if (name == ev.category) {
                ++count;
                found = true;
                break;
            }
        }
        if (!found) category_counts_.emplace_back(ev.category, 1);
    }
    ev.cb();
}

void Simulator::run() {
    check_owner();
    while (!queue_.empty()) pop_and_run();
}

bool Simulator::run_until(TimePoint deadline) {
    check_owner();
    while (!queue_.empty() && queue_.front().at <= deadline) pop_and_run();
    if (now_ < deadline) now_ = deadline;
    return queue_.empty();
}

void Simulator::run_steps(std::size_t max_events) {
    check_owner();
    for (std::size_t i = 0; i < max_events && !queue_.empty(); ++i) pop_and_run();
}

void Simulator::publish_metrics(telemetry::MetricsRegistry& registry,
                                const std::string& prefix) const {
    registry.counter(prefix + ".events_scheduled").add(next_seq_);
    registry.counter(prefix + ".events_processed").add(processed_);
    registry.gauge(prefix + ".queue_depth_hwm").set_max(static_cast<double>(queue_hwm_));
    for (const auto& [category, count] : category_counts_) {
        registry.counter(prefix + ".events." + category).add(count);
    }
}

void Timer::set_at(TimePoint t, Callback cb) {
    const std::uint64_t generation = ++state_->generation;
    state_->armed = true;
    state_->expiry = t;
    state_->callback = std::move(cb);
    auto fire = [state = state_, generation] {
        if (generation != state->generation || !state->armed) return;
        state->armed = false;
        Callback callback = std::move(state->callback);
        callback();
    };
    static_assert(Simulator::Callback::stores_inline<decltype(fire)>(),
                  "a timer firing must not heap-allocate per arm");
    sim_->schedule_at(t, std::move(fire), "timer");
}

void Timer::set_after(Duration d, Callback cb) { set_at(sim_->now() + d, std::move(cb)); }

void Timer::cancel() noexcept {
    ++state_->generation;
    state_->armed = false;
    state_->callback = nullptr;
}

}  // namespace spinscope::netsim
