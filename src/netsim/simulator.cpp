#include "netsim/simulator.hpp"

#include <algorithm>
#include <cassert>
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

std::shared_ptr<QueueStorage> QueueStorage::of_this_thread() {
    thread_local std::weak_ptr<QueueStorage> current;
    std::shared_ptr<QueueStorage> storage = current.lock();
    if (storage == nullptr) {
        storage = std::make_shared<QueueStorage>();
        current = storage;
    }
    return storage;
}

Simulator::Simulator(QueueStorage* storage) {
    if (storage != nullptr && !storage->lent_.exchange(true, std::memory_order_acquire)) {
        lender_ = storage;
        store_ = std::exchange(storage->buffers_, {});
        store_.category_counts.clear();
    }
}

Simulator::~Simulator() {
    // Popping until empty also catches whatever a dying callback schedules.
    while (!empty()) release_slot(pop().slot);
    assert(store_.free_timers.size() == store_.timers.size() &&
           "netsim: a Timer outlived its Simulator");
    if (lender_ != nullptr) {
        lender_->buffers_ = std::move(store_);
        lender_->lent_.store(false, std::memory_order_release);
    }
}

std::uint32_t Simulator::acquire_slot() {
    if (!store_.free_slots.empty()) {
        const std::uint32_t index = store_.free_slots.back();
        store_.free_slots.pop_back();
        return index;
    }
    constexpr std::uint32_t kBlock = QueueStorage::kSlotsPerBlock;
    if (store_.slot_count == store_.blocks.size() * kBlock) {
        store_.free_slots.reserve((store_.blocks.size() + 1) * kBlock);
        store_.blocks.push_back(std::make_unique<Slot[]>(kBlock));
    }
    return store_.slot_count++;
}

void Simulator::release_slot(std::uint32_t index) noexcept {
    Slot& slot = slot_at(index);
    slot.cb = nullptr;
    slot.category = nullptr;
    store_.free_slots.push_back(index);  // capacity >= slot_count: no allocation
}

std::uint32_t Simulator::acquire_timer() {
    check_owner();
    if (!store_.free_timers.empty()) {
        const std::uint32_t index = store_.free_timers.back();
        store_.free_timers.pop_back();
        return index;
    }
    // Both vectors grow geometrically, from room for one attempt's timers
    // (two connections of four): a simulator then grows its table at most
    // a few times, and a borrowed table not at all.
    constexpr std::size_t kInitialTimers = 8;
    const auto index = static_cast<std::uint32_t>(store_.timers.size());
    if (index == store_.timers.capacity()) {
        const std::size_t grown = std::max(kInitialTimers, 2 * store_.timers.capacity());
        store_.free_timers.reserve(grown);
        store_.timers.reserve(grown);
    }
    store_.timers.emplace_back();
    return index;
}

void Simulator::release_timer(std::uint32_t index) noexcept {
    store_.free_timers.push_back(index);  // capacity >= table size: no allocation
}

void Simulator::push(Key key) {
    std::vector<Key>& tail = store_.tail;
    if (!tail.empty() && fires_before(key, tail.back())) {
        heap_push(key);
        return;
    }
    // Reclaim the popped front once it is at least half the vector, so the
    // tail stays within twice its live length without moving on every push.
    std::size_t& head = store_.tail_head;
    if (tail.size() == tail.capacity() && head >= tail.size() - head) {
        tail.erase(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    tail.push_back(key);
}

Simulator::Key Simulator::pop() noexcept {
    std::vector<Key>& tail = store_.tail;
    std::size_t& head = store_.tail_head;
    if (!tail.empty() && (store_.heap.empty() || fires_before(tail[head], store_.heap.front()))) {
        const Key key = tail[head++];
        if (head == tail.size()) {
            tail.clear();
            head = 0;
        }
        return key;
    }
    return heap_pop();
}

bool Simulator::due(TimePoint deadline) const noexcept {
    return (!store_.tail.empty() && store_.tail[store_.tail_head].at <= deadline) ||
           (!store_.heap.empty() && store_.heap.front().at <= deadline);
}

void Simulator::heap_push(Key key) {
    std::vector<Key>& heap = store_.heap;
    heap.push_back(key);
    std::size_t hole = heap.size() - 1;
    while (hole > 0) {
        const std::size_t parent = (hole - 1) / kArity;
        if (!fires_before(key, heap[parent])) break;
        heap[hole] = heap[parent];
        hole = parent;
    }
    heap[hole] = key;
}

Simulator::Key Simulator::heap_pop() noexcept {
    std::vector<Key>& heap = store_.heap;
    const Key top = heap.front();
    const Key last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n == 0) return top;
    std::size_t hole = 0;
    while (true) {
        const std::size_t first = hole * kArity + 1;
        if (first >= n) break;
        std::size_t best = first;
        if (first + kArity <= n) {
            // A full family: a two-round tournament of selects.
            const std::size_t left = first + (fires_before(heap[first + 1], heap[first]) ? 1 : 0);
            const std::size_t right =
                first + 2 + (fires_before(heap[first + 3], heap[first + 2]) ? 1 : 0);
            best = fires_before(heap[right], heap[left]) ? right : left;
        } else {
            for (std::size_t child = first + 1; child < n; ++child) {
                best = fires_before(heap[child], heap[best]) ? child : best;
            }
        }
        if (!fires_before(heap[best], last)) break;
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = last;
    return top;
}

void Simulator::schedule_at(TimePoint t, Callback cb, const char* category) {
    check_owner();
    if (t < now_) t = now_;
    const std::uint32_t index = acquire_slot();
    try {
        push(Key{t, next_seq_, index});
    } catch (...) {
        store_.free_slots.push_back(index);
        throw;
    }
    ++next_seq_;
    Slot& slot = slot_at(index);
    slot.cb = std::move(cb);
    slot.category = category;
    if (pending() > queue_hwm_) queue_hwm_ = pending();
}

void Simulator::schedule_after(Duration d, Callback cb, const char* category) {
    if (d.is_negative()) d = Duration::zero();
    schedule_at(now_ + d, std::move(cb), category);
}

void Simulator::pop_and_run() {
    const Key key = pop();
    now_ = key.at;
    ++processed_;
    Slot& slot = slot_at(key.slot);
    if (slot.category != nullptr) {
        bool found = false;
        // Interned by pointer: a handful of distinct literals per process,
        // so a linear scan beats any map.
        for (auto& [name, count] : store_.category_counts) {
            if (name == slot.category) {
                ++count;
                found = true;
                break;
            }
        }
        if (!found) store_.category_counts.emplace_back(slot.category, 1);
    }
    // The callback runs in place (blocks never move) and its slot stays off
    // the free list until it returns, even if it throws.
    struct Release {
        Simulator* sim;
        std::uint32_t index;
        ~Release() { sim->release_slot(index); }
    } release{this, key.slot};
    slot.cb();
}

void Simulator::run() {
    check_owner();
    while (!empty()) pop_and_run();
}

bool Simulator::run_until(TimePoint deadline) {
    check_owner();
    while (due(deadline)) pop_and_run();
    if (now_ < deadline) now_ = deadline;
    return empty();
}

void Simulator::run_steps(std::size_t max_events) {
    check_owner();
    for (std::size_t i = 0; i < max_events && !empty(); ++i) pop_and_run();
}

Simulator::Metrics::Metrics(telemetry::MetricsRegistry& registry, const std::string& prefix)
    : registry{&registry},
      category_prefix{prefix + ".events."},
      events_scheduled{registry, prefix + ".events_scheduled"},
      events_processed{registry, prefix + ".events_processed"},
      queue_depth_hwm{registry, prefix + ".queue_depth_hwm"} {}

void Simulator::publish_metrics(telemetry::MetricsRegistry& registry,
                                const std::string& prefix) const {
    Metrics metrics{registry, prefix};
    publish_metrics(metrics);
}

void Simulator::publish_metrics(Metrics& metrics) const {
    metrics.events_scheduled->add(next_seq_);
    metrics.events_processed->add(processed_);
    metrics.queue_depth_hwm->set_max(static_cast<double>(queue_hwm_));
    for (const auto& [category, count] : store_.category_counts) {
        telemetry::Lazy<telemetry::Counter>* counter = nullptr;
        for (auto& [name, cached] : metrics.categories) {
            if (name == category) {
                counter = &cached;
                break;
            }
        }
        if (counter == nullptr) {
            metrics.categories.emplace_back(
                category, telemetry::Lazy<telemetry::Counter>{
                              *metrics.registry, metrics.category_prefix + category});
            counter = &metrics.categories.back().second;
        }
        (*counter)->add(count);
    }
}

void Timer::set_at(TimePoint t, Callback cb) {
    State& s = state();
    const std::uint64_t generation = ++s.generation;
    s.armed = true;
    s.expiry = t;
    s.callback = std::move(cb);
    auto fire = [sim = sim_, index = index_, generation] {
        State& s = sim->timer_state(index);
        if (generation != s.generation || !s.armed) return;
        s.armed = false;
        // Moved out first: the callback may re-arm this timer or construct
        // timers that grow (and move) the table.
        Callback callback = std::move(s.callback);
        callback();
    };
    static_assert(Simulator::Callback::stores_inline<decltype(fire)>(),
                  "a timer firing must not heap-allocate per arm");
    sim_->schedule_at(t, std::move(fire), "timer");
}

void Timer::set_after(Duration d, Callback cb) { set_at(sim_->now() + d, std::move(cb)); }

void Timer::cancel() noexcept {
    State& s = state();
    ++s.generation;
    s.armed = false;
    s.callback = nullptr;
}

}  // namespace spinscope::netsim
