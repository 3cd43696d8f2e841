// spinscope/netsim/simulator.hpp
//
// Discrete-event simulation core: a virtual clock and an ordered event queue.
//
// The simulator stands in for the real Internet of the paper's measurement
// campaign. All protocol endpoints, links and passive observers run on the
// same simulated clock, which gives the analysis pipeline exact ground truth
// for packet timing — the one thing a real vantage point can never have.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "util/function.hpp"
#include "util/time.hpp"

namespace spinscope::netsim {

using util::Duration;
using util::TimePoint;

/// Event-queue storage that simulators run one after another can share, so
/// a worker that runs one simulator per attempt stops regrowing the queue
/// for every attempt. A simulator constructed with a QueueStorage borrows
/// its buffers — the queue and the timer-state table — for its lifetime and
/// hands them back when destroyed, with every pending callback already
/// destroyed. One simulator borrows at a time: one constructed while the
/// storage is lent out (a nested simulator, or another thread's) grows
/// buffers of its own. Whoever owns the storage must keep it alive until
/// the borrowing simulator is gone.
class QueueStorage {
public:
    QueueStorage() = default;

    /// The storage shared by everyone on this thread who holds it: the same
    /// instance while any holder keeps it, a fresh one after all have let
    /// go. Campaigns take it for their one-off scans, so the weekly
    /// campaigns a thread scans one after another share one queue.
    [[nodiscard]] static std::shared_ptr<QueueStorage> of_this_thread();

private:
    friend class Simulator;

    /// Queue entry, on the tail or the heap. Trivially copyable: a sift
    /// moves 24 bytes and never touches the callback, which stays parked in
    /// its slot.
    struct Key {
        TimePoint at;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    /// A parked callback. Slots live in fixed blocks, so a callback runs in
    /// place even while it schedules events that add blocks.
    struct Slot {
        util::MoveFunction<void()> cb;
        const char* category = nullptr;
    };
    static constexpr std::uint32_t kSlotsPerBlock = 64;
    /// The state of one Timer, kept in the table while the Timer lives and
    /// recycled for a later one after. `generation` only ever grows, also
    /// across reuse, so a firing queued for an earlier arm — or an earlier
    /// Timer in the same entry — never matches it.
    struct TimerState {
        std::uint64_t generation = 0;
        bool armed = false;
        TimePoint expiry = TimePoint::never();
        /// The armed callback. A re-arm replaces it; a firing moves it out
        /// before invoking it, so the callback may re-arm its own timer (or
        /// construct timers that grow the table).
        util::MoveFunction<void()> callback;
    };
    /// Between borrowers the queue is empty, every slot is on the free list
    /// and holds no callback, and so does every timer state. Only capacity
    /// carries over: a borrower starts with no category counts.
    struct Buffers {
        /// Keys scheduled no earlier than the tail's last key, in firing
        /// order from tail_head on: a FIFO, so the far-future timer re-arms
        /// that make up most of a standing queue cost no sift.
        std::vector<Key> tail;
        std::size_t tail_head = 0;
        /// Every other key: a 4-ary min-heap over (at, seq).
        std::vector<Key> heap;
        std::vector<std::unique_ptr<Slot[]>> blocks;
        /// Capacity is kept at least the slot count, so releasing a slot
        /// never allocates.
        std::vector<std::uint32_t> free_slots;
        std::uint32_t slot_count = 0;
        /// One entry per Timer ever alive at once; free_timers (capacity
        /// kept at least the table size) lists the unused ones.
        std::vector<TimerState> timers;
        std::vector<std::uint32_t> free_timers;
        /// Simulator::category_counts(); a borrower starts it empty.
        std::vector<std::pair<const char*, std::uint64_t>> category_counts;
    };

    Buffers buffers_;
    std::atomic<bool> lent_{false};
};

/// Single-threaded discrete-event simulator.
///
/// Events scheduled for the same instant fire in scheduling order (stable),
/// which keeps runs bit-for-bit reproducible.
///
/// Thread affinity: a Simulator is owned by the thread that constructs it.
/// The sharded campaign creates one per connection attempt on whichever
/// worker runs that attempt; nothing is synchronized, so scheduling or
/// running from any other thread is a determinism bug, and the simulator
/// enforces single-owner affinity by throwing std::logic_error.
class Simulator {
public:
    /// Move-only: delivery events own their (pooled) datagram buffers, which
    /// a copyable std::function could not hold.
    using Callback = util::MoveFunction<void()>;

    /// `storage` (optional) lends the queue's buffers; see QueueStorage.
    explicit Simulator(QueueStorage* storage = nullptr);

    /// Destroys every pending callback (captured state drops, pooled
    /// datagrams return to their pools), then hands borrowed queue storage
    /// back. Every Timer of this simulator must be gone by then.
    ~Simulator();

    /// Pending callbacks and timers hold the simulator's address.
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;
    Simulator(Simulator&&) = delete;
    Simulator& operator=(Simulator&&) = delete;

    /// Current simulated time. Monotone: only advances while run() pops events.
    [[nodiscard]] TimePoint now() const noexcept { return now_; }

    /// Schedules `cb` at absolute time `t`. Times in the past fire "now"
    /// (the queue never runs backwards). `category` optionally tags the
    /// event for per-category accounting; it must be a string literal (or
    /// otherwise outlive the simulator) — categories are interned by pointer.
    void schedule_at(TimePoint t, Callback cb, const char* category = nullptr);

    /// Schedules `cb` after a relative delay (>= 0; negative is clamped).
    void schedule_after(Duration d, Callback cb, const char* category = nullptr);

    /// Runs events until the queue is empty.
    void run();

    /// Runs events with timestamp <= deadline; the clock ends at
    /// min(deadline, last event time). Returns true if the queue was drained.
    bool run_until(TimePoint deadline);

    /// Runs at most `max_events` further events (safety valve for tests).
    void run_steps(std::size_t max_events);

    [[nodiscard]] std::size_t pending() const noexcept {
        return store_.heap.size() + store_.tail.size() - store_.tail_head;
    }
    [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

    // --- instrumentation ---------------------------------------------------
    /// Largest queue depth ever reached (after a push).
    [[nodiscard]] std::size_t queue_depth_high_water() const noexcept { return queue_hwm_; }
    /// Total events ever scheduled (processed + dropped-by-never-running).
    [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }
    /// Events processed per category tag, in first-seen order. Untagged
    /// events are not listed (processed() minus the sum gives them).
    [[nodiscard]] const std::vector<std::pair<const char*, std::uint64_t>>& category_counts()
        const noexcept {
        return store_.category_counts;
    }

    /// The simulator's instruments in one registry under `<prefix>.*`,
    /// resolved on first use (telemetry::Lazy): a caller that publishes many
    /// simulators into one registry keeps one Metrics and skips the by-name
    /// lookups.
    struct Metrics {
        explicit Metrics(telemetry::MetricsRegistry& registry,
                         const std::string& prefix = "netsim.sim");

        telemetry::MetricsRegistry* registry;
        std::string category_prefix;
        telemetry::Lazy<telemetry::Counter> events_scheduled;
        telemetry::Lazy<telemetry::Counter> events_processed;
        telemetry::Lazy<telemetry::Gauge> queue_depth_hwm;
        /// events.<category>, interned by pointer like category_counts().
        std::vector<std::pair<const char*, telemetry::Lazy<telemetry::Counter>>> categories;
    };

    /// Adds this simulator's stats into the registry of `metrics`: counters
    /// events_scheduled / events_processed / events.<category>, and a
    /// queue_depth_hwm gauge (max-merged, so per-attempt publishes keep the
    /// campaign-wide high-water mark).
    void publish_metrics(Metrics& metrics) const;
    /// Same, into `registry` under `<prefix>.*`, for one-off callers.
    void publish_metrics(telemetry::MetricsRegistry& registry,
                         const std::string& prefix = "netsim.sim") const;

private:
    friend class Timer;
    using Key = QueueStorage::Key;
    using Slot = QueueStorage::Slot;
    using TimerState = QueueStorage::TimerState;
    static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);

    /// Bitwise, not short-circuit: which of two keys fires first is a coin
    /// flip along a sift, so branches on it mispredict.
    [[nodiscard]] static bool fires_before(const Key& a, const Key& b) noexcept {
        return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
    }
    static constexpr std::size_t kArity = 4;

    [[nodiscard]] Slot& slot_at(std::uint32_t index) noexcept {
        return store_.blocks[index / QueueStorage::kSlotsPerBlock]
                            [index % QueueStorage::kSlotsPerBlock];
    }
    [[nodiscard]] std::uint32_t acquire_slot();
    /// Destroys the slot's callback and returns the slot to the free list.
    void release_slot(std::uint32_t index) noexcept;
    /// A timer-state entry for a new Timer: a recycled one (its generation
    /// kept) or a new one at the end of the table.
    [[nodiscard]] std::uint32_t acquire_timer();
    /// Returns a disarmed timer's entry to the free list.
    void release_timer(std::uint32_t index) noexcept;
    [[nodiscard]] TimerState& timer_state(std::uint32_t index) noexcept {
        return store_.timers[index];
    }
    [[nodiscard]] const TimerState& timer_state(std::uint32_t index) const noexcept {
        return store_.timers[index];
    }
    /// Queues a key on the tail when it fires no earlier than the tail's
    /// last key, on the heap otherwise.
    void push(Key key);
    /// Removes the key that fires next: the earlier of the tail's front and
    /// the heap's top. The queue must not be empty.
    [[nodiscard]] Key pop() noexcept;
    /// True when a queued key fires at or before `deadline`.
    [[nodiscard]] bool due(TimePoint deadline) const noexcept;
    [[nodiscard]] bool empty() const noexcept {
        return store_.heap.empty() && store_.tail.empty();
    }
    void heap_push(Key key);
    [[nodiscard]] Key heap_pop() noexcept;

    void pop_and_run();
    /// Throws std::logic_error when called from a thread other than the one
    /// that constructed this simulator (single-owner affinity).
    void check_owner() const;

    QueueStorage::Buffers store_;
    /// The storage store_ was borrowed from; nullptr when it is our own.
    QueueStorage* lender_ = nullptr;
    std::thread::id owner_ = std::this_thread::get_id();
    TimePoint now_ = TimePoint::origin();
    std::uint64_t next_seq_ = 0;
    std::uint64_t processed_ = 0;
    std::size_t queue_hwm_ = 0;
};

/// A single re-armable, cancellable timer (QUIC PTO, idle timeout, delayed
/// ACK). Re-arming or cancelling invalidates any previously scheduled firing
/// via a generation counter, so stale queue entries become no-ops.
///
/// The timer's state lives in its simulator's timer table, which travels
/// with the simulator's QueueStorage, so constructing a Timer allocates
/// nothing once the table has grown. Each arm queues exactly one event, and
/// that event captures only (simulator, table index, generation): the armed
/// callback lives in the table, not in the queue. The firing therefore fits
/// the event's inline buffer, and arming a timer never allocates once the
/// queue has grown. Destroying a Timer while a stale firing is still queued
/// is safe: the entry keeps counting generations when a later Timer reuses
/// it, so the firing stays a no-op.
///
/// Lifetime: a Timer must not outlive its Simulator (declare it after the
/// simulator, or as a member of something that is).
class Timer {
public:
    using Callback = util::MoveFunction<void()>;

    explicit Timer(Simulator& sim) : sim_{&sim}, index_{sim.acquire_timer()} {}

    /// Destruction cancels: a pending firing becomes a no-op, the armed
    /// callback is destroyed and the table entry is recycled.
    ~Timer() {
        cancel();
        sim_->release_timer(index_);
    }

    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// Arms (or re-arms) the timer to fire `cb` at absolute time `t`.
    void set_at(TimePoint t, Callback cb);

    /// Arms (or re-arms) the timer to fire after `d`.
    void set_after(Duration d, Callback cb);

    /// Disarms the timer and destroys its callback; a pending firing
    /// becomes a no-op.
    void cancel() noexcept;

    [[nodiscard]] bool armed() const noexcept { return state().armed; }
    /// Expiry of the currently armed firing; TimePoint::never() if disarmed.
    [[nodiscard]] TimePoint expiry() const noexcept {
        return state().armed ? state().expiry : TimePoint::never();
    }

private:
    using State = Simulator::TimerState;

    [[nodiscard]] State& state() noexcept { return sim_->timer_state(index_); }
    [[nodiscard]] const State& state() const noexcept { return sim_->timer_state(index_); }

    Simulator* sim_;
    std::uint32_t index_;
};

}  // namespace spinscope::netsim
