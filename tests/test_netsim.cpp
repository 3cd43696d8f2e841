// Unit tests for the discrete-event simulator and the link model.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "netsim/link.hpp"
#include "netsim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/resource.hpp"
// This test binary's one allocation-counting TU: Timer re-arms are checked
// for heap traffic below.
#include "telemetry/alloc_interpose.hpp"

namespace spinscope::netsim {
namespace {

using util::Duration;
using util::TimePoint;

TEST(Simulator, RunsEventsInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_after(Duration::millis(30), [&] { order.push_back(3); });
    sim.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
    sim.schedule_after(Duration::millis(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now().count_nanos(), Duration::millis(30).count_nanos());
    EXPECT_EQ(sim.processed(), 3u);
}

TEST(Simulator, SameTimeIsFifo) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_after(Duration::millis(5), [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, PastEventsClampToNow) {
    Simulator sim;
    bool ran = false;
    sim.schedule_after(Duration::millis(10), [&] {
        sim.schedule_at(TimePoint::origin(), [&] {
            ran = true;
            EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(10));
        });
    });
    sim.run();
    EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
    Simulator sim;
    int count = 0;
    sim.schedule_after(Duration::millis(5), [&] { ++count; });
    sim.schedule_after(Duration::millis(15), [&] { ++count; });
    const bool drained = sim.run_until(TimePoint::origin() + Duration::millis(10));
    EXPECT_FALSE(drained);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(10));
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_TRUE(sim.run_until(TimePoint::origin() + Duration::seconds(1)));
    EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
    Simulator sim;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5) sim.schedule_after(Duration::millis(1), recurse);
    };
    sim.schedule_after(Duration::millis(1), recurse);
    sim.run();
    EXPECT_EQ(depth, 5);
}

TEST(Simulator, RunStepsBounds) {
    Simulator sim;
    int count = 0;
    for (int i = 0; i < 10; ++i) sim.schedule_after(Duration::millis(i), [&] { ++count; });
    sim.run_steps(4);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(sim.pending(), 6u);
}

TEST(Timer, FiresOnceAtExpiry) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(7), [&] { ++fires; });
    EXPECT_TRUE(timer.armed());
    EXPECT_EQ(timer.expiry(), TimePoint::origin() + Duration::millis(7));
    sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, CancelSuppressesFiring) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(5), [&] { ++fires; });
    timer.cancel();
    EXPECT_FALSE(timer.armed());
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, RearmInvalidatesPrevious) {
    Simulator sim;
    Timer timer{sim};
    std::vector<int> fired;
    timer.set_after(Duration::millis(5), [&] { fired.push_back(1); });
    timer.set_after(Duration::millis(9), [&] { fired.push_back(2); });
    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(Timer, DestructionWithPendingFiringIsSafe) {
    Simulator sim;
    int fires = 0;
    {
        Timer timer{sim};
        timer.set_after(Duration::millis(3), [&] { ++fires; });
    }  // timer destroyed with the event still queued
    sim.run();
    EXPECT_EQ(fires, 0);  // generation state kept alive, callback suppressed
}

TEST(Timer, RearmWithStaleFiringQueuedFiresOnlyNewExpiry) {
    // Arm at 5 ms, re-arm to 2 ms while the 5 ms firing is still queued: the
    // stale queue entry must become a no-op (generation bumped), the new one
    // must fire, and the timer must not "fire twice".
    Simulator sim;
    Timer timer{sim};
    std::vector<std::int64_t> fired_at;
    timer.set_after(Duration::millis(5), [&] { fired_at.push_back(sim.now().count_nanos()); });
    timer.set_after(Duration::millis(2), [&] { fired_at.push_back(sim.now().count_nanos()); });
    EXPECT_EQ(sim.pending(), 2u);  // the stale entry is still in the queue
    sim.run();
    ASSERT_EQ(fired_at.size(), 1u);
    EXPECT_EQ(fired_at[0], Duration::millis(2).count_nanos());
    EXPECT_EQ(sim.processed(), 2u);  // stale entry processed as a no-op
    EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmAfterPartialRunSuppressesStaleEntry) {
    // Run past nothing, leave the first firing queued, then re-arm *later*:
    // the earlier queued entry has a stale generation and must not fire.
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(4), [&] { ++fires; });
    sim.run_until(TimePoint::origin() + Duration::millis(1));  // firing still queued
    timer.set_after(Duration::millis(10), [&] { fires += 100; });
    sim.run();
    EXPECT_EQ(fires, 100);  // only the re-armed firing ran
}

TEST(Timer, CancelThenRearmStillFires) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    timer.set_after(Duration::millis(3), [&] { fires = 1; });
    timer.cancel();
    timer.set_after(Duration::millis(6), [&] { fires = 2; });
    sim.run();
    EXPECT_EQ(fires, 2);
    EXPECT_EQ(timer.expiry(), TimePoint::never());
}

TEST(Timer, DestroyAfterPartialRunWithQueuedFiringIsSafe) {
    Simulator sim;
    int fires = 0;
    {
        Timer timer{sim};
        timer.set_after(Duration::millis(5), [&] { ++fires; });
        sim.run_until(TimePoint::origin() + Duration::millis(1));
        EXPECT_EQ(sim.pending(), 1u);
    }  // destroyed while its (now stale) firing is still queued
    sim.run();
    EXPECT_EQ(fires, 0);
}

TEST(Timer, StaleFiringOfADestroyedTimerLeavesItsSuccessorAlone) {
    // The first timer dies with its firing queued; the next one takes over
    // its table entry (constructing it allocates nothing) and arms later.
    // When the stale firing pops, it must neither run anything nor disarm
    // the successor.
    ASSERT_TRUE(telemetry::alloc::active());
    Simulator sim;
    std::vector<int> fired;
    std::optional<Timer> first{std::in_place, sim};
    first->set_after(Duration::millis(3), [&] { fired.push_back(1); });
    first.reset();

    const telemetry::AllocSnapshot before;
    Timer second{sim};
    EXPECT_EQ(before.count_since(), 0u) << "the freed table entry is reused";
    EXPECT_FALSE(second.armed());
    EXPECT_EQ(second.expiry(), TimePoint::never());
    second.set_after(Duration::millis(5), [&] { fired.push_back(2); });

    sim.run_until(TimePoint::origin() + Duration::millis(4));
    EXPECT_EQ(sim.processed(), 1u) << "the stale firing popped";
    EXPECT_TRUE(fired.empty());
    EXPECT_TRUE(second.armed());
    EXPECT_EQ(second.expiry(), TimePoint::origin() + Duration::millis(5));

    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{2}));
    EXPECT_FALSE(second.armed());
    EXPECT_EQ(second.expiry(), TimePoint::never());
}

TEST(Timer, ConstructingOnAnotherThreadThrows) {
    // A Timer takes an entry of its simulator's timer table, so building one
    // off the owner thread is cross-thread use and throws like any other.
    Simulator sim;
    bool threw = false;
    std::thread other{[&] {
        try {
            Timer timer{sim};
        } catch (const std::logic_error&) {
            threw = true;
        }
    }};
    other.join();
    EXPECT_TRUE(threw);
    Timer timer{sim};
    bool fired = false;
    timer.set_after(Duration::millis(1), [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
}

TEST(Timer, StaleFiringAtTheSameInstantAsTheSuccessorsIsANoOp) {
    // Same as above, with both firings due at once: the successor fires
    // exactly once, through its own firing.
    Simulator sim;
    int fires = 0;
    {
        Timer first{sim};
        first.set_after(Duration::millis(2), [&] { fires += 100; });
    }
    Timer second{sim};
    second.set_after(Duration::millis(2), [&] { ++fires; });
    sim.run();
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(sim.processed(), 2u);
}

TEST(Timer, LiveTimersKeepTheirOwnStateWhileEntriesRecycle) {
    // Many timers at once, then fewer: every live timer keeps its own state
    // while entries recycle.
    Simulator sim;
    std::vector<int> fired;
    {
        std::vector<std::unique_ptr<Timer>> timers;
        for (int i = 0; i < 8; ++i) {
            timers.push_back(std::make_unique<Timer>(sim));
            timers.back()->set_after(Duration::millis(10 + i), [&fired, i] { fired.push_back(i); });
        }
        timers.erase(timers.begin(), timers.begin() + 4);  // 0..3 die armed
        for (int i = 8; i < 10; ++i) {
            timers.push_back(std::make_unique<Timer>(sim));
            timers.back()->set_after(Duration::millis(i), [&fired, i] { fired.push_back(i); });
        }
        for (const auto& timer : timers) EXPECT_TRUE(timer->armed());
        sim.run();
    }
    EXPECT_EQ(fired, (std::vector<int>{8, 9, 4, 5, 6, 7}));
}

TEST(Simulator, RunStepsSafetyValveStopsSelfRescheduling) {
    // A pathological event that always reschedules itself would hang run();
    // run_steps must bound it to exactly max_events callbacks.
    Simulator sim;
    std::uint64_t count = 0;
    std::function<void()> reschedule = [&] {
        ++count;
        sim.schedule_after(Duration::millis(1), reschedule);
    };
    sim.schedule_after(Duration::millis(1), reschedule);
    sim.run_steps(100);
    EXPECT_EQ(count, 100u);
    EXPECT_EQ(sim.pending(), 1u);  // the next self-rescheduled event remains
    EXPECT_EQ(sim.processed(), 100u);
}

TEST(Simulator, RunStepsZeroIsNoOp) {
    Simulator sim;
    int count = 0;
    sim.schedule_after(Duration::millis(1), [&] { ++count; });
    sim.run_steps(0);
    EXPECT_EQ(count, 0);
    EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, TracksQueueDepthHighWaterMark) {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_after(Duration::millis(i), [] {});
    EXPECT_EQ(sim.queue_depth_high_water(), 5u);
    sim.run();
    // Draining does not lower the high-water mark.
    EXPECT_EQ(sim.queue_depth_high_water(), 5u);
    EXPECT_EQ(sim.scheduled(), 5u);
}

TEST(Simulator, CountsProcessedEventsPerCategory) {
    Simulator sim;
    sim.schedule_after(Duration::millis(1), [] {}, "io");
    sim.schedule_after(Duration::millis(2), [] {}, "io");
    sim.schedule_after(Duration::millis(3), [] {}, "app");
    sim.schedule_after(Duration::millis(4), [] {});  // untagged
    sim.run();
    const auto& counts = sim.category_counts();
    ASSERT_EQ(counts.size(), 2u);
    EXPECT_STREQ(counts[0].first, "io");
    EXPECT_EQ(counts[0].second, 2u);
    EXPECT_STREQ(counts[1].first, "app");
    EXPECT_EQ(counts[1].second, 1u);
}

TEST(Simulator, PublishMetricsExportsCountersAndHighWater) {
    Simulator sim;
    sim.schedule_after(Duration::millis(1), [] {}, "io");
    sim.schedule_after(Duration::millis(2), [] {});
    sim.run();

    telemetry::MetricsRegistry registry;
    sim.publish_metrics(registry);
    EXPECT_EQ(registry.counter("netsim.sim.events_scheduled").value(), 2u);
    EXPECT_EQ(registry.counter("netsim.sim.events_processed").value(), 2u);
    EXPECT_EQ(registry.counter("netsim.sim.events.io").value(), 1u);
    EXPECT_DOUBLE_EQ(registry.gauge("netsim.sim.queue_depth_hwm").value(), 2.0);

    // Additive publish: a second simulator merges counters, max-merges hwm.
    Simulator other;
    for (int i = 0; i < 4; ++i) other.schedule_after(Duration::millis(i), [] {});
    other.run();
    other.publish_metrics(registry);
    EXPECT_EQ(registry.counter("netsim.sim.events_processed").value(), 6u);
    EXPECT_DOUBLE_EQ(registry.gauge("netsim.sim.queue_depth_hwm").value(), 4.0);
}

TEST(Timer, TimerEventsAreCategorized) {
    Simulator sim;
    Timer timer{sim};
    timer.set_after(Duration::millis(1), [] {});
    sim.run();
    const auto& counts = sim.category_counts();
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_STREQ(counts[0].first, "timer");
    EXPECT_EQ(counts[0].second, 1u);
}

TEST(Timer, RearmFromInsideCallback) {
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    std::function<void()> cb = [&] {
        if (++fires < 3) timer.set_after(Duration::millis(1), cb);
    };
    timer.set_after(Duration::millis(1), cb);
    sim.run();
    EXPECT_EQ(fires, 3);
}

TEST(Timer, RearmDoesNotAllocateOnceQueueHasGrown) {
    // Every arm queues one event whose closure captures only the timer's
    // shared state and a generation; the callback stays in the state. So
    // once the queue's storage has grown, re-arming never touches the heap.
    ASSERT_TRUE(telemetry::alloc::active());
    Simulator sim;
    Timer timer{sim};
    int fires = 0;
    const auto rearm_1000 = [&] {
        for (int i = 0; i < 1000; ++i) {
            timer.set_after(Duration::millis(1 + i), [&fires] { ++fires; });
        }
    };
    rearm_1000();  // grows the queue to 1 000 entries (the stale ones stay queued)
    sim.run();
    EXPECT_EQ(fires, 1);

    const telemetry::AllocSnapshot before;
    rearm_1000();
    EXPECT_EQ(before.count_since(), 0u);
    EXPECT_EQ(sim.pending(), 1000u);  // still one queue entry per arm
    sim.run();
    EXPECT_EQ(fires, 2);
}

TEST(Timer, CancelReleasesCallback) {
    // The armed callback lives in the timer's state: cancelling destroys it
    // at once, without waiting for the stale queue entry to pop.
    Simulator sim;
    Timer timer{sim};
    auto token = std::make_shared<int>(0);
    timer.set_after(Duration::millis(1), [token] {});
    EXPECT_EQ(token.use_count(), 2);
    timer.cancel();
    EXPECT_EQ(token.use_count(), 1);
    timer.set_after(Duration::millis(1), [token] {});
    sim.run();
    EXPECT_EQ(token.use_count(), 1);  // a fired callback is destroyed too
}

TEST(Simulator, DestructionReleasesPendingCallbacks) {
    // Pending callbacks die with the simulator: captured state drops and
    // pooled datagrams return to their pool, from the in-order tail and the
    // heap alike. The same holds when the queue storage is borrowed, and
    // the next borrower finds it empty.
    bytes::BufferPool pool;
    QueueStorage storage;
    for (QueueStorage* lender : {static_cast<QueueStorage*>(nullptr), &storage, &storage}) {
        auto token = std::make_shared<int>(0);
        {
            Simulator sim{lender};
            EXPECT_EQ(sim.pending(), 0u);
            EXPECT_EQ(sim.scheduled(), 0u);
            // Later and later: these queue in firing order (the tail).
            for (int i = 0; i < 50; ++i) sim.schedule_after(Duration::seconds(10 + i), [token] {});
            // Earlier and earlier: these go on the heap.
            for (int i = 0; i < 50; ++i) {
                Datagram datagram = pool.acquire(64);
                datagram.resize(64);
                sim.schedule_after(Duration::millis(50 - i), [dg = std::move(datagram)] {});
            }
            sim.run_steps(10);  // the ten earliest datagrams are delivered
            EXPECT_EQ(sim.pending(), 90u);
            EXPECT_EQ(token.use_count(), 51);
            EXPECT_EQ(pool.stats().outstanding, 40u);
        }
        EXPECT_EQ(token.use_count(), 1);
        EXPECT_EQ(pool.stats().outstanding, 0u);
    }
}

TEST(Simulator, LentStorageServesOneSimulatorAtATime) {
    // A simulator constructed while the storage is lent out grows its own
    // queue; both run correctly, and the storage is lendable again after.
    QueueStorage storage;
    std::vector<int> order;
    {
        Simulator outer{&storage};
        Simulator inner{&storage};
        for (int i = 0; i < 3; ++i) {
            outer.schedule_after(Duration::millis(3 - i), [&order, i] { order.push_back(i); });
            inner.schedule_after(Duration::millis(3 - i), [&order, i] { order.push_back(10 + i); });
        }
        outer.run();
        inner.run();
    }
    Simulator again{&storage};
    again.schedule_after(Duration::millis(1), [&order] { order.push_back(99); });
    again.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 0, 12, 11, 10, 99}));
}

// Property sweep: the queue against a reference ordered by (at, seq).

/// An event to schedule: absolute (schedule_at, possibly in the past) or
/// relative (schedule_after, possibly negative), with an optional category.
struct Spawn {
    bool absolute = false;
    std::int64_t value_ns = 0;
    const char* category = nullptr;
};

Spawn random_spawn(util::Rng& rng, std::int64_t now_ns) {
    static constexpr const char* kCategories[] = {nullptr, "a", "b"};
    Spawn spawn;
    spawn.absolute = rng.coin();
    // A coarse grid of instants makes same-instant ties common.
    spawn.value_ns = spawn.absolute ? now_ns + rng.uniform_i64(-8, 30) : rng.uniform_i64(-4, 24);
    spawn.category = kCategories[rng.uniform_u64(3)];
    return spawn;
}

/// What event `id` schedules when it fires: a pure function of the case
/// seed, the id and the ids handed out so far, so both queues spawn the
/// same events as long as they fire in the same order.
std::vector<Spawn> children_of(std::uint64_t seed, int id, int next_id, std::int64_t now_ns) {
    std::vector<Spawn> out;
    if (next_id >= 160) return out;  // bounds each case
    util::Rng rng{seed * 1'000'003ULL + static_cast<std::uint64_t>(id)};
    const std::uint64_t count = rng.uniform_u64(3) == 0 ? 1 + rng.uniform_u64(3) : 0;
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(random_spawn(rng, now_ns));
    return out;
}

/// The real queue, driven through the public API.
struct SimSide {
    SimSide(std::uint64_t case_seed, QueueStorage* storage) : seed{case_seed}, sim{storage} {}

    void schedule(const Spawn& spawn, int id) {
        auto fire = [this, id] { on_fire(id); };
        if (spawn.absolute) {
            sim.schedule_at(TimePoint::from_nanos(spawn.value_ns), fire, spawn.category);
        } else {
            sim.schedule_after(Duration::nanos(spawn.value_ns), fire, spawn.category);
        }
    }
    void on_fire(int id) {
        fired.push_back(id);
        for (const Spawn& child : children_of(seed, id, next_id, sim.now().count_nanos())) {
            schedule(child, next_id++);
        }
    }

    std::uint64_t seed;
    Simulator sim;
    std::vector<int> fired;
    int next_id = 0;
};

/// The reference: a flat list popped by linear search for the least
/// (at, seq), with the simulator's clamping and clock rules spelled out.
struct ReferenceSide {
    struct Event {
        std::int64_t at;
        std::uint64_t seq;
        int id;
        const char* category;
    };

    void schedule(const Spawn& spawn, int id) {
        const std::int64_t at = spawn.absolute ? std::max(spawn.value_ns, now)
                                               : now + std::max<std::int64_t>(spawn.value_ns, 0);
        events.push_back({at, seq++, id, spawn.category});
        hwm = std::max(hwm, events.size());
    }
    void fire_next() {
        const auto next = std::min_element(events.begin(), events.end(), [](const Event& a,
                                                                             const Event& b) {
            return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
        const Event event = *next;
        events.erase(next);
        now = event.at;
        ++processed;
        if (event.category != nullptr) {
            const auto counted =
                std::find_if(categories.begin(), categories.end(),
                             [&](const auto& c) { return c.first == event.category; });
            if (counted == categories.end()) {
                categories.emplace_back(event.category, 1);
            } else {
                ++counted->second;
            }
        }
        fired.push_back(event.id);
        for (const Spawn& child : children_of(seed, event.id, next_id, now)) {
            schedule(child, next_id++);
        }
    }
    [[nodiscard]] bool due(std::int64_t deadline) const {
        return std::any_of(events.begin(), events.end(),
                           [deadline](const Event& e) { return e.at <= deadline; });
    }

    std::uint64_t seed = 0;
    std::vector<Event> events;
    std::int64_t now = 0;
    std::uint64_t seq = 0;
    std::uint64_t processed = 0;
    std::size_t hwm = 0;
    std::vector<std::pair<const char*, std::uint64_t>> categories;
    std::vector<int> fired;
    int next_id = 0;
};

TEST(Simulator, PropertySweepMatchesReferenceOrder) {
    constexpr int kCases = 10'000;
    QueueStorage storage;  // odd cases borrow it, so its reuse is swept too
    std::uint64_t total_events = 0;
    for (int c = 0; c < kCases; ++c) {
        const auto seed = static_cast<std::uint64_t>(c) + 1;
        SimSide sim{seed, c % 2 == 1 ? &storage : nullptr};
        ReferenceSide ref;
        ref.seed = seed;
        util::Rng script{~seed};
        const auto check = [&](const char* after) {
            ASSERT_EQ(sim.fired, ref.fired) << "case " << c << " after " << after;
            ASSERT_EQ(sim.sim.now().count_nanos(), ref.now) << "case " << c << " after " << after;
            ASSERT_EQ(sim.sim.pending(), ref.events.size()) << "case " << c;
            ASSERT_EQ(sim.sim.processed(), ref.processed) << "case " << c;
            ASSERT_EQ(sim.sim.scheduled(), ref.seq) << "case " << c;
            ASSERT_EQ(sim.sim.queue_depth_high_water(), ref.hwm) << "case " << c;
        };
        const int ops = 5 + static_cast<int>(script.uniform_u64(40));
        for (int op = 0; op < ops; ++op) {
            const std::uint64_t kind = script.uniform_u64(10);
            if (kind < 5) {
                const Spawn spawn = random_spawn(script, ref.now);
                sim.schedule(spawn, sim.next_id++);
                ref.schedule(spawn, ref.next_id++);
                check("schedule");
                if (HasFatalFailure()) return;
            } else if (kind < 8) {
                // Deadlines before, at and after the clock.
                const std::int64_t deadline = ref.now + script.uniform_i64(-3, 20);
                const bool drained = sim.sim.run_until(TimePoint::from_nanos(deadline));
                while (ref.due(deadline)) ref.fire_next();
                ref.now = std::max(ref.now, deadline);
                ASSERT_EQ(drained, ref.events.empty()) << "case " << c;
                check("run_until");
                if (HasFatalFailure()) return;
            } else if (kind < 9) {
                const auto steps = static_cast<std::size_t>(script.uniform_u64(6));
                sim.sim.run_steps(steps);
                for (std::size_t i = 0; i < steps && !ref.events.empty(); ++i) ref.fire_next();
                check("run_steps");
                if (HasFatalFailure()) return;
            } else {
                sim.sim.run();
                while (!ref.events.empty()) ref.fire_next();
                check("run");
                if (HasFatalFailure()) return;
            }
        }
        sim.sim.run();
        while (!ref.events.empty()) ref.fire_next();
        check("final run");
        if (HasFatalFailure()) return;
        ASSERT_EQ(sim.sim.category_counts(), ref.categories) << "case " << c;
        total_events += ref.processed;
    }
    // The sweep is not vacuous: callbacks spawned well beyond the script.
    EXPECT_GT(total_events, std::uint64_t{kCases} * 20);
}

// ---------------------------------------------------------------------------

Datagram make_datagram(std::size_t size, std::uint8_t fill = 0xab) {
    return Datagram(size, fill);
}

TEST(Link, DeliversWithBaseDelay) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(12);
    Link link{sim, config, util::Rng{1}};
    TimePoint delivered_at = TimePoint::never();
    link.set_receiver([&](bytes::ConstByteSpan dg) {
        delivered_at = sim.now();
        EXPECT_EQ(dg.size(), 100u);
    });
    link.send(make_datagram(100));
    sim.run();
    EXPECT_EQ(delivered_at, TimePoint::origin() + Duration::millis(12));
    EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(Link, LossDropsDatagrams) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.loss_probability = 0.5;
    Link link{sim, config, util::Rng{2}};
    int received = 0;
    link.set_receiver([&](bytes::ConstByteSpan) { ++received; });
    constexpr int kSent = 4000;
    for (int i = 0; i < kSent; ++i) link.send(make_datagram(10));
    sim.run();
    EXPECT_EQ(link.stats().sent, static_cast<std::uint64_t>(kSent));
    EXPECT_EQ(link.stats().delivered + link.stats().dropped,
              static_cast<std::uint64_t>(kSent));
    EXPECT_NEAR(static_cast<double>(received) / kSent, 0.5, 0.03);
}

TEST(Link, FifoEnforcedUnderJitter) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(5);
    config.jitter_scale = Duration::millis(4);
    config.jitter_sigma = 1.0;
    Link link{sim, config, util::Rng{3}};
    std::vector<std::uint8_t> order;
    link.set_receiver([&](bytes::ConstByteSpan dg) { order.push_back(dg[0]); });
    for (std::uint8_t i = 0; i < 200; ++i) link.send(Datagram(4, i));
    sim.run();
    ASSERT_EQ(order.size(), 200u);
    for (std::uint8_t i = 0; i < 200; ++i) EXPECT_EQ(order[i], i);
}

TEST(Link, ReorderEventsCanOvertake) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(5);
    config.reorder_probability = 0.3;
    config.reorder_extra_min = Duration::millis(2);
    config.reorder_extra_max = Duration::millis(10);
    Link link{sim, config, util::Rng{4}};
    std::vector<std::uint8_t> order;
    link.set_receiver([&](bytes::ConstByteSpan dg) { order.push_back(dg[0]); });
    for (std::uint8_t i = 0; i < 100; ++i) {
        link.send(Datagram(4, i));
        // Space sends so an extra delay can actually cause overtaking.
        sim.run_until(sim.now() + Duration::millis(1));
    }
    sim.run();
    ASSERT_EQ(order.size(), 100u);
    bool out_of_order = false;
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i] < order[i - 1]) out_of_order = true;
    }
    EXPECT_TRUE(out_of_order);
    EXPECT_GT(link.stats().reordered, 0u);
}

TEST(Link, TapsSeeDeliveredDatagramsOnly) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.loss_probability = 0.5;
    Link link{sim, config, util::Rng{5}};
    int tapped = 0;
    int received = 0;
    link.add_tap([&](TimePoint, bytes::ConstByteSpan) { ++tapped; });
    link.set_receiver([&](bytes::ConstByteSpan) { ++received; });
    for (int i = 0; i < 1000; ++i) link.send(make_datagram(8));
    sim.run();
    EXPECT_EQ(tapped, received);
    EXPECT_LT(tapped, 1000);
}

TEST(Link, CountsDeliveredAndDroppedBytes) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.loss_probability = 0.5;
    Link link{sim, config, util::Rng{42}};
    link.set_receiver([](bytes::ConstByteSpan) {});
    for (int i = 0; i < 200; ++i) link.send(make_datagram(100));
    sim.run();
    const auto& stats = link.stats();
    EXPECT_EQ(stats.delivered_bytes, stats.delivered * 100);
    EXPECT_EQ(stats.dropped_bytes, stats.dropped * 100);
    EXPECT_EQ(stats.delivered_bytes + stats.dropped_bytes, 200u * 100u);

    telemetry::MetricsRegistry registry;
    link.publish_metrics(registry, "netsim.link");
    EXPECT_EQ(registry.counter("netsim.link.sent").value(), 200u);
    EXPECT_EQ(registry.counter("netsim.link.delivered").value(), stats.delivered);
    EXPECT_EQ(registry.counter("netsim.link.delivered_bytes").value(), stats.delivered_bytes);
    EXPECT_EQ(registry.counter("netsim.link.dropped_bytes").value(), stats.dropped_bytes);
}

TEST(Link, BandwidthSerializesBackToBack) {
    Simulator sim;
    LinkConfig config;
    config.base_delay = Duration::millis(1);
    config.bandwidth_bps = 8'000'000;  // 1 byte / us
    Link link{sim, config, util::Rng{6}};
    std::vector<TimePoint> arrivals;
    link.set_receiver([&](bytes::ConstByteSpan) { arrivals.push_back(sim.now()); });
    link.send(make_datagram(1000));  // 1 ms serialization
    link.send(make_datagram(1000));
    sim.run();
    ASSERT_EQ(arrivals.size(), 2u);
    // Second datagram leaves a full serialization slot later.
    EXPECT_EQ((arrivals[1] - arrivals[0]).count_micros(), 1000);
}

TEST(Link, NoReceiverIsSafe) {
    Simulator sim;
    Link link{sim, LinkConfig{}, util::Rng{7}};
    link.send(make_datagram(10));
    sim.run();
    EXPECT_EQ(link.stats().delivered, 1u);
}

TEST(Path, BaseRttIsSumOfDirections) {
    Simulator sim;
    util::Rng rng{8};
    LinkConfig forward;
    forward.base_delay = Duration::millis(7);
    LinkConfig back;
    back.base_delay = Duration::millis(9);
    Path path{sim, forward, back, rng};
    EXPECT_EQ(path.base_rtt(), Duration::millis(16));
}

}  // namespace
}  // namespace spinscope::netsim
