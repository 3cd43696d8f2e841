#include "scanner/shard.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace spinscope::scanner {

unsigned ShardConfig::resolved_threads() const noexcept {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::size_t ShardConfig::resolved_merge_window() const noexcept {
    if (merge_window != 0) return merge_window;
    return std::max<std::size_t>(std::size_t{4} * resolved_threads(), 32);
}

std::string describe_chunk(const ShardPlan& plan, std::size_t chunk) {
    return "chunk " + std::to_string(chunk) + " (domains [" +
           std::to_string(plan.chunk_begin(chunk)) + ", " +
           std::to_string(plan.chunk_end(chunk)) + "))";
}

std::size_t ShardConfig::ring_slots(std::size_t chunks) const noexcept {
    return std::max<std::size_t>(std::min(resolved_merge_window(), chunks), 1);
}

// The executor bounds the scanned-but-unreleased backlog with a ring of W
// slots: chunk c holds slot c % W from the moment its worker is admitted
// until its release. The cursor hands out chunks in ascending order and a
// worker waits until its slot is free and due for its chunk, that is until
// the previous holder (chunk c - W) has been released, which implies that
// chunk was merged, so at most W chunks are ever live past the merge
// frontier. No wait can deadlock: every waiting worker drains its own
// release queue while it waits, so a merged chunk is always released
// eventually, and the chunk the merge thread waits for was claimed before
// any chunk that is still blocked.
//
// Memory is thread-affine: the merge thread never frees a chunk result. It
// queues the merged chunk for the worker that scanned it, and that worker
// runs release(c). Each worker's queue is reserved once at W entries (it
// can never hold more than the W slots), so no queue grows on the chunk
// path and allocation counts do not depend on scheduling.

SupervisionReport run_supervised(
    const ShardConfig& config, const ShardPlan& plan, const SupervisorConfig& supervisor,
    const std::function<void(std::size_t chunk, std::size_t worker)>& scan,
    const std::function<void(std::size_t chunk)>& merge,
    const std::function<void(const ChunkFailure&)>& quarantine,
    const std::function<void(std::size_t chunk, std::size_t worker)>& release) {
    config.validate();
    supervisor.restart.validate();
    SupervisionReport report;
    const std::size_t chunks = plan.chunk_count();
    if (chunks == 0) return report;

    // More workers than chunks would only park threads on an empty cursor.
    const std::size_t workers =
        std::min<std::size_t>(config.resolved_threads(), chunks);
    const std::size_t window = config.ring_slots(chunks);

    enum class SlotState : char { free, scanning, scanned, quarantined, merged };
    struct Slot {
        SlotState state = SlotState::free;
        std::size_t chunk = 0;   // holder; while free, the next chunk due here
        std::size_t worker = 0;  // the holder's worker
        ChunkFailure failure;    // published with state == quarantined
    };

    std::mutex mu;
    std::condition_variable chunk_ready;    // merge thread: a slot was published
    std::condition_variable worker_wakeup;  // workers: slot freed, release queued
    // Guarded by mu: the ring, each worker's merged chunks awaiting release
    // and the number of slots each worker holds.
    std::vector<Slot> ring(window);
    for (std::size_t i = 0; i < window; ++i) ring[i].chunk = i;
    std::vector<std::vector<std::size_t>> to_release(workers);
    for (auto& queue : to_release) queue.reserve(window);
    std::vector<std::size_t> held(workers, 0);
    std::exception_ptr failure;  // guarded by mu; set by the merge thread only
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> cancelled{false};
    std::atomic<std::uint64_t> restarts{0};

    // Runs with `lock` held; drops it around each release call, so both
    // exits re-check under the lock they return with (a failure or a queued
    // chunk that arrived during a release is never missed). After a failure
    // the merge thread touches no slot again, so the worker then releases
    // every chunk it still holds, merged or not.
    const auto drain = [&](std::unique_lock<std::mutex>& lock, std::size_t worker) {
        auto& queue = to_release[worker];
        bool freed = false;
        for (;;) {
            if (failure != nullptr) {
                queue.clear();
                for (Slot& slot : ring) {
                    if (slot.state != SlotState::free && slot.worker == worker) {
                        slot.state = SlotState::merged;
                        queue.push_back(slot.chunk);
                    }
                }
            }
            if (queue.empty()) break;
            const std::size_t chunk = queue.back();
            queue.pop_back();
            lock.unlock();
            if (release) {
                [&]() noexcept { release(chunk, worker); }();
            }
            lock.lock();
            Slot& slot = ring[chunk % window];
            slot.state = SlotState::free;
            slot.chunk = chunk + window;
            --held[worker];
            freed = true;
        }
        if (freed) worker_wakeup.notify_all();
    };

    const auto worker_main = [&](std::size_t worker) {
        std::unique_lock<std::mutex> lock{mu, std::defer_lock};
        while (!cancelled.load(std::memory_order_relaxed)) {
            const std::size_t chunk = cursor.fetch_add(1, std::memory_order_relaxed);
            if (chunk >= chunks) break;
            Slot& slot = ring[chunk % window];
            lock.lock();
            for (;;) {
                drain(lock, worker);
                if (failure != nullptr ||
                    (slot.state == SlotState::free && slot.chunk == chunk)) {
                    break;
                }
                worker_wakeup.wait(lock);
            }
            if (failure != nullptr) break;
            slot.state = SlotState::scanning;
            slot.worker = worker;
            ++held[worker];
            lock.unlock();

            auto restart_rng = faults::RetryPolicy::restart_stream(supervisor.seed, chunk);
            ChunkFailure fail;
            fail.chunk = chunk;
            bool scanned = false;
            for (;;) {
                ++fail.attempts;
                try {
                    scan(chunk, worker);
                    scanned = true;
                    break;
                } catch (const std::exception& e) {
                    fail.error = e.what();
                } catch (...) {
                    fail.error = "unknown exception";
                }
                if (fail.attempts >= supervisor.restart.max_attempts ||
                    cancelled.load(std::memory_order_relaxed)) {
                    break;
                }
                // Restart with backoff: a crash is often environmental
                // (resource exhaustion, injected fault), so back off before
                // re-executing instead of hammering the same chunk.
                restarts.fetch_add(1, std::memory_order_relaxed);
                const auto delay =
                    supervisor.restart.backoff_delay(fail.attempts, restart_rng);
                if (supervisor.sleep_on_restart && delay > util::Duration::zero()) {
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds{delay.count_nanos()});
                }
            }
            lock.lock();
            if (scanned) {
                slot.state = SlotState::scanned;
            } else {
                slot.failure = std::move(fail);
                slot.state = SlotState::quarantined;
            }
            lock.unlock();
            chunk_ready.notify_one();
        }
        // No more chunks to claim: stay until every chunk this worker
        // scanned has been released here.
        if (!lock.owns_lock()) lock.lock();
        for (;;) {
            drain(lock, worker);
            if (held[worker] == 0) return;
            worker_wakeup.wait(lock);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_main, w);

    // Ordered streaming merge on the calling thread: wait for the next chunk
    // in sequence, merge it, hand it back to its worker, repeat. Scans of
    // later chunks overlap with the merge of earlier ones.
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
        Slot& slot = ring[chunk % window];
        SlotState state;
        ChunkFailure fail;
        {
            std::unique_lock<std::mutex> lock{mu};
            chunk_ready.wait(lock, [&] {
                return slot.state == SlotState::scanned ||
                       slot.state == SlotState::quarantined;
            });
            state = slot.state;
            if (state == SlotState::quarantined) fail = std::move(slot.failure);
        }
        try {
            if (state == SlotState::scanned) {
                merge(chunk);
            } else {
                ++report.quarantined;
                quarantine(fail);
            }
        } catch (...) {
            cancelled.store(true, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lock{mu};
                failure = std::current_exception();
            }
            worker_wakeup.notify_all();
            break;
        }
        {
            std::lock_guard<std::mutex> lock{mu};
            slot.state = SlotState::merged;
            to_release[slot.worker].push_back(chunk);
        }
        worker_wakeup.notify_all();
    }

    for (auto& worker : pool) worker.join();
    report.restarts = restarts.load(std::memory_order_relaxed);
    if (failure != nullptr) std::rethrow_exception(failure);
    return report;
}

}  // namespace spinscope::scanner
