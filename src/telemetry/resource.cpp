#include "telemetry/resource.hpp"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace spinscope::telemetry {

namespace alloc {

namespace {

// One thread's allocation tally. Only its own thread writes it, with a plain
// load and store rather than a locked read-modify-write, so the allocation
// path shares no cache line with any other thread. count()/bytes() read the
// live tallies under g_threads_mu (atomics only so those reads are not races).
struct ThreadTally {
    enum class State : unsigned char { unregistered, live, retired };

    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> bytes{0};
    ThreadTally* prev = nullptr;  ///< live-tally list; guarded by g_threads_mu
    ThreadTally* next = nullptr;
    State state = State::unregistered;  ///< owning thread only
};

constinit thread_local ThreadTally t_tally;

std::mutex g_threads_mu;
ThreadTally* g_threads = nullptr;  // guarded by g_threads_mu
// Totals folded in by exited threads, plus allocations a thread makes after
// its tally retired (late thread_local destructors).
std::atomic<std::uint64_t> g_retired_count{0};
std::atomic<std::uint64_t> g_retired_bytes{0};
std::atomic<bool> g_active{false};

void add(std::atomic<std::uint64_t>& own, std::uint64_t n) noexcept {
    own.store(own.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

/// Folds the calling thread's tally into the retired totals at thread exit.
struct TallyRetirer {
    ~TallyRetirer() {
        ThreadTally& tally = t_tally;
        std::lock_guard<std::mutex> lock{g_threads_mu};
        g_retired_count.fetch_add(tally.count.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
        g_retired_bytes.fetch_add(tally.bytes.load(std::memory_order_relaxed),
                                  std::memory_order_relaxed);
        if (tally.prev != nullptr) tally.prev->next = tally.next;
        if (tally.next != nullptr) tally.next->prev = tally.prev;
        if (g_threads == &tally) g_threads = tally.next;
        tally.state = ThreadTally::State::retired;
    }
};

/// First allocation of a thread: links its tally and arms the exit hook
/// (neither step calls operator new, so this cannot recurse). False once the
/// thread's tally has retired.
[[gnu::noinline]] bool enlist(ThreadTally& tally) noexcept {
    if (tally.state == ThreadTally::State::retired) return false;
    {
        std::lock_guard<std::mutex> lock{g_threads_mu};
        tally.next = g_threads;
        if (g_threads != nullptr) g_threads->prev = &tally;
        g_threads = &tally;
    }
    tally.state = ThreadTally::State::live;
    static thread_local TallyRetirer retirer;
    return true;
}

/// Retired totals plus every live tally's `field`.
std::uint64_t total(std::atomic<std::uint64_t> ThreadTally::*field,
                    const std::atomic<std::uint64_t>& retired) noexcept {
    std::lock_guard<std::mutex> lock{g_threads_mu};
    std::uint64_t sum = retired.load(std::memory_order_relaxed);
    for (const ThreadTally* t = g_threads; t != nullptr; t = t->next) {
        sum += (t->*field).load(std::memory_order_relaxed);
    }
    return sum;
}

}  // namespace

void record(std::size_t bytes) noexcept {
    ThreadTally& tally = t_tally;
    if (tally.state != ThreadTally::State::live && !enlist(tally)) [[unlikely]] {
        g_retired_count.fetch_add(1, std::memory_order_relaxed);
        g_retired_bytes.fetch_add(bytes, std::memory_order_relaxed);
        return;
    }
    add(tally.count, 1);
    add(tally.bytes, bytes);
}

void mark_active() noexcept { g_active.store(true, std::memory_order_relaxed); }

bool active() noexcept { return g_active.load(std::memory_order_relaxed); }

std::uint64_t count() noexcept { return total(&ThreadTally::count, g_retired_count); }

std::uint64_t bytes() noexcept { return total(&ThreadTally::bytes, g_retired_bytes); }

}  // namespace alloc

AllocSnapshot::AllocSnapshot() : count{alloc::count()}, bytes{alloc::bytes()} {}

std::uint64_t AllocSnapshot::count_since() const noexcept {
    return alloc::count() - count;
}

std::uint64_t AllocSnapshot::bytes_since() const noexcept {
    return alloc::bytes() - bytes;
}

namespace {

/// Reads one "<key>:  <n> kB" line from /proc/self/status; 0 when the file
/// or key is unavailable (non-Linux hosts).
std::uint64_t proc_status_kb(const char* key) {
    std::FILE* f = std::fopen("/proc/self/status", "re");
    if (f == nullptr) return 0;
    char line[256];
    const std::size_t key_len = std::strlen(key);
    std::uint64_t kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') continue;
        unsigned long long value = 0;
        if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) kb = value;
        break;
    }
    std::fclose(f);
    return kb;
}

}  // namespace

std::uint64_t peak_rss_bytes() {
    if (const std::uint64_t kb = proc_status_kb("VmHWM"); kb > 0) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss);  // bytes on macOS
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kB on Linux
#endif
    }
#endif
    return 0;
}

std::uint64_t current_rss_bytes() { return proc_status_kb("VmRSS") * 1024; }

ResourceProbe::ResourceProbe(std::string phase)
    : phase_{std::move(phase)}, wall_start_{std::chrono::steady_clock::now()} {}

ResourceProbe::Report ResourceProbe::sample() const {
    Report report;
    report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start_)
            .count();
    report.alloc_active = alloc::active();
    if (report.alloc_active) {
        report.allocs = start_.count_since();
        report.alloc_bytes = start_.bytes_since();
    }
    report.peak_rss = peak_rss_bytes();
    return report;
}

void ResourceProbe::publish(MetricsRegistry& registry) const {
    const Report report = sample();
    const std::string prefix = "obs.resource." + phase_ + ".";
    registry.gauge(prefix + "wall_seconds").set(report.wall_seconds);
    registry.gauge(prefix + "peak_rss_bytes").set_max(static_cast<double>(report.peak_rss));
    if (report.alloc_active) {
        registry.gauge(prefix + "allocs").set(static_cast<double>(report.allocs));
        registry.gauge(prefix + "alloc_bytes")
            .set(static_cast<double>(report.alloc_bytes));
    }
}

}  // namespace spinscope::telemetry
