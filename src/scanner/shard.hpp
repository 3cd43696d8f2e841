// spinscope/scanner/shard.hpp
//
// Deterministic parallel sharding for the campaign driver.
//
// The paper sweeps >200 M domains weekly; a sequential scanner is the repro's
// bottleneck. The engine here partitions an index range [0, item_count) into
// fixed-size chunks, lets a pool of std::thread workers claim chunks from an
// atomic cursor, and hands every finished chunk to the CALLING thread in
// ascending chunk order (streaming: chunk c is merged as soon as it and all
// chunks before it are done, while later chunks are still being scanned).
//
// Determinism contract (DESIGN.md §9): chunk boundaries depend only on
// (item_count, chunk_items) — never on the number of workers or on
// scheduling — and the merge order is always ascending. Provided the
// per-chunk work is a pure function of the chunk (spinscope campaigns
// guarantee this via domain-keyed RNG sub-streams), the merged output is
// byte-identical for every thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "faults/retry_policy.hpp"

namespace spinscope::scanner {

/// Worker-pool knobs of one sharded run.
struct ShardConfig {
    /// Worker threads; 0 = one per hardware thread (at least one).
    unsigned threads = 1;
    /// Items (domains) per work chunk. Smaller chunks balance load better;
    /// larger chunks amortize queue and merge overhead. Part of the output
    /// schema for histogram `sum` fields (see telemetry::deterministic_csv),
    /// so the default is fixed rather than derived from the machine.
    std::size_t chunk_items = 16;
    /// Maximum number of chunks admitted past the merge frontier at once
    /// (0 = auto: max(4 * threads, 32)). A worker that claims chunk c blocks
    /// until chunk c - merge_window has been merged and released, so the
    /// peak number of scanned-but-unreleased chunk results — and thus the
    /// driver's RSS — is bounded by the window instead of the chunk count.
    /// Purely a scheduling constraint: output bytes are unaffected.
    std::size_t merge_window = 0;

    /// Throws std::invalid_argument when chunk_items is 0.
    void validate() const {
        if (chunk_items == 0) {
            throw std::invalid_argument("scanner: ShardConfig.chunk_items must be >= 1");
        }
    }

    /// `threads` with 0 resolved to the hardware concurrency (>= 1).
    [[nodiscard]] unsigned resolved_threads() const noexcept;

    /// `merge_window` with 0 resolved to max(4 * resolved_threads(), 32).
    [[nodiscard]] std::size_t resolved_merge_window() const noexcept;

    /// Result-ring size W of a run over `chunks` chunks:
    /// min(resolved_merge_window(), chunks), at least 1. run_supervised
    /// keeps chunk c in slot c % W from its scan to its release.
    [[nodiscard]] std::size_t ring_slots(std::size_t chunks) const noexcept;
};

/// Pure chunk geometry: how [0, item_count) splits into fixed-size chunks.
struct ShardPlan {
    std::size_t item_count = 0;
    std::size_t chunk_items = 1;

    [[nodiscard]] std::size_t chunk_count() const noexcept {
        return chunk_items == 0 ? 0 : (item_count + chunk_items - 1) / chunk_items;
    }
    [[nodiscard]] std::size_t chunk_begin(std::size_t chunk) const noexcept {
        return chunk * chunk_items;
    }
    [[nodiscard]] std::size_t chunk_end(std::size_t chunk) const noexcept {
        const std::size_t end = chunk_begin(chunk) + chunk_items;
        return end < item_count ? end : item_count;
    }
};

/// Human-readable chunk locator for diagnostics: "chunk 42 (domains
/// [672, 688))". Error messages that name a chunk should include the domain
/// range so an operator can find the poisoned block without re-deriving the
/// chunk geometry by hand.
[[nodiscard]] std::string describe_chunk(const ShardPlan& plan, std::size_t chunk);

/// Why one chunk ended up quarantined: the last exception message and how
/// many scan executions were attempted before the supervisor gave up.
struct ChunkFailure {
    std::size_t chunk = 0;
    int attempts = 0;
    std::string error;
};

/// Supervision knobs for run_supervised.
struct SupervisorConfig {
    /// Restart schedule for a chunk whose scan threw: `restart.max_attempts`
    /// is the TOTAL number of scan executions per chunk (1 = never restart);
    /// backoff between executions follows the policy, drawn from
    /// faults::RetryPolicy::restart_stream(seed, chunk) so restart jitter
    /// never touches any domain's scan stream.
    faults::RetryPolicy restart;
    /// Keys the restart-jitter sub-streams (normally the campaign seed).
    std::uint64_t seed = 0;
    /// When false, restart backoffs are computed (burning the same RNG
    /// draws) but not slept — tests use this to stay fast.
    bool sleep_on_restart = true;
};

/// What the supervisor observed across the whole run.
struct SupervisionReport {
    /// Scan re-executions performed after a throw (restarts, not failures).
    std::uint64_t restarts = 0;
    /// Chunks that exhausted their restart budget and were quarantined.
    std::uint64_t quarantined = 0;
};

/// Chunked fan-out / ordered-merge executor with worker supervision.
///
/// `scan(c, w)` runs on worker thread `w` (0 <= w < worker count) and must
/// leave chunk c's result somewhere the caller owns: typically ring slot
/// `c % W` of a caller-held vector, W = config.ring_slots(plan.chunk_count()).
/// `merge(c)` runs on the calling thread in ascending chunk order. A chunk
/// whose scan throws is retried in place up to
/// `supervisor.restart.max_attempts` total executions (jittered backoff slept
/// on the worker), so `scan` must fully overwrite the chunk's result when
/// re-executed. A chunk that exhausts the budget is QUARANTINED instead of
/// cancelling the run: `quarantine(f)` replaces `merge` for it, in the same
/// order, and the run completes degraded.
///
/// Once chunk c is merged or quarantined, `release(c, w)` runs on the worker
/// `w` that scanned it, so memory a worker allocated for a chunk is freed by
/// that same worker (DESIGN.md §9). A worker releases when it claims its
/// next chunk and while it waits, and it does not exit before every chunk
/// it scanned is released; every scanned chunk is released exactly once,
/// before run_supervised returns. Slot `c % W` is reused for chunk c + W
/// only after release(c) returned, so a release may clear the slot without
/// locking. `release` must not throw (a throw terminates).
///
/// A throwing `merge` or `quarantine` is fatal: the remaining chunks are
/// abandoned, every scanned chunk is still released, workers are joined and
/// the first exception is rethrown on the calling thread.
SupervisionReport run_supervised(
    const ShardConfig& config, const ShardPlan& plan, const SupervisorConfig& supervisor,
    const std::function<void(std::size_t chunk, std::size_t worker)>& scan,
    const std::function<void(std::size_t chunk)>& merge,
    const std::function<void(const ChunkFailure&)>& quarantine,
    const std::function<void(std::size_t chunk, std::size_t worker)>& release = {});

}  // namespace spinscope::scanner
