// spinscope/util/atomic_file.hpp
//
// Crash-safe file publication: write-to-temp + fsync + rename.
//
// The campaign pipeline persists state a crash must never tear — telemetry
// sidecars, qlog dataset shards, journal batches. POSIX rename() within one
// filesystem is atomic, so a reader (or a resumed campaign) only ever
// observes the old file or the complete new file, never a partial write.
// fsync-before-rename closes the remaining window where the rename survives
// a power cut but the data it points at does not.
//
// Each primitive comes in two forms: an Io-threaded overload returning an
// errno-carrying IoResult (so callers can tell ENOSPC from EEXIST from EIO,
// and tests can inject storage faults), and the historical bool form, which
// runs against the real disk and keeps existing call sites unchanged.

#pragma once

#include <filesystem>
#include <optional>
#include <string_view>

#include "util/io.hpp"

namespace spinscope::util {

/// Writes `content` to `path` atomically: the bytes land in a temp file next
/// to `path` (same directory, so the rename never crosses filesystems), are
/// flushed and fsynced, and the temp file is renamed over `path`. On failure
/// the temp file is removed best-effort and `path` is left untouched (either
/// its previous content or absent); the result carries the first errno hit.
[[nodiscard]] IoResult write_file_atomic(Io& io, const std::filesystem::path& path,
                                         std::string_view content);
[[nodiscard]] bool write_file_atomic(const std::filesystem::path& path,
                                     std::string_view content);

/// The temp file a writer fills before renaming it onto `path`:
/// `<path>.tmp.<pid>.<serial>`. The pid keeps writers of different
/// processes apart, the process-wide serial keeps threads of one process
/// apart. Every failed or interrupted publish of this module removes its
/// temp file best-effort; one killed mid-write leaves it behind.
[[nodiscard]] std::filesystem::path temp_sibling(const std::filesystem::path& path);

/// The writer pid encoded in a temp_sibling() name; nullopt for any other
/// file name.
[[nodiscard]] std::optional<long> temp_sibling_owner(const std::filesystem::path& path);

/// Replaces `path` atomically (temp file + rename) WITHOUT fsync: readers
/// see the old or the new content, never a mix, but a power cut may lose
/// either. For advisory files whose content means nothing after a crash
/// (chunk leases: every owner pid is dead by then).
[[nodiscard]] IoResult replace_file(Io& io, const std::filesystem::path& path,
                                    std::string_view content);

/// Durably renames `from` onto `to`: fsyncs `from`'s data is the caller's
/// job (write_file_atomic does it; an append-mode writer must fsync before
/// sealing); this performs the atomic rename and then fsyncs the containing
/// directory (both directories, when the rename crosses them) so the moved
/// directory entry itself survives a crash — without the source-side sync a
/// power cut can resurrect the old name next to the new one. Fails only when
/// the rename itself fails, leaving `from` in place; a failed directory sync
/// after a successful rename still reports success (the file IS published —
/// reporting failure would make callers delete or rewrite it).
[[nodiscard]] IoResult rename_durable(Io& io, const std::filesystem::path& from,
                                      const std::filesystem::path& to);
[[nodiscard]] bool rename_durable(const std::filesystem::path& from,
                                  const std::filesystem::path& to);

/// Best-effort fsync of a directory by path, persisting its entries (used
/// after creating a journal directory so the directory itself survives a
/// power cut). Fails when the directory cannot be opened or synced.
[[nodiscard]] IoResult fsync_dir(Io& io, const std::filesystem::path& dir);
bool fsync_dir(const std::filesystem::path& dir);

/// Best-effort fsync of an already-written file by path (opens, fsyncs,
/// closes). For files written by a handle that is already closed. Fails when
/// the file cannot be opened or synced.
[[nodiscard]] IoResult fsync_file(Io& io, const std::filesystem::path& path);
bool fsync_file(const std::filesystem::path& path);

/// Atomically creates `path` with `content` iff it does not already exist
/// (O_EXCL). This is the claim primitive behind lock and lease files: of N
/// concurrent creators exactly one succeeds. A lost race reports EEXIST —
/// the one storage "failure" that is business as usual — while real I/O
/// errors carry their own errno; a partially-written file is removed
/// best-effort so a loser never observes a torn winner.
[[nodiscard]] IoResult create_file_exclusive(Io& io, const std::filesystem::path& path,
                                             std::string_view content);
[[nodiscard]] bool create_file_exclusive(const std::filesystem::path& path,
                                         std::string_view content);

}  // namespace spinscope::util
