// The one durable-file discipline under every on-disk format in src/net.
//
// PersistentBlockStore (block payloads and commit records) and MetaLog
// (journal, snapshot) define their formats; this module owns how their
// bytes reach and leave the disk:
//
//   - whole-file read and write, and the write loop on an open fd;
//   - fsync of a file, an open fd or a directory, counted into the owner's
//     fsync counter and skipped when the owner runs with fsync off (the
//     call stays, so the write path keeps its shape);
//   - publish: fsync the source, then rename it over its final name — the
//     only rename in src/ (check_invariants.py rule 4), so a published
//     name can never point at bytes that never reached stable storage;
//   - quarantine: damaged files are moved, never deleted, into a
//     quarantine directory, a name collision taking the first free `.N`
//     suffix so earlier evidence is never overwritten.
//
// Errors throw std::system_error (std::filesystem::filesystem_error for a
// rename).  An owner that tolerates a failed sync on a path where the data
// is already safe passes OnSyncFailure::kIgnore for that one call.

#ifndef CAROUSEL_NET_DURABLE_FILE_H
#define CAROUSEL_NET_DURABLE_FILE_H

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace carousel::net::durable {

/// Whole-file read; nullopt when the file cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path);

/// Creates or truncates `path` and writes `bytes` (no fsync: callers that
/// need the bytes durable publish() the file).
void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes);

/// Writes all of `bytes` to the open `fd`, retrying short writes; `path`
/// names the file in the error.
void write_all(int fd, std::span<const std::uint8_t> bytes,
               const std::filesystem::path& path);

/// Writes `bytes` as a new file `name` in `quarantine_dir` (created if
/// needed), under the first free `name`, `name.1`, `name.2`, ... — for
/// damaged bytes that have no file of their own, such as a torn journal
/// tail.
void quarantine_bytes(const std::filesystem::path& quarantine_dir,
                      const std::string& name,
                      std::span<const std::uint8_t> bytes);

enum class OnSyncFailure : std::uint8_t { kThrow, kIgnore };

/// One owner's fsync policy: whether to fsync at all, and the counter each
/// fsync is charged to.  Copyable; the counter must outlive every copy.
class Syncer {
 public:
  Syncer(bool enabled, obs::Counter& fsyncs)
      : enabled_(enabled), fsyncs_(&fsyncs) {}

  void sync_file(const std::filesystem::path& path,
                 OnSyncFailure on_failure = OnSyncFailure::kThrow) const;
  void sync_dir(const std::filesystem::path& path,
                OnSyncFailure on_failure = OnSyncFailure::kThrow) const;
  /// fsync of an already open file; always throws on failure.
  void sync_fd(int fd, const std::filesystem::path& path) const;

  /// sync_file(from), then rename `from` over `to`.
  void publish(const std::filesystem::path& from,
               const std::filesystem::path& to,
               OnSyncFailure on_failure = OnSyncFailure::kThrow) const;

  /// Publishes `path` into `quarantine_dir` (created if needed) under its
  /// own file name, or the first free `.N` suffix of it.
  void quarantine(const std::filesystem::path& path,
                  const std::filesystem::path& quarantine_dir,
                  OnSyncFailure on_failure = OnSyncFailure::kThrow) const;

 private:
  void sync_path(const std::filesystem::path& path, bool dir,
                 OnSyncFailure on_failure) const;

  bool enabled_;
  obs::Counter* fsyncs_;
};

}  // namespace carousel::net::durable

#endif  // CAROUSEL_NET_DURABLE_FILE_H
