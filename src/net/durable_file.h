// The one durable-file discipline under every on-disk format in src/net.
//
// PersistentBlockStore and MetaLog define their formats; this module owns
// how their bytes reach and leave the disk.  Each durable step of the two —
// a write, append or truncate, an fsync of a file or directory (charged to
// the owner's counter; skipped, step kept, with fsync off), a rename, an
// unlink — is one call on
// the owner's Syncer.  check_invariants.py rule 4 keeps every rename, fsync,
// unlink and truncate in src/ here, and every rename is a publish(), which
// fsyncs its source first.  Damaged files are moved, never deleted, into
// quarantine, a name collision taking the first free `.N` suffix.
//
// Crash injection (test-only): a Syncer armed with a CrashPlan numbers its
// owner's steps from 1, and at the cut leaves the state a power cut there
// could, built as ALICE builds crash states (Pillai et al., OSDI 2014).
// Every write or truncate no fsync covered is dropped, but a torn write
// keeps its half; every rename, unlink and file creation no directory fsync
// covered is kept or undone, all together, as the plan says.  A step that
// fsync off skips counts as synced.  Unarmed, a step costs one branch.
//
// Errors throw std::system_error (std::filesystem::filesystem_error for a
// rename).

#ifndef CAROUSEL_NET_DURABLE_FILE_H
#define CAROUSEL_NET_DURABLE_FILE_H

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/errors.h"
#include "obs/metrics.h"

namespace carousel::net::durable {

/// Whole-file read; nullopt when the file cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path);

/// Creates or truncates `path` and writes `bytes`, outside any owner's
/// durable steps (carouselctl's archive files).
void write_file(const std::filesystem::path& path,
                std::span<const std::uint8_t> bytes);

struct CrashPlan {
  /// Steps 1..cut_after happen, then every step throws Crash; unset: never.
  std::optional<std::uint32_t> cut_after = std::nullopt;
  /// This step's write lands only its first half (0 = none); before the
  /// cut, a disk that acknowledged unwritten sectors.
  std::uint32_t tear = 0;
  /// This step fails with EIO and changes nothing (0 = none).
  std::uint32_t fail = 0;
  /// Undo, rather than keep, what no directory fsync covered at the cut.
  bool undo_renames = false;
};

/// What a cut throws: the owner died mid-op.
struct Crash : Error {
  using Error::Error;
};

/// One owner's durable steps: its fsync policy, the counter each fsync is
/// charged to (it must outlive the Syncer), and its crash injector.
class Syncer {
 public:
  Syncer(bool enabled, obs::Counter& fsyncs);
  ~Syncer();

  /// Arms the injector for the steps the calling thread takes from now
  /// (other threads' steps pass through until the cut).
  void arm(const CrashPlan& plan);
  void disarm();
  /// The next Syncer this thread constructs starts armed: for the steps an
  /// owner takes in its constructor (MetaLog's replay).
  static void arm_next(const CrashPlan& plan);

  /// Creates or truncates `path` with `bytes`; publish() makes it durable.
  void write(const std::filesystem::path& path,
             std::span<const std::uint8_t> bytes) const;
  /// Appends `bytes` to `path` (created if needed).
  void append(const std::filesystem::path& path,
              std::span<const std::uint8_t> bytes) const;
  void truncate(const std::filesystem::path& path, std::uint64_t size) const;
  /// False when `path` did not exist; any other failure throws.
  bool unlink(const std::filesystem::path& path) const;
  void sync_file(const std::filesystem::path& path) const {
    sync_path(path, /*dir=*/false);
  }
  void sync_dir(const std::filesystem::path& path) const {
    sync_path(path, /*dir=*/true);
  }
  /// sync_file(from), then rename `from` over `to`: two steps.
  void publish(const std::filesystem::path& from,
               const std::filesystem::path& to) const;
  /// Publishes `path` into `quarantine_dir` (created if needed).
  void quarantine(const std::filesystem::path& path,
                  const std::filesystem::path& quarantine_dir) const;
  /// Writes `bytes` as a new file `name` in `quarantine_dir`, then fsyncs
  /// it and the directory — for damaged bytes with no file of their own,
  /// such as a torn journal tail.
  void quarantine_bytes(const std::filesystem::path& quarantine_dir,
                        const std::string& name,
                        std::span<const std::uint8_t> bytes) const;

 private:
  enum class Step : std::uint8_t;
  struct Injector;

  /// Runs `fn(torn)` as one step, through the injector when armed.
  template <typename Fn>
  void run(Step kind, const std::filesystem::path& path,
           const std::filesystem::path& to, Fn&& fn) const;
  void sync_path(const std::filesystem::path& path, bool dir) const;

  bool enabled_;
  obs::Counter* fsyncs_;
  std::unique_ptr<Injector> injector_;
};

}  // namespace carousel::net::durable

#endif  // CAROUSEL_NET_DURABLE_FILE_H
