// Crash-consistent on-disk backend for the block server.
//
// A PersistentBlockStore owns one data directory and keeps each block as a
// pair of files named after its key (stem `b<file>_<stripe>_<index>`):
//
//   <stem>.blk    the payload, byte-for-byte what the client PUT
//   <stem>.meta   a fixed-size commit record: magic, key, payload length,
//                 payload CRC-32, and a CRC-32 of the record itself
//
// Every file is published through the store's durable::Syncer
// (net/durable_file.h), whose crash injector can cut after any step: bytes
// go to a `.tmp` file, which is fsynced and renamed over the final name,
// and the directory is fsynced last.  The `.meta` record follows its
// payload, so a block counts as committed only once an intact record names
// an intact payload — whatever a cut leaves, the recovery scan classifies
// (DESIGN.md "Durability & crash consistency").
//
// recover() replays that classification over a directory as found after a
// crash: intact pairs load, everything else (stale temps, torn or
// CRC-mismatched payloads, orphaned halves, duplicate claims on one key) is
// moved — never deleted — into `quarantine/`, and the damaged keys are
// reported so the owning BlockServer answers kCorrupt for them until the
// scrubber re-uploads a rebuilt copy at the code's optimal repair traffic.
//
// The class is not thread-safe — the BlockServer serializes calls under its
// block-map mutex.

#ifndef CAROUSEL_NET_PERSISTENCE_H
#define CAROUSEL_NET_PERSISTENCE_H

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/durable_file.h"
#include "net/protocol.h"
#include "obs/metrics.h"

namespace carousel::net {

/// Outcome of one recovery scan.  `quarantined_files` counts files moved
/// into quarantine/; the per-cause counters classify why (one damaged block
/// usually quarantines two files, payload and record).
struct RecoveryReport {
  std::uint64_t recovered = 0;          // intact blocks loaded
  std::uint64_t quarantined_files = 0;  // files moved to quarantine/
  std::uint64_t torn_payloads = 0;      // payload length != commit record
  std::uint64_t crc_mismatches = 0;     // payload bytes fail the record's CRC
  std::uint64_t orphaned_metas = 0;     // commit record naming a missing payload
  std::uint64_t orphaned_payloads = 0;  // payload without a commit record
  std::uint64_t duplicates = 0;         // extra file pairs claiming a loaded key
  std::uint64_t stale_temps = 0;        // *.tmp files a crash left behind
  double seconds = 0.0;
  /// Keys whose stored copy was lost to quarantine: the server answers
  /// kCorrupt for them so the scrubber repairs instead of ignoring them.
  std::vector<BlockKey> damaged;

  /// Human-readable summary (what `carouselctl recover` prints).
  std::string to_string() const;
};

class PersistentBlockStore {
 public:
  struct Options {
    /// When false, the fsync calls are skipped (the write path and the lint
    /// rule keep their shape; durability is traded for test speed).
    bool fsync = true;
    /// Registry for the carousel_persist_* instruments; the process-global
    /// registry when null.  A BlockServer substitutes its own.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// One block handed back by recover().
  struct RecoveredBlock {
    BlockKey key;
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc = 0;
  };

  /// Creates the directory if needed.  Throws std::filesystem errors when
  /// the directory cannot be created or is not writable.
  PersistentBlockStore(std::filesystem::path dir, Options options);
  explicit PersistentBlockStore(std::filesystem::path dir);

  /// Scans the directory, loads intact blocks (appended to `out` when
  /// non-null), quarantines everything else and returns the classification.
  RecoveryReport recover(std::vector<RecoveredBlock>* out = nullptr);

  /// Crash-atomic write of one block (temp file -> fsync -> rename, payload
  /// before commit record).  Returns once the block committed; an I/O
  /// failure or an injected crash throws.
  void put(const BlockKey& key, std::span<const std::uint8_t> bytes,
           std::uint32_t crc);

  /// Removes a block's files, commit record first (so an interrupted erase
  /// leaves an orphaned payload, never a record naming nothing).  Returns
  /// false when no file for the key existed; an unlink that fails for any
  /// other reason throws, and the block stays.
  bool erase(const BlockKey& key);

  /// Test hook: flips one payload byte on disk at `offset` (mod payload
  /// size) without touching the commit record — at-rest rot that must
  /// surface as a CRC mismatch on the next recovery scan.  Returns false
  /// when the payload file is missing or empty.
  bool corrupt_at_rest(const BlockKey& key, std::size_t offset);

  /// Fsyncs the data directory entry itself.  Every put() already flushed
  /// its own files before publishing, so this is the final barrier a
  /// graceful drain needs: after it returns, everything acknowledged is on
  /// stable storage.  No-op when Options::fsync is off.
  void flush() const { sync_.sync_dir(dir_); }

  /// The steps of put, erase and recover; tests and kCrash arm it.
  durable::Syncer& syncer() { return sync_; }

  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path quarantine_dir() const { return dir_ / "quarantine"; }

  /// Canonical file stem for a key: b<file>_<stripe>_<index>.
  static std::string stem_of(const BlockKey& key);
  /// Inverse of stem_of; nullopt for names that are not canonical stems.
  static std::optional<BlockKey> parse_stem(const std::string& stem);

 private:
  void quarantine(const std::filesystem::path& path, RecoveryReport& report);

  std::filesystem::path dir_;
  durable::Syncer sync_;
  obs::Counter* commits_ = nullptr;
  obs::Counter* bytes_written_ = nullptr;
  obs::Counter* recovered_total_ = nullptr;
  obs::Counter* quarantined_total_ = nullptr;
  obs::Histogram* recovery_seconds_ = nullptr;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_PERSISTENCE_H
