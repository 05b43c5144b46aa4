// Crash-durable coordinator metadata: a write-ahead journal of every
// manifest mutation, with periodic compacted snapshots.
//
// A MetaLog owns one directory holding at most three things:
//
//   journal     append-only record stream ("CMJ1" framing, CRC-32 per
//               record), fsynced before the mutation it describes is
//               published in memory
//   snapshot    a compacted copy of the whole state at some LSN, written
//               tmp -> fsync -> rename (net/durable_file.h, the block
//               store's discipline)
//   quarantine/ torn journal tails and corrupt snapshots, moved — never
//               deleted — exactly like the block quarantine
//
// Mutations are journaled as *intents* and *commits*: a put_file writes a
// kPutIntent (with the full placement) before the first block byte leaves
// the coordinator and a kPutCommit only after every block is stored, so a
// crash between the two leaves a replayable record of exactly which servers
// may hold orphan blocks.  Rehomes work the same way.  Reconciliation
// (CarouselStore::reconcile) probes those recovered intents and either
// adopts the result (all blocks verify) or deletes the orphans and journals
// an abort, through the same commit and abort steps the live put and rehome
// paths use.
//
// Replay on open loads the snapshot (if any), then the journal tail,
// skipping records already folded into the snapshot (LSN filter — this is
// what makes a crash between snapshot-rename and journal-reset harmless).
// A torn tail is durable in quarantine before the journal is truncated at
// the last intact record boundary; a stale snapshot.tmp is quarantined; a
// corrupt snapshot is quarantined and the open fails loudly with
// MetaReplayError, never silently with an empty manifest.  A failed
// compaction keeps the journal whole and fails no append.  Every step runs
// through the log's durable::Syncer, whose injector tests arm.
//
// The class is not thread-safe: CarouselStore serializes every call under
// its meta_mu_ (LockRank::kMetaLog), which also pins WAL order == in-memory
// apply order.
#ifndef CAROUSEL_NET_META_LOG_H
#define CAROUSEL_NET_META_LOG_H

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/durable_file.h"
#include "obs/metrics.h"

namespace carousel::net {

/// When and how CarouselStore::read_file hedges a straggling range-GET with
/// a speculative §VII stand-in.  Disabled by default: hedging trades extra
/// wire traffic for tail latency, so it is an explicit opt-in.  The journal
/// stores this struct itself (durations as u64 milliseconds).
struct HedgePolicy {
  bool enabled = false;
  /// The latency budget is this quantile of the store's own range-GET
  /// latency histogram (carousel_store_range_get_seconds).  Must lie in
  /// [0.5, 1.0): hedging below the median means racing most reads.
  double percentile = 0.95;
  /// The budget never drops below this, however fast the histogram says the
  /// fleet is — guards against hedging every read on a quiet loopback.
  std::chrono::milliseconds floor{5};
  /// Budget used until the histogram holds min_samples observations (a cold
  /// store has no quantile worth trusting).
  std::chrono::milliseconds initial{50};
  /// Must be > 0: a zero-sample quantile is undefined.
  std::uint64_t min_samples = 32;
  friend bool operator==(const HedgePolicy&, const HedgePolicy&) = default;
};

class MetaLog {
 public:
  struct Options {
    /// When false, fsync calls are skipped (shape kept, durability traded
    /// for test speed — mirrors PersistentBlockStore::Options::fsync).
    bool fsync = true;
    /// Journal records between snapshot compactions; 0 disables compaction.
    std::size_t snapshot_every = 64;
    /// Registry for the carousel_meta_* instruments; the process-global
    /// registry when null.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// One manifest row, journaled and in memory alike: CarouselStore::FileInfo
  /// is this type.  For a pending put it names every placement the intent
  /// may have uploaded to.
  struct FileRecord {
    std::uint64_t file_bytes = 0;
    std::uint32_t stripes = 0;
    /// placement[stripe][index] = server id, exactly the store's table.
    std::vector<std::vector<std::uint32_t>> placement;
    friend bool operator==(const FileRecord&, const FileRecord&) = default;
  };

  /// A rehome whose target copy may or may not exist on disk yet.
  struct RehomeIntent {
    std::uint32_t file = 0;
    std::uint32_t stripe = 0;
    std::uint32_t index = 0;
    std::uint32_t target = 0;
    friend bool operator==(const RehomeIntent&, const RehomeIntent&) = default;
  };

  /// One add_server as journaled (domain as resolved at append time).
  struct SpareServer {
    std::uint16_t port = 0;
    std::uint64_t domain = 0;
    bool labeled = false;
    friend bool operator==(const SpareServer&, const SpareServer&) = default;
  };

  /// The authoritative metadata state the journal describes.  MetaLog
  /// applies every append to its own copy so a snapshot is always a pure
  /// serialization of this struct.
  struct State {
    std::map<std::uint32_t, FileRecord> manifest;
    std::map<std::uint32_t, FileRecord> pending_puts;
    std::vector<RehomeIntent> pending_rehomes;
    std::vector<SpareServer> spares;
    std::optional<HedgePolicy> hedge;
    friend bool operator==(const State&, const State&) = default;
  };

  /// Outcome of the replay an open performs.
  struct ReplayReport {
    bool snapshot_loaded = false;
    std::uint64_t snapshot_lsn = 0;
    std::uint64_t journal_records = 0;  // tail records applied
    std::uint64_t skipped_records = 0;  // already folded into the snapshot
    bool torn_tail = false;
    std::uint64_t torn_bytes = 0;  // quarantined, journal truncated
    double seconds = 0.0;
    std::string to_string() const;
  };

  /// Opens (creating the directory and an empty journal if needed) and
  /// replays snapshot + journal tail into state().  `config_crc` is the
  /// CRC-32 fingerprint of the store configuration (code geometry, fleet,
  /// domains); a mismatch against the journaled fingerprint throws
  /// MetaReplayError — a journal must never be replayed into a differently
  /// shaped store.
  MetaLog(std::filesystem::path dir, std::uint32_t config_crc,
          Options options);
  MetaLog(const MetaLog&) = delete;
  MetaLog& operator=(const MetaLog&) = delete;

  const State& state() const { return state_; }
  const ReplayReport& replay_report() const { return replay_; }
  std::uint64_t lsn() const { return lsn_; }
  const std::filesystem::path& dir() const { return dir_; }
  std::filesystem::path quarantine_dir() const { return dir_ / "quarantine"; }

  // Append API — the only way journal records are minted (check_invariants
  // rule 10).  Each call is durable (journal fsynced) before it returns and
  // before it mutates state(); callers publish their in-memory copy after.

  /// Journals the full intended placement before any block byte is
  /// uploaded.  Throws DuplicateFileError when the file id is already
  /// committed or pending.
  void put_intent(std::uint32_t file, std::uint64_t file_bytes,
                  std::uint32_t stripes,
                  const std::vector<std::vector<std::uint32_t>>& placement);
  /// Moves a pending put into the manifest: every block is stored.
  void put_commit(std::uint32_t file);
  /// Drops a pending put whose blocks were not (all) stored.
  void put_abort(std::uint32_t file);
  /// Journals that a copy of (file, stripe, index) may land on `target`.
  void rehome_intent(std::uint32_t file, std::uint32_t stripe,
                     std::uint32_t index, std::uint32_t target);
  /// Flips the committed placement of the block to `server`.
  void rehome_commit(std::uint32_t file, std::uint32_t stripe,
                     std::uint32_t index, std::uint32_t server);
  /// Drops the pending rehome for the block (target copy is garbage).
  void rehome_abort(std::uint32_t file, std::uint32_t stripe,
                    std::uint32_t index);
  void add_server(std::uint16_t port, std::uint64_t domain, bool labeled);
  void set_hedge(const HedgePolicy& hedge);

  /// The journal's and snapshot's steps (tests arm its injector).
  durable::Syncer& syncer() { return sync_; }

  /// The mint point for every carousel_meta_* instrument name (rule 10:
  /// the prefix literal exists once, in meta_log.cpp).  CarouselStore's
  /// reconciliation counters are minted through here too.
  obs::Counter& metric(const char* suffix);

  /// Read-only journal inspection (what `carouselctl meta <dir>` prints):
  /// snapshot validity and LSN, per-kind record counts, pending intents,
  /// torn-tail diagnosis.  Never truncates, quarantines or repairs.
  static std::string inspect(const std::filesystem::path& dir);

 private:
  void replay(std::uint32_t config_crc);
  void load_snapshot(std::uint32_t config_crc);
  void append_record(std::uint8_t kind,
                     const std::vector<std::uint8_t>& payload);
  void apply_record(std::uint8_t kind,
                    const std::vector<std::uint8_t>& payload);
  void write_snapshot();
  std::string metric_name(const char* suffix) const;

  std::filesystem::path dir_;
  Options options_;
  std::uint32_t config_crc_ = 0;
  State state_;
  ReplayReport replay_;
  std::uint64_t lsn_ = 0;
  std::size_t since_snapshot_ = 0;
  bool compacting_ = false;

  obs::MetricsRegistry* registry_ = nullptr;
  // Journal, snapshot and quarantine fsyncs, charged to
  // carousel_meta_fsyncs_total.
  durable::Syncer sync_;
  obs::Counter* appends_ = nullptr;
  obs::Counter* snapshots_ = nullptr;
  obs::Counter* snapshot_failures_ = nullptr;
  obs::Counter* replay_records_ = nullptr;
  obs::Counter* torn_tails_ = nullptr;
  obs::Histogram* replay_seconds_ = nullptr;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_META_LOG_H
