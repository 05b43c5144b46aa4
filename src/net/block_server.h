// Block server: the datanode of the networked prototype.
//
// One accept thread plus one thread per connection; blocks live in a mutex-
// guarded map together with their CRC-32, verified before every serve and on
// the VERIFY audit op.  The PROJECT primitive performs linear combinations of
// a block's units with the GF(2^8) kernels — the helper-side repair compute
// of the paper, executed where the block lives so only the projected chunk
// crosses the network.
//
// Constructed with a data directory, the server is durable: every PUT is
// written crash-atomically to disk (net/persistence.h) before it is
// acknowledged, and construction runs a recovery scan that reloads intact
// blocks and quarantines damaged ones.  A quarantined key answers kCorrupt
// (never silently kNotFound-as-if-unwritten) until a fresh PUT replaces it —
// which is exactly the signal the Scrubber turns into a repair at the
// code's optimal d/(d-k+1) traffic.  Without a directory the server is the
// original RAM-only store the fast tests use.
//
// Finished connections are reaped as the accept loop turns over, so a
// long-lived server with churning clients holds state only for live
// sessions.  A FaultPlan (net/fault.h) can be installed to inject drops,
// stalls, wire corruption and refusals deterministically, and
// corrupt_block() flips a stored byte under the checksum — the failure
// switchboard the fault-tolerance tests drive.

#ifndef CAROUSEL_NET_BLOCK_SERVER_H
#define CAROUSEL_NET_BLOCK_SERVER_H

#include <array>
#include <atomic>
#include <filesystem>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "net/fault.h"
#include "net/persistence.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "util/sync.h"

namespace carousel::net {

class BlockServer {
 public:
  /// Binds (port 0 = ephemeral) and starts serving from RAM only.
  explicit BlockServer(std::uint16_t port = 0);

  /// Binds and serves durably from `data_dir` (created if needed): runs the
  /// recovery scan before accepting connections, then writes every PUT
  /// crash-atomically to the directory before acknowledging it.  A null
  /// `persist.registry` is replaced with this server's own registry, so the
  /// METRICS op exposes the carousel_persist_* instruments.
  BlockServer(std::uint16_t port, const std::filesystem::path& data_dir,
              PersistentBlockStore::Options persist = {});

  ~BlockServer();

  BlockServer(const BlockServer&) = delete;
  BlockServer& operator=(const BlockServer&) = delete;

  std::uint16_t port() const { return port_; }

  /// Stops accepting, closes the listener and joins all threads.  Idempotent.
  void stop() EXCLUDES(mu_);

  /// Graceful shutdown: stops accepting, lets every in-flight request finish
  /// and its response flush to the client (sessions are only half-closed, on
  /// the receive side), then flushes the persistence directory so everything
  /// acknowledged is on stable storage.  A request still being *received*
  /// when drain begins is abandoned — nothing was acknowledged for it.
  /// Idempotent, and stop()/~BlockServer afterwards are no-ops.
  void drain() EXCLUDES(mu_);

  /// Installs (or clears, with nullptr) a fault-injection plan consulted on
  /// every request.  The plan may be shared with the test for inspection.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) EXCLUDES(mu_);

  /// Flips one bit of a stored block without touching its recorded
  /// checksum — simulates at-rest corruption.  The byte flipped is
  /// `offset % size`, so any offset addresses a valid byte of a non-empty
  /// block (offset 0 and offset size flip the same byte).  Returns false —
  /// never indexes — when the block is not held or is empty (an empty
  /// block has no byte to flip).  On a persistent server the same byte is
  /// flipped in the on-disk payload, so the rot survives a restart.
  bool corrupt_block(const BlockKey& key, std::size_t offset = 0)
      EXCLUDES(mu_);

  /// Whether this server writes through to a data directory.
  bool persistent() const { return persist_ != nullptr; }
  /// Outcome of the startup recovery scan (all zeros for RAM-only servers).
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Test/ops hooks.
  std::size_t block_count() const EXCLUDES(mu_);
  std::uint64_t stored_bytes() const EXCLUDES(mu_);
  /// Connection sessions currently tracked (live + not yet reaped).
  std::size_t session_count() const EXCLUDES(mu_);

  /// This server's own metric registry: per-op request counts and latency
  /// histograms, fault-injection hits, stored-state gauges.  The METRICS
  /// wire op renders this registry followed by the process-global one.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct StoredBlock {
    std::vector<std::uint8_t> bytes;
    std::uint32_t crc = 0;  // CRC-32 the client declared on PUT
  };
  // One live connection and the thread serving it; reaped once `done`.
  struct Session {
    TcpConn conn;
    std::thread worker;
    std::atomic<bool> done{false};
  };

  void init_instruments();
  /// The shutdown stop() and drain() share: claims stopping_, closes the
  /// listener, shuts every session down (receive side only when
  /// `graceful`) and joins its worker.  False when already shut down.
  bool shut_down(bool graceful) EXCLUDES(mu_);
  void accept_loop() EXCLUDES(mu_);
  void reap_finished_locked() REQUIRES(mu_);
  void serve(Session& session) EXCLUDES(mu_);
  void handle(Op op, Reader& req, Writer& resp, Status& status)
      EXCLUDES(mu_);
  /// The one servability rule behind GET, GET_RANGE, PROJECT and VERIFY: a
  /// quarantined key answers kCorrupt with no body, an absent one
  /// kNotFound; otherwise `check` (when set) vets the request against the
  /// block's size and throws on one the block cannot serve, and a block
  /// whose bytes no longer match the CRC stored with them answers kCorrupt
  /// carrying the actual CRC.  Returns the block only when it is servable.
  const StoredBlock* servable_locked(
      const BlockKey& key, Writer& resp, Status& status,
      const std::function<void(std::size_t)>& check = {}) REQUIRES(mu_);
  /// Interruptible stall for FaultAction::kDelay (wakes early on stop()).
  void injected_sleep(std::uint32_t ms);

  TcpListener listener_;
  std::uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  // Per-server registry and cached instruments (resolved once in the
  // constructor; the arrays are indexed by raw opcode / FaultAction).
  obs::MetricsRegistry metrics_;
  std::array<obs::Counter*, kOpCount> op_requests_{};
  std::array<obs::Histogram*, kOpCount> op_seconds_{};
  std::array<obs::Counter*, kFaultActionCount> fault_hits_{};
  obs::Counter* bad_requests_ = nullptr;
  obs::Gauge* blocks_gauge_ = nullptr;
  obs::Gauge* stored_bytes_gauge_ = nullptr;

  mutable util::Mutex mu_{util::LockRank::kBlockServer};
  std::map<BlockKey, StoredBlock> blocks_ GUARDED_BY(mu_);
  // Durable backend (null = RAM-only).  The pointer is set once in the
  // constructor; the pointee's writes happen under mu_, so the on-disk and
  // in-memory state never diverge mid-request (drain()'s final flush runs
  // after every worker joined).
  std::unique_ptr<PersistentBlockStore> persist_;
  RecoveryReport recovery_;
  // Keys whose stored copy recovery quarantined: reads answer kCorrupt
  // until a PUT (typically the scrubber's repair) replaces them.
  std::set<BlockKey> quarantined_ GUARDED_BY(mu_);
  std::shared_ptr<FaultPlan> faults_ GUARDED_BY(mu_);
  // Sessions live here (stable addresses) so stop() can shut them down and
  // wake any worker blocked in recv; workers never outlive the server.
  std::list<Session> sessions_ GUARDED_BY(mu_);
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_BLOCK_SERVER_H
