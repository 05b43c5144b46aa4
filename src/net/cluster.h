// Failure detection for a CarouselStore's server fleet.
//
// HealthMonitor probes every server the store knows about (including spares
// registered after construction) on a fixed interval with the STATS op — a
// cheap round-trip that doubles as an inventory report (block count, bytes
// held).  Per-server health is a three-state threshold detector:
//
//     kAlive --f failures--> kSuspect --more failures--> kDead
//       ^                                                  |
//       +------- r consecutive *successes* (damping) ------+
//
// The thresholds (Options::suspect_after / dead_after) trade detection
// latency against false positives, exactly the dial production detectors
// (HDFS heartbeats, phi-accrual) expose; revive_after adds flap damping so
// a server limping in and out of reachability cannot oscillate the cluster
// into repeated re-placements — one flaky probe never undoes a kDead
// verdict, only a sustained run of healthy answers does.
//
// The monitor only *observes*.  Acting on a kDead verdict — re-homing the
// dead server's blocks onto spares via the store's MSR repair path — is the
// Scrubber's job (Scrubber::Options::monitor) or the caller's
// (RepairScheduler::enqueue_server).  This split keeps the detector
// trivially testable and means a wrong verdict costs extra repair traffic,
// never data.
//
// Thread model: the monitor owns its own Client per server (clients are not
// thread-safe, and borrowing the store's would serialize probing behind
// bulk reads).  probe_once() is safe to call concurrently with store ops;
// start()/stop() run it on a util::PeriodicThread like the Scrubber.

#ifndef CAROUSEL_NET_CLUSTER_H
#define CAROUSEL_NET_CLUSTER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/store.h"
#include "util/periodic_thread.h"
#include "util/sync.h"

namespace carousel::net {

/// The detector's verdict on one server.  kUnknown is the explicit
/// "never probed" answer: a server the monitor has not tracked yet has no
/// verdict at all, and callers must not mistake that for health.
enum class ServerState { kAlive, kSuspect, kDead, kUnknown };

/// Human-readable name ("alive" / "suspect" / "dead" / "unknown") for
/// logs, metrics labels and the CLI.
const char* server_state_name(ServerState state);

class HealthMonitor {
 public:
  /// All thresholds are validated at construction (std::invalid_argument):
  /// a zero threshold or a non-positive interval is a detector that never
  /// fires or spins, never a sensible configuration.
  struct Options {
    /// Pause between background probe rounds.  Must be > 0.
    std::chrono::milliseconds interval{200};
    /// Consecutive probe failures before kAlive degrades to kSuspect.
    /// Must be >= 1.
    std::uint32_t suspect_after = 1;
    /// Consecutive probe failures before the server is declared kDead.
    /// Must be >= suspect_after.
    std::uint32_t dead_after = 3;
    /// Flap damping: consecutive probe *successes* a kSuspect/kDead server
    /// must string together before it is trusted as kAlive again.
    /// Must be >= 1.
    std::uint32_t revive_after = 2;
    /// Policy for the monitor's own probe connections.  Two attempts by
    /// default: a server that restarted since the last round leaves a stale
    /// connection behind, and the reconnect-and-retry must not read as a
    /// health failure.
    RetryPolicy probe_policy{.max_attempts = 2,
                             .io_timeout = std::chrono::milliseconds(250),
                             .base_backoff = std::chrono::milliseconds(2),
                             .max_backoff = std::chrono::milliseconds(20),
                             .op_deadline = std::chrono::milliseconds(1000)};
  };

  /// Everything the monitor knows about one server.
  struct ServerStatus {
    std::size_t id = 0;
    std::uint16_t port = 0;
    bool spare = false;
    /// Failure-domain label, copied from the store at first tracking.
    std::size_t domain = 0;
    ServerState state = ServerState::kAlive;
    std::uint32_t consecutive_failures = 0;
    std::uint32_t consecutive_successes = 0;
    std::uint64_t probes = 0;
    std::uint64_t failures = 0;
    std::uint64_t transitions = 0;  // state changes over this server's life
    // From the last successful STATS answer: what the server holds.
    std::uint32_t blocks = 0;
    std::uint64_t bytes = 0;
  };

  /// The store must outlive the monitor.  Metrics go to store.metrics().
  HealthMonitor(CarouselStore& store, Options options);
  explicit HealthMonitor(CarouselStore& store)
      : HealthMonitor(store, Options{}) {}

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Launches the background probe rounds (the first runs at once).
  /// Idempotent.
  void start() { loop_.start(); }
  /// Stops them and joins.  Idempotent (including concurrent callers);
  /// also done on destruction.
  void stop() { loop_.stop(); }
  bool running() const { return loop_.running(); }

  /// One synchronous probe round over every server the store currently
  /// knows (servers added since the last round are picked up here).
  void probe_once() EXCLUDES(probe_serial_, mu_);

  /// Verdict for one server.  kUnknown for ids the monitor has never
  /// tracked — an explicit "no verdict", so scrubber/rehome decisions
  /// cannot mistake "not monitored" for "healthy".
  ServerState state_of(std::size_t server_id) const EXCLUDES(mu_);

  /// Snapshot of every tracked server, id order.
  std::vector<ServerStatus> statuses() const EXCLUDES(mu_);

  /// Per-server FSM state rolled up to one failure domain.
  struct DomainStatus {
    std::size_t domain = 0;
    std::size_t members = 0;
    std::size_t alive = 0;
    std::size_t suspect = 0;
    std::size_t dead = 0;
    /// Blocks held across members, from their last successful STATS.
    std::uint64_t blocks = 0;
    /// The whole domain is out: every member is kDead.
    bool down() const { return members > 0 && dead == members; }
  };

  /// Rollup of every tracked server by failure domain, domain order.
  std::vector<DomainStatus> domain_statuses() const EXCLUDES(mu_);

  /// How many tracked servers in `server_id`'s domain are kDead — the
  /// correlated-failure signal the RepairScheduler boosts criticality by.
  /// Zero for untracked ids (no verdicts, no correlation to report).
  std::size_t dead_in_domain(std::size_t server_id) const EXCLUDES(mu_);

 private:
  struct Tracked {
    ServerStatus status;
    std::unique_ptr<Client> probe;  // monitor-owned; never the store's
  };

  void transition_locked(Tracked& t, ServerState to) REQUIRES(mu_);
  void export_gauges_locked() REQUIRES(mu_);
  std::vector<DomainStatus> domain_statuses_locked() const REQUIRES(mu_);

  CarouselStore& store_;
  Options options_;

  // Registry mirrors (constructor-resolved from the store's registry).
  obs::Counter* probes_total_ = nullptr;
  obs::Counter* probe_failures_total_ = nullptr;
  obs::Counter* to_alive_total_ = nullptr;
  obs::Counter* to_suspect_total_ = nullptr;
  obs::Counter* to_dead_total_ = nullptr;
  obs::Gauge* servers_gauge_ = nullptr;
  obs::Gauge* alive_gauge_ = nullptr;
  obs::Gauge* suspect_gauge_ = nullptr;
  obs::Gauge* dead_gauge_ = nullptr;
  // Domain rollup gauges, all minted through the one domain_metric helper
  // (check_invariants rule 9).
  obs::Gauge* domain_count_gauge_ = nullptr;
  obs::Gauge* domain_down_gauge_ = nullptr;
  obs::Gauge* domain_degraded_gauge_ = nullptr;

  // Serializes probe rounds (a round's clients are single-threaded); held
  // only by probe_once, never while answering state_of()/statuses().  A
  // round holds it across store_.servers() and across mu_, so it ranks
  // before both (LockRank::kMonitorProbe < kStore < kMonitor).
  util::Mutex probe_serial_ ACQUIRED_BEFORE(mu_){
      util::LockRank::kMonitorProbe};
  mutable util::Mutex mu_{util::LockRank::kMonitor};
  std::map<std::size_t, Tracked> tracked_ GUARDED_BY(mu_);
  // Declared last: destroyed (and joined) before the state probe_once uses.
  util::PeriodicThread loop_;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_CLUSTER_H
