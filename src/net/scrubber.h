// Background integrity scrubber for a CarouselStore.
//
// Sweeps every block of every file in the store's manifest with the VERIFY
// op (no block bytes move for healthy blocks) and triggers repair_block on
// anything missing or corrupt — the networked analogue of HDFS's block
// scanner, closing the loop between the end-to-end checksums and the
// paper's optimal-bandwidth repair: a scrub-detected corruption costs
// d/(d-k+1) block sizes to heal when d helpers survive, not k.
//
// Runs either synchronously (run_once, what the tests drive) or on a
// util::PeriodicThread at a fixed interval (start/stop).
//
// Unreachable blocks: without a HealthMonitor (Options::monitor), the sweep
// records them and retries later — the home may just be rebooting, and a
// rebuilt block could not be re-uploaded to a dead home anyway.  With a
// monitor, the scrubber closes the self-healing loop: a block whose home
// the monitor has declared kDead is re-homed onto a placement-eligible
// spare via store.rehome_block (still the MSR-optimal d/(d-k+1) block
// sizes of helper traffic).  kSuspect homes are left alone — acting on a
// tentative verdict would churn placements for servers that come back.
//
// Each sweep verifies a whole stripe before healing any of it, and every
// unhealthy block is then handled independently (its own try/catch, its own
// counter) — one block's failed heal never short-circuits its siblings.
// With Options::scheduler set the sweep stops healing inline altogether:
// unhealthy blocks (repairs and dead-home rehomes alike) are enqueued as
// prioritized work items carrying the stripe's erasure count as
// criticality, and the RepairScheduler's budgets and admission control
// decide when they actually heal.  Without one, a monitor-driven sweep is
// what moves a dead server's blocks inline.

#ifndef CAROUSEL_NET_SCRUBBER_H
#define CAROUSEL_NET_SCRUBBER_H

#include <chrono>
#include <cstdint>

#include "net/store.h"
#include "util/periodic_thread.h"
#include "util/sync.h"

namespace carousel::net {

class HealthMonitor;
class RepairScheduler;

class Scrubber {
 public:
  struct Options {
    /// Pause between background sweeps.
    std::chrono::milliseconds interval{1000};
    /// When set, blocks whose home server the monitor has declared kDead
    /// are re-homed onto spares instead of skipped.  The monitor must
    /// outlive the scrubber.
    HealthMonitor* monitor = nullptr;
    /// When set, sweeps enqueue unhealthy blocks into the scheduler
    /// (criticality = the stripe's erasure count) instead of healing them
    /// inline.  The scheduler must outlive the scrubber.
    RepairScheduler* scheduler = nullptr;
  };

  struct Stats {
    std::uint64_t sweeps = 0;
    std::uint64_t blocks_checked = 0;
    std::uint64_t ok = 0;
    std::uint64_t missing_found = 0;
    std::uint64_t corrupt_found = 0;
    std::uint64_t unreachable = 0;
    std::uint64_t repairs = 0;
    std::uint64_t repair_failures = 0;
    std::uint64_t repair_bytes = 0;  // helper traffic spent healing
    std::uint64_t rehomes = 0;            // blocks moved off dead homes
    std::uint64_t rehome_failures = 0;    // rehome attempts that failed
    std::uint64_t enqueued = 0;  // handed to the RepairScheduler instead
  };

  /// The store must outlive the scrubber.
  Scrubber(CarouselStore& store, Options options);
  explicit Scrubber(CarouselStore& store) : Scrubber(store, Options{}) {}

  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// Launches the background sweeps (the first runs at once).  Idempotent.
  void start() { loop_.start(); }
  /// Stops them and joins.  Idempotent (including concurrent callers);
  /// also done on destruction.
  void stop() { loop_.stop(); }
  bool running() const { return loop_.running(); }

  /// One full synchronous sweep; returns that sweep's stats (also folded
  /// into the cumulative ones).
  Stats run_once() EXCLUDES(mu_);

  /// Cumulative stats over every sweep so far.
  Stats stats() const EXCLUDES(mu_);

 private:
  CarouselStore& store_;
  Options options_;

  // Mirrors into the store's registry (constructor-resolved): cumulative
  // sweep counters plus last-sweep repair-traffic/health gauges.
  obs::Counter* sweeps_total_ = nullptr;
  obs::Counter* blocks_checked_total_ = nullptr;
  obs::Counter* repairs_total_ = nullptr;
  obs::Counter* repair_failures_total_ = nullptr;
  obs::Counter* repair_bytes_total_ = nullptr;
  obs::Counter* rehomes_total_ = nullptr;
  obs::Counter* rehome_failures_total_ = nullptr;
  obs::Counter* enqueued_total_ = nullptr;
  obs::Histogram* sweep_seconds_ = nullptr;
  obs::Gauge* last_sweep_unhealthy_ = nullptr;
  obs::Gauge* last_sweep_repair_bytes_ = nullptr;
  obs::Gauge* pending_rehomes_ = nullptr;
  mutable util::Mutex mu_{util::LockRank::kScrubber};
  Stats total_ GUARDED_BY(mu_);
  // Declared last: destroyed (and joined) before the state run_once uses.
  util::PeriodicThread loop_;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_SCRUBBER_H
