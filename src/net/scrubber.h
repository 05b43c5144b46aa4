// Background integrity scrubber for a CarouselStore.
//
// Sweeps every stripe in the store's manifest with one probe_stripe round
// (n VERIFYs at once; no block bytes move for healthy blocks) and enqueues
// anything missing or corrupt into a RepairScheduler, the one healer — the
// networked analogue of HDFS's block scanner, closing the loop between the
// end-to-end checksums and the paper's optimal-bandwidth repair: a
// scrub-detected corruption costs d/(d-k+1) block sizes to heal when d
// helpers survive, not k.  Runs either synchronously (run_once, what the
// tests drive) or on a util::PeriodicThread at a fixed interval.
//
// Unreachable blocks: without a HealthMonitor (Options::monitor), the sweep
// records them and retries later — the home may just be rebooting, and a
// rebuilt block could not be re-uploaded to a dead home anyway.  With a
// monitor, a block whose home the monitor has declared kDead is enqueued
// as a rehome onto a placement-eligible spare (the self-healing loop).
// kSuspect homes are left alone — acting on a tentative verdict would
// churn placements for servers that come back.
//
// Each item carries its stripe's erasure count as criticality and heals on
// its own (one block's failed heal never stops a sibling's).  With
// Options::scheduler set, that scheduler's budgets, admission control and
// dispatcher decide when; without one, the scrubber owns a default one
// (no budgets, no admission control, no monitor) and drains it at the end
// of every sweep, so run_once returns with the sweep's heals done.  Each
// heal is counted once, by the scheduler (completed, failed, bytes_moved)
// and the store (carousel_store_repairs_total, carousel_cluster_rehome*).

#ifndef CAROUSEL_NET_SCRUBBER_H
#define CAROUSEL_NET_SCRUBBER_H

#include <chrono>
#include <cstdint>
#include <memory>

#include "net/repair_scheduler.h"
#include "net/store.h"
#include "util/periodic_thread.h"

namespace carousel::net {

class HealthMonitor;

class Scrubber {
 public:
  struct Options {
    /// Pause between background sweeps.
    std::chrono::milliseconds interval{1000};
    /// When set, blocks whose home server the monitor has declared kDead
    /// are enqueued as rehomes onto spares instead of skipped.  The monitor
    /// must outlive the scrubber.
    HealthMonitor* monitor = nullptr;
    /// The scheduler sweeps feed; it must outlive the scrubber, and its own
    /// step() or dispatcher heals.  When null, the scrubber owns one (a
    /// std::logic_error if the store already has one: pass that here).
    RepairScheduler* scheduler = nullptr;
  };

  struct Stats {
    std::uint64_t sweeps = 0;
    std::uint64_t blocks_checked = 0;
    std::uint64_t ok = 0;
    std::uint64_t missing_found = 0;
    std::uint64_t corrupt_found = 0;
    std::uint64_t unreachable = 0;  // skipped: home down, not declared dead
    std::uint64_t enqueued = 0;     // handed to the scheduler
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

  /// One full synchronous sweep; returns that sweep's stats (the
  /// carousel_scrubber_* series accumulate them).
  Stats run_once();

  /// The scheduler sweeps feed: Options::scheduler, or the owned one.
  RepairScheduler& scheduler() { return *options_.scheduler; }

 private:
  CarouselStore& store_;
  Options options_;  // scheduler never null: the owned one when none passed
  // Only when Options::scheduler is null; outlives loop_, which drains it.
  std::unique_ptr<RepairScheduler> owned_;

  // Mirrors into the store's registry (constructor-resolved): cumulative
  // sweep counters plus last-sweep health gauges.
  obs::Counter* sweeps_total_ = nullptr;
  obs::Counter* blocks_checked_total_ = nullptr;
  obs::Counter* enqueued_total_ = nullptr;
  obs::Histogram* sweep_seconds_ = nullptr;
  obs::Gauge* last_sweep_unhealthy_ = nullptr;
  obs::Gauge* pending_rehomes_ = nullptr;
  // Declared last: destroyed (and joined) before the state run_once uses.
  util::PeriodicThread loop_;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_SCRUBBER_H
