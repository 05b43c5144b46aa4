// RepairScheduler: prioritized, budgeted repair under correlated failures.
//
// The paper's repair-traffic argument (§I, §VI) prices one heal: MSR/
// Carousel move d/(d-k+1) block sizes where RS moves k.  This scheduler
// prices the *storm* — every heal a server death leaves behind — and is the
// store's one healer: every repair_block/rehome_block call in src/ is its
// execute() (check_invariants rule 14), so healing is first-class budgeted
// work, the framing of Dimakis et al.'s repair-bandwidth model:
//
//   Priority.  Work items are (block, kind, criticality) where criticality
//   is the known erasure count of the block's stripe.  The queue is a
//   max-heap on criticality with FIFO order inside a class, so a stripe at
//   2 erasures jumps a backlog of 1-erasure stripes: repair effort goes
//   first to the stripes closest to losing data.  Re-enqueueing a queued
//   block only ever raises its criticality (and upgrades kRepair to
//   kRehome); a block already being healed is left alone.
//
//   Concurrency cap.  At most Options::max_concurrent items are in flight,
//   ever — the global brake on how much of the cluster a storm may occupy.
//
//   Byte budgets.  Per-server egress/ingress byte budgets over a rolling
//   window.  Before dispatch the scheduler prices the next heal from the
//   code (d chunks of block/(d-k+1) helper egress for the MSR path, k whole
//   blocks for the RS fallback, one block of newcomer ingress) and defers
//   when too few healthy servers have headroom.  The scheduler attaches
//   itself to the store (attach_scheduler, the one seam): the store asks it
//   which helpers the MSR PROJECT fan-in uses, so the fan-in spreads across
//   the least-charged healthy servers instead of always taking the first d
//   survivors — Wu's spread-the-helper-load argument — and reports every
//   repair transfer to it, so budgets charge actual wire bytes, not
//   estimates.
//
//   Admission control.  When the foreground p99 (windowed, from the
//   store's carousel_store_read_seconds histogram) exceeds
//   Options::p99_budget, the allowed concurrency halves (AIMD); every
//   healthy window ramps it back by one.  Stripes at criticality >= n-k
//   bypass admission and budget gates — at the erasure limit durability
//   outranks politeness — but never the global cap.
//
// Work flows in from two places: Scrubber sweeps and direct enqueue()
// calls, enqueue_server() being the whole-server fan-in.  A scrubber feeds
// the scheduler passed as its Options::scheduler, or else a default one it
// owns (these Options, no monitor) and drains at the end of each sweep.
// Items drain either synchronously (step(), what the tests drive) or on a
// ThreadPool of max_concurrent threads, so every item counted as running
// executes, fed by a dispatch pass that a util::PeriodicThread runs every
// Options::tick (start()/stop()).
//
// Lock order: store.mu_ -> scheduler.mu_ (the store calls select_helpers/
// observe_traffic while holding its mutex).  The scheduler therefore never
// calls a store method while holding its own mutex, and those two touch
// only scheduler state.  The order is enforced by the lock ranks in
// util/sync.h (LockRank::kStore < kScheduler) and by the thread-safety
// annotations below.
//
// Every carousel_repair_* metric is created through the registry helper in
// repair_scheduler.cpp — tools/check_invariants.py rule 6 enforces that the
// prefix appears nowhere else in src/.

#ifndef CAROUSEL_NET_REPAIR_SCHEDULER_H
#define CAROUSEL_NET_REPAIR_SCHEDULER_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "net/store.h"
#include "obs/metrics.h"
#include "util/periodic_thread.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace carousel::net {

class HealthMonitor;

class RepairScheduler {
 public:
  /// What healing a work item asks for: repair in place, or regenerate onto
  /// a new home (the dead-server newcomer loop).
  enum class Kind : std::uint8_t { kRepair, kRehome };

  /// Structural knobs are validated at construction (std::invalid_argument
  /// for zero concurrency or non-positive windows): a scheduler
  /// that can never dispatch is a misconfiguration, not a quiet no-op.
  /// Byte-budget magnitudes are deliberately NOT validated — tests and
  /// benches pin tiny budgets to exercise deferral.
  struct Options {
    /// Global cap on in-flight heals; nothing ever exceeds it, and
    /// background mode runs that many at once.  Must be >= 1.
    std::size_t max_concurrent = 2;
    /// Per-server byte budgets over one budget_window (0 = unbounded).
    /// Meaningful budgets are >= block_bytes: one whole-block fetch is the
    /// smallest indivisible charge the repair path can make.
    std::uint64_t server_egress_budget = 0;
    std::uint64_t server_ingress_budget = 0;
    std::chrono::milliseconds budget_window{1000};
    /// Foreground p99 latency budget (0 = admission control off).
    std::chrono::milliseconds p99_budget{0};
    /// How often the background dispatcher re-evaluates admission.
    std::chrono::milliseconds admission_interval{200};
    /// Dispatcher poll cadence while deferred or idle.
    std::chrono::milliseconds tick{20};
    /// Health view for budget gating (dead servers have no headroom to
    /// offer) and enqueue_server criticality.  Optional; must outlive the
    /// scheduler when set.
    HealthMonitor* monitor = nullptr;
  };

  /// One unit of healing work.
  struct WorkItem {
    CarouselStore::BlockRef block;
    Kind kind = Kind::kRepair;
    /// Known erasures in the block's stripe when (re-)enqueued; ordering
    /// key.  >= n-k marks an emergency (bypasses admission and budgets).
    std::uint32_t criticality = 1;
    std::uint64_t seq = 0;  // FIFO tiebreak inside a criticality class
  };

  /// What one synchronous step() did (or why it did nothing).
  enum class StepResult : std::uint8_t {
    kIdle,             // queue empty
    kDispatched,       // one item healed (or failed) synchronously
    kAtCap,            // max_concurrent items already in flight
    kDeferredBudget,   // head item priced over the per-server byte budgets
    kDeferredBackoff,  // admission control has throttled below running
  };

  /// Cumulative scheduler telemetry (mirrored into carousel_repair_*).
  struct Stats {
    std::uint64_t enqueued = 0;         // new items accepted
    std::uint64_t updated = 0;          // criticality bumps of queued items
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t deferred_budget = 0;  // dispatch attempts parked on bytes
    std::uint64_t deferred_backoff = 0; // parked on degraded-mode admission
    std::uint64_t backoffs = 0;         // allowed-concurrency halvings
    std::uint64_t ramps = 0;            // allowed-concurrency increments
    std::uint64_t emergencies = 0;      // dispatches that bypassed the gates
    std::uint64_t domain_boosts = 0;    // enqueues escalated by domain death
    std::uint64_t bytes_moved = 0;      // helper traffic of completed items
    std::size_t queue_depth = 0;
    std::size_t running = 0;
    std::size_t peak_running = 0;       // high-water mark, never > cap
    std::size_t allowed = 0;            // current admission limit
    /// Largest per-server charge observed in any single budget window.
    std::uint64_t max_window_egress = 0;
    std::uint64_t max_window_ingress = 0;
  };

  /// Attaches itself to the store (attach_scheduler) for its lifetime.  The
  /// store and monitor must outlive it; one scheduler per store (a second
  /// throws std::logic_error).
  RepairScheduler(CarouselStore& store, Options options);
  explicit RepairScheduler(CarouselStore& store)
      : RepairScheduler(store, Options{}) {}
  ~RepairScheduler();

  RepairScheduler(const RepairScheduler&) = delete;
  RepairScheduler& operator=(const RepairScheduler&) = delete;

  /// Adds (or escalates) one work item.  Safe to call from any thread.
  /// `home` is the victim block's (dead) home server: when the
  /// monitor knows other servers in that failure domain are also kDead,
  /// criticality is boosted by (dead-in-domain - 1) so a rack-down's
  /// stripes jump a backlog of scattered single failures.
  void enqueue(const CarouselStore::BlockRef& block, Kind kind,
               std::uint32_t criticality,
               std::optional<std::size_t> home = std::nullopt)
      EXCLUDES(mu_);

  /// The whole-server fan-in: enqueues a kRehome item for every block
  /// currently placed on `server_id` (a server the caller has declared
  /// dead); criticality is the per-stripe victim count.  Returns how many
  /// items were submitted.
  std::size_t enqueue_server(std::size_t server_id) EXCLUDES(mu_);

  /// The item the next dispatch would take (copy), if any.
  std::optional<WorkItem> peek() const EXCLUDES(mu_);

  /// Synchronous drain step: dispatches and heals at most one item inline.
  /// Deterministic — admission is only re-evaluated via poll_admission().
  StepResult step() EXCLUDES(mu_);

  /// Background mode: a dispatch pass every Options::tick + worker pool.
  /// Idempotent (including concurrent stop() callers); stop() also waits
  /// for the dispatched heals to finish.
  void start() EXCLUDES(mu_);
  void stop() EXCLUDES(mu_);
  bool running() const { return dispatcher_.running(); }

  /// Waits until the queue is empty and nothing is in flight.
  bool wait_idle(std::chrono::milliseconds timeout) EXCLUDES(mu_);

  /// One admission-control evaluation: diffs the foreground histogram
  /// since the last call and halves/ramps the allowed concurrency.  Called
  /// on admission_interval by the background dispatch pass; public so
  /// tests and synchronous drains can drive it deterministically.
  void poll_admission() EXCLUDES(mu_);

  /// Forgets the current window's byte charges (ops/test hook; the
  /// background dispatcher rolls windows by wall clock on its own).
  void reset_budget_window() EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

  /// Helper choice for the store's repair fan-in: `want` candidate indices,
  /// within-budget servers first, least window egress first, then server
  /// id.  The store calls it under its mutex while this scheduler is
  /// attached, so it touches only scheduler state.
  std::vector<std::size_t> select_helpers(
      const std::vector<CarouselStore::HelperCandidate>& candidates,
      std::size_t want, std::size_t bytes_per_helper) EXCLUDES(mu_);
  /// Charges one repair transfer (helper egress, newcomer ingress) to the
  /// budget window.  Called by the store under its mutex, like
  /// select_helpers.
  void observe_traffic(std::size_t server, std::uint64_t egress_bytes,
                       std::uint64_t ingress_bytes) EXCLUDES(mu_);

 private:
  using BlockId = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

  struct ItemOrder {
    bool operator()(const WorkItem& a, const WorkItem& b) const {
      if (a.criticality != b.criticality) return a.criticality > b.criticality;
      return a.seq < b.seq;
    }
  };

  struct Dispatch {
    StepResult result = StepResult::kIdle;
    WorkItem item;
  };

  static BlockId id_of(const CarouselStore::BlockRef& b) {
    return {b.file, b.stripe, b.index};
  }

  /// Health + admission + budget gates; pops and marks the head item
  /// running when dispatchable.
  Dispatch plan_dispatch() EXCLUDES(mu_);
  /// Runs one dispatched item against the store and records the outcome.
  void execute(const WorkItem& item) EXCLUDES(mu_);
  void finish(const WorkItem& item, bool ok, std::uint64_t bytes)
      EXCLUDES(mu_);
  /// One background pass: polls admission once admission_interval has
  /// elapsed, then dispatches onto the pool until plan_dispatch stops.
  void dispatch_pass() EXCLUDES(mu_);

  std::uint32_t emergency_threshold() const;
  bool budget_ok_locked(const std::vector<bool>& dead) REQUIRES(mu_);
  void roll_window_locked(std::chrono::steady_clock::time_point now)
      REQUIRES(mu_);
  void charge_locked(std::size_t server, std::uint64_t egress,
                     std::uint64_t ingress) REQUIRES(mu_);
  void export_queue_gauges_locked() REQUIRES(mu_);

  CarouselStore& store_;
  Options options_;
  obs::MetricsRegistry* registry_ = nullptr;

  // Instruments, all resolved through the carousel_repair_ name helper.
  obs::Counter* enqueued_total_ = nullptr;
  obs::Counter* updated_total_ = nullptr;
  obs::Counter* completed_total_ = nullptr;
  obs::Counter* failed_total_ = nullptr;
  obs::Counter* deferred_budget_total_ = nullptr;
  obs::Counter* deferred_backoff_total_ = nullptr;
  obs::Counter* backoffs_total_ = nullptr;
  obs::Counter* ramps_total_ = nullptr;
  obs::Counter* emergencies_total_ = nullptr;
  obs::Counter* domain_boosts_total_ = nullptr;
  obs::Counter* bytes_moved_total_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* running_gauge_ = nullptr;
  obs::Gauge* allowed_gauge_ = nullptr;
  obs::Gauge* peak_running_gauge_ = nullptr;
  obs::Gauge* max_window_egress_gauge_ = nullptr;
  obs::Gauge* max_window_ingress_gauge_ = nullptr;
  obs::Gauge* foreground_p99_gauge_ = nullptr;

  mutable util::Mutex mu_{util::LockRank::kScheduler};
  util::CondVar idle_cv_;  // wakes wait_idle
  std::set<WorkItem, ItemOrder> queue_ GUARDED_BY(mu_);
  std::map<BlockId, std::set<WorkItem, ItemOrder>::iterator> index_
      GUARDED_BY(mu_);
  std::set<BlockId> running_items_ GUARDED_BY(mu_);
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::size_t running_ GUARDED_BY(mu_) = 0;
  // Current admission limit, <= max_concurrent.
  std::size_t allowed_ GUARDED_BY(mu_) = 0;
  Stats stats_ GUARDED_BY(mu_);

  // Per-server byte charges for the current budget window.
  std::map<std::size_t, std::uint64_t> window_egress_ GUARDED_BY(mu_);
  std::map<std::size_t, std::uint64_t> window_ingress_ GUARDED_BY(mu_);
  std::chrono::steady_clock::time_point window_start_ GUARDED_BY(mu_);
  // Fleet size at the last dispatch: plan_dispatch() reads it from the
  // store before taking mu_, then stores it under mu_ for budget_ok_locked.
  std::size_t known_servers_ GUARDED_BY(mu_) = 0;

  // Windowed-p99 state: foreground histogram buckets at the last poll.
  std::vector<std::uint64_t> last_foreground_buckets_ GUARDED_BY(mu_);
  // When the background pass last polled admission (start() resets it, so
  // the first poll comes one admission_interval after a start).
  std::chrono::steady_clock::time_point last_admission_ GUARDED_BY(mu_);

  // Created by the first start() under mu_, destroyed only with the
  // scheduler; the dispatch pass uses it after that handoff without the
  // lock (the thread launch orders the one-time publication).
  std::unique_ptr<util::ThreadPool> pool_;
  // Declared last: destroyed (and joined) before the state its pass uses.
  util::PeriodicThread dispatcher_;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_REPAIR_SCHEDULER_H
