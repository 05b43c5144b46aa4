// CarouselStore: the coordinator of the networked prototype.
//
// Stripes files across a fleet of block servers with a Carousel code and
// is the remote executor of the code's stripe plans (codes/carousel.h).
// Every op reaches the wire through one executor round: a stripe's
// per-block requests, all at once on a store-owned thread pool.  The round
// is the one place the store calls a Client, and a request may name its own
// server instead of its block's home in the round's placement row.
// read_file and repair_block are plan loops of one shape: plan over the
// usable blocks, run what is not yet held as one round, mark each failed
// block unusable, re-plan reusing the rest.
//   - read: plan_read names the units — a GET_RANGE per data extent (all p
//     at once when healthy), else an identity PROJECT (a §VII stand-in);
//   - repair: n-1 VERIFYs at once, then plan_repair's d helpers run their
//     phi-projections server-side (PROJECT), all at once, so only Fig. 7's
//     d/(d-k+1) block sizes travel (k whole blocks when fewer than d are
//     usable); the newcomer rebuilds and re-PUTs in a one-slot round whose
//     PUT is audited (VERIFY) on the same lease.
// put_file PUTs each stripe's n blocks as one round on its placement row,
// each PUT slot encoding its own block of the stripe's message first, and a
// failed put REMOVEs what it launched, one round per stripe.
// probe_stripe, one VERIFY round reporting each block's BlockState, is the
// one stripe probe: sweeps, repairs and reconcile() all ask it.
// reconcile() probes a recovered rehome's target and old home as one
// round; drop_block and verify_block are one-slot rounds.
//
// Hedged reads: with StoreOptions::hedge enabled, a slot whose range-GET has
// not answered within a latency budget (a quantile of the store's own
// carousel_store_range_get_seconds histogram, floored by HedgePolicy::floor)
// gets a speculative §VII stand-in racing its primary.  Whichever answers
// first wins; the loser finishes on its own pooled connection — its response
// is fully read and then discarded, never double-decoded and never left
// half-parsed on a socket another request could pick up.  The race is
// counted by carousel_store_hedged_reads_total / carousel_store_hedge_wins_
// total (minted through one helper; check_invariants rule 7).
//
// Locking discipline: mu_ guards only in-memory lookups and mutations — the
// manifest/placement tables, the servers_ vector, and the attached
// scheduler.  It is NEVER held across network I/O.  Every wire
// operation leases a connection from a per-server client pool (Server::idle,
// guarded by the per-server pool_mu) and runs lock-free, so concurrent
// read_file calls — and a background Scrubber or RepairScheduler healing
// while a foreground reader streams — proceed in parallel.  Lock order is
// mu_ -> pool_mu, both leaf-held for pointer swaps only; executor pool
// tasks take pool_mu and their slot cell's leaf lock alone.  A round's
// placement snapshot may go stale (a concurrent re-home): the affected
// block simply surfaces as an erasure and fails over like any other.
//
// Placement is explicit: every file's manifest entry carries a per-stripe
// placement table mapping block index -> server id.  put_file seeds it with
// the paper's rule (block i of every stripe on server i mod base fleet,
// diverted only where a domain is full), but the table is the truth from
// then on — add_server() registers spare servers at runtime, and
// rehome_block() drives the MSR repair path with the rebuilt block
// re-uploaded to a *new* home (still d/(d-k+1) block sizes of helper
// traffic) when a home server dies for good.  This is the
// regenerate-onto-a-newcomer maintenance loop of Dimakis et al.; the
// HealthMonitor (net/cluster.h) decides *when* a server is dead, the
// Scrubber finds what to heal, and the RepairScheduler — the one healer —
// runs every repair_block/rehome_block a sweep or enqueue_server asks for.
//
// Repair scheduling: attach_scheduler() is the store's one scheduler seam.
// While a RepairScheduler is attached, the repair fan-in takes its helpers
// from select_helpers() and every repair transfer is charged to it through
// observe_traffic() — both called under mu_ (LockRank::kStore <
// kScheduler).  Detached, a repair fans into the first survivors.
//
// Failure domains: every server carries a domain label (a rack, a power
// feed).  The placement table is seeded and *maintained* under one hard
// invariant — no domain ever holds more than n-k blocks of a stripe — so a
// whole-domain outage never exceeds the code's erasure tolerance.  One
// predicate, placement_fits_locked, decides whether a stripe's row is
// legal; the candidate chooser, the row writer, every commit re-check and
// journal replay all ask it, and a violating move is rejected with
// RehomeError rather than silently concentrating risk (check_invariants
// rule 9).  By default every server is its own domain; passing
// StoreOptions::domains (or add_server(port, domain)) opts into shared
// domains, where a rehome may stack a second stripe block on a survivor as
// long as its *domain* stays within n-k — the domain, not the box, is the
// failure unit being priced.
//
// Intent lifecycle: commit_put/abort_put and commit_rehome/abort_rehome are
// the only code that journals a put or rehome outcome and publishes it.
// put_file, repair_block and reconcile() all finish through them, so a
// recovered intent is adopted or dropped exactly as a live one is.
//
// Failure model: a block that times out, arrives corrupt, or whose server is
// down is an *erasure*, not an error.  read_file re-plans the stripe around
// it (§VII stand-ins, then the fewest-units plan over what remains) and only
// throws when the reachable blocks of a stripe cannot decode.  repair_block
// re-plans the same way (a lost helper's place goes to the next verified
// survivor), audits the rebuilt block (VERIFY + CRC compare) before
// declaring success, and — when the re-upload target itself is dead —
// retries onto a placement-eligible spare or throws RehomeError with the
// stripe untouched.  A spare's copy that fails its audit, or whose move
// loses a commit race, is deleted before the next candidate is tried.
// StoreOptions::op_budget bounds a whole read_file/repair_block call across
// every failover step (StoreDeadlineError), so a read limping across many
// sick servers fails fast instead of multiplying per-op timeouts.

#ifndef CAROUSEL_NET_STORE_H
#define CAROUSEL_NET_STORE_H

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "codes/carousel.h"
#include "net/client.h"
#include "net/meta_log.h"
#include "util/sync.h"

namespace carousel::util {
class ThreadPool;
}  // namespace carousel::util

namespace carousel::net {

class RepairScheduler;

/// Store-level view of one block's condition.
enum class BlockState { kOk, kMissing, kCorrupt, kUnreachable };

struct StoreOptions {
  /// Applied to every server connection the store owns.
  RetryPolicy policy{};
  /// Registry for the store's own metrics and those of its clients; the
  /// process-global registry when null.  Tests pass a fresh registry to make
  /// exact assertions on repair traffic.
  obs::MetricsRegistry* registry = nullptr;
  /// Wall-clock budget for one whole read_file/repair_block/rehome call
  /// across every failover step (zero = unbounded).  Exceeding it throws
  /// StoreDeadlineError — the already-running client op still finishes, so
  /// the worst case is budget + one per-op deadline, never a sum of them.
  std::chrono::milliseconds op_budget{0};
  /// Hedged-read policy; see HedgePolicy (net/meta_log.h).  Runtime-
  /// adjustable via set_hedge_policy().
  HedgePolicy hedge{};
  /// Failure-domain label per construction server (domains[i] labels
  /// ports[i]).  Empty = one domain per server.  When set it must match
  /// ports.size().  Labeled or not, the fleet must be satisfiable: the
  /// distinct domains D must give D*(n-k) >= n, or no placement can honor
  /// the per-domain invariant.
  std::vector<std::size_t> domains{};
  /// When non-empty, every manifest mutation is journaled (write-ahead,
  /// CRC-per-record, fsynced) to this directory before it is published in
  /// memory, and constructing a store over an existing journal replays it
  /// — manifest, placement, spares and hedge policy survive a coordinator
  /// crash.  Empty keeps the pre-existing in-memory-only coordinator.
  std::filesystem::path meta_dir{};
  /// fsync the metadata journal (shape kept, durability traded for test
  /// speed when off — mirrors PersistentBlockStore::Options::fsync).
  bool meta_fsync = true;
};

class CarouselStore {
 public:
  /// One server the store knows about.
  struct ServerEndpoint {
    std::size_t id = 0;
    std::uint16_t port = 0;
    /// Registered via add_server(): receives blocks only through re-homing,
    /// never through put_file's initial placement.
    bool spare = false;
    /// Failure domain (rack) this server belongs to; its own id when the
    /// store runs with default one-domain-per-server labels.
    std::size_t domain = 0;
  };

  /// Fully-qualified name of one block.
  struct BlockRef {
    std::uint32_t file = 0;
    std::uint32_t stripe = 0;
    std::uint32_t index = 0;
  };

  /// One eligible repair helper: a surviving block index and the server the
  /// placement table currently homes it on.
  struct HelperCandidate {
    std::size_t index = 0;
    std::size_t server = 0;
  };

  /// Remembers the given servers (connections are lazy).  The code must
  /// outlive the store.  Throws std::invalid_argument unless block_bytes
  /// passes code.stripes_for's check and the fleet can honor the
  /// per-domain cap: distinct domains * (n-k) >= n, where an unlabeled
  /// server is its own domain.  Files are striped by code.stripes_for and
  /// code.stripe_message, as storage::ErasureFile's encode_stripe is, and
  /// each block is encoded by code.encode_one in its PUT slot.  Block i of
  /// a stripe goes to server i mod fleet size (one block per server when
  /// ports.size() >= n, the paper's placement) wherever the domains permit.
  CarouselStore(const codes::Carousel& code,
                const std::vector<std::uint16_t>& ports,
                std::size_t block_bytes, StoreOptions options = {});
  ~CarouselStore();

  const codes::Carousel& code() const { return *code_; }
  std::size_t block_bytes() const { return block_bytes_; }

  /// The *initial* placement rule: which server put_file homes block
  /// `index` of a new stripe on.  Re-homed blocks move away from this —
  /// placement_of() is the per-block truth.
  std::size_t server_of(std::size_t index) const {
    return index % base_fleet_;
  }

  /// Registers a spare server at runtime and returns its id.  Spares take
  /// no new writes; they become block homes through rehome_block().  The
  /// no-domain overload gives the spare its own fresh domain; the labeled
  /// one joins it to an existing (or new) failure domain, and every
  /// placement move onto it then honors the per-domain <= n-k invariant.
  std::size_t add_server(std::uint16_t port) EXCLUDES(mu_);
  std::size_t add_server(std::uint16_t port, std::size_t domain)
      EXCLUDES(mu_);

  /// Failure-domain label of one server.  Throws std::out_of_range for ids
  /// the store never registered.
  std::size_t domain_of(std::size_t server_id) const EXCLUDES(mu_);

  /// The placement invariant's cap: no domain may hold more than this many
  /// blocks of one stripe (n-k, the code's erasure tolerance).
  std::size_t max_blocks_per_domain() const {
    return code_->n() - code_->k();
  }

  /// Every server this store knows, registration order (spares last).
  std::vector<ServerEndpoint> servers() const EXCLUDES(mu_);
  std::size_t server_count() const EXCLUDES(mu_);

  /// Which server currently hosts block (stripe, index) of `file_id`,
  /// according to the manifest's placement table.  Falls back to the
  /// initial rule for files this store never uploaded.
  std::size_t placement_of(std::uint32_t file_id, std::uint32_t stripe,
                           std::uint32_t index) const EXCLUDES(mu_);

  /// Every block the placement table homes on `server_id`.
  std::vector<BlockRef> blocks_on(std::size_t server_id) const EXCLUDES(mu_);

  /// Uploads one stripe at a time (one stripe of memory, not a copy of the
  /// file), the stripe's n PUTs as one executor round whose slots each
  /// encode their own block of the stripe's message, on the store pool, then
  /// PUT it; returns the stripe count and records the file in the manifest
  /// (what the scrubber sweeps) together with its placement table.  A
  /// failed PUT (or encode) throws once its round has drained, after every
  /// block of every stripe launched so far is deleted; no failure of that
  /// clean-up replaces the upload's error.
  std::size_t put_file(std::uint32_t file_id,
                       std::span<const codes::Byte> bytes) EXCLUDES(mu_);

  /// Downloads and reassembles the file (size from put_file's input).
  /// Each stripe runs the code's read plan over the blocks still usable —
  /// dead servers, timeouts and corrupt blocks all count as erasures, and
  /// each one re-plans the stripe, reusing the units already held.
  /// Thread-safe and genuinely concurrent: two calls overlap on the wire,
  /// and within one call all p extents of a stripe are in flight at once.
  std::vector<codes::Byte> read_file(std::uint32_t file_id,
                                     std::size_t file_bytes) EXCLUDES(mu_);

  /// Deletes one block replica on its server (failure injection), as a
  /// one-slot REMOVE round.  Returns false if it was already gone, or when
  /// its server does not answer.
  bool drop_block(std::uint32_t file_id, std::uint32_t stripe,
                  std::uint32_t index);

  /// Rebuilds a lost or corrupt block and re-uploads it to its current
  /// home, then audits the stored copy (VERIFY) before returning.  Probes
  /// the other blocks at once, then fetches from the verified ones at once:
  /// d helper chunks (d/(d-k+1) block sizes), or k whole blocks once fewer
  /// than d verify or stay reachable.  When the home server is unreachable
  /// the rebuilt block is re-homed onto a placement-eligible spare instead
  /// (RehomeError when none accepts it).  Returns bytes fetched from
  /// helpers, including chunks of an abandoned MSR attempt.
  std::uint64_t repair_block(std::uint32_t file_id, std::uint32_t stripe,
                             std::uint32_t index) EXCLUDES(mu_);

  /// Rebuilds one block and re-homes it onto a server that holds no other
  /// block of its stripe (spares first) — the newcomer loop for a dead home
  /// server.  Updates the placement table on success; throws RehomeError
  /// (stripe untouched) when no candidate accepts the block.  Returns the
  /// helper traffic, still d/(d-k+1) block sizes when d helpers survive.
  std::uint64_t rehome_block(std::uint32_t file_id, std::uint32_t stripe,
                             std::uint32_t index) EXCLUDES(mu_);

  /// Audits one block without transferring it, as a one-slot VERIFY round
  /// (no src/ caller: rule 14).
  BlockState verify_block(std::uint32_t file_id, std::uint32_t stripe,
                          std::uint32_t index);

  /// VERIFYs the stripe's n blocks as one executor round on its current
  /// placement row; returns each block's state by index.  No op budget.
  std::vector<BlockState> probe_stripe(std::uint32_t file_id,
                                       std::uint32_t stripe) EXCLUDES(mu_);

  /// One manifest row: {bytes, stripes, placement}, with
  /// placement[stripe][index] the server id hosting that block.  The same
  /// type the journal stores.
  using FileInfo = MetaLog::FileRecord;
  /// Files this store has uploaded, by id.
  std::map<std::uint32_t, FileInfo> files() const EXCLUDES(mu_);

  /// Total bytes received from all servers (traffic accounting).  Counts
  /// idle pooled connections plus everything folded in from retired ones;
  /// a connection leased by an op in flight is counted once it returns.
  std::uint64_t bytes_received() const EXCLUDES(mu_);

  /// The registry this store (and its clients, and any Scrubber sweeping it)
  /// reports into — StoreOptions::registry, or the process-global one.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  /// Replaces the hedged-read policy at runtime (benches toggle hedging on
  /// one fleet to measure its tail-latency win in isolation).
  void set_hedge_policy(HedgePolicy policy) EXCLUDES(mu_);

  /// Attaches a RepairScheduler, the store's one scheduler seam: repairs
  /// then fan into its select_helpers() choice and report every wire
  /// transfer to its observe_traffic().  One per store: std::logic_error
  /// while another is attached.  nullptr detaches; the scheduler does both.
  void attach_scheduler(RepairScheduler* scheduler) EXCLUDES(mu_);

  /// Outcome of one reconcile() pass over the intents a replay recovered.
  struct ReconcileReport {
    std::size_t pending_puts = 0;     // recovered put intents examined
    std::size_t pending_rehomes = 0;  // recovered rehome intents examined
    std::size_t puts_adopted = 0;     // every block verified -> committed
    std::size_t puts_aborted = 0;     // orphan blocks deleted, put dropped
    std::size_t rehomes_adopted = 0;  // target copy verified -> flipped
    std::size_t rehomes_aborted = 0;  // stray target copy deleted
    std::size_t orphans_deleted = 0;  // blocks removed from servers
  };

  /// Resolves the pending intents a crashed coordinator left behind (the
  /// journal replay recovers them; this probes the fleet).  A pending put
  /// whose every block VERIFYs intact (one probe round per stripe) is
  /// adopted into the manifest — the upload finished, only the commit
  /// record was lost; otherwise its already-landed blocks are deleted as
  /// orphans.  A pending rehome whose target copy is intact while the old
  /// home is not adopts the flip (domain invariant permitting); otherwise
  /// the stray target copy is deleted.  Either way the decision is
  /// journaled (commit/abort), so a crash *during* reconciliation just
  /// reconciles again.  Idempotent and cheap when nothing is pending — the
  /// Scrubber calls it every sweep.
  ReconcileReport reconcile() EXCLUDES(mu_);

  /// True when this store journals its metadata (StoreOptions::meta_dir).
  bool durable_meta() const { return meta_ != nullptr; }

  /// Replay outcome of the journal this store was opened over (zeroes for
  /// an in-memory store).
  MetaLog::ReplayReport meta_replay_report() const;

  /// Test hook: arms the journal's crash injector for the calling thread's
  /// steps (append c is steps 2c-1, 2c).  No-op for in-memory stores.
  void set_meta_crash_point(const durable::CrashPlan& plan) EXCLUDES(mu_);

 private:
  /// One server plus its client pool.  Server objects are heap-allocated
  /// and live as long as the store, so an executor task may hold a Server*
  /// without mu_ — add_server() only ever appends to servers_.
  struct Server {
    std::uint16_t port = 0;
    bool spare = false;
    std::size_t domain = 0;  // fixed at registration, like port
    // Guards idle/retired_bytes; never held across I/O.  Ranked after the
    // store's mu_ because bytes_received() walks the pools under mu_.
    util::Mutex pool_mu{util::LockRank::kServerPool};
    std::vector<std::unique_ptr<Client>> idle GUARDED_BY(pool_mu);
    // bytes_received of discarded clients.
    std::uint64_t retired_bytes GUARDED_BY(pool_mu) = 0;
  };

  std::size_t add_server_locked(std::uint16_t port, std::size_t domain,
                                bool labeled) REQUIRES(mu_);
  Server& server_at(std::size_t server_id) const
      EXCLUDES(mu_);  // takes mu_ briefly
  /// The one mint point for every carousel_store_hedge* series
  /// (check_invariants rule 7).
  obs::Counter& hedge_metric(const char* suffix);
  /// Current hedge latency budget: the policy quantile of the range-GET
  /// histogram, floored, or `initial` while samples are scarce.
  std::chrono::milliseconds hedge_budget(const HedgePolicy& policy) const;
  /// Charges one repair transfer to the attached scheduler, under mu_.
  void observe_traffic(std::size_t server, std::uint64_t egress,
                       std::uint64_t ingress) EXCLUDES(mu_);
  std::size_t home_of_locked(std::uint32_t file_id, std::uint32_t stripe,
                             std::uint32_t index) const REQUIRES(mu_);
  /// The stripe's placement row: home_of_locked of every block.
  std::vector<std::uint32_t> row_of(std::uint32_t file_id,
                                    std::uint32_t stripe) const EXCLUDES(mu_);
  /// The one placement predicate (check_invariants rule 9): true when
  /// `row` is n wide, names only registered servers, and puts no more than
  /// n-k of its blocks in any one domain.
  bool placement_fits_locked(const std::vector<std::uint32_t>& row) const
      REQUIRES(mu_);
  /// placement_fits_locked on the stripe's current row with block `index`
  /// homed on `server_id` instead.
  bool domain_fits_locked(std::size_t server_id, std::uint32_t file_id,
                          std::uint32_t stripe, std::uint32_t index) const
      REQUIRES(mu_);
  /// The one domain-checked chooser: candidate new homes for
  /// (file, stripe, index), current home excluded, every tier filtered by
  /// domain_fits_locked.  Tier 0: spares holding no block of the stripe;
  /// tier 1: non-spares holding none (both ascending id).  Tier 2 — only
  /// for stores with explicit domains — servers already holding stripe
  /// blocks, least-loaded first, so a whole-rack loss can re-protect by
  /// stacking on survivors while their domains stay within the cap.
  std::vector<std::size_t> placement_candidates_locked(
      std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index) const
      REQUIRES(mu_);
  std::vector<std::size_t> placement_candidates(std::uint32_t file_id,
                                                std::uint32_t stripe,
                                                std::uint32_t index) const
      EXCLUDES(mu_);
  /// Records block (stripe, index) of file as now living on `server_id`.
  /// Backstop for the invariant: throws RehomeError when the move would
  /// push server_id's domain past n-k blocks of the stripe.
  void set_placement_locked(std::uint32_t file_id, std::uint32_t stripe,
                            std::uint32_t index, std::size_t server_id)
      REQUIRES(mu_);
  /// Seeds a fresh file's placement table: a greedy rotation that puts
  /// block i on server i mod base fleet (the paper's rule) wherever the
  /// domains permit, and never seeds a domain past the n-k cap.
  std::vector<std::vector<std::uint32_t>> seed_placement(std::size_t stripes)
      const EXCLUDES(mu_);
  class Round;  // the remote executor (DESIGN.md §10), in store.cpp
  struct Request;
  struct Outcome;
  /// Runs `req` as a one-slot round on the stripe's current row, with no
  /// deadline; a PUT's error propagates.
  Outcome run_one(std::uint32_t file_id, std::uint32_t stripe, Request req)
      EXCLUDES(mu_);
  /// probe_stripe on an explicit row of registered ids (reconcile probes
  /// unpublished ones): block `skip`, the one being rebuilt, reads kMissing
  /// unprobed, and a probe launched past `deadline` reads kUnreachable.
  std::vector<BlockState> probe_stripe(
      std::uint32_t file_id, std::uint32_t stripe,
      std::vector<std::uint32_t> row, std::optional<std::size_t> skip,
      std::chrono::steady_clock::time_point deadline) EXCLUDES(mu_);
  /// The repair engine.  Takes mu_ only for lookups and the final placement
  /// update — all probes, projections and uploads run on leased connections
  /// with no store lock held.
  std::uint64_t repair_block_impl(std::uint32_t file_id, std::uint32_t stripe,
                                  std::uint32_t index,
                                  std::optional<std::size_t> target)
      EXCLUDES(mu_);
  std::chrono::steady_clock::time_point budget_deadline() const;
  /// Survivor ordering for the repair fan-in: the attached scheduler's
  /// select_helpers() choice, or the first `want` survivors when none is
  /// attached.  Takes mu_ internally.
  std::vector<std::size_t> choose_helpers(
      std::uint32_t file_id, std::uint32_t stripe,
      const std::vector<std::size_t>& survivors, std::size_t want,
      std::size_t bytes_per_helper) const EXCLUDES(mu_);

  /// Adopts the replayed journal state into the live tables (constructor
  /// only): registers journaled spares, validates every replayed row with
  /// placement_fits_locked (a violation throws MetaReplayError — a journal
  /// must not resurrect an illegal layout), restores the hedge policy, and
  /// stashes the pending intents for reconcile().
  void adopt_replayed_state() REQUIRES(meta_mu_) EXCLUDES(mu_);

  // The intent lifecycle (see the header; check_invariants rule 9b).  Each
  // takes meta_mu_ for its journal append and publish; none holds a store
  // lock across network I/O.

  /// Journals the put's commit, then publishes `info` in the manifest and
  /// clears the in-flight mark.  A journal error propagates unpublished.
  void commit_put(std::uint32_t file_id, FileInfo info)
      EXCLUDES(meta_mu_, mu_);
  /// Best-effort REMOVEs every block of `rows` (the placement rows of the
  /// stripes whose upload started, from stripe 0), one round per stripe,
  /// skipping server ids the fleet does not have, with no store lock held;
  /// then clears the in-flight mark and journals the abort.  Returns how
  /// many copies were removed; an unreachable server keeps its copy.  A
  /// journal error propagates after the mark is cleared.
  std::size_t abort_put(std::uint32_t file_id,
                        std::span<const std::vector<std::uint32_t>> rows)
      EXCLUDES(meta_mu_, mu_);
  /// Re-checks that `target` still fits the block's row, then journals the
  /// commit and flips the placement, all under meta_mu_.  False, with
  /// nothing journaled, when a concurrent move filled target's domain.
  bool commit_rehome(std::uint32_t file_id, std::uint32_t stripe,
                     std::uint32_t index, std::size_t target)
      EXCLUDES(meta_mu_, mu_);
  /// Journals that the block's pending rehome was dropped.
  void abort_rehome(std::uint32_t file_id, std::uint32_t stripe,
                    std::uint32_t index) EXCLUDES(meta_mu_);

  const codes::Carousel* code_;
  std::size_t block_bytes_;
  obs::MetricsRegistry* registry_ = nullptr;
  std::chrono::milliseconds op_budget_{0};
  RetryPolicy policy_{};
  std::size_t base_fleet_ = 0;  // servers present at construction
  // Serializes every manifest mutation's [journal append -> in-memory
  // publish] window (LockRank::kMetaLog, acquired before mu_), which pins
  // WAL order == apply order.  Held across the journal's local append +
  // fsync — never across network I/O: reconcile() deletes orphans before
  // it takes the lock to journal the abort.  Mutation paths take it even on
  // in-memory stores so the serialization argument holds everywhere.
  mutable util::Mutex meta_mu_{util::LockRank::kMetaLog};
  // Set once in the constructor, never reseated; the MetaLog object's
  // internal state is guarded by meta_mu_ by convention (it carries no
  // annotations of its own).
  std::unique_ptr<MetaLog> meta_;
  // Intents recovered by the constructor's replay, consumed by reconcile().
  std::map<std::uint32_t, FileInfo> recovered_puts_ GUARDED_BY(meta_mu_);
  std::vector<MetaLog::RehomeIntent> recovered_rehomes_
      GUARDED_BY(meta_mu_);
  // Lookups/mutations only; NEVER held across I/O.  First acquired of the
  // store-side locks (LockRank::kStore), so it may nest the attached
  // scheduler's mutex and any Server::pool_mu, never the reverse.
  mutable util::Mutex mu_{util::LockRank::kStore};
  // The vector is guarded; the heap-allocated Servers it points at live as
  // long as the store, so an executor task may keep a Server* with no lock.
  std::vector<std::unique_ptr<Server>> servers_ GUARDED_BY(mu_);
  // True once any server carries a caller-chosen domain label (via
  // StoreOptions::domains or add_server(port, domain)).  Until then every
  // server is its own domain and tier-2 candidate stacking stays off.
  bool explicit_domains_ GUARDED_BY(mu_) = false;
  std::map<std::uint32_t, FileInfo> manifest_ GUARDED_BY(mu_);
  // File ids with a put_file in flight: the duplicate-id check must also
  // catch two concurrent puts racing the same id, not only committed files.
  std::set<std::uint32_t> inflight_puts_ GUARDED_BY(mu_);
  HedgePolicy hedge_ GUARDED_BY(mu_);  // snapshotted per read
  // Called under mu_; its select_helpers/observe_traffic touch only
  // scheduler state.
  RepairScheduler* scheduler_ GUARDED_BY(mu_) = nullptr;

  // Cached instruments (constructor-resolved from registry_).
  obs::Histogram* put_seconds_ = nullptr;
  obs::Histogram* read_seconds_ = nullptr;
  obs::Histogram* range_get_seconds_ = nullptr;
  obs::Histogram* repair_seconds_ = nullptr;
  obs::Counter* put_bytes_ = nullptr;
  obs::Counter* read_bytes_ = nullptr;
  obs::Counter* range_gets_ = nullptr;
  obs::Counter* hedged_reads_ = nullptr;
  obs::Counter* hedge_wins_ = nullptr;
  obs::Counter* repairs_ = nullptr;
  obs::Counter* repair_bytes_read_ = nullptr;
  obs::Counter* degraded_reads_ = nullptr;
  obs::Counter* decode_fallbacks_ = nullptr;
  obs::Counter* rehomes_ = nullptr;
  obs::Counter* rehome_failures_ = nullptr;
  obs::Counter* rehome_bytes_read_ = nullptr;
  obs::Counter* budget_exhausted_ = nullptr;
  obs::Gauge* spare_servers_ = nullptr;

  /// Fan-out workers for the executor.  Declared last on purpose: members
  /// destroy in reverse order, so the pool's destructor joins any
  /// still-draining hedge losers while servers_ and the instruments their
  /// tasks touch are still alive.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace carousel::net

#endif  // CAROUSEL_NET_STORE_H
