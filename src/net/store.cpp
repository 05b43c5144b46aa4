#include "net/store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <numeric>
#include <set>
#include <stdexcept>

#include "net/repair_scheduler.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace carousel::net {

using codes::Byte;

namespace {

/// Construction-time validation shared by the constructor and
/// set_hedge_policy(): nonsense knobs throw instead of degenerating into a
/// policy that silently hedges every read (or none).
void validate_hedge_policy(const HedgePolicy& policy) {
  if (policy.percentile < 0.5 || policy.percentile >= 1.0)
    throw std::invalid_argument(
        "HedgePolicy::percentile must lie in [0.5, 1.0)");
  if (policy.min_samples == 0)
    throw std::invalid_argument(
        "HedgePolicy::min_samples must be > 0 (a zero-sample quantile is "
        "undefined)");
  if (policy.floor.count() < 0 || policy.initial.count() < 0)
    throw std::invalid_argument(
        "HedgePolicy budgets (floor, initial) must be >= 0");
}

/// CRC-32 fingerprint of the configuration a metadata journal belongs to:
/// code geometry, block size, construction fleet and its domain labels.
/// Reopening a journal under a different fingerprint throws MetaReplayError
/// — replaying placements into a differently shaped store would be silent
/// corruption.
std::uint32_t meta_config_fingerprint(const codes::Carousel& code,
                                      std::size_t block_bytes,
                                      const std::vector<std::uint16_t>& ports,
                                      const std::vector<std::size_t>& domains) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(code.n()));
  w.u32(static_cast<std::uint32_t>(code.k()));
  w.u64(block_bytes);
  w.u32(static_cast<std::uint32_t>(ports.size()));
  for (std::uint16_t p : ports) w.u16(p);
  w.u32(static_cast<std::uint32_t>(domains.size()));
  for (std::size_t d : domains) w.u64(d);
  return util::crc32(w.data());
}

}  // namespace

CarouselStore::CarouselStore(const codes::Carousel& code,
                             const std::vector<std::uint16_t>& ports,
                             std::size_t block_bytes, StoreOptions options)
    : code_(&code),
      block_bytes_(block_bytes),
      registry_(options.registry ? options.registry
                                 : &obs::MetricsRegistry::global()),
      op_budget_(options.op_budget),
      policy_(options.policy),
      hedge_(options.hedge) {
  code.stripes_for(0, block_bytes);  // throws on a misaligned block size
  if (options.op_budget.count() < 0)
    throw std::invalid_argument(
        "StoreOptions::op_budget must be >= 0 (zero = unbounded)");
  validate_hedge_policy(options.hedge);
  if (!options.domains.empty() && options.domains.size() != ports.size())
    throw std::invalid_argument(
        "StoreOptions::domains must label every construction server "
        "(domains.size() == ports.size())");
  base_fleet_ = ports.size();
  servers_.reserve(ports.size());
  explicit_domains_ = !options.domains.empty();
  std::set<std::size_t> distinct;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    auto server = std::make_unique<Server>();
    server->port = ports[i];
    server->domain = explicit_domains_ ? options.domains[i] : i;
    distinct.insert(server->domain);
    servers_.push_back(std::move(server));
  }
  // Satisfiability: with D distinct domains and at most n-k blocks of a
  // stripe per domain, a stripe's n blocks fit only when D*(n-k) >= n.  An
  // unlabeled server is its own domain.
  if (distinct.size() * max_blocks_per_domain() < code.n())
    throw std::invalid_argument(
        "fleet unsatisfiable: need distinct domains * (n-k) >= n to place a "
        "stripe under the per-domain cap (an unlabeled server is its own "
        "domain)");
  put_seconds_ = &registry_->histogram("carousel_store_put_seconds");
  read_seconds_ = &registry_->histogram("carousel_store_read_seconds");
  range_get_seconds_ =
      &registry_->histogram("carousel_store_range_get_seconds");
  repair_seconds_ = &registry_->histogram("carousel_store_repair_seconds");
  put_bytes_ = &registry_->counter("carousel_store_put_bytes_total");
  read_bytes_ = &registry_->counter("carousel_store_read_bytes_total");
  range_gets_ = &registry_->counter("carousel_store_range_gets_total");
  hedged_reads_ = &hedge_metric("d_reads_total");
  hedge_wins_ = &hedge_metric("_wins_total");
  repairs_ = &registry_->counter("carousel_store_repairs_total");
  repair_bytes_read_ =
      &registry_->counter("carousel_store_repair_bytes_read_total");
  degraded_reads_ =
      &registry_->counter("carousel_store_degraded_stripe_reads_total");
  decode_fallbacks_ =
      &registry_->counter("carousel_store_decode_fallback_stripes_total");
  rehomes_ = &registry_->counter("carousel_cluster_rehomes_total");
  rehome_failures_ =
      &registry_->counter("carousel_cluster_rehome_failures_total");
  rehome_bytes_read_ =
      &registry_->counter("carousel_cluster_rehome_bytes_read_total");
  budget_exhausted_ =
      &registry_->counter("carousel_store_budget_exhausted_total");
  spare_servers_ = &registry_->gauge("carousel_cluster_spare_servers");
  if (!options.meta_dir.empty()) {
    MetaLog::Options mopts;
    mopts.fsync = options.meta_fsync;
    mopts.registry = registry_;
    util::MutexLock mlock(meta_mu_);
    meta_ = std::make_unique<MetaLog>(
        options.meta_dir,
        meta_config_fingerprint(code, block_bytes, ports, options.domains),
        mopts);
    adopt_replayed_state();
  }
  // Sized so one stripe's fan-out plus a second concurrent reader never
  // queues behind itself.
  pool_ = std::make_unique<util::ThreadPool>(
      std::max<std::size_t>(8, 2 * code.n()));
}

void CarouselStore::adopt_replayed_state() {
  const MetaLog::State& state = meta_->state();
  {
    util::MutexLock lock(mu_);
    // Spares first: replayed placements may name them.  Domains were
    // resolved at append time, so the journaled label is the truth.
    for (const MetaLog::SpareServer& sp : state.spares)
      add_server_locked(sp.port, static_cast<std::size_t>(sp.domain),
                        sp.labeled);
    // A journal must not resurrect a layout a live store would never have
    // produced: every replayed row must pass the live placement predicate.
    for (const auto& [file_id, rec] : state.manifest) {
      bool legal = rec.placement.size() == rec.stripes;
      for (const auto& row : rec.placement)
        legal = legal && placement_fits_locked(row);
      if (!legal)
        throw MetaReplayError(
            "replayed placement of file " + std::to_string(file_id) +
            " is illegal on this fleet: a malformed table, a server outside "
            "the fleet, or more than n-k blocks in one domain");
    }
    manifest_ = state.manifest;
    if (state.hedge) {
      try {
        validate_hedge_policy(*state.hedge);
      } catch (const std::invalid_argument& e) {
        throw MetaReplayError(std::string("replayed hedge policy invalid: ") +
                              e.what());
      }
      hedge_ = *state.hedge;
    }
  }
  // Intents a crashed coordinator left pending: reconcile() probes them.
  recovered_puts_ = state.pending_puts;
  recovered_rehomes_ = state.pending_rehomes;
}

// Defined here, where ThreadPool is complete.  pool_ is the last member, so
// its destructor runs first and joins every still-draining hedge loser while
// servers_ and the cached instruments are alive.
CarouselStore::~CarouselStore() = default;

obs::Counter& CarouselStore::hedge_metric(const char* suffix) {
  return registry_->counter(std::string("carousel_store_hedge") + suffix);
}

std::chrono::steady_clock::time_point CarouselStore::budget_deadline() const {
  return op_budget_.count() > 0
             ? std::chrono::steady_clock::now() + op_budget_
             : std::chrono::steady_clock::time_point::max();
}

namespace {

/// Throws StoreDeadlineError once `deadline` has passed — called between
/// failover steps, so a chain of sick servers costs at most the budget plus
/// the one client op already in flight.
void check_budget(std::chrono::steady_clock::time_point deadline,
                  obs::Counter* exhausted, const char* what) {
  if (std::chrono::steady_clock::now() < deadline) return;
  exhausted->inc();
  throw StoreDeadlineError(std::string(what) +
                           ": whole-operation budget exhausted");
}

}  // namespace

CarouselStore::Server& CarouselStore::server_at(std::size_t server_id) const {
  util::MutexLock lock(mu_);
  return *servers_[server_id];
}

std::size_t CarouselStore::add_server(std::uint16_t port) {
  // meta_mu_ serializes the whole [resolve domain -> journal -> publish]
  // window against every other mutation, so the domain read under mu_
  // cannot go stale between the append and the registration.
  util::MutexLock mlock(meta_mu_);
  std::size_t domain = 0;
  {
    util::MutexLock lock(mu_);
    // A fresh domain of its own: its id is unique, so the spare never
    // shares a failure domain unless the caller says so via the labeled
    // overload.
    domain = servers_.size();
  }
  if (meta_) meta_->add_server(port, domain, false);
  util::MutexLock lock(mu_);
  return add_server_locked(port, domain, false);
}

std::size_t CarouselStore::add_server(std::uint16_t port, std::size_t domain) {
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->add_server(port, domain, true);
  util::MutexLock lock(mu_);
  return add_server_locked(port, domain, true);
}

std::size_t CarouselStore::add_server_locked(std::uint16_t port,
                                             std::size_t domain,
                                             bool labeled) {
  auto server = std::make_unique<Server>();
  server->port = port;
  server->spare = true;
  server->domain = domain;
  servers_.push_back(std::move(server));
  if (labeled) explicit_domains_ = true;
  std::size_t spares = 0;
  for (const auto& s : servers_) spares += s->spare;
  spare_servers_->set(static_cast<double>(spares));
  return servers_.size() - 1;
}

std::vector<CarouselStore::ServerEndpoint> CarouselStore::servers() const {
  util::MutexLock lock(mu_);
  std::vector<ServerEndpoint> out;
  out.reserve(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i)
    out.push_back(ServerEndpoint{i, servers_[i]->port, servers_[i]->spare,
                                 servers_[i]->domain});
  return out;
}

std::size_t CarouselStore::domain_of(std::size_t server_id) const {
  util::MutexLock lock(mu_);
  if (server_id >= servers_.size())
    throw std::out_of_range("domain_of: unknown server id");
  return servers_[server_id]->domain;
}

std::size_t CarouselStore::server_count() const {
  util::MutexLock lock(mu_);
  return servers_.size();
}

std::size_t CarouselStore::home_of_locked(std::uint32_t file_id,
                                          std::uint32_t stripe,
                                          std::uint32_t index) const {
  auto it = manifest_.find(file_id);
  if (it != manifest_.end() && stripe < it->second.placement.size() &&
      index < it->second.placement[stripe].size())
    return it->second.placement[stripe][index];
  return server_of(index);
}

std::size_t CarouselStore::placement_of(std::uint32_t file_id,
                                        std::uint32_t stripe,
                                        std::uint32_t index) const {
  util::MutexLock lock(mu_);
  return home_of_locked(file_id, stripe, index);
}

std::vector<std::uint32_t> CarouselStore::row_of(std::uint32_t file_id,
                                                 std::uint32_t stripe) const {
  util::MutexLock lock(mu_);
  std::vector<std::uint32_t> row(code_->n());
  for (std::uint32_t i = 0; i < row.size(); ++i)
    row[i] = static_cast<std::uint32_t>(home_of_locked(file_id, stripe, i));
  return row;
}

std::vector<CarouselStore::BlockRef> CarouselStore::blocks_on(
    std::size_t server_id) const {
  util::MutexLock lock(mu_);
  std::vector<BlockRef> out;
  for (const auto& [file_id, info] : manifest_)
    for (std::size_t s = 0; s < info.stripes; ++s)
      for (std::size_t i = 0; i < code_->n(); ++i)
        if (home_of_locked(file_id, static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(i)) == server_id)
          out.push_back(BlockRef{file_id, static_cast<std::uint32_t>(s),
                                 static_cast<std::uint32_t>(i)});
  return out;
}

bool CarouselStore::placement_fits_locked(
    const std::vector<std::uint32_t>& row) const {
  if (row.size() != code_->n()) return false;
  std::map<std::size_t, std::size_t> in_domain;
  for (std::uint32_t sid : row)
    if (sid >= servers_.size() ||
        ++in_domain[servers_[sid]->domain] > max_blocks_per_domain())
      return false;
  return true;
}

bool CarouselStore::domain_fits_locked(std::size_t server_id,
                                       std::uint32_t file_id,
                                       std::uint32_t stripe,
                                       std::uint32_t index) const {
  // The question is what the row would be once this block lands there.
  std::vector<std::uint32_t> row(code_->n());
  for (std::uint32_t i = 0; i < row.size(); ++i)
    row[i] = static_cast<std::uint32_t>(
        i == index ? server_id : home_of_locked(file_id, stripe, i));
  return placement_fits_locked(row);
}

std::vector<std::size_t> CarouselStore::placement_candidates_locked(
    std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index) const {
  // Per-server stripe-block counts excluding the block being moved: a
  // candidate is judged by what it would hold *besides* this block.
  std::vector<std::size_t> held(servers_.size(), 0);
  for (std::size_t i = 0; i < code_->n(); ++i) {
    if (i == index) continue;
    const std::size_t home =
        home_of_locked(file_id, stripe, static_cast<std::uint32_t>(i));
    if (home < servers_.size()) ++held[home];
  }
  const std::size_t current = home_of_locked(file_id, stripe, index);
  // Tiers 0/1: servers free of the stripe (or MDS durability would
  // concentrate two erasure domains on one box), spares first — that is
  // what they were registered for — and never past the domain cap.
  std::vector<std::size_t> out;
  for (bool want_spare : {true, false})
    for (std::size_t id = 0; id < servers_.size(); ++id)
      if (servers_[id]->spare == want_spare && held[id] == 0 &&
          id != current && domain_fits_locked(id, file_id, stripe, index))
        out.push_back(id);
  if (!explicit_domains_) return out;
  // Tier 2, explicit domains only: stack on a survivor already holding
  // stripe blocks, least-loaded first.  A whole-rack loss can leave more
  // victims than stripe-free survivors; the domain — not the box — is the
  // failure unit being priced, so stacking is sound while the candidate's
  // domain stays within n-k.
  std::vector<std::size_t> stacked;
  for (std::size_t id = 0; id < servers_.size(); ++id)
    if (held[id] > 0 && id != current &&
        domain_fits_locked(id, file_id, stripe, index))
      stacked.push_back(id);
  std::stable_sort(
      stacked.begin(), stacked.end(),
      [&held](std::size_t a, std::size_t b) { return held[a] < held[b]; });
  out.insert(out.end(), stacked.begin(), stacked.end());
  return out;
}

std::vector<std::size_t> CarouselStore::placement_candidates(
    std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index) const {
  util::MutexLock lock(mu_);
  return placement_candidates_locked(file_id, stripe, index);
}

void CarouselStore::set_placement_locked(std::uint32_t file_id,
                                         std::uint32_t stripe,
                                         std::uint32_t index,
                                         std::size_t server_id) {
  auto it = manifest_.find(file_id);
  if (it == manifest_.end())
    throw std::invalid_argument("placement update for unknown file");
  auto& table = it->second.placement;
  if (stripe >= table.size() || index >= table[stripe].size())
    throw std::invalid_argument("placement update out of range");
  // Backstop for the invariant: every legitimate caller already chose
  // server_id through the domain-checked chooser (and re-checked under
  // mu_), so tripping this means a placement path bypassed it.
  if (!domain_fits_locked(server_id, file_id, stripe, index))
    throw RehomeError(
        "placement rejected: the target's failure domain would hold more "
        "than n-k blocks of the stripe");
  table[stripe][index] = static_cast<std::uint32_t>(server_id);
}

void CarouselStore::observe_traffic(std::size_t server, std::uint64_t egress,
                                    std::uint64_t ingress) {
  util::MutexLock lock(mu_);
  if (scheduler_ != nullptr)
    scheduler_->observe_traffic(server, egress, ingress);
}

void CarouselStore::set_hedge_policy(HedgePolicy policy) {
  validate_hedge_policy(policy);
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->set_hedge(policy);
  util::MutexLock lock(mu_);
  hedge_ = policy;
}

std::chrono::milliseconds CarouselStore::hedge_budget(
    const HedgePolicy& policy) const {
  const obs::Histogram& h = *range_get_seconds_;
  if (h.count() < policy.min_samples)
    return std::max(policy.floor, policy.initial);
  // Budget the *upper* bound of the bucket holding the requested quantile
  // — hedging should fire past the quantile, never inside it.
  std::vector<std::uint64_t> buckets(h.bounds().size() + 1);
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] = h.bucket(i);
  const std::optional<double> budget_s =
      obs::quantile_upper_bound(h.bounds(), buckets, policy.percentile);
  if (!budget_s) return std::max(policy.floor, policy.initial);
  const auto ms = std::chrono::milliseconds(
      static_cast<std::int64_t>(std::ceil(*budget_s * 1000.0)));
  return std::max(policy.floor, ms);
}

std::vector<std::vector<std::uint32_t>> CarouselStore::seed_placement(
    std::size_t stripes) const {
  std::vector<std::vector<std::uint32_t>> placement(
      stripes, std::vector<std::uint32_t>(code_->n()));
  // Greedy rotation over the base fleet: block i prefers server i mod F
  // (the paper's rule) and walks forward from it to the least-loaded
  // eligible server, skipping any whose domain already holds n-k blocks of
  // the stripe.  With one domain per server (the unlabeled default) the
  // preferred server always has room, so every block lands on i mod F.
  // The constructor's satisfiability check (distinct domains * (n-k) >= n)
  // makes the walk total by pigeonhole.
  util::MutexLock lock(mu_);
  const std::size_t F = base_fleet_;
  for (auto& row : placement) {
    std::vector<std::size_t> count(F, 0);
    std::map<std::size_t, std::size_t> in_domain;
    for (std::size_t i = 0; i < code_->n(); ++i) {
      const std::size_t pref = i % F;
      std::size_t best = F;  // sentinel: none eligible yet
      for (std::size_t off = 0; off < F; ++off) {
        const std::size_t id = (pref + off) % F;
        if (in_domain[servers_[id]->domain] >= max_blocks_per_domain())
          continue;
        if (best == F || count[id] < count[best]) best = id;
      }
      if (best == F)
        throw RehomeError(
            "seed impossible: no server's domain can take another block of "
            "this stripe");
      row[i] = static_cast<std::uint32_t>(best);
      ++count[best];
      ++in_domain[servers_[best]->domain];
    }
  }
  return placement;
}

// One per-block request of an executor round.
struct CarouselStore::Request {
  enum Kind {
    kUnits,    // stored unit positions: a GET_RANGE when they are the
               // block's data extent, else a PROJECT with identity terms
    kProject,  // repair coefficients, one term list per output unit
    kBlock,    // the whole block (GET)
    kVerify,   // a health probe; no block bytes move
    kPut,      // stores `body`, or block `block` of `message`, as the block
    kRemove,   // deletes the block (DELETE)
  };
  Kind kind = kUnits;
  std::size_t block = 0;
  std::vector<std::size_t> positions{};  // kUnits
  Client::Projection terms{};            // kProject
  std::span<const Byte> body{};          // kPut: borrowed, not copied
  std::span<const Byte> message{};       // kPut: else the stripe's message,
  std::span<Byte> slice{};               //   encoded into `slice` first
  bool audit = false;                    // kPut: then VERIFY the stored CRC
  std::optional<std::size_t> server{};   // unset: `block`'s home in the row
};

// A slot's result: `block` (a hedge's stand-in may win) answered it from
// `server`; not `ok` means an erasure, a REMOVE that found no copy, or an
// audit that found the stored copy wrong.
struct CarouselStore::Outcome {
  std::size_t block = 0;
  std::size_t server = 0;
  std::vector<std::size_t> positions;  // kUnits: the units `bytes` holds
  std::vector<Byte> bytes;
  bool ok = false;
  BlockState state = BlockState::kUnreachable;  // kVerify, audited kPut
};

// The remote executor (DESIGN.md §10) and the one place the store calls a
// Client: one round of a stripe op's per-block requests, all in flight at
// once on the store pool against one placement snapshot, each resolving its
// own first-wins slot cell.
class CarouselStore::Round {
 public:
  // Runs against `row`, a placement snapshot (block -> server id) for the
  // requests that name no server.  A snapshot of the manifest may go stale
  // mid-round (a concurrent re-home): that block surfaces as an erasure and
  // the caller re-plans around it.
  Round(CarouselStore& store, std::uint32_t file, std::uint32_t stripe,
        std::vector<std::uint32_t> row,
        std::chrono::steady_clock::time_point deadline)
      : st_(&store),
        file_(file),
        stripe_(stripe),
        deadline_(deadline),
        ids_(std::move(row)) {}
  // A request may borrow its caller's bytes (a PUT's block), so no slot
  // outlives the round, even one launched before an exception.
  ~Round() {
    for (auto& p : pending_)
      if (p.valid()) p.wait();
  }
  Round(const Round&) = delete;
  Round& operator=(const Round&) = delete;

  // Launches `req` into a fresh slot (its index in collect()'s result).
  void launch(Request req) {
    cells_.push_back(std::make_shared<SlotCell>());
    pending_.push_back(cells_.back()->result.get_future());
    try {
      submit(std::move(req), cells_.back());
    } catch (...) {
      pending_.pop_back();  // never queued: nothing for ~Round to wait on
      throw;
    }
  }

  // Races `req` against `slot`'s request; false when the slot resolved.
  bool hedge(std::size_t slot, Request req) {
    if (!cells_[slot]->arm_hedge()) return false;
    submit(std::move(req), cells_[slot]);
    return true;
  }

  bool resolved_by(std::size_t slot,
                   std::chrono::steady_clock::time_point t) const {
    return pending_[slot].wait_until(t) == std::future_status::ready;
  }

  // Waits for every slot, then rethrows the first error in slot order: a
  // BadRequestError, or any failed PUT.
  std::vector<Outcome> collect() {
    for (auto& p : pending_) p.wait();
    std::vector<Outcome> out;
    for (auto& p : pending_) out.push_back(p.get());
    return out;
  }

 private:
  // A healthy answer resolves the cell at once, a failed one only as the
  // last attempt out, so a quick failure never pre-empts a slow-but-healthy
  // sibling.  An error resolves at once: BadRequestError (a frame *this*
  // store malformed, a local bug that must not hide behind the race) or a
  // PUT's failure.  A loser lands on a resolved cell and is dropped:
  // drained, never double-decoded.
  struct SlotCell {
    util::Mutex mu{util::LockRank::kSlotCell};  // a leaf lock
    std::promise<Outcome> result;  // get_future() runs before sharing
    int outstanding GUARDED_BY(mu) = 1;
    bool resolved GUARDED_BY(mu) = false;

    bool arm_hedge() EXCLUDES(mu) {
      util::MutexLock lock(mu);
      if (!resolved) ++outstanding;
      return !resolved;
    }
    void resolve(Outcome out, std::exception_ptr error) EXCLUDES(mu) {
      util::MutexLock lock(mu);
      --outstanding;
      if (resolved || (!error && !out.ok && outstanding > 0)) return;
      resolved = true;
      if (error)
        result.set_exception(std::move(error));
      else
        result.set_value(std::move(out));
    }
  };

  // The task captures by value and reaches only the store, which outlives
  // its pool: a hedge loser keeps running after its round returned.  A
  // PUT's body, message and slice are only views, but PUTs are never
  // hedged, and ~Round waits for the slot.
  void submit(Request req, std::shared_ptr<SlotCell> cell) {
    const std::size_t ub = st_->block_bytes_ / st_->code_->s();
    const bool extent =
        req.kind == Request::kUnits &&
        req.positions.back() + 1 == req.positions.size() &&
        req.positions.size() * ub ==
            st_->code_->data_extent_bytes(req.block, st_->block_bytes_);
    if (extent) st_->range_gets_->inc();
    if (req.kind == Request::kUnits && !extent)
      for (std::size_t pos : req.positions)  // identity terms
        req.terms.push_back({{static_cast<std::uint32_t>(pos), Byte{1}}});
    const std::size_t id = req.server ? *req.server : ids_[req.block];
    Outcome out{req.block, id, req.positions, {}, false};
    const BlockKey bk{file_, stripe_, static_cast<std::uint32_t>(req.block)};
    st_->pool_->submit([st = st_, srv = &st_->server_at(id), bk, extent, cell,
                        deadline = deadline_, out = std::move(out),
                        req = std::move(req)]() mutable {
      try {
        // Deadline pre-check only: the coordinator owns budget reporting.
        out.ok = std::chrono::steady_clock::now() < deadline &&
                 run(*st, *srv, bk, req, extent, out);
        cell->resolve(std::move(out), nullptr);
      } catch (const BadRequestError&) {
        cell->resolve({}, std::current_exception());
      } catch (const Error&) {
        // An erasure, not an error, except a PUT's (its audit's included):
        // nothing known to have landed to plan on.
        cell->resolve(std::move(out), req.kind == Request::kPut
                                          ? std::current_exception()
                                          : nullptr);
      } catch (...) {
        // A local fault, such as a PUT slot's encode: the slot's error,
        // never the pool's, so collect() still returns.
        cell->resolve({}, std::current_exception());
      }
    });
  }

  // Exclusive use of one connection to a server for one request.  A
  // Client is a single framed TCP stream and is not safe for interleaved
  // requests, so every request takes a pooled client (or opens a fresh one
  // when all are busy) — that is what lets two reads, or a hedge loser
  // still draining its response, talk to the same server concurrently.
  // The client returns to the pool only after its blocking call finished,
  // so a pooled connection is never mid-frame.
  class Lease {
   public:
    Lease(Server& server, const CarouselStore& st) : server_(&server) {
      {
        util::MutexLock lock(server.pool_mu);
        if (!server.idle.empty()) {
          client_ = std::move(server.idle.back());
          server.idle.pop_back();
        }
      }
      if (!client_)
        client_ =
            std::make_unique<Client>(server.port, st.policy_, st.registry_);
    }
    // Caps the pool so a burst of hedges does not pin file descriptors
    // forever; an over-cap client folds its byte count into the server's
    // retired total so bytes_received() stays exact.
    ~Lease() {
      static constexpr std::size_t kMaxIdleClients = 8;
      std::unique_ptr<Client> discard;  // its socket closes after the unlock
      util::MutexLock lock(server_->pool_mu);
      if (server_->idle.size() < kMaxIdleClients) {
        server_->idle.push_back(std::move(client_));
      } else {
        server_->retired_bytes += client_->bytes_received();
        discard = std::move(client_);
      }
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Client* operator->() { return client_.get(); }

   private:
    Server* server_;
    std::unique_ptr<Client> client_;
  };

  // The one place the store reaches the wire (check_invariants rule 11).
  // False for an erasure: the block is missing, unhealthy or wrong-sized, a
  // REMOVE found no copy, or an audit found the stored copy wrong.  A PUT
  // that fails throws, and so does its audit when the VERIFY gets no
  // answer: the caller cannot tell whether the block landed.
  static bool run(const CarouselStore& st, Server& srv, const BlockKey& bk,
                  const Request& req, bool extent, Outcome& out) {
    // A PUT of the stripe's message encodes its own block, beside the
    // other slots' encodes and uploads, before it takes a connection.
    if (!req.message.empty())
      st.code_->encode_one(req.block, req.message, req.slice);
    // The lease returns to the pool before the cell resolves, so
    // bytes_received() read right after the op includes this connection's
    // bytes.
    Lease c(srv, st);
    if (req.kind == Request::kRemove) return c->remove(bk);
    std::optional<std::uint32_t> sent_crc;
    if (req.kind == Request::kPut) {
      sent_crc = c->put(bk, req.message.empty() ? req.body : req.slice);
      if (!req.audit) return true;
    }
    if (req.kind == Request::kVerify || req.kind == Request::kPut) {
      // A probe, or a PUT's audit on the PUT's own lease: a stored CRC
      // other than the one the PUT sent reads kCorrupt.
      std::uint32_t stored_crc = 0;
      const BlockHealth health = c->verify(bk, &stored_crc);
      const bool wrong = sent_crc && stored_crc != *sent_crc;
      out.state = health == BlockHealth::kMissing ? BlockState::kMissing
                  : health == BlockHealth::kCorrupt || wrong
                      ? BlockState::kCorrupt
                      : BlockState::kOk;
      return out.state == BlockState::kOk;
    }
    const std::size_t ub = st.block_bytes_ / st.code_->s();
    std::size_t want = st.block_bytes_;
    std::optional<std::vector<Byte>> resp;
    if (req.kind == Request::kBlock) {
      resp = c->get(bk);
    } else if (extent) {
      want = req.positions.size() * ub;
      const auto start = std::chrono::steady_clock::now();
      resp = c->get_range(bk, 0, static_cast<std::uint32_t>(want));
      st.range_get_seconds_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());
    } else {
      want = req.terms.size() * ub;
      resp = c->project(bk, static_cast<std::uint32_t>(ub), req.terms);
    }
    if (!resp || resp->size() != want) return false;
    out.bytes = std::move(*resp);
    return true;
  }

  CarouselStore* st_;
  std::uint32_t file_;
  std::uint32_t stripe_;
  std::chrono::steady_clock::time_point deadline_;
  std::vector<std::uint32_t> ids_;  // the placement snapshot, by block
  std::vector<std::shared_ptr<SlotCell>> cells_;
  std::vector<std::future<Outcome>> pending_;
};

void CarouselStore::commit_put(std::uint32_t file_id, FileInfo info) {
  // The commit record is durable before the manifest entry becomes
  // visible; a crash in between leaves a pending intent whose every block
  // verifies, which reconcile() adopts.
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->put_commit(file_id);
  util::MutexLock lock(mu_);
  inflight_puts_.erase(file_id);
  manifest_[file_id] = std::move(info);
}

std::size_t CarouselStore::abort_put(
    std::uint32_t file_id, std::span<const std::vector<std::uint32_t>> rows) {
  // One REMOVE round per stripe, with no store lock held: a sick server
  // costs the abort one op deadline per stripe, not one per block.  A
  // replayed row may name a server id the fleet does not have (the fleet
  // only grows, so one count serves every row); such a copy is skipped.
  std::size_t removed = 0;
  const std::size_t fleet = server_count();
  for (std::size_t s = 0; s < rows.size(); ++s) {
    Round round(*this, file_id, static_cast<std::uint32_t>(s), rows[s],
                std::chrono::steady_clock::time_point::max());
    for (std::size_t i = 0; i < rows[s].size(); ++i)
      if (rows[s][i] < fleet) round.launch({Request::kRemove, i});
    for (const Outcome& o : round.collect()) removed += o.ok;
  }
  util::MutexLock mlock(meta_mu_);
  {
    util::MutexLock lock(mu_);
    inflight_puts_.erase(file_id);
  }
  if (meta_) meta_->put_abort(file_id);
  return removed;
}

bool CarouselStore::commit_rehome(std::uint32_t file_id, std::uint32_t stripe,
                                  std::uint32_t index, std::size_t target) {
  // meta_mu_ spans the re-check, the WAL commit and the in-memory flip;
  // every placement mutation holds it across its own window, so the check
  // cannot be invalidated between the append and the flip even though mu_
  // is released around the (local) journal fsync.
  util::MutexLock mlock(meta_mu_);
  {
    util::MutexLock lock(mu_);
    if (!domain_fits_locked(target, file_id, stripe, index)) return false;
  }
  if (meta_)
    meta_->rehome_commit(file_id, stripe, index,
                         static_cast<std::uint32_t>(target));
  util::MutexLock lock(mu_);
  set_placement_locked(file_id, stripe, index, target);
  return true;
}

void CarouselStore::abort_rehome(std::uint32_t file_id, std::uint32_t stripe,
                                 std::uint32_t index) {
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->rehome_abort(file_id, stripe, index);
}

CarouselStore::Outcome CarouselStore::run_one(std::uint32_t file_id,
                                              std::uint32_t stripe,
                                              Request req) {
  Round round(*this, file_id, stripe, row_of(file_id, stripe),
              std::chrono::steady_clock::time_point::max());
  round.launch(std::move(req));
  return std::move(round.collect().front());
}

std::vector<BlockState> CarouselStore::probe_stripe(std::uint32_t file_id,
                                                   std::uint32_t stripe) {
  return probe_stripe(file_id, stripe, row_of(file_id, stripe), std::nullopt,
                      std::chrono::steady_clock::time_point::max());
}

std::vector<BlockState> CarouselStore::probe_stripe(
    std::uint32_t file_id, std::uint32_t stripe,
    std::vector<std::uint32_t> row, std::optional<std::size_t> skip,
    std::chrono::steady_clock::time_point deadline) {
  Round round(*this, file_id, stripe, std::move(row), deadline);
  for (std::size_t b = 0; b < code_->n(); ++b)
    if (b != skip) round.launch({Request::kVerify, b});
  std::vector<BlockState> states(code_->n(), BlockState::kMissing);
  for (const Outcome& o : round.collect()) states[o.block] = o.state;
  return states;
}

std::size_t CarouselStore::put_file(std::uint32_t file_id,
                                    std::span<const Byte> bytes) {
  obs::ScopedTimer timer(*put_seconds_);
  const std::size_t stripes = code_->stripes_for(bytes.size(), block_bytes_);
  // Seed the placement table (the paper's i mod F rule wherever the
  // domains permit); re-homing rewrites individual entries later.  The
  // manifest commits last, after every block is stored.
  std::vector<std::vector<std::uint32_t>> placement = seed_placement(stripes);
  // A reused file id is rejected, never overwritten: overwriting the
  // manifest entry would strand the old stripes' blocks on their servers
  // forever.  The inflight set extends the check to two puts racing the
  // same id.  With a journal, the intent (the full placement) is durable
  // before the first block byte leaves the coordinator, so a crash
  // mid-upload leaves a replayable record of exactly which servers may
  // hold orphans.
  {
    util::MutexLock mlock(meta_mu_);
    {
      util::MutexLock lock(mu_);
      if (manifest_.contains(file_id) ||
          !inflight_puts_.insert(file_id).second)
        throw DuplicateFileError("put_file: file id " +
                                 std::to_string(file_id) +
                                 " already exists in the manifest");
    }
    if (meta_) {
      try {
        meta_->put_intent(file_id, bytes.size(),
                          static_cast<std::uint32_t>(stripes), placement);
      } catch (...) {
        util::MutexLock lock(mu_);
        inflight_puts_.erase(file_id);
        throw;
      }
    }
  }
  put_bytes_->inc(bytes.size());
  // One stripe at a time, as one executor round on the stripe's row: its n
  // PUT slots each encode their block of the stripe's message (viewed in
  // the caller's bytes; a short last stripe is padded) into their slice of
  // one n-block scratch buffer, then PUT it.  The next stripe starts once
  // all n have answered.
  const std::size_t n = code_->n();
  std::size_t launched = 0;  // stripes whose PUT round has started
  try {
    std::vector<Byte> scratch(n * block_bytes_);
    std::vector<Byte> pad;
    for (std::size_t s = 0; s < stripes; ++s) {
      const std::span<const Byte> message =
          code_->stripe_message(bytes, s, block_bytes_, pad);
      Round round(*this, file_id, static_cast<std::uint32_t>(s), placement[s],
                  std::chrono::steady_clock::time_point::max());
      launched = s + 1;
      for (std::size_t i = 0; i < n; ++i)
        round.launch(
            {.kind = Request::kPut,
             .block = i,
             .message = message,
             .slice = std::span(scratch).subspan(i * block_bytes_,
                                                 block_bytes_)});
      round.collect();  // rethrows the first failed PUT
    }
  } catch (...) {
    // The put failed mid-upload: delete every block of every stripe
    // launched (a PUT that failed or timed out may still have landed) and
    // journal the abandonment so nothing stays pending.  No failure of
    // the abort masks the upload's own error; an abort record that did not
    // land leaves the intent pending, for reconcile().
    try {
      abort_put(file_id, std::span(placement).first(launched));
    } catch (...) {
    }
    throw;
  }
  commit_put(file_id, {bytes.size(), static_cast<std::uint32_t>(stripes),
                       std::move(placement)});
  return stripes;
}

std::vector<Byte> CarouselStore::read_file(std::uint32_t file_id,
                                           std::size_t file_bytes) {
  obs::ScopedTimer timer(*read_seconds_);
  read_bytes_->inc(file_bytes);
  const auto deadline = budget_deadline();
  const std::size_t n = code_->n();
  const std::size_t ub = block_bytes_ / code_->s();
  const std::size_t stripe_data = code_->k() * block_bytes_;
  const std::size_t stripes = code_->stripes_for(file_bytes, block_bytes_);

  HedgePolicy hedge;
  {
    util::MutexLock lock(mu_);
    hedge = hedge_;
  }
  const std::chrono::milliseconds hedge_after =
      hedge.enabled ? hedge_budget(hedge) : std::chrono::milliseconds(0);

  std::vector<Byte> out(stripes * stripe_data);
  for (std::size_t s = 0; s < stripes; ++s) {
    std::span<Byte> dst(out.data() + s * stripe_data, stripe_data);

    // The plan loop: plan from what is known to be usable, fetch every
    // planned unit not yet held, mark the block of each failed fetch
    // unusable, and re-plan until every planned unit is held.  The first
    // round of a healthy stripe is the p data extents, all in flight at
    // once; each failure re-plans onto §VII stand-ins or, past them, the
    // fewest-units plan — reusing every unit already held.  `usable` also
    // sets aside a primary whose stand-in won its hedge race, so the slot is
    // not fetched again; `healthy` drops only blocks whose fetch failed, and
    // is planned over when the preferred blocks alone cannot decode.
    std::vector<bool> usable(n, true);
    std::vector<bool> healthy(n, true);
    auto lose = [&](std::size_t b) {
      usable[b] = false;
      healthy[b] = false;
    };
    std::vector<std::vector<const Byte*>> held(
        n, std::vector<const Byte*>(code_->s(), nullptr));
    std::vector<std::vector<Byte>> buffers;
    bool degraded = false;
    std::optional<codes::ReadPlan> plan;
    for (bool first_round = true;; first_round = false) {
      plan = code_->plan_read(usable);
      if (!plan) plan = code_->plan_read(healthy);
      codes::ReadPlan missing(n);
      std::vector<std::size_t> blocks;  // fetched this round, one per slot
      for (std::size_t b = 0; plan && b < n; ++b) {
        for (std::size_t pos : (*plan)[b])
          if (!held[b][pos]) missing[b].push_back(pos);
        if (!missing[b].empty()) blocks.push_back(b);
      }
      if (plan && blocks.empty()) break;
      check_budget(deadline, budget_exhausted_, "read_file");
      if (!plan)
        throw std::runtime_error("stripe unrecoverable: fewer than k blocks");

      const auto stripe = static_cast<std::uint32_t>(s);
      Round round(*this, file_id, stripe, row_of(file_id, stripe), deadline);
      for (std::size_t b : blocks)
        round.launch({Request::kUnits, b, missing[b]});

      // Hedge stage: every fetch still unanswered past the budget races the
      // stand-in the planner names with its block unusable; the first
      // answer wins and the loser drains on its own pooled connection.  One
      // absolute deadline for all fetches — they launched together.  When
      // the planner names no single fresh stand-in, parity has run out.
      std::vector<std::optional<std::size_t>> hedge_of(blocks.size());
      if (first_round && hedge.enabled) {
        const auto hedge_deadline =
            std::min(std::chrono::steady_clock::now() + hedge_after, deadline);
        std::vector<bool> hedge_mask = usable;
        codes::ReadPlan in_flight = missing;
        for (std::size_t i = 0; i < blocks.size(); ++i) {
          if (round.resolved_by(i, hedge_deadline)) continue;
          hedge_mask[blocks[i]] = false;
          const auto alt = code_->plan_read(hedge_mask);
          std::vector<std::size_t> fresh;
          for (std::size_t b = 0; alt && b < n; ++b)
            if (!(*alt)[b].empty() && (*alt)[b] != in_flight[b])
              fresh.push_back(b);
          if (fresh.size() != 1 || !in_flight[fresh[0]].empty()) break;
          if (!round.hedge(i, {Request::kUnits, fresh[0], (*alt)[fresh[0]]})) {
            hedge_mask[blocks[i]] = true;
            continue;
          }
          hedged_reads_->inc();
          hedge_of[i] = fresh[0];
          in_flight[fresh[0]] = (*alt)[fresh[0]];
        }
      }

      std::vector<Outcome> outcomes = round.collect();
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        Outcome& o = outcomes[i];
        if (!o.ok) {
          // Every attempt at this slot failed: the primary and its stand-in.
          lose(blocks[i]);
          if (hedge_of[i]) lose(*hedge_of[i]);
          degraded = true;
          continue;
        }
        if (o.block != blocks[i]) {
          // The stand-in won: the slot is served by it from now on.
          hedge_wins_->inc();
          usable[blocks[i]] = false;
          degraded = true;
        }
        buffers.push_back(std::move(o.bytes));
        for (std::size_t j = 0; j < o.positions.size(); ++j)
          held[o.block][o.positions[j]] = buffers.back().data() + j * ub;
      }
    }

    // Every planned unit is held: one decode, whatever the plan's shape.
    std::vector<codes::UnitRef> units;
    units.reserve(code_->message_units());
    bool parallel = true;  // each contacted block serves K units (§VII)
    for (std::size_t b = 0; b < n; ++b) {
      const auto& positions = (*plan)[b];
      if (!positions.empty() &&
          positions.size() != code_->data_units_per_block())
        parallel = false;
      for (std::size_t pos : positions) units.push_back({b, pos, held[b][pos]});
    }
    if (degraded) degraded_reads_->inc();
    if (!parallel) decode_fallbacks_->inc();
    code_->decode_units(units, ub, dst);
  }
  out.resize(file_bytes);
  return out;
}

bool CarouselStore::drop_block(std::uint32_t file_id, std::uint32_t stripe,
                               std::uint32_t index) {
  return run_one(file_id, stripe, {Request::kRemove, index}).ok;
}

BlockState CarouselStore::verify_block(std::uint32_t file_id,
                                       std::uint32_t stripe,
                                       std::uint32_t index) {
  return run_one(file_id, stripe, {Request::kVerify, index}).state;
}

std::uint64_t CarouselStore::repair_block(std::uint32_t file_id,
                                          std::uint32_t stripe,
                                          std::uint32_t index) {
  return repair_block_impl(file_id, stripe, index, std::nullopt);
}

std::uint64_t CarouselStore::rehome_block(std::uint32_t file_id,
                                          std::uint32_t stripe,
                                          std::uint32_t index) {
  auto candidates = placement_candidates(file_id, stripe, index);
  if (candidates.empty()) {
    rehome_failures_->inc();
    throw RehomeError(
        "rehome impossible: no placement-eligible server within the "
        "per-domain n-k cap (register a spare with add_server)");
  }
  try {
    std::uint64_t fetched =
        repair_block_impl(file_id, stripe, index, candidates.front());
    rehomes_->inc();
    rehome_bytes_read_->inc(fetched);
    return fetched;
  } catch (const std::exception&) {
    rehome_failures_->inc();
    throw;
  }
}

void CarouselStore::attach_scheduler(RepairScheduler* scheduler) {
  util::MutexLock lock(mu_);
  if (scheduler != nullptr && scheduler_ != nullptr)
    throw std::logic_error("store already has a RepairScheduler: pass it to "
                           "the Scrubber (Options::scheduler)");
  scheduler_ = scheduler;
}

std::vector<std::size_t> CarouselStore::choose_helpers(
    std::uint32_t file_id, std::uint32_t stripe,
    const std::vector<std::size_t>& survivors, std::size_t want,
    std::size_t bytes_per_helper) const {
  util::MutexLock lock(mu_);
  if (scheduler_ == nullptr) {
    want = std::min(want, survivors.size());
    return {survivors.begin(),
            survivors.begin() + static_cast<std::ptrdiff_t>(want)};
  }
  std::vector<HelperCandidate> candidates;
  candidates.reserve(survivors.size());
  for (std::size_t h : survivors)
    candidates.push_back(
        {h, home_of_locked(file_id, stripe, static_cast<std::uint32_t>(h))});
  return scheduler_->select_helpers(candidates, want, bytes_per_helper);
}

std::uint64_t CarouselStore::repair_block_impl(
    std::uint32_t file_id, std::uint32_t stripe, std::uint32_t index,
    std::optional<std::size_t> target) {
  obs::ScopedTimer timer(*repair_seconds_);
  const auto deadline = budget_deadline();
  const std::size_t n = code_->n();
  const std::size_t ub = block_bytes_ / code_->s();
  std::uint64_t fetched = 0;

  // read_file's plan loop: probe every other block at once (no block bytes
  // move), so no helper chunk is wasted on a block that cannot serve; plan
  // over the verified blocks, fetch every source not yet held, drop each
  // failed one and re-plan, reusing what is held.  plan_repair alone picks
  // d projecting helpers (d/(d-k+1) block sizes) or k whole blocks.
  const std::vector<BlockState> states = probe_stripe(
      file_id, stripe, row_of(file_id, stripe), index, deadline);
  std::vector<std::size_t> usable;
  for (std::size_t h = 0; h < n; ++h)
    if (states[h] == BlockState::kOk) usable.push_back(h);
  std::vector<std::vector<Byte>> held(n);  // by block; empty = not held
  std::optional<codes::Carousel::RepairPlan> plan;
  while (true) {
    const bool was_projected = plan && plan->projected;
    plan = code_->plan_repair(index, usable);
    if (!plan)
      throw std::runtime_error("repair impossible: fewer than k blocks");
    if (plan->projected != was_projected) held.assign(n, {});
    // Held sources stay; choose_helpers picks the rest.
    const std::size_t want = plan->sources.size();
    std::vector<std::size_t> rest;
    plan->sources.clear();
    for (std::size_t h : usable)
      (held[h].empty() ? rest : plan->sources).push_back(h);
    const std::size_t have = plan->sources.size();
    if (have == want) break;
    for (std::size_t h : choose_helpers(
             file_id, stripe, rest, want - have,
             plan->projected ? code_->helper_chunk_units() * ub : block_bytes_))
      plan->sources.push_back(h);
    check_budget(deadline, budget_exhausted_, "repair_block");
    Round round(*this, file_id, stripe, row_of(file_id, stripe), deadline);
    for (std::size_t i = have; i < plan->sources.size(); ++i) {
      const std::size_t h = plan->sources[i];
      if (!plan->projected) {
        round.launch({Request::kBlock, h});
        continue;
      }
      Client::Projection terms;
      for (const auto& unit : code_->repair_projection(h, index)) {
        terms.emplace_back();
        for (auto [pos, coeff] : unit)
          terms.back().push_back({static_cast<std::uint32_t>(pos), coeff});
      }
      round.launch({Request::kProject, h, {}, std::move(terms)});
    }
    for (Outcome& o : round.collect()) {
      if (!o.ok) {
        std::erase(usable, o.block);
        continue;
      }
      fetched += o.bytes.size();
      observe_traffic(o.server, o.bytes.size(), 0);
      held[o.block] = std::move(o.bytes);
    }
  }
  std::vector<std::span<const Byte>> inputs(plan->sources.size());
  for (std::size_t i = 0; i < inputs.size(); ++i)
    inputs[i] = held[plan->sources[i]];
  std::vector<Byte> rebuilt(block_bytes_);
  code_->rebuild(index, *plan, inputs, rebuilt);

  // Re-upload and audit: a one-slot round of a PUT naming its target, whose
  // request then VERIFYs the stored copy against the CRC the PUT sent, so
  // the server now holds exactly what we rebuilt.  The intended home goes
  // first; if it is dead (or fails its audit), the block re-homes onto a
  // placement-eligible candidate — the placement table only moves once a
  // candidate passes the audit, so a failure here leaves the stripe exactly
  // as it was (the block stays an erasure, never a silent partial write).
  // PUT and the audit share one lease so the VERIFY sees the same
  // connection's view.
  const std::size_t home = placement_of(file_id, stripe, index);
  std::vector<std::size_t> uploads{target.value_or(home)};
  for (std::size_t c : placement_candidates(file_id, stripe, index))
    if (c != uploads.front()) uploads.push_back(c);
  for (std::size_t t : uploads) {
    check_budget(deadline, budget_exhausted_, "repair_block");
    if (t != home && meta_) {
      // WAL intent before any byte lands on t: replay then knows a copy of
      // this block may exist there, and reconcile() can adopt or delete it
      // after a crash between this upload and the placement flip.
      util::MutexLock mlock(meta_mu_);
      meta_->rehome_intent(file_id, stripe, index,
                           static_cast<std::uint32_t>(t));
    }
    bool audited = false;
    try {
      // The budget was checked above; the upload, like any client op
      // already launched, runs to its own op deadline.
      audited = run_one(file_id, stripe,
                        {.kind = Request::kPut,
                         .block = index,
                         .body = rebuilt,
                         .audit = true,
                         .server = t})
                    .ok;
    } catch (const BadRequestError&) {
      if (t != home) abort_rehome(file_id, stripe, index);
      throw;  // a malformed frame is a local bug on any target
    } catch (const Error&) {
      // Nothing known to have landed, so no REMOVE: a dead target costs
      // one op deadline, not two.
      if (t != home) abort_rehome(file_id, stripe, index);
      continue;  // try the next candidate
    }
    if (t == home && !audited) continue;  // the home's copy is wrong
    // Commit the move with a re-check of the invariant: a concurrent heal
    // of a sibling block may have filled t's domain since the candidate
    // walk.  A copy on t that failed its audit or lost that race is
    // garbage, not a placement: it is deleted before the abort is
    // journaled, and the next candidate is tried.
    if (t != home && (!audited || !commit_rehome(file_id, stripe, index, t))) {
      run_one(file_id, stripe,
              {.kind = Request::kRemove, .block = index, .server = t});
      abort_rehome(file_id, stripe, index);
      continue;
    }
    observe_traffic(t, 0, rebuilt.size());
    repairs_->inc();
    repair_bytes_read_->inc(fetched);
    return fetched;
  }
  throw RehomeError(
      "rebuilt block has no reachable home: its server and every "
      "placement-eligible candidate failed the re-upload or its audit");
}

MetaLog::ReplayReport CarouselStore::meta_replay_report() const {
  util::MutexLock mlock(meta_mu_);
  return meta_ ? meta_->replay_report() : MetaLog::ReplayReport{};
}

void CarouselStore::set_meta_crash_point(const durable::CrashPlan& plan) {
  util::MutexLock mlock(meta_mu_);
  if (meta_) meta_->syncer().arm(plan);
}

CarouselStore::ReconcileReport CarouselStore::reconcile() {
  ReconcileReport report;
  std::map<std::uint32_t, FileInfo> puts;
  std::vector<MetaLog::RehomeIntent> rehomes;
  {
    util::MutexLock mlock(meta_mu_);
    if (!meta_ || (recovered_puts_.empty() && recovered_rehomes_.empty()))
      return report;
    puts.swap(recovered_puts_);
    rehomes.swap(recovered_rehomes_);
  }
  report.pending_puts = puts.size();
  report.pending_rehomes = rehomes.size();

  // A copy is healthy only when its VERIFY answers kOk.  Anything short of
  // it keeps the conservative choice — a put is not adopted, a rehome not
  // flipped: kUnreachable means "could not tell", and reconciliation does
  // not guess about bytes it cannot see; kMissing and kCorrupt are absent.
  //
  // A put is adopted only when its rows still pass the live placement
  // predicate (the fleet may have changed shape since the intent) and
  // every block verifies, one probe round per stripe of the unpublished
  // rows; otherwise every copy it named is deleted.
  for (auto& [file, rec] : puts) {
    bool adoptable = rec.placement.size() == rec.stripes;
    {
      util::MutexLock lock(mu_);
      for (const auto& row : rec.placement)
        adoptable = adoptable && placement_fits_locked(row);
    }
    for (std::uint32_t s = 0; adoptable && s < rec.placement.size(); ++s)
      adoptable = std::ranges::all_of(
          probe_stripe(file, s, rec.placement[s], std::nullopt,
                       std::chrono::steady_clock::time_point::max()),
          [](BlockState b) { return b == BlockState::kOk; });
    if (adoptable) {
      commit_put(file, std::move(rec));
      ++report.puts_adopted;
    } else {
      report.orphans_deleted += abort_put(file, rec.placement);
      ++report.puts_aborted;
    }
  }

  for (const auto& rh : rehomes) {
    std::optional<std::uint32_t> current;
    {
      util::MutexLock lock(mu_);
      auto it = manifest_.find(rh.file);
      if (it != manifest_.end() && rh.stripe < it->second.placement.size() &&
          rh.index < it->second.placement[rh.stripe].size())
        current = it->second.placement[rh.stripe][rh.index];
    }
    // An unknown file (its put never committed), a no-op flip or a target
    // that no longer exists only drops the intent.  Otherwise the target
    // and the old home are probed as one round, and the move is adopted
    // when it is complete (the target verifies), still necessary (the old
    // home does not) and still legal; if not, the pre-crash placement
    // stands and the stray target copy is deleted.
    if (current && rh.target != *current && rh.target < server_count()) {
      Round round(*this, rh.file, rh.stripe, {},
                  std::chrono::steady_clock::time_point::max());
      for (std::size_t sid : {rh.target, *current})
        round.launch(
            {.kind = Request::kVerify, .block = rh.index, .server = sid});
      const std::vector<Outcome> copies = round.collect();
      if (copies[0].ok && !copies[1].ok &&
          commit_rehome(rh.file, rh.stripe, rh.index, rh.target)) {
        ++report.rehomes_adopted;
        continue;
      }
      report.orphans_deleted +=
          run_one(rh.file, rh.stripe,
                  {.kind = Request::kRemove,
                   .block = rh.index,
                   .server = rh.target})
              .ok;
    }
    abort_rehome(rh.file, rh.stripe, rh.index);
    ++report.rehomes_aborted;
  }

  util::MutexLock mlock(meta_mu_);
  meta_->metric("reconciles_total").inc();
  meta_->metric("orphans_deleted_total").inc(report.orphans_deleted);
  meta_->metric("puts_adopted_total").inc(report.puts_adopted);
  meta_->metric("rehomes_adopted_total").inc(report.rehomes_adopted);
  return report;
}

std::map<std::uint32_t, CarouselStore::FileInfo> CarouselStore::files() const {
  util::MutexLock lock(mu_);
  return manifest_;
}

std::uint64_t CarouselStore::bytes_received() const {
  util::MutexLock lock(mu_);
  std::uint64_t total = 0;
  for (const auto& s : servers_) {
    util::MutexLock pool_lock(s->pool_mu);
    total += s->retired_bytes;
    for (const auto& c : s->idle) total += c->bytes_received();
  }
  return total;
}

}  // namespace carousel::net
