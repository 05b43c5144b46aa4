// Self-healing cluster tests: failure detection (HealthMonitor), explicit
// placement with runtime spares, re-homing dead servers' blocks through the
// MSR repair path, whole-operation budgets, and graceful server drain.
//
// The acceptance scenario mirrors the maintenance loop of a production
// deployment: kill a server, let the detector declare it dead, let the
// scrubber regenerate every affected block onto a spare — asserting the
// wire traffic per healed block is exactly the paper's d/(d-k+1) block
// sizes — and read everything back bit-exact with the server still gone.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/cluster.h"
#include "net/errors.h"
#include "net/fault.h"
#include "net/repair_scheduler.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace carousel::net {
namespace {

namespace fs = std::filesystem;
using codes::Byte;
using test::random_bytes;

RetryPolicy fast_policy() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.io_timeout = std::chrono::milliseconds(250);
  p.base_backoff = std::chrono::milliseconds(2);
  p.max_backoff = std::chrono::milliseconds(20);
  p.op_deadline = std::chrono::milliseconds(3000);
  return p;
}

HealthMonitor::Options fast_monitor() {
  HealthMonitor::Options o;
  o.interval = std::chrono::milliseconds(20);
  o.suspect_after = 1;
  o.dead_after = 2;
  o.revive_after = 2;
  o.probe_policy = fast_policy();
  o.probe_policy.max_attempts = 2;
  o.probe_policy.op_deadline = std::chrono::milliseconds(1000);
  return o;
}

/// Fleet of RAM block servers whose members can be killed and revived on
/// the same port mid-test.
class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 12; ++i)
      servers_.push_back(std::make_unique<BlockServer>());
    for (const auto& s : servers_) ports_.push_back(s->port());
  }

  // A killed server's port stays held until revive(): another process
  // taking it could answer probes and accept rebuilt blocks in its place.
  void kill(std::size_t i) {
    servers_[i].reset();
    held_.try_emplace(i, ports_[i]);
  }
  void revive(std::size_t i) {
    held_.erase(i);
    servers_[i] = std::make_unique<BlockServer>(ports_[i]);
  }

  StoreOptions opts() {
    StoreOptions o;
    o.policy = fast_policy();
    o.registry = &registry_;
    return o;
  }

  std::uint64_t counter(const std::string& name) {
    auto snap = registry_.snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

  double gauge(const std::string& name) {
    auto snap = registry_.snapshot();
    auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? -1.0 : it->second;
  }

  obs::MetricsRegistry registry_;
  std::vector<std::unique_ptr<BlockServer>> servers_;
  std::vector<std::uint16_t> ports_;
  std::map<std::size_t, test::ClosedPort> held_;  // ports of killed servers
};

// ---- Failure detection ----------------------------------------------------

TEST(ServerStateNames, CoverEveryState) {
  EXPECT_STREQ(server_state_name(ServerState::kAlive), "alive");
  EXPECT_STREQ(server_state_name(ServerState::kSuspect), "suspect");
  EXPECT_STREQ(server_state_name(ServerState::kDead), "dead");
  EXPECT_STREQ(server_state_name(ServerState::kUnknown), "unknown");
}

// Regression: state_of() used to answer kAlive for servers the monitor had
// never probed, so a caller could mistake "no verdict yet" for "probed and
// healthy" — and a scrubber consulting a fresh monitor would have trusted
// a home no probe ever reached.  Never-tracked servers answer kUnknown.
TEST_F(ClusterTest, StateOfNeverTrackedServerIsUnknownNotAlive) {
  codes::Carousel code(12, 6, 10, 12);
  CarouselStore store(code, ports_, code.s() * 4, opts());
  HealthMonitor monitor(store, fast_monitor());
  EXPECT_EQ(monitor.state_of(0), ServerState::kUnknown);  // not probed yet
  EXPECT_EQ(monitor.state_of(999), ServerState::kUnknown);
  monitor.probe_once();
  EXPECT_EQ(monitor.state_of(0), ServerState::kAlive);
  EXPECT_EQ(monitor.state_of(999), ServerState::kUnknown);  // never tracked
}

TEST_F(ClusterTest, MonitorRejectsNonsenseThresholdsAtConstruction) {
  codes::Carousel code(12, 6, 10, 12);
  CarouselStore store(code, ports_, code.s() * 4, opts());
  auto bad = fast_monitor();
  bad.interval = std::chrono::milliseconds(0);
  EXPECT_THROW(HealthMonitor(store, bad), std::invalid_argument);
  bad = fast_monitor();
  bad.suspect_after = 0;
  EXPECT_THROW(HealthMonitor(store, bad), std::invalid_argument);
  bad = fast_monitor();
  bad.suspect_after = 3;
  bad.dead_after = 2;  // would convict before suspecting
  EXPECT_THROW(HealthMonitor(store, bad), std::invalid_argument);
  bad = fast_monitor();
  bad.revive_after = 0;  // would disable flap damping entirely
  EXPECT_THROW(HealthMonitor(store, bad), std::invalid_argument);
  HealthMonitor ok(store, fast_monitor());  // the good knobs still stand
  ok.probe_once();
  EXPECT_EQ(ok.state_of(0), ServerState::kAlive);
}

TEST_F(ClusterTest, StoreRejectsNonsenseRobustnessKnobsAtConstruction) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 4;
  auto bad = opts();
  bad.op_budget = std::chrono::milliseconds(-1);
  EXPECT_THROW(CarouselStore(code, ports_, block, bad),
               std::invalid_argument);
  bad = opts();
  bad.hedge.percentile = 1.0;  // a max, not a quantile
  EXPECT_THROW(CarouselStore(code, ports_, block, bad),
               std::invalid_argument);
  bad = opts();
  bad.hedge.percentile = 0.4;  // below the median hedges the common case
  EXPECT_THROW(CarouselStore(code, ports_, block, bad),
               std::invalid_argument);
  bad = opts();
  bad.hedge.min_samples = 0;  // a zero-sample quantile is undefined
  EXPECT_THROW(CarouselStore(code, ports_, block, bad),
               std::invalid_argument);
  bad = opts();
  bad.hedge.floor = std::chrono::milliseconds(-5);
  EXPECT_THROW(CarouselStore(code, ports_, block, bad),
               std::invalid_argument);

  // The same validation guards the runtime path.
  CarouselStore store(code, ports_, block, opts());
  HedgePolicy hp;
  hp.percentile = 1.5;
  EXPECT_THROW(store.set_hedge_policy(hp), std::invalid_argument);
}

// ---- Failure domains ------------------------------------------------------

TEST_F(ClusterTest, StoreRejectsMismatchedOrUnsatisfiableDomainLabels) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 4;
  auto o = opts();
  o.domains = {0, 1};  // must label every base server or none
  EXPECT_THROW(CarouselStore(code, ports_, block, o), std::invalid_argument);
  o = opts();
  o.domains.assign(12, 7);  // one rack: 1 * (n-k) = 6 < n, nothing fits
  EXPECT_THROW(CarouselStore(code, ports_, block, o), std::invalid_argument);
  // Unlabeled, each server is its own domain: one server is one rack.
  const std::vector<std::uint16_t> one{ports_[0]};
  EXPECT_THROW(CarouselStore(code, one, block, opts()), std::invalid_argument);
}

TEST_F(ClusterTest, DefaultStoreGivesEachServerItsOwnDomain) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 4;
  CarouselStore store(code, ports_, block, opts());
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(store.domain_of(i), i);
  store.put_file(1, random_bytes(2 * code.k() * block, 66));  // two stripes
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t i = 0; i < code.n(); ++i)
      EXPECT_EQ(store.placement_of(1, s, i), i);  // the paper's layout
  BlockServer spare;
  const std::size_t id = store.add_server(spare.port());
  EXPECT_EQ(store.domain_of(id), id);  // unlabeled spare: its own domain
  EXPECT_THROW(store.domain_of(99), std::out_of_range);
}

TEST_F(ClusterTest, DomainSeedNeverStacksARackPastTheCapAndReadsSurvive) {
  // Two racks over twelve servers and n - k = 6: satisfiable exactly, so
  // the seed must land 6-and-6 — losing either whole rack erases exactly
  // n - k blocks per stripe and every byte stays readable.
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  auto o = opts();
  for (std::size_t i = 0; i < 12; ++i) o.domains.push_back(i % 2);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(2 * code.k() * block, 67);  // two stripes
  store.put_file(1, file);
  for (std::uint32_t s = 0; s < 2; ++s) {
    std::size_t rack0 = 0;
    for (std::uint32_t i = 0; i < code.n(); ++i)
      rack0 += store.domain_of(store.placement_of(1, s, i)) == 0;
    EXPECT_EQ(rack0, code.n() - code.k());
  }
  for (std::size_t i = 0; i < 12; i += 2) kill(i);  // all of rack 0
  EXPECT_EQ(store.read_file(1, file.size()), file);
}

TEST_F(ClusterTest, RehomeSkipsFullDomainsAndStacksWithinTheCap) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  auto o = opts();
  for (std::size_t i = 0; i < 12; ++i) o.domains.push_back(i % 2);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(code.k() * block, 71);
  store.put_file(1, file);

  // A spare in rack 1 cannot take rack-0 victims: rack 1 already holds
  // n - k blocks of the stripe.  The rehome must stack on a rack-0
  // survivor instead — the domain, not the box, is the failure unit.
  BlockServer full_rack_spare;
  const std::size_t spare_id = store.add_server(full_rack_spare.port(), 1);
  kill(0);
  store.rehome_block(1, 0, 0);
  const std::size_t target = store.placement_of(1, 0, 0);
  EXPECT_NE(target, spare_id);
  EXPECT_EQ(store.domain_of(target), 0u);  // stacked inside rack 0
  EXPECT_EQ(full_rack_spare.block_count(), 0u);

  // A rack-1 victim, though, is exactly what that spare is for.
  kill(1);
  store.rehome_block(1, 0, 1);
  EXPECT_EQ(store.placement_of(1, 0, 1), spare_id);
  EXPECT_EQ(full_rack_spare.block_count(), 1u);

  // The invariant held throughout: no rack above n - k, bytes intact.
  std::vector<std::size_t> per(2, 0);
  for (std::uint32_t i = 0; i < code.n(); ++i)
    ++per[store.domain_of(store.placement_of(1, 0, i))];
  EXPECT_LE(per[0], code.n() - code.k());
  EXPECT_LE(per[1], code.n() - code.k());
  EXPECT_EQ(store.read_file(1, file.size()), file);
}

TEST_F(ClusterTest, DomainRollupConvictsARackOnlyWhenAllMembersAreDead) {
  codes::Carousel code(12, 6, 10, 12);
  auto o = opts();
  for (std::size_t i = 0; i < 12; ++i) o.domains.push_back(i % 2);
  CarouselStore store(code, ports_, code.s() * 4, o);
  HealthMonitor monitor(store, fast_monitor());
  monitor.probe_once();
  EXPECT_EQ(gauge("carousel_cluster_domain_count"), 2.0);
  EXPECT_EQ(gauge("carousel_cluster_domain_down"), 0.0);
  EXPECT_EQ(gauge("carousel_cluster_domain_degraded"), 0.0);

  kill(0);  // one member of rack 0: degraded, not down
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(0), ServerState::kDead);
  EXPECT_EQ(gauge("carousel_cluster_domain_down"), 0.0);
  EXPECT_EQ(gauge("carousel_cluster_domain_degraded"), 1.0);
  EXPECT_EQ(monitor.dead_in_domain(0), 1u);
  EXPECT_EQ(monitor.dead_in_domain(1), 0u);   // rack 1 untouched
  EXPECT_EQ(monitor.dead_in_domain(999), 0u);  // never tracked: no domain

  for (std::size_t i = 2; i < 12; i += 2) kill(i);  // the rest of rack 0
  monitor.probe_once();
  monitor.probe_once();
  EXPECT_EQ(gauge("carousel_cluster_domain_down"), 1.0);
  EXPECT_EQ(gauge("carousel_cluster_domain_degraded"), 0.0);
  EXPECT_EQ(monitor.dead_in_domain(0), 6u);
  bool saw_down = false;
  for (const auto& d : monitor.domain_statuses())
    if (d.domain == 0) {
      saw_down = true;
      EXPECT_TRUE(d.down());
      EXPECT_EQ(d.members, 6u);
      EXPECT_EQ(d.dead, 6u);
    } else {
      EXPECT_FALSE(d.down());
    }
  EXPECT_TRUE(saw_down);
}

TEST_F(ClusterTest, MonitorWalksAliveSuspectDeadAndDampsRevival) {
  codes::Carousel code(12, 6, 10, 12);
  CarouselStore store(code, ports_, code.s() * 4, opts());
  HealthMonitor monitor(store, fast_monitor());

  monitor.probe_once();
  for (const auto& st : monitor.statuses())
    EXPECT_EQ(st.state, ServerState::kAlive) << "server " << st.id;
  EXPECT_EQ(gauge("carousel_cluster_servers"), 12.0);
  EXPECT_EQ(gauge("carousel_cluster_servers_alive"), 12.0);

  kill(3);
  monitor.probe_once();
  EXPECT_EQ(monitor.state_of(3), ServerState::kSuspect);
  EXPECT_EQ(gauge("carousel_cluster_servers_suspect"), 1.0);
  monitor.probe_once();
  EXPECT_EQ(monitor.state_of(3), ServerState::kDead);
  EXPECT_EQ(gauge("carousel_cluster_servers_dead"), 1.0);
  EXPECT_EQ(
      counter("carousel_cluster_transitions_total{to=\"dead\"}"), 1u);

  // One healthy answer is not enough to trust the server again (damping);
  // revive_after consecutive successes are.
  revive(3);
  monitor.probe_once();
  EXPECT_EQ(monitor.state_of(3), ServerState::kDead);
  monitor.probe_once();
  EXPECT_EQ(monitor.state_of(3), ServerState::kAlive);
  EXPECT_EQ(
      counter("carousel_cluster_transitions_total{to=\"alive\"}"), 1u);
  EXPECT_EQ(gauge("carousel_cluster_servers_dead"), 0.0);

  // Probes carry the server's inventory along.
  Client fill(ports_[3], fast_policy(), &registry_);
  fill.put(BlockKey{9, 0, 0}, random_bytes(512, 5));
  monitor.probe_once();
  for (const auto& st : monitor.statuses())
    if (st.id == 3) {
      EXPECT_EQ(st.blocks, 1u);
      EXPECT_EQ(st.bytes, 512u);
    }
  EXPECT_GT(counter("carousel_cluster_probes_total"), 0u);
  EXPECT_GT(counter("carousel_cluster_probe_failures_total"), 0u);
}

TEST_F(ClusterTest, BackgroundMonitorDeclaresDeathOnItsOwn) {
  codes::Carousel code(12, 6, 10, 12);
  CarouselStore store(code, ports_, code.s() * 4, opts());
  HealthMonitor monitor(store, fast_monitor());
  monitor.start();
  EXPECT_TRUE(monitor.running());
  monitor.start();  // idempotent

  kill(7);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (monitor.state_of(7) != ServerState::kDead &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(monitor.state_of(7), ServerState::kDead);

  monitor.stop();
  EXPECT_FALSE(monitor.running());
  monitor.stop();  // idempotent
}

// Regression: stop() used to leave the std::thread handle outside its lock,
// so two concurrent stop() calls could both pass the running_ check and
// join the same thread twice (std::terminate) — a race TSan sees on the
// handle.  The fix claims the handle under the lock; exactly one stopper
// joins, the rest find it empty.
TEST_F(ClusterTest, ConcurrentMonitorStopsJoinExactlyOnce) {
  codes::Carousel code(12, 6, 10, 12);
  CarouselStore store(code, ports_, code.s() * 4, opts());
  for (int round = 0; round < 5; ++round) {
    HealthMonitor monitor(store, fast_monitor());
    monitor.start();
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t)
      stoppers.emplace_back([&monitor] { monitor.stop(); });
    for (auto& s : stoppers) s.join();
    EXPECT_FALSE(monitor.running());
  }
}

// Same double-join regression for the scrubber's sweep thread.
TEST_F(ClusterTest, ConcurrentScrubberStopsJoinExactlyOnce) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 4;
  CarouselStore store(code, ports_, block, opts());
  store.put_file(1, random_bytes(code.k() * block, 37));
  Scrubber::Options sopts;
  sopts.interval = std::chrono::milliseconds(1);
  for (int round = 0; round < 5; ++round) {
    Scrubber scrubber(store, sopts);
    scrubber.start();
    std::vector<std::thread> stoppers;
    for (int t = 0; t < 4; ++t)
      stoppers.emplace_back([&scrubber] { scrubber.stop(); });
    for (auto& s : stoppers) s.join();
    EXPECT_FALSE(scrubber.running());
  }
}

TEST_F(ClusterTest, MonitorPicksUpSparesRegisteredLater) {
  codes::Carousel code(12, 6, 10, 12);
  CarouselStore store(code, ports_, code.s() * 4, opts());
  HealthMonitor monitor(store, fast_monitor());
  monitor.probe_once();
  EXPECT_EQ(monitor.statuses().size(), 12u);

  BlockServer spare;
  store.add_server(spare.port());
  monitor.probe_once();
  auto statuses = monitor.statuses();
  ASSERT_EQ(statuses.size(), 13u);
  EXPECT_TRUE(statuses.back().spare);
  EXPECT_EQ(statuses.back().state, ServerState::kAlive);
}

// ---- Placement ------------------------------------------------------------

TEST_F(ClusterTest, PlacementSeedsRoundRobinAndSparesTakeNoWrites) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());
  EXPECT_EQ(spare_id, 12u);
  EXPECT_EQ(store.server_count(), 13u);
  auto endpoints = store.servers();
  ASSERT_EQ(endpoints.size(), 13u);
  EXPECT_FALSE(endpoints[0].spare);
  EXPECT_TRUE(endpoints[12].spare);

  auto file = random_bytes(2 * code.k() * block, 3);  // two stripes
  store.put_file(1, file);
  for (std::uint32_t s = 0; s < 2; ++s)
    for (std::uint32_t i = 0; i < code.n(); ++i)
      EXPECT_EQ(store.placement_of(1, s, i), i % 12);
  EXPECT_EQ(spare.block_count(), 0u);  // spares take no initial writes
  EXPECT_EQ(store.blocks_on(spare_id).size(), 0u);
  EXPECT_EQ(store.blocks_on(4).size(), 2u);  // block 4 of each stripe
  EXPECT_EQ(gauge("carousel_cluster_spare_servers"), 1.0);
}

// ---- Re-homing ------------------------------------------------------------

TEST_F(ClusterTest, RehomeMovesBlockOntoSpareAtOptimalTraffic) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());

  auto file = random_bytes(code.k() * block, 11);  // one stripe
  store.put_file(5, file);

  kill(2);
  std::uint64_t fetched = store.rehome_block(5, 0, 2);
  // d helpers ship d/(d-k+1) block sizes in total: 10/5 = 2 blocks.
  EXPECT_EQ(fetched, std::uint64_t{2} * block);
  EXPECT_EQ(store.placement_of(5, 0, 2), spare_id);
  EXPECT_EQ(spare.block_count(), 1u);
  EXPECT_EQ(store.blocks_on(spare_id).size(), 1u);
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 1u);
  EXPECT_EQ(counter("carousel_cluster_rehome_bytes_read_total"), fetched);

  // The file reads back bit-exact with server 2 still gone.
  EXPECT_EQ(store.read_file(5, file.size()), file);
}

// A spare whose copy fails the re-upload audit does not keep it.  Spare A's
// first VERIFY answer is flipped in flight, so the CRC it reports is not
// the one the PUT sent: the rehome deletes A's copy, journals the abort and
// lands on spare B.
TEST_F(ClusterTest, FailedRehomeAuditLeavesNoStrayCopy) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare_a;
  BlockServer spare_b;
  store.add_server(spare_a.port());
  const std::size_t b_id = store.add_server(spare_b.port());
  auto file = random_bytes(code.k() * block, 23);
  store.put_file(6, file);

  auto plan = std::make_shared<FaultPlan>(5);
  plan->add({.action = FaultAction::kCorruptPayload, .op = Op::kVerify});
  spare_a.set_fault_plan(plan);
  kill(2);
  EXPECT_EQ(store.rehome_block(6, 0, 2), std::uint64_t{2} * block);
  EXPECT_EQ(plan->injected(), 1u);
  EXPECT_EQ(store.placement_of(6, 0, 2), b_id);
  EXPECT_EQ(spare_a.block_count(), 0u);
  EXPECT_EQ(spare_b.block_count(), 1u);
  EXPECT_EQ(store.read_file(6, file.size()), file);
}

TEST_F(ClusterTest, RehomeFailsTypedWhenNoCandidateExists) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  CarouselStore store(code, ports_, block, opts());
  auto file = random_bytes(code.k() * block, 13);
  store.put_file(2, file);

  kill(6);
  // Every other server already holds a block of the stripe and there is no
  // spare: nowhere to go, and the placement table must not move.
  EXPECT_THROW(store.rehome_block(2, 0, 6), RehomeError);
  EXPECT_EQ(store.placement_of(2, 0, 6), 6u);
  EXPECT_EQ(counter("carousel_cluster_rehome_failures_total"), 1u);
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 0u);
}

TEST_F(ClusterTest, RehomeServerMovesEveryBlockOfADeadServer) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());

  auto file = random_bytes(3 * code.k() * block, 17);  // three stripes
  store.put_file(8, file);

  kill(9);
  RepairScheduler sched(store);
  EXPECT_EQ(sched.enqueue_server(9), 3u);
  while (sched.step() == RepairScheduler::StepResult::kDispatched) {
  }
  const auto stats = sched.stats();
  EXPECT_EQ(stats.completed, 3u);  // block 9 of each stripe
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.bytes_moved, std::uint64_t{3} * 2 * block);
  EXPECT_EQ(store.blocks_on(9).size(), 0u);
  EXPECT_EQ(store.blocks_on(spare_id).size(), 3u);
  EXPECT_EQ(store.read_file(8, file.size()), file);
}

// ---- Repair racing server death -------------------------------------------

TEST_F(ClusterTest, RepairRetriesOntoSpareWhenHomeDiesBeforeRePut) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 32;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());

  auto file = random_bytes(code.k() * block, 19);
  store.put_file(3, file);

  // The home is gone by the time the rebuilt block needs a landing spot:
  // plain repair_block must re-home rather than fail or half-write.
  kill(4);
  std::uint64_t fetched = store.repair_block(3, 0, 4);
  EXPECT_EQ(fetched, std::uint64_t{2} * block);
  EXPECT_EQ(store.placement_of(3, 0, 4), spare_id);
  EXPECT_EQ(store.read_file(3, file.size()), file);
}

TEST_F(ClusterTest, RepairSurvivesHelperDeathAndDeadHomeTogether) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 32;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());

  auto file = random_bytes(code.k() * block, 23);
  store.put_file(4, file);

  // Home dead, and one helper refuses every PROJECT: the helper is lost
  // mid-repair, the re-plan fetches one chunk from the eleventh verified
  // survivor instead, and the rebuilt block still lands on the spare.  The
  // stripe must end consistent, never a silent partial write.
  kill(7);
  auto plan = std::make_shared<FaultPlan>(99);
  FaultRule rule;
  rule.op = Op::kProject;
  rule.action = FaultAction::kRefuse;
  rule.max_hits = 100;  // outlast every retry
  plan->add(rule);
  servers_[0]->set_fault_plan(plan);

  std::uint64_t fetched = store.repair_block(4, 0, 7);
  EXPECT_EQ(fetched, std::uint64_t{2} * block);
  EXPECT_EQ(store.placement_of(4, 0, 7), spare_id);
  servers_[0]->set_fault_plan(nullptr);
  EXPECT_EQ(store.read_file(4, file.size()), file);
}

// ---- Scrubber integration (the kill-a-server acceptance scenario) ---------

TEST_F(ClusterTest, ScrubberHealsDeadServersBlocksOntoSpare) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 64;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  const std::size_t spare_id = store.add_server(spare.port());
  HealthMonitor monitor(store, fast_monitor());
  Scrubber::Options sopts;
  sopts.monitor = &monitor;
  Scrubber scrubber(store, sopts);

  auto file_a = random_bytes(2 * code.k() * block, 29);  // two stripes
  auto file_b = random_bytes(code.k() * block, 31);      // one stripe
  store.put_file(1, file_a);
  store.put_file(2, file_b);

  // Kill a server and let the detector convict it.
  kill(5);
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(5), ServerState::kDead);

  // One sweep heals every block the dead server held — block 5 of all
  // three stripes — at exactly d/(d-k+1) block sizes per block.
  auto sweep = scrubber.run_once();
  const auto healed = scrubber.scheduler().stats();
  EXPECT_EQ(healed.completed, 3u);
  EXPECT_EQ(counter("carousel_cluster_rehome_failures_total"), 0u);
  EXPECT_EQ(sweep.unreachable, 0u);
  EXPECT_EQ(healed.bytes_moved, std::uint64_t{3} * 2 * block);
  EXPECT_EQ(store.blocks_on(5).size(), 0u);
  EXPECT_EQ(store.blocks_on(spare_id).size(), 3u);
  EXPECT_EQ(counter("carousel_repair_completed_total"), 3u);
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 3u);
  EXPECT_EQ(counter("carousel_cluster_rehome_bytes_read_total"),
            std::uint64_t{3} * 2 * block);
  EXPECT_EQ(gauge("carousel_cluster_pending_rehomes"), 0.0);

  // The cluster is whole again: the next sweep finds nothing to do, and
  // both files read back bit-exact with the server still gone.
  auto quiet = scrubber.run_once();
  EXPECT_EQ(quiet.ok, quiet.blocks_checked);
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 3u);  // none more
  EXPECT_EQ(store.read_file(1, file_a.size()), file_a);
  EXPECT_EQ(store.read_file(2, file_b.size()), file_b);
}

TEST_F(ClusterTest, SweepHealsSiblingsAfterARehomeFailure) {
  // Two dead homes with no spare to absorb them (both rehomes must fail)
  // plus one corrupt block on a live server, all in the same stripe: each
  // block's outcome is independent, so the two rehome failures never
  // short-circuit the corrupt sibling's repair.
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  CarouselStore store(code, ports_, block, opts());
  HealthMonitor monitor(store, fast_monitor());
  Scrubber::Options sopts;
  sopts.monitor = &monitor;
  Scrubber scrubber(store, sopts);

  auto file = random_bytes(code.k() * block, 61);
  store.put_file(4, file);
  kill(2);
  kill(3);
  monitor.probe_once();
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(2), ServerState::kDead);
  ASSERT_EQ(monitor.state_of(3), ServerState::kDead);
  ASSERT_TRUE(servers_[5]->corrupt_block(BlockKey{4, 0, 5}, 7));

  auto sweep = scrubber.run_once();
  // Blocks 2 and 3 have nowhere to go; block 5 heals despite its siblings.
  EXPECT_EQ(counter("carousel_cluster_rehome_failures_total"), 2u);
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 0u);
  EXPECT_EQ(sweep.corrupt_found, 1u);
  EXPECT_EQ(scrubber.scheduler().stats().completed, 1u);  // the repair
  EXPECT_EQ(scrubber.scheduler().stats().failed, 2u);     // the rehomes
  EXPECT_EQ(store.verify_block(4, 0, 5), BlockState::kOk);
  EXPECT_EQ(store.read_file(4, file.size()), file);

  // Spares arrive (one per victim: a server may host at most one block of
  // a stripe): the next sweep finishes the job.
  BlockServer spare_a;
  BlockServer spare_b;
  store.add_server(spare_a.port());
  store.add_server(spare_b.port());
  scrubber.run_once();
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 2u);
  EXPECT_EQ(counter("carousel_cluster_rehome_failures_total"), 2u);  // no new
  EXPECT_EQ(store.blocks_on(2).size(), 0u);
  EXPECT_EQ(store.blocks_on(3).size(), 0u);
}

TEST_F(ClusterTest, ScrubberWithoutMonitorKeepsWaitingForTheServer) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  store.add_server(spare.port());
  Scrubber scrubber(store);  // no monitor: the pre-self-healing behavior

  auto file = random_bytes(code.k() * block, 37);
  store.put_file(6, file);
  kill(1);
  auto sweep = scrubber.run_once();
  EXPECT_EQ(sweep.unreachable, 1u);
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 0u);
  EXPECT_EQ(store.placement_of(6, 0, 1), 1u);  // untouched
  EXPECT_EQ(gauge("carousel_cluster_pending_rehomes"), 1.0);
}

TEST_F(ClusterTest, ScrubberLeavesSuspectHomesAlone) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  CarouselStore store(code, ports_, block, opts());
  BlockServer spare;
  store.add_server(spare.port());
  auto mopts = fast_monitor();
  mopts.dead_after = 5;  // slow conviction: stays suspect for a while
  HealthMonitor monitor(store, mopts);
  Scrubber::Options sopts;
  sopts.monitor = &monitor;
  Scrubber scrubber(store, sopts);

  auto file = random_bytes(code.k() * block, 41);
  store.put_file(7, file);
  kill(8);
  monitor.probe_once();
  ASSERT_EQ(monitor.state_of(8), ServerState::kSuspect);
  auto sweep = scrubber.run_once();
  EXPECT_EQ(sweep.unreachable, 1u);  // tentative verdict: no churn
  EXPECT_EQ(counter("carousel_cluster_rehomes_total"), 0u);
  EXPECT_EQ(store.placement_of(7, 0, 8), 8u);
}

// ---- Whole-operation budgets ----------------------------------------------

TEST_F(ClusterTest, ReadFileStopsAtItsBudgetAcrossStalledServers) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  auto o = opts();
  o.op_budget = std::chrono::milliseconds(250);
  CarouselStore store(code, ports_, block, o);
  // Several stripes: the fan-out fetches one stripe's extents in parallel,
  // so a single stalled stripe costs ~one delay, not p of them — the budget
  // has to bite on the serial stripe-to-stripe walk.
  auto file = random_bytes(6 * code.k() * block, 43);
  store.put_file(9, file);

  // Every server stalls every data op well under the per-op timeout, so no
  // single op fails — only the whole-operation budget can end the read.
  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(7);
    FaultRule rule;
    rule.action = FaultAction::kDelay;
    rule.delay_ms = 120;
    rule.max_hits = 1'000'000;  // every op stalls, none fails
    plan->add(rule);
    s->set_fault_plan(plan);
  }
  const auto before = std::chrono::steady_clock::now();
  EXPECT_THROW(store.read_file(9, file.size()), StoreDeadlineError);
  const auto elapsed = std::chrono::steady_clock::now() - before;
  // Budget plus at most one in-flight op, with slack for slow machines.
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
  EXPECT_GE(counter("carousel_store_budget_exhausted_total"), 1u);

  for (auto& s : servers_) s->set_fault_plan(nullptr);
  EXPECT_EQ(store.read_file(9, file.size()), file);  // budget is per call
}

TEST_F(ClusterTest, RepairStopsAtItsBudgetToo) {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  auto o = opts();
  // Shorter than two stalls: the VERIFY round and the PROJECT round each
  // take one, so the budget check before the re-upload throws.
  o.op_budget = std::chrono::milliseconds(150);
  CarouselStore store(code, ports_, block, o);
  auto file = random_bytes(code.k() * block, 47);
  store.put_file(10, file);

  for (auto& s : servers_) {
    auto plan = std::make_shared<FaultPlan>(7);
    FaultRule rule;
    rule.action = FaultAction::kDelay;
    rule.delay_ms = 120;
    rule.max_hits = 1'000'000;  // every op stalls, none fails
    plan->add(rule);
    s->set_fault_plan(plan);
  }
  EXPECT_THROW(store.repair_block(10, 0, 0), StoreDeadlineError);
  EXPECT_GE(counter("carousel_store_budget_exhausted_total"), 1u);
}

// ---- Graceful drain -------------------------------------------------------

class DrainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("carousel_drain_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(DrainTest, InFlightPutCompletesAndNewConnectionsAreRefused) {
  PersistentBlockStore::Options popts;
  popts.fsync = false;
  auto server = std::make_unique<BlockServer>(0, dir_, popts);
  const std::uint16_t port = server->port();

  // Stall the PUT server-side so it is reliably in flight when drain hits.
  auto plan = std::make_shared<FaultPlan>(1);
  FaultRule rule;
  rule.op = Op::kPut;
  rule.action = FaultAction::kDelay;
  rule.delay_ms = 300;
  plan->add(rule);
  server->set_fault_plan(plan);

  auto data = random_bytes(4096, 53);
  std::exception_ptr put_error;
  std::thread writer([&] {
    try {
      Client client(port, fast_policy());
      client.put(BlockKey{1, 0, 0}, data);
    } catch (...) {
      put_error = std::current_exception();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server->drain();
  // The port stays held until the restart below, so the refused connection
  // is this server's, not another process's listener.
  std::optional<test::ClosedPort> held(std::in_place, port);
  writer.join();
  // The in-flight PUT was acknowledged, not cut off.
  EXPECT_FALSE(put_error) << "draining server dropped an in-flight PUT";

  // Drained means drained: no new connections are accepted.
  RetryPolicy one_shot = fast_policy();
  one_shot.max_attempts = 1;
  Client late(port, one_shot);
  EXPECT_THROW(late.ping(), TransportError);
  server->drain();  // idempotent
  server->stop();   // and stop() after drain() is a no-op

  // Everything acknowledged is on disk: a restart recovers the block clean.
  held.reset();
  server = std::make_unique<BlockServer>(port, dir_, popts);
  EXPECT_EQ(server->recovery_report().recovered, 1u);
  EXPECT_EQ(server->recovery_report().quarantined_files, 0u);
  Client reader(port, fast_policy());
  auto got = reader.get(BlockKey{1, 0, 0});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, data);
}

TEST_F(DrainTest, DrainedFleetMemberReadsBackAfterRestart) {
  // A store-level view of drain: drain one server, restart it, and the
  // store (whose client reconnects lazily) keeps working against it.
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  std::vector<std::unique_ptr<BlockServer>> fleet;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 12; ++i) fleet.push_back(std::make_unique<BlockServer>());
  for (const auto& s : fleet) ports.push_back(s->port());
  obs::MetricsRegistry registry;
  StoreOptions o;
  o.policy = fast_policy();
  o.registry = &registry;
  CarouselStore store(code, ports, block, o);
  auto file = random_bytes(code.k() * block, 59);
  store.put_file(1, file);

  fleet[2]->drain();
  std::optional<test::ClosedPort> held(std::in_place, ports[2]);
  EXPECT_EQ(store.read_file(1, file.size()), file);  // degraded path
  held.reset();
  fleet[2] = std::make_unique<BlockServer>(ports[2]);
  store.repair_block(1, 0, 2);  // block was RAM-only: regenerate it
  EXPECT_EQ(store.read_file(1, file.size()), file);
}

}  // namespace
}  // namespace carousel::net
