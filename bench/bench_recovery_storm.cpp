// Recovery storm: a datanode dies and every block it hosted must be rebuilt
// elsewhere.  This is the operational scenario behind the paper's repair-
// traffic argument (§I, §VI): RS moves k whole blocks per lost block,
// MSR/Carousel move the optimal d/(d-k+1) block sizes.
//
// Two measurements of the same storm, sharing one config so their makespans
// are directly comparable in the emitted JSON:
//
//   1. LIVE — a real 12+2 fleet of in-process block servers.  A server
//      dies, the HealthMonitor convicts it, and a RepairScheduler drains
//      the re-homing queue (budgeted, admission-controlled) while
//      foreground reads keep running.  Measured: time-to-re-protect and
//      the foreground p99 during the storm, which must stay inside the
//      configured latency budget.
//   2. SIM — the discrete-event cluster with the same node count, block
//      size and file size, turning the same byte counts into makespan
//      under ideal link contention, for RS and Carousel.
//
// A third storm raises the stakes to a whole failure domain: a 3-rack
// 12+2 fleet labeled rack = id % 3 loses every member of rack 0 at once
// (four base servers plus a spare).  The scheduler must re-protect onto
// the surviving racks without ever stacking more than n-k blocks of one
// stripe into a single rack, while foreground reads stay correct.
//
// Emits BENCH_recovery_storm.json and BENCH_rack_down.json (honors
// $CAROUSEL_BENCH_SNAPSHOT_DIR).  Exits non-zero when either storm fails
// to re-protect, serves a wrong byte, blows its p99 budget, or breaks the
// per-rack placement invariant — the CI bench-smoke / rack-down gates.
//
// Knobs: CAROUSEL_STORM_STRIPES (6), CAROUSEL_STORM_BLOCK_UNITS (8192),
//        CAROUSEL_STORM_P99_BUDGET_MS (250), CAROUSEL_STORM_DEADLINE_S (60),
//        CAROUSEL_RACK_P99_BUDGET_MS (2500).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"
#include "codes/params.h"
#include "hdfs/cluster.h"
#include "hdfs/dfs.h"
#include "net/block_server.h"
#include "net/cluster.h"
#include "net/repair_scheduler.h"
#include "net/scrubber.h"
#include "net/store.h"
#include "obs/metrics.h"

using namespace carousel;
using hdfs::kMB;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::strtoull(v, nullptr, 10) : dflt;
}

/// One storm config shared verbatim by the live fleet and the simulator, so
/// the two makespans in the JSON describe the same cluster.
struct StormConfig {
  std::size_t base = 12;    // one block of every stripe per base server
  std::size_t spares = 2;   // re-homing targets
  std::size_t racks = 3;    // failure domains for the rack-down storm
  codes::CodeParams carousel{12, 6, 10, 12};
  codes::CodeParams rack_code{12, 6, 10, 10};  // p<n: §VII degraded reads
  codes::CodeParams rs{12, 6, 6, 6};
  std::size_t block_units;  // block bytes = units * s
  std::size_t stripes;
  std::chrono::milliseconds p99_budget;
  std::chrono::milliseconds rack_p99_budget;  // degraded reads are heavier
  std::chrono::seconds deadline;
  double sim_link_bps = hdfs::mbps(1000);
  double sim_disk_bps = 200 * kMB;

  std::size_t nodes() const { return base + spares; }
};

StormConfig load_config() {
  StormConfig c;
  c.block_units = static_cast<std::size_t>(
      env_u64("CAROUSEL_STORM_BLOCK_UNITS", 8192));
  c.stripes = static_cast<std::size_t>(env_u64("CAROUSEL_STORM_STRIPES", 6));
  c.p99_budget = std::chrono::milliseconds(
      env_u64("CAROUSEL_STORM_P99_BUDGET_MS", 250));
  c.rack_p99_budget = std::chrono::milliseconds(
      env_u64("CAROUSEL_RACK_P99_BUDGET_MS", 2500));
  c.deadline = std::chrono::seconds(env_u64("CAROUSEL_STORM_DEADLINE_S", 60));
  return c;
}

// ---- Simulator side (aligned with the live config) ------------------------

struct SimResult {
  std::string name;
  double makespan_s = 0;
  double traffic_mib = 0;
  std::size_t lost_blocks = 0;
};

/// Rebuilds every block hosted on node 0 of the simulated fleet: each lost
/// block's `fanin` helpers ship `bytes_per_helper` through disk + egress
/// into a round-robin newcomer's ingress.
SimResult run_sim(const StormConfig& cfg, const char* name,
                  codes::CodeParams params, std::size_t fanin,
                  double bytes_per_helper, double block_bytes) {
  hdfs::ClusterConfig cc;
  cc.nodes = cfg.nodes();
  cc.disk_read_bps = cfg.sim_disk_bps;
  cc.node_egress_bps = cfg.sim_link_bps;
  cc.node_ingress_bps = cfg.sim_link_bps;
  hdfs::Cluster cluster(cc);
  const double file_bytes =
      static_cast<double>(cfg.stripes) * params.k * block_bytes;
  auto file = hdfs::DfsFile::coded(cluster, params, file_bytes, block_bytes);

  SimResult r;
  r.name = name;
  std::size_t newcomer_rr = 1;
  for (const auto& lost : file.blocks()) {
    if (lost.node != 0) continue;
    ++r.lost_blocks;
    std::size_t newcomer = newcomer_rr;
    newcomer_rr = newcomer_rr % (cluster.nodes() - 1) + 1;
    std::size_t sent = 0;
    for (const auto& helper : file.blocks()) {
      if (sent == fanin) break;
      if (helper.stripe != lost.stripe || helper.index == lost.index) continue;
      if (helper.node == 0 || helper.node == newcomer) continue;
      cluster.net().start_flow(
          bytes_per_helper,
          {cluster.disk(helper.node), cluster.egress(helper.node),
           cluster.ingress(newcomer)},
          nullptr);
      r.traffic_mib += bytes_per_helper / bench::kMiB;
      ++sent;
    }
  }
  r.makespan_s = cluster.simulation().run();
  return r;
}

// ---- Live side ------------------------------------------------------------

struct LiveResult {
  bool reprotected = false;
  double makespan_s = 0;
  std::size_t lost_blocks = 0;
  std::uint64_t foreground_reads = 0;
  std::uint64_t foreground_errors = 0;
  double p99_s = 0;
  bool p99_within_budget = false;
  net::RepairScheduler::Stats sched;
};

LiveResult run_live(const StormConfig& cfg) {
  const codes::Carousel code(cfg.carousel.n, cfg.carousel.k, cfg.carousel.d,
                             cfg.carousel.p);
  const std::size_t block = code.s() * cfg.block_units;

  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < cfg.nodes(); ++i) {
    servers.push_back(std::make_unique<net::BlockServer>());
    ports.push_back(servers.back()->port());
  }
  net::StoreOptions sopts;  // global registry: the JSON snapshot sees it all
  sopts.policy.max_attempts = 3;
  sopts.policy.io_timeout = std::chrono::milliseconds(250);
  sopts.policy.base_backoff = std::chrono::milliseconds(2);
  sopts.policy.max_backoff = std::chrono::milliseconds(20);
  sopts.policy.op_deadline = std::chrono::milliseconds(3000);
  std::vector<std::uint16_t> base_ports(ports.begin(),
                                        ports.begin() + cfg.base);
  net::CarouselStore store(code, base_ports, block, sopts);
  for (std::size_t i = cfg.base; i < cfg.nodes(); ++i)
    store.add_server(ports[i]);

  auto data = bench::random_bytes(cfg.stripes * code.k() * block, 2026);
  store.put_file(1, data);

  net::HealthMonitor::Options mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.revive_after = 2;
  mopts.probe_policy = sopts.policy;
  mopts.probe_policy.max_attempts = 2;
  mopts.probe_policy.op_deadline = std::chrono::milliseconds(1000);
  net::HealthMonitor monitor(store, mopts);

  net::RepairScheduler::Options ropts;
  ropts.max_concurrent = 2;
  ropts.server_egress_budget = std::uint64_t{64} * block;
  ropts.server_ingress_budget = std::uint64_t{64} * block;
  ropts.budget_window = std::chrono::milliseconds(250);
  ropts.p99_budget = cfg.p99_budget;  // admission control ON for the storm
  ropts.admission_interval = std::chrono::milliseconds(100);
  ropts.monitor = &monitor;
  net::RepairScheduler sched(store, ropts);

  net::Scrubber::Options scrub_opts;
  scrub_opts.monitor = &monitor;
  scrub_opts.scheduler = &sched;
  net::Scrubber scrubber(store, scrub_opts);

  // Foreground traffic with client-side latency sampling.
  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<double> latencies;
  std::mutex lat_mu;
  std::thread foreground([&] {
    while (!stop_reads.load()) {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        auto got = store.read_file(1, data.size());
        if (got != data) ++errors;
      } catch (const std::exception&) {
        ++errors;
      }
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::lock_guard lock(lat_mu);
      latencies.push_back(s);
    }
  });

  LiveResult r;
  // The storm: one base server dies; the monitor convicts it.
  const std::size_t victim = 0;
  r.lost_blocks = store.blocks_on(victim).size();
  servers[victim].reset();
  monitor.probe_once();
  monitor.probe_once();

  const auto storm_t0 = std::chrono::steady_clock::now();
  sched.start();
  const auto deadline = storm_t0 + cfg.deadline;
  while (std::chrono::steady_clock::now() < deadline) {
    scrubber.run_once();  // feeds the scheduler; heals nothing inline
    sched.wait_idle(std::chrono::seconds(5));
    if (store.blocks_on(victim).empty()) {
      r.reprotected = true;
      break;
    }
  }
  r.makespan_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - storm_t0)
          .count();
  stop_reads = true;
  foreground.join();
  sched.stop();
  r.sched = sched.stats();

  std::vector<double> sorted;
  {
    std::lock_guard lock(lat_mu);
    sorted = latencies;
  }
  std::sort(sorted.begin(), sorted.end());
  r.foreground_reads = sorted.size();
  r.foreground_errors = errors.load();
  if (!sorted.empty()) {
    const std::size_t idx =
        (sorted.size() * 99 + 99) / 100;  // ceil(.99 n), 1-based
    r.p99_s = sorted[std::min(idx, sorted.size()) - 1];
  }
  r.p99_within_budget =
      r.p99_s * 1000.0 <= static_cast<double>(cfg.p99_budget.count());
  return r;
}

// ---- Rack-down storm ------------------------------------------------------

struct RackDownResult {
  std::size_t victims = 0;
  std::size_t lost_blocks = 0;
  bool reprotected = false;
  double makespan_s = 0;
  std::size_t max_blocks_per_rack = 0;
  std::size_t rack_cap = 0;        // n-k: the placement invariant's bound
  bool invariant_held = true;
  std::uint64_t foreground_reads = 0;
  std::uint64_t foreground_errors = 0;
  double p99_s = 0;
  bool p99_within_budget = false;
  net::RepairScheduler::Stats sched;
};

/// A whole failure domain goes dark: every server labeled rack 0 (base and
/// spare alike) dies at once.  Survivable by construction — the placement
/// invariant caps any rack at n-k blocks per stripe — so every acked byte
/// must stay readable and the scheduler must re-protect within the other
/// racks' remaining headroom.
RackDownResult run_rack_down(const StormConfig& cfg) {
  const codes::Carousel code(cfg.rack_code.n, cfg.rack_code.k,
                             cfg.rack_code.d, cfg.rack_code.p);
  const std::size_t block = code.s() * cfg.block_units;
  const std::size_t cap = code.n() - code.k();

  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < cfg.nodes(); ++i) {
    servers.push_back(std::make_unique<net::BlockServer>());
    ports.push_back(servers.back()->port());
  }
  net::StoreOptions sopts;
  sopts.policy.max_attempts = 3;
  sopts.policy.io_timeout = std::chrono::milliseconds(250);
  sopts.policy.base_backoff = std::chrono::milliseconds(2);
  sopts.policy.max_backoff = std::chrono::milliseconds(20);
  sopts.policy.op_deadline = std::chrono::milliseconds(3000);
  for (std::size_t i = 0; i < cfg.base; ++i)
    sopts.domains.push_back(i % cfg.racks);
  std::vector<std::uint16_t> base_ports(ports.begin(),
                                        ports.begin() + cfg.base);
  net::CarouselStore store(code, base_ports, block, sopts);
  for (std::size_t i = cfg.base; i < cfg.nodes(); ++i)
    store.add_server(ports[i], i % cfg.racks);

  auto data = bench::random_bytes(cfg.stripes * code.k() * block, 2027);
  store.put_file(1, data);

  net::HealthMonitor::Options mopts;
  mopts.suspect_after = 1;
  mopts.dead_after = 2;
  mopts.revive_after = 2;
  mopts.probe_policy = sopts.policy;
  mopts.probe_policy.max_attempts = 2;
  mopts.probe_policy.op_deadline = std::chrono::milliseconds(1000);
  net::HealthMonitor monitor(store, mopts);

  net::RepairScheduler::Options ropts;
  ropts.max_concurrent = 2;
  ropts.server_egress_budget = std::uint64_t{64} * block;
  ropts.server_ingress_budget = std::uint64_t{64} * block;
  ropts.budget_window = std::chrono::milliseconds(250);
  ropts.p99_budget = cfg.rack_p99_budget;
  ropts.admission_interval = std::chrono::milliseconds(100);
  ropts.monitor = &monitor;
  net::RepairScheduler sched(store, ropts);

  net::Scrubber::Options scrub_opts;
  scrub_opts.monitor = &monitor;
  scrub_opts.scheduler = &sched;
  net::Scrubber scrubber(store, scrub_opts);

  std::atomic<bool> stop_reads{false};
  std::atomic<std::uint64_t> errors{0};
  std::vector<double> latencies;
  std::mutex lat_mu;
  std::thread foreground([&] {
    while (!stop_reads.load()) {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        auto got = store.read_file(1, data.size());
        if (got != data) ++errors;
      } catch (const std::exception&) {
        ++errors;
      }
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      std::lock_guard lock(lat_mu);
      latencies.push_back(s);
    }
  });

  RackDownResult r;
  r.rack_cap = cap;
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < cfg.nodes(); ++i)
    if (i % cfg.racks == 0) victims.push_back(i);
  r.victims = victims.size();
  for (std::size_t v : victims) r.lost_blocks += store.blocks_on(v).size();
  for (std::size_t v : victims) servers[v].reset();
  monitor.probe_once();
  monitor.probe_once();

  auto max_per_rack = [&] {
    std::size_t worst = 0;
    for (const auto& [fid, info] : store.files()) {
      for (std::size_t s = 0; s < info.stripes; ++s) {
        std::vector<std::size_t> cnt(cfg.racks, 0);
        for (std::size_t i = 0; i < code.n(); ++i)
          worst = std::max(worst,
                           ++cnt[store.domain_of(info.placement[s][i])]);
      }
    }
    return worst;
  };

  const auto storm_t0 = std::chrono::steady_clock::now();
  sched.start();
  const auto deadline = storm_t0 + cfg.deadline;
  while (std::chrono::steady_clock::now() < deadline) {
    scrubber.run_once();
    sched.wait_idle(std::chrono::seconds(5));
    const std::size_t worst = max_per_rack();
    r.max_blocks_per_rack = std::max(r.max_blocks_per_rack, worst);
    if (worst > cap) r.invariant_held = false;
    bool healed = true;
    for (std::size_t v : victims)
      if (!store.blocks_on(v).empty()) healed = false;
    if (healed) {
      r.reprotected = true;
      break;
    }
  }
  r.makespan_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - storm_t0)
          .count();
  stop_reads = true;
  foreground.join();
  sched.stop();
  r.sched = sched.stats();

  std::vector<double> sorted;
  {
    std::lock_guard lock(lat_mu);
    sorted = latencies;
  }
  std::sort(sorted.begin(), sorted.end());
  r.foreground_reads = sorted.size();
  r.foreground_errors = errors.load();
  if (!sorted.empty()) {
    const std::size_t idx = (sorted.size() * 99 + 99) / 100;
    r.p99_s = sorted[std::min(idx, sorted.size()) - 1];
  }
  r.p99_within_budget =
      r.p99_s * 1000.0 <= static_cast<double>(cfg.rack_p99_budget.count());
  return r;
}

// ---- JSON -----------------------------------------------------------------

std::string json_escape_free_output(const StormConfig& cfg,
                                    const LiveResult& live,
                                    const std::vector<SimResult>& sims,
                                    std::size_t block) {
  // All values are numbers/bools/fixed names: no escaping needed.
  std::string out = "{\n  \"config\": {";
  out += "\"base_servers\": " + std::to_string(cfg.base);
  out += ", \"spares\": " + std::to_string(cfg.spares);
  out += ", \"block_bytes\": " + std::to_string(block);
  out += ", \"stripes\": " + std::to_string(cfg.stripes);
  out += ", \"p99_budget_ms\": " + std::to_string(cfg.p99_budget.count());
  out += ", \"sim_link_mbps\": 1000, \"sim_disk_mbps\": 200},\n";
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "  \"live\": {\"scheme\": \"Carousel (12,6,10,12)\", "
      "\"reprotected\": %s, \"makespan_s\": %.6f, \"lost_blocks\": %zu, "
      "\"bytes_moved\": %llu, \"repairs_completed\": %llu, "
      "\"repairs_failed\": %llu, \"peak_running\": %zu,\n",
      live.reprotected ? "true" : "false", live.makespan_s, live.lost_blocks,
      static_cast<unsigned long long>(live.sched.bytes_moved),
      static_cast<unsigned long long>(live.sched.completed),
      static_cast<unsigned long long>(live.sched.failed),
      live.sched.peak_running);
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "    \"foreground\": {\"reads\": %llu, \"errors\": %llu, "
      "\"p99_s\": %.6f, \"p99_budget_ms\": %lld, \"within_budget\": %s}},\n",
      static_cast<unsigned long long>(live.foreground_reads),
      static_cast<unsigned long long>(live.foreground_errors), live.p99_s,
      static_cast<long long>(cfg.p99_budget.count()),
      live.p99_within_budget ? "true" : "false");
  out += buf;
  out += "  \"sim\": [";
  for (std::size_t i = 0; i < sims.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"scheme\": \"%s\", \"makespan_s\": %.6f, "
                  "\"traffic_mib\": %.3f, \"lost_blocks\": %zu}",
                  i ? ", " : "", sims[i].name.c_str(), sims[i].makespan_s,
                  sims[i].traffic_mib, sims[i].lost_blocks);
    out += buf;
  }
  out += "],\n  \"metrics\": ";
  out += obs::MetricsRegistry::global().render_json();
  out += "\n}\n";
  return out;
}

std::string rack_down_json(const StormConfig& cfg, const RackDownResult& r,
                           std::size_t block) {
  // All values are numbers/bools/fixed names: no escaping needed.
  std::string out = "{\n  \"config\": {";
  out += "\"scheme\": \"Carousel (12,6,10,10)\"";
  out += ", \"base_servers\": " + std::to_string(cfg.base);
  out += ", \"spares\": " + std::to_string(cfg.spares);
  out += ", \"racks\": " + std::to_string(cfg.racks);
  out += ", \"block_bytes\": " + std::to_string(block);
  out += ", \"stripes\": " + std::to_string(cfg.stripes);
  out += ", \"p99_budget_ms\": " +
         std::to_string(cfg.rack_p99_budget.count()) + "},\n";
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "  \"rack_down\": {\"victims\": %zu, \"lost_blocks\": %zu, "
      "\"reprotected\": %s, \"makespan_s\": %.6f, "
      "\"max_blocks_per_rack\": %zu, \"rack_cap\": %zu, "
      "\"invariant_held\": %s, \"domain_boosts\": %llu, "
      "\"repairs_completed\": %llu, \"repairs_failed\": %llu, "
      "\"bytes_moved\": %llu},\n",
      r.victims, r.lost_blocks, r.reprotected ? "true" : "false",
      r.makespan_s, r.max_blocks_per_rack, r.rack_cap,
      r.invariant_held ? "true" : "false",
      static_cast<unsigned long long>(r.sched.domain_boosts),
      static_cast<unsigned long long>(r.sched.completed),
      static_cast<unsigned long long>(r.sched.failed),
      static_cast<unsigned long long>(r.sched.bytes_moved));
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "  \"foreground\": {\"reads\": %llu, \"errors\": %llu, "
      "\"p99_s\": %.6f, \"p99_budget_ms\": %lld, \"within_budget\": %s}\n}\n",
      static_cast<unsigned long long>(r.foreground_reads),
      static_cast<unsigned long long>(r.foreground_errors), r.p99_s,
      static_cast<long long>(cfg.rack_p99_budget.count()),
      r.p99_within_budget ? "true" : "false");
  out += buf;
  return out;
}

/// Writes `json` to `name`, honoring $CAROUSEL_BENCH_SNAPSHOT_DIR.  Returns
/// false (after a stderr note) when the file cannot be opened.
bool write_snapshot(const char* name, const std::string& json) {
  std::string path = name;
  if (const char* dir = std::getenv("CAROUSEL_BENCH_SNAPSHOT_DIR"))
    path = std::string(dir) + "/" + path;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main() {
  const StormConfig cfg = load_config();
  const codes::Carousel code(cfg.carousel.n, cfg.carousel.k, cfg.carousel.d,
                             cfg.carousel.p);
  const std::size_t block = code.s() * cfg.block_units;
  const double alpha = static_cast<double>(cfg.carousel.alpha());

  std::printf("=== Recovery storm — %zu+%zu fleet, %zu stripes of "
              "(12,6,10,12), %.1f KiB blocks ===\n\n",
              cfg.base, cfg.spares, cfg.stripes, block / 1024.0);

  // Simulated storms with the live fleet's exact geometry.
  std::vector<SimResult> sims;
  sims.push_back(run_sim(cfg, "RS (12,6)", cfg.rs, cfg.rs.k,
                         static_cast<double>(block), block));
  sims.push_back(run_sim(cfg, "Carousel (12,6,10,12)", cfg.carousel,
                         cfg.carousel.d, block / alpha, block));
  std::printf("%-24s %8s %12s %10s\n", "sim scheme", "lost", "traffic",
              "makespan");
  for (const auto& s : sims)
    std::printf("%-24s %8zu %10.2fMiB %9.4fs\n", s.name.c_str(),
                s.lost_blocks, s.traffic_mib, s.makespan_s);

  // The live storm.
  const LiveResult live = run_live(cfg);
  std::printf("\n%-24s %8zu %12s %9.3fs  (re-protected: %s)\n",
              "live Carousel fleet", live.lost_blocks, "-", live.makespan_s,
              live.reprotected ? "yes" : "NO");
  std::printf("foreground during storm: %llu reads, %llu errors, "
              "p99 %.1f ms (budget %lld ms: %s)\n",
              static_cast<unsigned long long>(live.foreground_reads),
              static_cast<unsigned long long>(live.foreground_errors),
              live.p99_s * 1000.0,
              static_cast<long long>(cfg.p99_budget.count()),
              live.p99_within_budget ? "within" : "EXCEEDED");
  std::printf("scheduler: %llu completed, %llu failed, peak %zu in flight, "
              "%llu bytes moved\n",
              static_cast<unsigned long long>(live.sched.completed),
              static_cast<unsigned long long>(live.sched.failed),
              live.sched.peak_running,
              static_cast<unsigned long long>(live.sched.bytes_moved));

  // The rack-down storm: rack 0 of the 3-rack fleet goes dark at once.
  const RackDownResult rack = run_rack_down(cfg);
  std::printf("\n=== Rack down — %zu racks, rack 0 dark (%zu servers, "
              "%zu blocks) ===\n",
              cfg.racks, rack.victims, rack.lost_blocks);
  std::printf("re-protected: %s in %.3fs; peak rack load %zu/%zu blocks "
              "per stripe (invariant %s)\n",
              rack.reprotected ? "yes" : "NO", rack.makespan_s,
              rack.max_blocks_per_rack, rack.rack_cap,
              rack.invariant_held ? "held" : "BROKEN");
  std::printf("foreground during outage: %llu reads, %llu errors, "
              "p99 %.1f ms (budget %lld ms: %s)\n",
              static_cast<unsigned long long>(rack.foreground_reads),
              static_cast<unsigned long long>(rack.foreground_errors),
              rack.p99_s * 1000.0,
              static_cast<long long>(cfg.rack_p99_budget.count()),
              rack.p99_within_budget ? "within" : "EXCEEDED");
  std::printf("scheduler: %llu completed, %llu failed, %llu domain boosts, "
              "%llu bytes moved\n",
              static_cast<unsigned long long>(rack.sched.completed),
              static_cast<unsigned long long>(rack.sched.failed),
              static_cast<unsigned long long>(rack.sched.domain_boosts),
              static_cast<unsigned long long>(rack.sched.bytes_moved));

  // Same shape as bench_util's write_metrics_snapshot, but with the storm
  // results wrapped around the registry snapshot.
  if (!write_snapshot("BENCH_recovery_storm.json",
                      json_escape_free_output(cfg, live, sims, block)))
    return 1;
  if (!write_snapshot("BENCH_rack_down.json",
                      rack_down_json(cfg, rack, block)))
    return 1;

  int rc = 0;
  if (!live.reprotected || live.foreground_errors > 0 ||
      !live.p99_within_budget) {
    std::fprintf(stderr,
                 "storm FAILED its gate (reprotected=%d errors=%llu "
                 "p99_within_budget=%d)\n",
                 live.reprotected,
                 static_cast<unsigned long long>(live.foreground_errors),
                 live.p99_within_budget);
    rc = 1;
  }
  if (!rack.reprotected || rack.foreground_errors > 0 ||
      !rack.p99_within_budget || !rack.invariant_held) {
    std::fprintf(stderr,
                 "rack-down FAILED its gate (reprotected=%d errors=%llu "
                 "p99_within_budget=%d invariant_held=%d)\n",
                 rack.reprotected,
                 static_cast<unsigned long long>(rack.foreground_errors),
                 rack.p99_within_budget, rack.invariant_held);
    rc = 1;
  }
  return rc;
}
