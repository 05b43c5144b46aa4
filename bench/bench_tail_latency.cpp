// Tail latency of degraded and straggler-afflicted range reads — the regime
// the paper's related work ([25] Hu et al.) motivates — measured two ways:
//
//   1. SIM — random 512 MB range reads under one failed node on the
//      discrete-event cluster.  With systematic RS, a range lives on one
//      data block; if that block's node is dead the client must fetch k
//      whole blocks (6x amplification) and its request lands deep in the
//      tail.  With Carousel (12,6,10,10), a range spans ~2 blocks' extents;
//      only the slice on the dead node needs k-fold fetching, so the P99
//      stays close to the median.
//   2. LIVE — a real 12-server fleet of in-process block servers with one
//      injected straggler (a persistent kDelay fault on every range-GET it
//      serves).  The same file is read back-to-back twice: once with
//      hedging off, once with the store's HedgePolicy on (budget from its
//      own read-latency histogram, floored).  Reported: p50/p99/p999 for
//      both passes plus the hedge counters.
//
// Emits BENCH_tail_latency.json (honors $CAROUSEL_BENCH_SNAPSHOT_DIR).
// Exits non-zero when the live hedged p99 fails to beat the unhedged p99,
// no hedge ever won, or any read diverged — the CI bench-smoke gate.
//
// Knobs: CAROUSEL_TAIL_STRIPES (2), CAROUSEL_TAIL_BLOCK_UNITS (2048),
//        CAROUSEL_TAIL_READS (150), CAROUSEL_TAIL_STALL_MS (40).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"
#include "hdfs/cluster.h"
#include "net/block_server.h"
#include "net/fault.h"
#include "net/store.h"
#include "obs/metrics.h"

using namespace carousel;
using hdfs::kMB;
using sim::Time;

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t dflt) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::strtoull(v, nullptr, 10) : dflt;
}

// ---- Simulator side (unchanged geometry: 512 MB ranges, one dead node) ----

constexpr double kBlock = 512 * kMB;
constexpr double kRange = 512 * kMB;
constexpr std::size_t kRequests = 200;
constexpr double kWindow = 400.0;

struct Layout {
  std::size_t k, p;        // data / data-carrying blocks per stripe
  const char* name;
};

/// Runs the experiment for one layout; returns sorted latencies.
std::vector<double> run(const Layout& lay, std::uint32_t seed) {
  hdfs::ClusterConfig cfg;
  cfg.nodes = 30;
  cfg.disk_read_bps = 400 * kMB;
  cfg.node_egress_bps = hdfs::mbps(1000);
  hdfs::Cluster cluster(cfg);
  auto& net = cluster.net();

  const double stripe_data = lay.k * kBlock;        // 3 GB logical stripe
  const double extent = stripe_data / double(lay.p);  // bytes per block
  const std::size_t n = 12;
  // Placement: block i of the (single) stripe on node i; node 0 is dead.
  const std::size_t dead_node = 0;

  std::mt19937 rng(seed);
  std::vector<double> latency(kRequests, -1);
  for (std::size_t r = 0; r < kRequests; ++r) {
    const Time start = (kWindow * r) / kRequests;
    const double off =
        std::uniform_real_distribution<double>(0, stripe_data - kRange)(rng);
    // Every reader has its own downlink.
    auto reader_link = net.add_resource(hdfs::mbps(1000));
    cluster.simulation().at(start, [&, r, off, reader_link, start] {
      // Fan the range out over the blocks whose extents it intersects.
      auto outstanding = std::make_shared<std::size_t>(0);
      auto finish = [&latency, r, start, outstanding,
                     &cluster](Time) {
        if (--*outstanding == 0)
          latency[r] = cluster.simulation().now() - start;
      };
      for (std::size_t b = 0; b < lay.p; ++b) {
        const double lo = std::max(off, b * extent);
        const double hi = std::min(off + kRange, (b + 1) * extent);
        if (hi <= lo) continue;
        const double bytes = hi - lo;
        if (b != dead_node) {
          ++*outstanding;
          net.start_flow(bytes, {cluster.egress(b), reader_link}, finish);
          continue;
        }
        // Degraded slice: fetch k matching pieces from k survivors.
        for (std::size_t h = 1; h <= lay.k; ++h) {
          ++*outstanding;
          net.start_flow(bytes, {cluster.egress((b + h) % n), reader_link},
                         finish);
        }
      }
      if (*outstanding == 0) latency[r] = 0;
    });
  }
  cluster.simulation().run();
  std::sort(latency.begin(), latency.end());
  return latency;
}

double pct(const std::vector<double>& v, double q) {
  return v[std::min(v.size() - 1, std::size_t(q * double(v.size())))];
}

// ---- Live side: one straggler, hedged vs unhedged -------------------------

/// p50/p99/p999 of one live read pass (sorted seconds), ceil-index.
struct Tail {
  double p50 = 0, p99 = 0, p999 = 0;
};

Tail tail_of(std::vector<double> lat) {
  std::sort(lat.begin(), lat.end());
  auto at = [&](double q) {
    const std::size_t idx = static_cast<std::size_t>(
        std::min<double>(double(lat.size()) * q, double(lat.size() - 1)));
    return lat[idx];
  };
  return Tail{at(0.50), at(0.99), at(0.999)};
}

struct LivePass {
  Tail tail;
  std::size_t reads = 0;
  std::uint64_t errors = 0;
  std::uint64_t hedged = 0;  // counter deltas over this pass
  std::uint64_t wins = 0;
};

struct LiveResult {
  LivePass unhedged, hedged;
  std::size_t straggler = 0;
  std::uint64_t stall_ms = 0;
};

/// One pass of sequential whole-file reads, returning per-read latencies
/// and the hedge-counter deltas it produced.
LivePass run_pass(net::CarouselStore& store, obs::MetricsRegistry& registry,
                  const std::vector<codes::Byte>& data, std::size_t reads) {
  auto counter = [&](const char* name) -> std::uint64_t {
    const auto snap = registry.snapshot();
    auto it = snap.counters.find(name);
    return it == snap.counters.end()
               ? 0
               : static_cast<std::uint64_t>(it->second);
  };
  const std::uint64_t hedged0 = counter("carousel_store_hedged_reads_total");
  const std::uint64_t wins0 = counter("carousel_store_hedge_wins_total");

  LivePass pass;
  std::vector<double> lat;
  lat.reserve(reads);
  for (std::size_t r = 0; r < reads; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (store.read_file(1, data.size()) != data) ++pass.errors;
    } catch (const std::exception&) {
      ++pass.errors;
    }
    lat.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  pass.reads = lat.size();
  pass.tail = tail_of(std::move(lat));
  pass.hedged = counter("carousel_store_hedged_reads_total") - hedged0;
  pass.wins = counter("carousel_store_hedge_wins_total") - wins0;
  return pass;
}

LiveResult run_live(std::size_t stripes, std::size_t block_units,
                    std::size_t reads, std::uint64_t stall_ms) {
  const codes::Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * block_units;

  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < code.n(); ++i) {
    servers.push_back(std::make_unique<net::BlockServer>());
    ports.push_back(servers.back()->port());
  }
  obs::MetricsRegistry registry;  // private: clean counter deltas per pass
  net::StoreOptions sopts;
  sopts.registry = &registry;
  sopts.policy.max_attempts = 3;
  sopts.policy.io_timeout = std::chrono::milliseconds(2000);
  sopts.policy.base_backoff = std::chrono::milliseconds(2);
  sopts.policy.max_backoff = std::chrono::milliseconds(20);
  sopts.policy.op_deadline = std::chrono::milliseconds(10000);
  sopts.hedge.enabled = false;  // pass 1 measures the straggler raw
  net::CarouselStore store(code, ports, block, sopts);

  auto data = bench::random_bytes(stripes * code.k() * block, 2026);
  store.put_file(1, data);

  LiveResult r;
  r.stall_ms = stall_ms;
  // The straggler: whichever server hosts stripe 0's first data slot, so at
  // least one slot of every unhedged read eats the full stall.
  r.straggler = store.placement_of(1, 0, 0);
  auto plan = std::make_shared<net::FaultPlan>(7);
  net::FaultRule rule;
  rule.action = net::FaultAction::kDelay;
  rule.op = net::Op::kGetRange;
  rule.max_hits = ~std::uint32_t{0};  // persistent for the whole bench
  rule.delay_ms = static_cast<std::uint32_t>(stall_ms);
  plan->add(rule);
  servers[r.straggler]->set_fault_plan(plan);

  // Pass 1 — hedging off — also fills the store's read-latency histogram,
  // so pass 2's budget comes from real observations, not the cold-start
  // initial.
  r.unhedged = run_pass(store, registry, data, reads);

  net::HedgePolicy hedge;
  hedge.enabled = true;
  hedge.percentile = 0.75;  // the straggler owns ~10% of samples: stay clear
  hedge.floor = std::chrono::milliseconds(2);
  hedge.initial = std::chrono::milliseconds(15);
  store.set_hedge_policy(hedge);
  r.hedged = run_pass(store, registry, data, reads);
  return r;
}

// ---- JSON -----------------------------------------------------------------

std::string live_json(const LiveResult& live, std::size_t stripes,
                      std::size_t reads, const double sim_p50[2],
                      const double sim_p99[2], bool gate_ok) {
  char buf[512];
  std::string out = "{\n";
  std::snprintf(buf, sizeof buf,
                "  \"config\": {\"scheme\": \"Carousel (12,6,10,10)\", "
                "\"stripes\": %zu, \"reads_per_pass\": %zu, "
                "\"straggler_server\": %zu, \"stall_ms\": %llu},\n",
                stripes, reads, live.straggler,
                static_cast<unsigned long long>(live.stall_ms));
  out += buf;
  auto pass_json = [&](const char* name, const LivePass& p) {
    std::snprintf(buf, sizeof buf,
                  "  \"%s\": {\"reads\": %zu, \"errors\": %llu, "
                  "\"p50_s\": %.6f, \"p99_s\": %.6f, \"p999_s\": %.6f, "
                  "\"hedged_reads\": %llu, \"hedge_wins\": %llu},\n",
                  name, p.reads, static_cast<unsigned long long>(p.errors),
                  p.tail.p50, p.tail.p99, p.tail.p999,
                  static_cast<unsigned long long>(p.hedged),
                  static_cast<unsigned long long>(p.wins));
    out += buf;
  };
  pass_json("unhedged", live.unhedged);
  pass_json("hedged", live.hedged);
  std::snprintf(buf, sizeof buf,
                "  \"sim\": [{\"scheme\": \"RS (12,6)\", \"p50_s\": %.4f, "
                "\"p99_s\": %.4f}, {\"scheme\": \"Carousel (12,6,10,10)\", "
                "\"p50_s\": %.4f, \"p99_s\": %.4f}],\n",
                sim_p50[0], sim_p99[0], sim_p50[1], sim_p99[1]);
  out += buf;
  out += std::string("  \"gate\": {\"hedged_p99_below_unhedged\": ") +
         (gate_ok ? "true" : "false") + "}\n}\n";
  return out;
}

}  // namespace

int main() {
  std::printf("=== Degraded-read tail latency — 512 MB range reads, one "
              "dead node, 200 readers / 400 s (sim) ===\n\n");
  std::printf("%-24s %8s %8s %8s %8s\n", "layout", "P50", "P90", "P99",
              "max");
  Layout layouts[] = {{6, 6, "RS (12,6)"}, {6, 10, "Carousel (12,6,10,10)"}};
  double p99[2], p50[2];
  for (int i = 0; i < 2; ++i) {
    auto lat = run(layouts[i], 99);
    p50[i] = pct(lat, 0.50);
    p99[i] = pct(lat, 0.99);
    std::printf("%-24s %7.2fs %7.2fs %7.2fs %7.2fs\n", layouts[i].name,
                pct(lat, 0.50), pct(lat, 0.90), pct(lat, 0.99), lat.back());
  }
  std::printf("\nshape checks:\n");
  std::printf("  Carousel P99 below RS P99 (smaller degraded slice, spread "
              "load):  %s (%.2fs vs %.2fs)\n",
              p99[1] < p99[0] ? "yes" : "NO", p99[1], p99[0]);
  std::printf("  Carousel median below RS median (p servers share the read "
              "load):  %s (%.2fs vs %.2fs)\n",
              p50[1] < p50[0] ? "yes" : "NO", p50[1], p50[0]);
  std::printf("\nmechanism: RS pins every range onto one of k=6 data "
              "servers and a dead server's requests pay a\nfull 6x degraded "
              "fetch; Carousel spreads ranges across p=10 servers and only "
              "the slice that lived on\nthe dead server is amplified.\n");

  // ---- Live fleet with one injected straggler ----------------------------
  const auto stripes =
      static_cast<std::size_t>(env_u64("CAROUSEL_TAIL_STRIPES", 2));
  const auto block_units =
      static_cast<std::size_t>(env_u64("CAROUSEL_TAIL_BLOCK_UNITS", 2048));
  const auto reads =
      static_cast<std::size_t>(env_u64("CAROUSEL_TAIL_READS", 150));
  const std::uint64_t stall_ms = env_u64("CAROUSEL_TAIL_STALL_MS", 40);

  std::printf("\n=== Live 12-server fleet — %zu-stripe file, one straggler "
              "(+%llums per range-GET), %zu reads per pass ===\n\n",
              stripes, static_cast<unsigned long long>(stall_ms), reads);
  const LiveResult live = run_live(stripes, block_units, reads, stall_ms);
  std::printf("%-10s %9s %9s %9s %8s %6s %7s\n", "pass", "p50", "p99",
              "p999", "hedged", "wins", "errors");
  auto row = [](const char* name, const LivePass& p) {
    std::printf("%-10s %7.2fms %7.2fms %7.2fms %8llu %6llu %7llu\n", name,
                p.tail.p50 * 1000, p.tail.p99 * 1000, p.tail.p999 * 1000,
                static_cast<unsigned long long>(p.hedged),
                static_cast<unsigned long long>(p.wins),
                static_cast<unsigned long long>(p.errors));
  };
  row("unhedged", live.unhedged);
  row("hedged", live.hedged);

  const bool gate_ok = live.hedged.tail.p99 < live.unhedged.tail.p99 &&
                       live.hedged.wins >= 1 &&
                       live.unhedged.errors + live.hedged.errors == 0;
  std::printf("\n  hedged p99 below unhedged p99:  %s (%.2fms vs %.2fms, "
              "%llu hedge wins)\n",
              gate_ok ? "yes" : "NO", live.hedged.tail.p99 * 1000,
              live.unhedged.tail.p99 * 1000,
              static_cast<unsigned long long>(live.hedged.wins));

  std::string path = "BENCH_tail_latency.json";
  if (const char* dir = std::getenv("CAROUSEL_BENCH_SNAPSHOT_DIR"))
    path = std::string(dir) + "/" + path;
  const std::string json = live_json(live, stripes, reads, p50, p99, gate_ok);
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("\nwrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
    return 1;
  }

  if (!gate_ok) {
    std::fprintf(stderr,
                 "tail-latency bench FAILED its gate (hedged p99 %.2fms vs "
                 "unhedged %.2fms, wins=%llu, errors=%llu)\n",
                 live.hedged.tail.p99 * 1000, live.unhedged.tail.p99 * 1000,
                 static_cast<unsigned long long>(live.hedged.wins),
                 static_cast<unsigned long long>(live.unhedged.errors +
                                                 live.hedged.errors));
    return 1;
  }
  return 0;
}
