// Randomized parameter-grid properties of the Carousel construction (paper
// §V–§VII), over a seeded grid of (n, k, d, p) mixes: any-k MDS round-trip,
// verbatim data-unit placement, and exact MSR-optimal repair traffic — the
// latter cross-checked against the codec's repair-traffic counter in the
// process-global metrics registry.
//
// The grid is seeded (std::mt19937), so a failure reproduces exactly; it
// spans both base codes (d == k -> RS, d >= max(k+1, 2k-2) -> product-matrix
// MSR) and the full k <= p <= n parallelism range.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "codes/carousel.h"
#include "net/block_server.h"
#include "net/client.h"
#include "net/repair_scheduler.h"
#include "net/store.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::random_bytes;

constexpr std::size_t kUnitBytes = 8;
constexpr std::size_t kMinConfigs = 25;

struct GridEntry {
  std::size_t n, k, d, p;
  std::unique_ptr<Carousel> code;
  std::size_t block_bytes = 0;
};

// Deterministic (n, k, d, p) grid: every draw obeys the paper's parameter
// constraints (k <= p <= n; d == k or max(k+1, 2k-2) <= d < n), deduplicated
// until kMinConfigs distinct mixes exist, with both base-code families and
// the p > k regime guaranteed represented.
const std::vector<GridEntry>& grid() {
  static const std::vector<GridEntry>* entries = [] {
    auto* out = new std::vector<GridEntry>;
    std::mt19937 rng(20170605);  // ICDCS'17 vintage, fixed for replay
    std::set<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>>
        seen;
    std::size_t msr = 0, rs_base = 0, spread = 0;
    while (seen.size() < kMinConfigs || msr < 5 || rs_base < 5 ||
           spread < 5) {
      std::size_t k = std::uniform_int_distribution<std::size_t>(2, 6)(rng);
      std::size_t n =
          std::uniform_int_distribution<std::size_t>(k + 1, k + 6)(rng);
      std::size_t d = k;
      std::size_t d_min = std::max(k + 1, 2 * k - 2);
      if (d_min <= n - 1 && rng() % 2)
        d = std::uniform_int_distribution<std::size_t>(d_min, n - 1)(rng);
      std::size_t p = std::uniform_int_distribution<std::size_t>(k, n)(rng);
      if (!seen.insert({n, k, d, p}).second) continue;
      msr += d > k;
      rs_base += d == k;
      spread += p > k;
      GridEntry e{n, k, d, p, std::make_unique<Carousel>(n, k, d, p), 0};
      e.block_bytes = e.code->s() * kUnitBytes;
      out->push_back(std::move(e));
    }
    return out;
  }();
  return *entries;
}

// One encoded stripe per entry, seeded by its index.
struct Stripe {
  std::vector<std::uint8_t> data;
  std::vector<std::uint8_t> blob;
  std::vector<std::span<const std::uint8_t>> views;
};

Stripe encode_stripe(const GridEntry& e, std::uint32_t seed) {
  Stripe s;
  s.data = random_bytes(e.k * e.block_bytes, seed);
  s.blob.resize(e.n * e.block_bytes);
  std::vector<std::span<std::uint8_t>> blocks;
  for (std::size_t i = 0; i < e.n; ++i)
    blocks.emplace_back(s.blob.data() + i * e.block_bytes, e.block_bytes);
  e.code->encode(s.data, blocks);
  for (std::size_t i = 0; i < e.n; ++i)
    s.views.emplace_back(s.blob.data() + i * e.block_bytes, e.block_bytes);
  return s;
}

TEST(PropertyGrid, CoversTheParameterSpace) {
  const auto& g = grid();
  EXPECT_GE(g.size(), kMinConfigs);
  std::size_t msr = 0, rs_base = 0, spread = 0, full = 0;
  for (const auto& e : g) {
    ASSERT_LE(e.k, e.p);
    ASSERT_LE(e.p, e.n);
    ASSERT_TRUE(e.d == e.k || e.d >= std::max(e.k + 1, 2 * e.k - 2));
    ASSERT_LT(e.d, e.n);
    EXPECT_EQ(e.code->alpha(), e.d - e.k + 1);
    msr += e.d > e.k;
    rs_base += e.d == e.k;
    spread += e.p > e.k;
    full += e.p == e.n;
  }
  EXPECT_GE(msr, 5u);
  EXPECT_GE(rs_base, 5u);
  EXPECT_GE(spread, 5u);
}

TEST(PropertyGrid, AnyKBlocksRoundTrip) {
  std::mt19937 rng(101);
  std::uint32_t seed = 1000;
  for (const auto& e : grid()) {
    Stripe s = encode_stripe(e, seed++);
    // A random k-subset of the n blocks must reproduce the stripe (MDS).
    std::vector<std::size_t> ids(e.n);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(e.k);
    std::sort(ids.begin(), ids.end());
    std::vector<std::span<const std::uint8_t>> chosen;
    for (std::size_t id : ids) chosen.push_back(s.views[id]);
    std::vector<std::uint8_t> out(s.data.size());
    auto stats = e.code->decode(ids, chosen, out);
    EXPECT_EQ(out, s.data) << "(" << e.n << "," << e.k << "," << e.d << ","
                           << e.p << ")";
    EXPECT_EQ(stats.bytes_read, e.k * e.block_bytes);
    EXPECT_EQ(stats.sources, e.k);
  }
}

TEST(PropertyGrid, DataUnitsArePlacedVerbatim) {
  std::uint32_t seed = 2000;
  for (const auto& e : grid()) {
    Stripe s = encode_stripe(e, seed++);
    const std::size_t ub = e.block_bytes / e.code->s();
    std::size_t covered = 0;
    for (std::size_t i = 0; i < e.n; ++i) {
      auto [first, last] = e.code->message_slice(i);
      if (i >= e.p) {
        // Pure-parity blocks carry no verbatim data.
        EXPECT_EQ(first, last);
        EXPECT_EQ(e.code->data_extent_bytes(i, e.block_bytes), 0u);
        continue;
      }
      // §VI: block i's head is message units [first, last), in file order.
      const std::size_t extent = (last - first) * ub;
      EXPECT_EQ(e.code->data_extent_bytes(i, e.block_bytes), extent);
      EXPECT_TRUE(std::equal(s.views[i].begin(),
                             s.views[i].begin() + extent,
                             s.data.begin() + first * ub))
          << "block " << i << " of (" << e.n << "," << e.k << "," << e.d
          << "," << e.p << ")";
      covered += last - first;
    }
    // The p data extents tile the whole message, nothing missing or doubled.
    EXPECT_EQ(covered, e.code->message_units());
  }
}

// §VIII-A: every block is a function of the message alone, so n threads
// may each encode one block of the same stripe (as put_file's PUT slots
// do).  The blocks equal encode's, and the codec counts n blocks' bytes.
TEST(PropertyGrid, BlocksEncodeConcurrentlyAsOneStripe) {
  std::uint32_t seed = 2500;
  for (const auto& e : grid()) {
    Stripe s = encode_stripe(e, seed++);
    const obs::Counter& encoded = obs::MetricsRegistry::global().counter(
        obs::labeled("carousel_codec_encode_bytes_total", "code",
                     e.code->kind()));
    const std::uint64_t before = encoded.value();
    std::vector<std::uint8_t> blob(e.n * e.block_bytes);
    std::vector<std::future<void>> blocks;
    for (std::size_t i = 0; i < e.n; ++i)
      blocks.push_back(std::async(std::launch::async, [&e, &s, &blob, i] {
        e.code->encode_one(
            i, s.data, std::span(blob).subspan(i * e.block_bytes,
                                               e.block_bytes));
      }));
    for (auto& b : blocks) b.get();
    EXPECT_EQ(blob, s.blob) << "(" << e.n << "," << e.k << "," << e.d << ","
                            << e.p << ")";
    EXPECT_EQ(encoded.value() - before, e.n * e.block_bytes);
  }
}

TEST(PropertyGrid, RepairTrafficIsExactlyTheMsrOptimum) {
  std::mt19937 rng(202);
  std::uint32_t seed = 3000;
  for (const auto& e : grid()) {
    // The codec reports under its family label: rs/msr at p = k.
    auto& repair_counter = obs::MetricsRegistry::global().counter(
        obs::labeled("carousel_codec_repair_bytes_read_total", "code",
                     e.code->kind()));
    Stripe s = encode_stripe(e, seed++);
    const std::size_t alpha = e.d - e.k + 1;
    const std::size_t failed =
        std::uniform_int_distribution<std::size_t>(0, e.n - 1)(rng);
    std::vector<std::size_t> helpers;
    for (std::size_t i = 0; i < e.n; ++i)
      if (i != failed) helpers.push_back(i);
    std::shuffle(helpers.begin(), helpers.end(), rng);
    helpers.resize(e.d);
    std::sort(helpers.begin(), helpers.end());

    const std::size_t chunk_bytes = e.code->helper_chunk_units() * kUnitBytes;
    std::vector<std::vector<std::uint8_t>> chunks(e.d);
    std::vector<std::span<const std::uint8_t>> chunk_views;
    for (std::size_t h = 0; h < e.d; ++h) {
      chunks[h].resize(chunk_bytes);
      e.code->helper_compute(helpers[h], failed, s.views[helpers[h]],
                             chunks[h]);
    }
    for (const auto& c : chunks) chunk_views.emplace_back(c);

    std::vector<std::uint8_t> rebuilt(e.block_bytes);
    const std::uint64_t counter_before = repair_counter.value();
    auto stats = e.code->newcomer_compute(failed, helpers, chunk_views,
                                          rebuilt);
    // The rebuilt block is bit-identical...
    EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(),
                           s.views[failed].begin()))
        << "failed " << failed << " of (" << e.n << "," << e.k << "," << e.d
        << "," << e.p << ")";
    // ...at exactly d/(d-k+1) block sizes of helper traffic (Fig. 7), with
    // no rounding slack: alpha divides s by construction.
    EXPECT_EQ(stats.bytes_read * alpha, e.d * e.block_bytes);
    EXPECT_EQ(stats.bytes_read, e.d * chunk_bytes);
    EXPECT_EQ(stats.sources, e.d);
    // The codec's registry counter saw the same bytes — the number the
    // kMetrics dump and the bench snapshots report.
    EXPECT_EQ(repair_counter.value() - counter_before, stats.bytes_read);
  }
}

TEST(PropertyGrid, ParallelReadServesFromAnyPBlocks) {
  // §VII bonus property on the same grid: any p distinct blocks serve a
  // read, each contributing k/p of a block.
  std::mt19937 rng(303);
  std::uint32_t seed = 4000;
  for (const auto& e : grid()) {
    Stripe s = encode_stripe(e, seed++);
    std::vector<std::size_t> ids(e.n);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(e.p);
    std::sort(ids.begin(), ids.end());
    std::vector<std::uint8_t> out(s.data.size());
    auto stats = e.code->decode_stripe(test::keep_only(s.views, ids), out);
    EXPECT_EQ(out, s.data) << "(" << e.n << "," << e.k << "," << e.d << ","
                           << e.p << ")";
    // The p contributors together ship k block sizes: k/p of a block each.
    EXPECT_EQ(stats.bytes_read, e.k * e.block_bytes)
        << "(" << e.n << "," << e.k << "," << e.d << "," << e.p << ")";
    EXPECT_EQ(stats.sources, e.p);
  }
}

TEST(PropertyGrid, StoreReadFileMatchesSequentialOracle) {
  // The concurrent, hedged store read path against a single-threaded
  // oracle, on live loopback servers: for every grid config and every
  // erasure count 1..n-k (data-carrying slots lost first, forcing §VII
  // stand-ins), read_file — including two calls racing each other — must
  // be bit-exact with a plain raw-client any-k decode, and so must the
  // in-memory executor of the same plan (plan vs plan).  With hedging off,
  // the remote executor must also issue exactly the plan's fetches.
  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 12; ++i) {
    servers.push_back(std::make_unique<net::BlockServer>());
    ports.push_back(servers.back()->port());
  }
  std::uint32_t file_id = 500;
  std::uint32_t seed = 5000;
  for (const auto& e : grid()) {
    ASSERT_LE(e.n, ports.size());
    const std::vector<std::uint16_t> fleet(ports.begin(),
                                           ports.begin() + e.n);
    obs::MetricsRegistry reg;
    net::StoreOptions o;
    o.registry = &reg;
    o.hedge.enabled = true;  // hedges may fire; results must not change
    o.hedge.floor = std::chrono::milliseconds(5);
    o.hedge.initial = std::chrono::milliseconds(10);
    net::CarouselStore store(*e.code, fleet, e.block_bytes, o);
    // A second store over the same fleet, hedging like `store` but with its
    // own registry, makes the exact op counts below (a hedge loser of
    // `store`'s reads can still be on the wire after its read_file
    // returned).  Each count turns its hedging off at runtime, then on again.
    // The file is not in its manifest, so it reads block i from server i,
    // the seed home `store` puts it on and repairs it back to.
    obs::MetricsRegistry counted_reg;
    net::CarouselStore counted(
        *e.code, fleet, e.block_bytes,
        net::StoreOptions{.registry = &counted_reg, .hedge = o.hedge});
    const auto file = random_bytes(e.k * e.block_bytes, seed++);
    store.put_file(file_id, file);
    std::vector<std::uint8_t> blob(e.n * e.block_bytes);
    e.code->encode(file, test::split_spans(blob, e.n));
    const auto views = test::split_const_spans(blob, e.n);
    auto client_ops = [&counted_reg](const char* op) {
      return counted_reg
          .histogram(obs::labeled("carousel_client_op_seconds", "op", op))
          .count();
    };

    // The oracle never touches the store: raw whole blocks from the first
    // k healthy servers, decoded by the codec on this thread.
    auto reference = [&] {
      std::vector<std::size_t> ids;
      std::vector<std::vector<std::uint8_t>> blocks;
      for (std::size_t i = 0; i < e.n && ids.size() < e.k; ++i) {
        net::Client c(fleet[i]);
        auto b =
            c.get(net::BlockKey{file_id, 0, static_cast<std::uint32_t>(i)});
        if (!b || b->size() != e.block_bytes) continue;
        ids.push_back(i);
        blocks.push_back(std::move(*b));
      }
      std::vector<std::span<const std::uint8_t>> views;
      for (const auto& b : blocks) views.emplace_back(b);
      std::vector<std::uint8_t> out(file.size());
      e.code->decode(ids, views, out);
      return out;
    };

    EXPECT_EQ(store.read_file(file_id, file.size()), file)
        << "healthy (" << e.n << "," << e.k << "," << e.d << "," << e.p
        << ")";
    for (std::size_t erasures = 1; erasures <= e.n - e.k; ++erasures) {
      for (std::size_t i = 0; i < erasures; ++i)
        store.drop_block(file_id, 0, static_cast<std::uint32_t>(i));
      const auto oracle = reference();
      ASSERT_EQ(oracle, file)
          << erasures << " erasures of (" << e.n << "," << e.k << "," << e.d
          << "," << e.p << ")";
      // Two concurrent read_file calls race each other through the same
      // degraded stripe; workers only record, the main thread asserts.
      std::vector<std::uint8_t> got_a, got_b;
      std::thread ta([&] { got_a = store.read_file(file_id, file.size()); });
      std::thread tb([&] { got_b = store.read_file(file_id, file.size()); });
      ta.join();
      tb.join();
      EXPECT_EQ(got_a, oracle)
          << erasures << " erasures of (" << e.n << "," << e.k << "," << e.d
          << "," << e.p << ")";
      EXPECT_EQ(got_b, oracle)
          << erasures << " erasures of (" << e.n << "," << e.k << "," << e.d
          << "," << e.p << ")";
      // The in-memory executor over the same usable mask agrees.
      std::vector<std::size_t> alive;
      for (std::size_t i = erasures; i < e.n; ++i) alive.push_back(i);
      std::vector<std::uint8_t> in_memory(file.size());
      e.code->decode_stripe(test::keep_only(views, alive), in_memory);
      EXPECT_EQ(in_memory, oracle)
          << erasures << " erasures of (" << e.n << "," << e.k << "," << e.d
          << "," << e.p << ")";
      if (erasures <= e.n - e.p && erasures <= e.p) {
        // Unhedged, a stripe with e lost data slots and enough parity costs
        // p range-GETs (e of them find nothing) and e PROJECT stand-ins.
        counted.set_hedge_policy(net::HedgePolicy{});
        const auto gets = client_ops("get_range");
        const auto projects = client_ops("project");
        EXPECT_EQ(counted.read_file(file_id, file.size()), oracle);
        EXPECT_EQ(client_ops("get_range") - gets, e.p)
            << erasures << " erasures of (" << e.n << "," << e.k << ","
            << e.d << "," << e.p << ")";
        EXPECT_EQ(client_ops("project") - projects, erasures)
            << erasures << " erasures of (" << e.n << "," << e.k << ","
            << e.d << "," << e.p << ")";
        counted.set_hedge_policy(o.hedge);
      }
      // Restore for the next erasure count.  (Re-putting the same id is no
      // longer an option: put_file rejects duplicates with
      // DuplicateFileError.)
      for (std::size_t i = 0; i < erasures; ++i)
        store.repair_block(file_id, 0, static_cast<std::uint32_t>(i));
    }
    ++file_id;
  }
}

TEST(PropertyGrid, DomainPlacementHoldsTheCapThroughRehomeChurn) {
  // Failure-domain invariant over the grid, on live loopback servers: for
  // every config with n - k >= 2, label the fleet into the fewest racks
  // r >= 2 satisfying (r - 1) * (n - k) >= n — the regime where even a
  // whole rack's blocks fit in the other racks — and demand that no rack
  // ever holds more than n - k blocks of one stripe: after seeding, and
  // after a full enqueue_server churn off a seeded victim (every one of
  // whose rehomes must succeed, by pigeonhole over the remaining racks).
  std::vector<std::unique_ptr<net::BlockServer>> servers;
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < 12; ++i) {
    servers.push_back(std::make_unique<net::BlockServer>());
    ports.push_back(servers.back()->port());
  }
  std::mt19937 rng(707);
  std::uint32_t file_id = 900;
  std::uint32_t seed = 9000;
  std::size_t exercised = 0;
  for (const auto& e : grid()) {
    if (e.n - e.k < 2) continue;  // cap 1 degenerates to one rack per server
    std::size_t racks = 2;
    while ((racks - 1) * (e.n - e.k) < e.n) ++racks;
    ASSERT_LE(e.n, ports.size());
    const std::vector<std::uint16_t> fleet(ports.begin(),
                                           ports.begin() + e.n);
    net::StoreOptions o;
    for (std::size_t i = 0; i < e.n; ++i) o.domains.push_back(i % racks);
    net::CarouselStore store(*e.code, fleet, e.block_bytes, o);
    const auto file = random_bytes(2 * e.k * e.block_bytes, seed++);
    store.put_file(file_id, file);

    auto max_per_rack = [&] {
      std::size_t worst = 0;
      for (const auto& [fid, info] : store.files())
        for (std::size_t s = 0; s < info.stripes; ++s) {
          std::vector<std::size_t> per(racks, 0);
          for (std::size_t i = 0; i < e.n; ++i)
            worst = std::max(worst,
                             ++per[store.domain_of(info.placement[s][i])]);
        }
      return worst;
    };
    EXPECT_LE(max_per_rack(), e.n - e.k)
        << "seed placement of (" << e.n << "," << e.k << ") over " << racks
        << " racks";

    // Full churn: a victim dies and every block it held re-homes.  The
    // candidate walk may stack blocks on survivors, but never past the cap.
    const std::size_t victim = rng() % e.n;
    servers[victim].reset();
    net::RepairScheduler sched(store);
    sched.enqueue_server(victim);
    while (sched.step() == net::RepairScheduler::StepResult::kDispatched) {
    }
    EXPECT_EQ(sched.stats().failed, 0u)
        << "victim " << victim << " of (" << e.n << "," << e.k << ") over "
        << racks << " racks";
    EXPECT_TRUE(store.blocks_on(victim).empty());
    EXPECT_LE(max_per_rack(), e.n - e.k)
        << "post-churn placement of (" << e.n << "," << e.k << ") over "
        << racks << " racks";
    EXPECT_EQ(store.read_file(file_id, file.size()), file)
        << "degraded read after churn of (" << e.n << "," << e.k << ")";

    servers[victim] = std::make_unique<net::BlockServer>(ports[victim]);
    ++file_id;
    ++exercised;
  }
  EXPECT_GE(exercised, 10u);  // the grid must actually cover the regime
}

}  // namespace
}  // namespace carousel::codes
