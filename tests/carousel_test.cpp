#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

#include "codes/carousel.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::keep_only;
using test::random_bytes;
using test::split_const_spans;
using test::split_spans;
using test::subsets;

std::pair<std::vector<Byte>, std::vector<Byte>> make_stripe(
    const Carousel& code, std::size_t unit_bytes, std::uint32_t seed = 5) {
  const std::size_t w = code.s() * unit_bytes;
  auto data = random_bytes(code.k() * w, seed);
  std::vector<Byte> blob(code.n() * w);
  code.encode(data, split_spans(blob, code.n()));
  return {std::move(data), std::move(blob)};
}

TEST(Carousel, PaperToyExampleGeometry) {
  // Paper Fig. 2: (n=3, k=2) — each block splits into 3 units, 2 carrying
  // original data, and block i holds file units {2i, 2i+1} at its head.
  Carousel c(3, 2, 2, 3);
  EXPECT_EQ(c.s(), 3u);
  EXPECT_EQ(c.expansion(), 3u);
  EXPECT_EQ(c.data_units_per_block(), 2u);
  EXPECT_TRUE(c.selection_is_papers());
  for (std::size_t i = 0; i < 3; ++i) {
    auto [lo, hi] = c.message_slice(i);
    EXPECT_EQ(lo, 2 * i);
    EXPECT_EQ(hi, 2 * i + 2);
  }
}

TEST(Carousel, ReducesToRsWhenPEqualsK) {
  // (n, k, d=k, p=k) must be exactly the systematic RS code.
  Carousel c(6, 4, 4, 4);
  EXPECT_EQ(c.s(), 1u);
  EXPECT_EQ(c.generator(), matrix::cauchy_systematic(6, 4));
  EXPECT_STREQ(c.kind(), "rs");
}

TEST(Carousel, ReducesToMsrWhenPEqualsK) {
  // (n, k, d>k, p=k) must be exactly the product-matrix MSR base code.
  Carousel c(8, 4, 6, 4);
  ProductMatrixMSR msr(8, 4, 6);
  EXPECT_EQ(c.s(), c.alpha());
  EXPECT_EQ(c.generator(), msr.generator());
  EXPECT_STREQ(c.kind(), "msr");
  EXPECT_STREQ(Carousel(8, 4, 6, 5).kind(), "carousel");
}

TEST(Carousel, DataUnitsLayoutInvariant) {
  // Block i < p holds message units [i*K, (i+1)*K) verbatim at its head.
  for (auto [n, k, d, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            3, 2, 2, 3},
        {5, 3, 3, 5},
        {12, 6, 6, 12},
        {12, 6, 10, 12},
        {12, 6, 10, 10},
        {12, 6, 10, 8}}) {
    Carousel c(n, k, d, p);
    const std::size_t ub = 7;
    const std::size_t w = c.s() * ub;
    auto [data, blob] = make_stripe(c, ub);
    auto views = split_const_spans(blob, n);
    const std::size_t K = c.data_units_per_block();
    for (std::size_t i = 0; i < p; ++i) {
      EXPECT_EQ(c.data_extent_bytes(i, w), K * ub);
      EXPECT_TRUE(std::equal(views[i].begin(),
                             views[i].begin() + K * ub,
                             data.begin() + i * K * ub))
          << c.params().to_string() << " block " << i;
    }
    for (std::size_t i = p; i < n; ++i)
      EXPECT_EQ(c.data_extent_bytes(i, w), 0u);
  }
}

TEST(Carousel, GatherDataIsIdentity) {
  Carousel c(12, 6, 10, 12);
  const std::size_t ub = 5;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 12);
  std::vector<std::size_t> first_p(c.p());
  std::iota(first_p.begin(), first_p.end(), 0);
  std::vector<Byte> out(data.size());
  c.decode_stripe(keep_only(views, first_p), out);
  EXPECT_EQ(out, data);
}

TEST(Carousel, MdsExhaustiveSmall) {
  for (auto [n, k, d, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            3, 2, 2, 3},
        {5, 3, 3, 5},
        {5, 3, 3, 4},
        {6, 3, 4, 6},
        {6, 3, 4, 5},
        {5, 2, 3, 5},
        {7, 4, 6, 6}}) {
    Carousel c(n, k, d, p);
    const std::size_t ub = 3;
    const std::size_t w = c.s() * ub;
    auto [data, blob] = make_stripe(c, ub);
    auto views = split_const_spans(blob, n);
    for (const auto& ids : subsets(n, k)) {
      std::vector<std::span<const Byte>> chosen;
      for (std::size_t id : ids) chosen.push_back(views[id]);
      std::vector<Byte> out(k * w);
      c.decode(ids, chosen, out);
      ASSERT_EQ(out, data) << c.params().to_string();
    }
  }
}

TEST(Carousel, DecodeParallelNoFailure) {
  Carousel c(12, 6, 10, 10);
  const std::size_t ub = 4;
  const std::size_t w = c.s() * ub;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 12);
  std::vector<std::size_t> ids(c.p());
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<Byte> out(c.k() * w);
  auto stats = c.decode_stripe(keep_only(views, ids), out);
  EXPECT_EQ(out, data);
  // Each of the p blocks contributes exactly k/p of a block.
  EXPECT_EQ(stats.bytes_read, c.k() * w);
  EXPECT_EQ(stats.sources, c.p());
}

TEST(Carousel, DecodeParallelEverySingleFailure) {
  // Any one data-carrying block lost; every pure-parity block as stand-in.
  for (auto [n, k, d, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            6, 3, 3, 5},
        {6, 3, 4, 5},
        {12, 6, 10, 10}}) {
    Carousel c(n, k, d, p);
    const std::size_t ub = 3;
    const std::size_t w = c.s() * ub;
    auto [data, blob] = make_stripe(c, ub);
    auto views = split_const_spans(blob, n);
    for (std::size_t lost = 0; lost < p; ++lost) {
      for (std::size_t sub = p; sub < n; ++sub) {
        std::vector<std::size_t> ids;
        for (std::size_t i = 0; i < p; ++i)
          if (i != lost) ids.push_back(i);
        ids.push_back(sub);
        std::vector<Byte> out(c.k() * w);
        auto stats = c.decode_stripe(keep_only(views, ids), out);
        ASSERT_EQ(out, data) << c.params().to_string() << " lost=" << lost
                             << " sub=" << sub;
        EXPECT_EQ(stats.bytes_read, c.k() * w);
      }
    }
  }
}

TEST(Carousel, DecodeParallelDoubleFailure) {
  Carousel c(12, 6, 10, 8);  // 4 pure-parity blocks available
  const std::size_t ub = 3;
  const std::size_t w = c.s() * ub;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 12);
  // Lose data blocks 2 and 5; stand in blocks 9 and 11.
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 8; ++i)
    if (i != 2 && i != 5) ids.push_back(i);
  ids.push_back(9);
  ids.push_back(11);
  std::vector<Byte> out(c.k() * w);
  c.decode_stripe(keep_only(views, ids), out);
  EXPECT_EQ(out, data);
}

TEST(Carousel, DecodeParallelFallsBackOnUnderReplacedSets) {
  Carousel c(6, 3, 3, 6);  // p = n: no pure-parity stand-ins exist
  const std::size_t ub = 2;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 6);
  std::vector<std::size_t> ids = {0, 1, 2, 3, 4};  // block 5 lost, p-1 blocks
  // No stand-in for slot 5: the plan falls back to every verbatim unit of
  // the five survivors plus the fewest parity units, and still round-trips.
  const auto plan = c.plan_read({true, true, true, true, true, false});
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE((*plan)[5].empty());
  std::size_t units = 0;
  for (std::size_t b = 0; b < 5; ++b) {
    ASSERT_GE((*plan)[b].size(), c.data_units_per_block());
    units += (*plan)[b].size();
  }
  EXPECT_EQ(units, c.message_units());
  std::vector<Byte> out(data.size());
  auto stats = c.decode_stripe(keep_only(views, ids), out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(stats.bytes_read, data.size());
}

TEST(Carousel, RepairEveryBlockMsrBase) {
  Carousel c(6, 3, 4, 6);
  const std::size_t ub = 5;
  const std::size_t w = c.s() * ub;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 6);
  for (std::size_t failed = 0; failed < 6; ++failed) {
    std::vector<std::size_t> helpers;
    for (std::size_t h = 0; h < 6 && helpers.size() < c.d(); ++h)
      if (h != failed) helpers.push_back(h);
    std::vector<std::vector<Byte>> chunk_store;
    std::vector<std::span<const Byte>> chunks;
    for (std::size_t h : helpers) {
      chunk_store.emplace_back(c.helper_chunk_units() * ub);
      c.helper_compute(h, failed, views[h], chunk_store.back());
    }
    for (auto& ch : chunk_store) chunks.emplace_back(ch);
    std::vector<Byte> rebuilt(w);
    auto stats = c.newcomer_compute(failed, helpers, chunks, rebuilt);
    ASSERT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()))
        << "failed=" << failed;
    // Optimal traffic: d/(d-k+1) block sizes.
    EXPECT_DOUBLE_EQ(double(stats.bytes_read) / double(w),
                     c.params().repair_traffic_blocks());
  }
}

TEST(Carousel, RepairEveryBlockRsBase) {
  Carousel c(5, 3, 3, 5);  // d == k: helpers ship whole blocks
  const std::size_t ub = 5;
  const std::size_t w = c.s() * ub;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 5);
  EXPECT_EQ(c.helper_chunk_units(), c.s());
  for (std::size_t failed = 0; failed < 5; ++failed) {
    std::vector<std::size_t> helpers;
    for (std::size_t h = 0; h < 5 && helpers.size() < c.d(); ++h)
      if (h != failed) helpers.push_back(h);
    std::vector<std::vector<Byte>> chunk_store;
    std::vector<std::span<const Byte>> chunks;
    for (std::size_t h : helpers) {
      chunk_store.emplace_back(w);
      c.helper_compute(h, failed, views[h], chunk_store.back());
    }
    for (auto& ch : chunk_store) chunks.emplace_back(ch);
    std::vector<Byte> rebuilt(w);
    auto stats = c.newcomer_compute(failed, helpers, chunks, rebuilt);
    ASSERT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()));
    EXPECT_EQ(stats.bytes_read, c.k() * w);  // RS repair traffic
  }
}

TEST(Carousel, RepairMatchesBaseMsrTraffic) {
  // Carousel must not add a single byte over its base MSR code (Fig. 7).
  Carousel c(12, 6, 10, 12);
  Carousel msr(12, 6, 10, 6);
  EXPECT_EQ(double(c.helper_chunk_units()) / double(c.s()),
            double(msr.helper_chunk_units()) / double(msr.s()));
}

TEST(Carousel, SelectionPatternMathematics) {
  // Paper §VI-B invariants of the round-robin unit selection:
  //  - every data-carrying block offers exactly K units,
  //  - within every expansion coordinate u, exactly k*alpha units are
  //    selected overall (so Ĝ₀ is block-diagonal with square blocks),
  //  - the pattern matches the published rule (j - i) mod N0 in [0, K0).
  for (auto [n, k, d, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            3, 2, 2, 3},
        {12, 6, 10, 10},
        {12, 6, 10, 12},
        {10, 4, 6, 7},
        {20, 10, 19, 20}}) {
    Carousel c(n, k, d, p);
    ASSERT_TRUE(c.selection_is_papers());
    const std::size_t alpha = c.params().alpha();
    const std::size_t P = c.expansion();
    const std::size_t K = c.data_units_per_block();
    const std::size_t g = std::gcd(k, p);
    const std::size_t K0 = k / g, N0 = p / g;
    std::vector<std::size_t> per_class(P, 0);
    for (std::size_t slot = 0; slot < p; ++slot) {
      auto pattern = c.selection_pattern(slot);
      ASSERT_EQ(pattern.size(), K) << c.params().to_string();
      for (std::size_t j : pattern) {
        ASSERT_LT(j, alpha * P);
        ASSERT_LT((j + N0 - slot % N0) % N0, K0)
            << "unit " << j << " of slot " << slot
            << " violates the round-robin rule";
        ++per_class[j % P];
      }
    }
    for (std::size_t u = 0; u < P; ++u)
      EXPECT_EQ(per_class[u], k * alpha)
          << c.params().to_string() << " class " << u;
  }
}

TEST(Carousel, RepairProjectionMatchesHelperCompute) {
  // The remote-executable projection description must compute exactly what
  // helper_compute computes locally.
  Carousel c(12, 6, 10, 10);
  const std::size_t ub = 7;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, 12);
  for (std::size_t failed : {0u, 5u, 11u}) {
    for (std::size_t helper : {1u, 9u, 10u}) {
      if (helper == failed) continue;
      std::vector<Byte> direct(c.helper_chunk_units() * ub);
      c.helper_compute(helper, failed, views[helper], direct);
      auto proj = c.repair_projection(helper, failed);
      ASSERT_EQ(proj.size(), c.helper_chunk_units());
      std::vector<Byte> via_proj(direct.size(), 0);
      for (std::size_t o = 0; o < proj.size(); ++o)
        for (auto [pos, coeff] : proj[o])
          for (std::size_t b = 0; b < ub; ++b)
            via_proj[o * ub + b] ^=
                gf::mul(coeff, views[helper][pos * ub + b]);
      EXPECT_EQ(via_proj, direct) << "failed=" << failed
                                  << " helper=" << helper;
    }
  }
}

TEST(Carousel, GeneratorSparsity) {
  // Paper §VIII-A / Fig. 5: parity-unit rows keep base-code density, i.e.
  // at most k*alpha nonzeros per row (out of k*s columns).
  for (auto [n, k, d, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            3, 2, 2, 3},
        {12, 6, 6, 12},
        {12, 6, 10, 12}}) {
    Carousel c(n, k, d, p);
    const auto& g = c.generator();
    const std::size_t limit = k * c.params().alpha();
    for (std::size_t r = 0; r < g.rows(); ++r)
      EXPECT_LE(g.row_support(r).size(), limit)
          << c.params().to_string() << " row " << r;
  }
}

TEST(Carousel, InvalidParamsRejected) {
  EXPECT_THROW(Carousel(6, 3, 3, 2), std::invalid_argument);   // p < k
  EXPECT_THROW(Carousel(6, 3, 3, 7), std::invalid_argument);   // p > n
  EXPECT_THROW(Carousel(6, 3, 6, 6), std::invalid_argument);   // d >= n
  EXPECT_THROW(Carousel(8, 4, 5, 8), std::invalid_argument);   // PM gap
  EXPECT_THROW(Carousel(6, 0, 0, 0), std::invalid_argument);
}

// ---- The stripe planner, exhaustively over small codes --------------------

// p = n, p = k, and k < p < n over both base codes (RS when d == k).
constexpr std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>
    kPlannerCodes[] = {{5, 3, 3, 5}, {6, 3, 4, 3}, {6, 3, 3, 4}, {7, 4, 6, 6}};

TEST(StripePlan, ReadPlanOverEveryUsableMask) {
  for (auto [n, k, d, p] : kPlannerCodes) {
    Carousel c(n, k, d, p);
    const std::size_t ub = 3;
    const std::size_t K = c.data_units_per_block();
    auto [data, blob] = make_stripe(c, ub);
    auto views = split_const_spans(blob, n);
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
      SCOPED_TRACE(c.params().to_string() + " mask " + std::to_string(mask));
      std::vector<bool> usable(n);
      std::vector<std::size_t> ids;
      for (std::size_t b = 0; b < n; ++b) {
        usable[b] = (mask >> b) & 1;
        if (usable[b]) ids.push_back(b);
      }
      const auto plan = c.plan_read(usable);
      std::vector<Byte> out(data.size());
      if (ids.size() < k) {
        EXPECT_FALSE(plan.has_value());
        EXPECT_THROW(c.decode_stripe(keep_only(views, ids), out),
                     std::runtime_error);
        continue;
      }
      ASSERT_TRUE(plan.has_value());
      ASSERT_EQ(plan->size(), n);
      // Only usable blocks, each position at most once; k*s units in all.
      std::size_t units = 0, contacted = 0;
      for (std::size_t b = 0; b < n; ++b) {
        const auto& pos = (*plan)[b];
        EXPECT_TRUE(usable[b] || pos.empty()) << "block " << b;
        EXPECT_TRUE(std::adjacent_find(pos.begin(), pos.end(),
                                       std::greater_equal<>()) == pos.end());
        EXPECT_TRUE(pos.empty() || pos.back() < c.s());
        units += pos.size();
        contacted += !pos.empty();
      }
      EXPECT_EQ(units, c.message_units());
      // §VII: with enough usable parity the plan is p fetches of K units —
      // own data units per usable slot, the lowest usable parity blocks in
      // ascending order standing in for the rest.
      std::size_t lost_slots = 0, parity = 0;
      for (std::size_t b = 0; b < n; ++b) {
        if (b < p)
          lost_slots += !usable[b];
        else
          parity += usable[b];
      }
      if (lost_slots <= parity) {
        codes::ReadPlan want(n);
        std::size_t stand_in = p;
        for (std::size_t slot = 0; slot < p; ++slot) {
          if (usable[slot]) {
            want[slot].resize(K);
            std::iota(want[slot].begin(), want[slot].end(), 0);
            continue;
          }
          while (!usable[stand_in]) ++stand_in;
          auto pattern = c.selection_pattern(slot);
          want[stand_in++].assign(pattern.begin(), pattern.end());
        }
        EXPECT_EQ(*plan, want);
        EXPECT_EQ(contacted, p);
      } else {
        // Parity ran out: every usable slot still serves all its verbatim
        // units, and parity units only complete the rank.
        for (std::size_t slot = 0; slot < p; ++slot)
          if (usable[slot]) {
            ASSERT_GE((*plan)[slot].size(), K);
            EXPECT_EQ((*plan)[slot][K - 1], K - 1) << "slot " << slot;
          }
      }
      const auto stats = c.decode_stripe(keep_only(views, ids), out);
      EXPECT_EQ(out, data);
      EXPECT_EQ(stats.bytes_read, data.size());
      EXPECT_EQ(stats.sources, contacted);
    }
  }
}

TEST(StripePlan, RepairPlanOverEverySurvivorSet) {
  for (auto [n, k, d, p] : kPlannerCodes) {
    Carousel c(n, k, d, p);
    const std::size_t ub = 3;
    const std::size_t w = c.s() * ub;
    auto [data, blob] = make_stripe(c, ub);
    auto views = split_const_spans(blob, n);
    for (std::size_t failed = 0; failed < n; ++failed) {
      for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
        if ((mask >> failed) & 1) continue;
        SCOPED_TRACE(c.params().to_string() + " failed " +
                     std::to_string(failed) + " mask " + std::to_string(mask));
        std::vector<std::size_t> survivors;
        for (std::size_t b = 0; b < n; ++b)
          if ((mask >> b) & 1) survivors.push_back(b);
        const auto plan = c.plan_repair(failed, survivors);
        std::vector<Byte> rebuilt(w);
        if (survivors.size() < k) {
          EXPECT_FALSE(plan.has_value());
          EXPECT_THROW(c.repair_stripe(failed, keep_only(views, survivors),
                                       rebuilt),
                       std::runtime_error);
          continue;
        }
        ASSERT_TRUE(plan.has_value());
        const bool projected = d > k && survivors.size() >= d;
        EXPECT_EQ(plan->projected, projected);
        const std::vector<std::size_t> first(
            survivors.begin(), survivors.begin() + (projected ? d : k));
        EXPECT_EQ(plan->sources, first);
        const auto stats =
            c.repair_stripe(failed, keep_only(views, survivors), rebuilt);
        EXPECT_TRUE(
            std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()));
        // Exactly d/(d-k+1) block sizes on the helper path, k otherwise.
        if (projected) {
          EXPECT_EQ(stats.bytes_read * c.alpha(), d * w);
        } else {
          EXPECT_EQ(stats.bytes_read, k * w);
        }
        EXPECT_EQ(stats.sources, first.size());
      }
    }
  }
}

// The paper's full Hadoop parameter sweep: (12, 6, 10, p) for p in
// {6, 8, 10, 12}, plus the Fig. 6 grid with n = 2k, d in {k, 2k-1}, p = n.
class CarouselGrid : public ::testing::TestWithParam<
                         std::tuple<int, int, int, int>> {};

TEST_P(CarouselGrid, EndToEndRoundTrip) {
  auto [n, k, d, p] = GetParam();
  Carousel c(n, k, d, p);
  EXPECT_TRUE(c.selection_is_papers())
      << "published selection pattern went singular for "
      << c.params().to_string();
  const std::size_t ub = 2;
  const std::size_t w = c.s() * ub;
  auto [data, blob] = make_stripe(c, ub);
  auto views = split_const_spans(blob, n);

  // Parallel read from the first p blocks.
  std::vector<std::size_t> first_p(c.p());
  std::iota(first_p.begin(), first_p.end(), 0);
  std::vector<Byte> gathered(data.size());
  c.decode_stripe(keep_only(views, first_p), gathered);
  EXPECT_EQ(gathered, data);

  // MDS from the last k blocks.
  std::vector<std::size_t> ids;
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id = n - k; id < static_cast<std::size_t>(n); ++id) {
    ids.push_back(id);
    chosen.push_back(views[id]);
  }
  std::vector<Byte> out(c.k() * w);
  c.decode(ids, chosen, out);
  EXPECT_EQ(out, data);

  // Repair block 0 from blocks 1..d.
  std::vector<std::size_t> helpers;
  for (std::size_t h = 1; h <= c.d(); ++h) helpers.push_back(h);
  std::vector<std::vector<Byte>> chunk_store;
  std::vector<std::span<const Byte>> chunks;
  for (std::size_t h : helpers) {
    chunk_store.emplace_back(c.helper_chunk_units() * ub);
    c.helper_compute(h, 0, views[h], chunk_store.back());
  }
  for (auto& ch : chunk_store) chunks.emplace_back(ch);
  std::vector<Byte> rebuilt(w);
  auto stats = c.newcomer_compute(0, helpers, chunks, rebuilt);
  EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), views[0].begin()));
  EXPECT_DOUBLE_EQ(double(stats.bytes_read) / double(w),
                   c.params().repair_traffic_blocks());
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigurations, CarouselGrid,
    ::testing::Values(
        // Hadoop experiments: (12, 6, 10, p).
        std::tuple{12, 6, 10, 6}, std::tuple{12, 6, 10, 8},
        std::tuple{12, 6, 10, 10}, std::tuple{12, 6, 10, 12},
        // Fig. 6 grid, d = k.
        std::tuple{4, 2, 2, 4}, std::tuple{8, 4, 4, 8},
        std::tuple{12, 6, 6, 12}, std::tuple{16, 8, 8, 16},
        std::tuple{20, 10, 10, 20},
        // Fig. 6 grid, d = 2k-1.
        std::tuple{4, 2, 3, 4}, std::tuple{8, 4, 7, 8},
        std::tuple{12, 6, 11, 12}, std::tuple{16, 8, 15, 16},
        std::tuple{20, 10, 19, 20},
        // Assorted p strictly between k and n.
        std::tuple{9, 6, 6, 7}, std::tuple{10, 4, 6, 7},
        std::tuple{21, 10, 18, 14}));

}  // namespace
}  // namespace carousel::codes
