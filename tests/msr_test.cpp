// The systematic (n, k, d) product-matrix MSR code of the paper's §IV is
// Carousel(n, k, d, k): at p = k the construction returns its base code
// (§VI), ProductMatrixMSR's generator.  The codec tests run on that point
// and repair through plan_repair + rebuild; ProductMatrixMSR itself is only
// the construction (generator, phi, lambda, repair_combiner).

#include <gtest/gtest.h>

#include <algorithm>

#include "codes/carousel.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::keep_only;
using test::random_bytes;
using test::split_const_spans;
using test::split_spans;
using test::subsets;

// Encodes a random stripe and returns {data, blob}.
std::pair<std::vector<Byte>, std::vector<Byte>> make_stripe(
    const Carousel& msr, std::size_t unit_bytes) {
  const std::size_t w = msr.s() * unit_bytes;
  auto data = random_bytes(msr.k() * w, 7);
  std::vector<Byte> blob(msr.n() * w);
  msr.encode(data, split_spans(blob, msr.n()));
  return {std::move(data), std::move(blob)};
}

// Rebuilds `failed` from exactly the d blocks in `helpers`, each shipping
// its repair projection.
IoStats repair_from(const Carousel& msr, std::size_t failed,
                    const std::vector<std::size_t>& helpers,
                    const std::vector<std::span<const Byte>>& views,
                    std::span<Byte> out) {
  const auto plan = msr.plan_repair(failed, helpers);
  if (!plan || !plan->projected) {
    ADD_FAILURE() << "d survivors must plan a projected repair";
    return {};
  }
  EXPECT_EQ(plan->sources, helpers);
  const std::size_t ub = out.size() / msr.s();
  std::vector<std::vector<Byte>> chunk_store;
  for (std::size_t h : plan->sources) {
    chunk_store.emplace_back(msr.helper_chunk_units() * ub);
    msr.helper_compute(h, failed, views[h], chunk_store.back());
  }
  std::vector<std::span<const Byte>> chunks(chunk_store.begin(),
                                            chunk_store.end());
  return msr.rebuild(failed, *plan, chunks, out);
}

TEST(ProductMatrixMSR, RejectsRsRegimeAndGaps) {
  EXPECT_THROW(ProductMatrixMSR(6, 3, 3), std::invalid_argument);  // d == k
  EXPECT_THROW(ProductMatrixMSR(8, 4, 5), std::invalid_argument);  // gap
  EXPECT_NO_THROW(ProductMatrixMSR(8, 4, 6));                      // 2k-2
  EXPECT_NO_THROW(ProductMatrixMSR(8, 4, 7));                      // 2k-1
}

TEST(ProductMatrixMSR, GeometryMatchesPaper) {
  Carousel msr(12, 6, 10, 6);  // the paper's Hadoop configuration
  EXPECT_EQ(msr.alpha(), 5u);  // d - k + 1
  EXPECT_EQ(msr.s(), 5u);
  EXPECT_EQ(msr.helper_chunk_units(), 1u);  // one segment of alpha
  EXPECT_DOUBLE_EQ(msr.params().repair_traffic_blocks(), 2.0);
  EXPECT_STREQ(msr.kind(), "msr");
}

TEST(ProductMatrixMSR, SystematicPrefixIsVerbatim) {
  Carousel msr(6, 3, 4, 3);
  const std::size_t w = msr.s() * 11;
  auto [data, blob] = make_stripe(msr, 11);
  for (std::size_t i = 0; i < msr.k(); ++i)
    EXPECT_TRUE(std::equal(blob.begin() + i * w, blob.begin() + (i + 1) * w,
                           data.begin() + i * w))
        << "block " << i;
}

TEST(ProductMatrixMSR, MdsExhaustiveSmall) {
  for (auto [n, k, d] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{5, 3, 4},
        {6, 3, 4},
        {7, 4, 6} /* d=2k-2 */,
        {5, 2, 3} /* shortened */,
        {6, 3, 5} /* shortened */}) {
    Carousel msr(n, k, d, k);
    const std::size_t ub = 9;
    const std::size_t w = msr.s() * ub;
    auto [data, blob] = make_stripe(msr, ub);
    auto views = split_const_spans(blob, n);
    for (const auto& ids : subsets(n, k)) {
      std::vector<std::span<const Byte>> chosen;
      for (std::size_t id : ids) chosen.push_back(views[id]);
      std::vector<Byte> out(k * w);
      msr.decode(ids, chosen, out);
      ASSERT_EQ(out, data) << "(" << n << "," << k << "," << d << ")";
    }
  }
}

TEST(ProductMatrixMSR, RepairEveryBlockEveryHelperSetSmall) {
  Carousel msr(6, 3, 4, 3);
  const std::size_t ub = 10;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 6);
  for (std::size_t failed = 0; failed < 6; ++failed) {
    for (const auto& all : subsets(6, msr.d() + 1)) {
      // Build helper sets of size d avoiding `failed`.
      std::vector<std::size_t> helpers;
      for (std::size_t id : all)
        if (id != failed) helpers.push_back(id);
      if (helpers.size() != msr.d()) continue;
      std::vector<Byte> rebuilt(w);
      auto stats = repair_from(msr, failed, helpers, views, rebuilt);
      ASSERT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(),
                             views[failed].begin()))
          << "failed=" << failed;
      // Optimal repair traffic: d/(d-k+1) = 2 block sizes here.
      EXPECT_EQ(stats.bytes_read, msr.d() * ub);
      EXPECT_EQ(stats.bytes_read * msr.alpha(), msr.d() * w);
    }
  }
}

TEST(ProductMatrixMSR, RepairTrafficIsOptimalFraction) {
  // Traffic in block sizes must equal d/(d-k+1) exactly.
  for (auto [n, k, d] :
       {std::tuple<std::size_t, std::size_t, std::size_t>{12, 6, 10},
        {8, 4, 7},
        {10, 5, 9}}) {
    Carousel msr(n, k, d, k);
    const std::size_t ub = 4;
    const std::size_t w = msr.s() * ub;
    auto [data, blob] = make_stripe(msr, ub);
    // Every other block survives: the planner takes blocks 1..d.
    std::vector<Byte> rebuilt(w);
    auto stats = msr.repair_stripe(0, split_const_spans(blob, n), rebuilt);
    EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), blob.begin()));
    double traffic_blocks = double(stats.bytes_read) / double(w);
    EXPECT_DOUBLE_EQ(traffic_blocks, msr.params().repair_traffic_blocks());
    // And strictly less than RS's k block sizes whenever d > k.
    EXPECT_LT(traffic_blocks, double(k));
  }
}

TEST(ProductMatrixMSR, ShortenedCodeRepairsParityBlocks) {
  // Shortening drops systematic nodes; parity repair must still work.
  Carousel msr(8, 3, 6, 3);  // i = d-2k+2 = 2 shortened nodes
  const std::size_t ub = 8;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 8);
  for (std::size_t failed : {std::size_t{0}, std::size_t{4}, std::size_t{7}}) {
    std::vector<std::size_t> helpers;
    for (std::size_t h = 0; h < 8 && helpers.size() < msr.d(); ++h)
      if (h != failed) helpers.push_back(h);
    std::vector<Byte> rebuilt(w);
    repair_from(msr, failed, helpers, views, rebuilt);
    EXPECT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()))
        << "failed=" << failed;
  }
}

TEST(ProductMatrixMSR, HelperValidation) {
  Carousel msr(6, 3, 4, 3);
  std::vector<Byte> block(msr.s() * 4), chunk(4);
  EXPECT_THROW(msr.helper_compute(2, 2, block, chunk), std::invalid_argument);
  std::vector<Byte> bad_chunk(5);
  EXPECT_THROW(msr.helper_compute(1, 2, block, bad_chunk),
               std::invalid_argument);
  ProductMatrixMSR base(6, 3, 4);
  std::vector<std::size_t> dup_helpers = {1, 1, 3, 4};
  EXPECT_THROW(base.repair_combiner(0, dup_helpers), std::invalid_argument);
  std::vector<std::size_t> with_failed = {0, 1, 2, 3};
  EXPECT_THROW(base.repair_combiner(0, with_failed), std::invalid_argument);
}

TEST(ProductMatrixMSR, LambdasDistinctAndPhiWellFormed) {
  ProductMatrixMSR msr(20, 10, 19);  // the paper's largest Fig. 6 point
  const std::size_t alpha = 19 - 10 + 1;
  std::vector<Byte> lambdas;
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(msr.phi(i).size(), alpha);
    lambdas.push_back(msr.lambda(i));
  }
  std::sort(lambdas.begin(), lambdas.end());
  EXPECT_EQ(std::adjacent_find(lambdas.begin(), lambdas.end()), lambdas.end())
      << "lambda values must be pairwise distinct";
}

TEST(ProductMatrixMSR, LargeConfigRoundTrip) {
  // Fig. 6 uses up to (20, 10, 19); verify decode on a sampled subset.
  Carousel msr(20, 10, 19, 10);
  const std::size_t ub = 2;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, 20);
  std::vector<std::size_t> ids = {1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id : ids) chosen.push_back(views[id]);
  std::vector<Byte> out(msr.k() * w);
  msr.decode(ids, chosen, out);
  EXPECT_EQ(out, data);
}

// Property sweep: shape invariants across the supported (n,k,d) grid.
class MsrGrid
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MsrGrid, EncodeDecodeRepairRoundTrip) {
  auto [n, k, d] = GetParam();
  Carousel msr(n, k, d, k);
  const std::size_t ub = 6;
  const std::size_t w = msr.s() * ub;
  auto [data, blob] = make_stripe(msr, ub);
  auto views = split_const_spans(blob, n);

  // Decode from the k highest-indexed blocks (worst case for shortening).
  std::vector<std::size_t> ids;
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id = n - k; id < static_cast<std::size_t>(n); ++id) {
    ids.push_back(id);
    chosen.push_back(views[id]);
  }
  std::vector<Byte> out(k * w);
  msr.decode(ids, chosen, out);
  EXPECT_EQ(out, data);

  // Repair block 0 from the last d blocks, the only survivors.
  std::vector<std::size_t> helpers;
  for (std::size_t h = n - d; h < static_cast<std::size_t>(n); ++h)
    helpers.push_back(h);
  std::vector<Byte> rebuilt(w);
  auto stats = msr.repair_stripe(0, keep_only(views, helpers), rebuilt);
  EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), views[0].begin()));
  EXPECT_EQ(stats.sources, std::size_t(d));
  EXPECT_EQ(stats.bytes_read * msr.alpha(), d * w);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MsrGrid,
    ::testing::Values(std::tuple{4, 2, 3}, std::tuple{6, 2, 3},
                      std::tuple{6, 3, 4}, std::tuple{6, 3, 5},
                      std::tuple{8, 4, 6}, std::tuple{8, 4, 7},
                      std::tuple{10, 4, 8}, std::tuple{12, 6, 10},
                      std::tuple{12, 6, 11}, std::tuple{16, 8, 15},
                      std::tuple{20, 10, 19}));

}  // namespace
}  // namespace carousel::codes
