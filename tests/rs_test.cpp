// The systematic (n, k) Reed-Solomon code of the paper's baseline (§IV) is
// Carousel(n, k, k, k): at p = k the construction returns its base code
// (§VI), the extended-Cauchy systematic generator.  Any k blocks decode, and
// a lost block is rebuilt from k whole blocks (d = k), the repair traffic the
// paper's Fig. 7 contrasts with MSR/Carousel repair.

#include <gtest/gtest.h>

#include "codes/carousel.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::random_bytes;
using test::split_const_spans;
using test::split_spans;
using test::subsets;

TEST(ReedSolomon, SystematicPrefixIsVerbatim) {
  Carousel rs(6, 4, 4, 4);
  auto data = random_bytes(4 * 100);
  std::vector<Byte> blob(6 * 100);
  auto blocks = split_spans(blob, 6);
  rs.encode(data, blocks);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_TRUE(std::equal(blocks[i].begin(), blocks[i].end(),
                           data.begin() + i * 100));
}

TEST(ReedSolomon, DecodeFromEveryKSubset) {
  const std::size_t n = 6, k = 4, w = 64;
  Carousel rs(n, k, k, k);
  auto data = random_bytes(k * w);
  std::vector<Byte> blob(n * w);
  auto blocks = split_spans(blob, n);
  rs.encode(data, blocks);
  auto views = split_const_spans(blob, n);
  for (const auto& ids : subsets(n, k)) {
    std::vector<std::span<const Byte>> chosen;
    for (std::size_t id : ids) chosen.push_back(views[id]);
    std::vector<Byte> out(k * w);
    auto stats = rs.decode(ids, chosen, out);
    EXPECT_EQ(out, data);
    EXPECT_EQ(stats.bytes_read, k * w);
    EXPECT_EQ(stats.sources, k);
  }
}

TEST(ReedSolomon, ParityDiffersFromData) {
  Carousel rs(5, 3, 3, 3);
  auto data = random_bytes(3 * 32);
  std::vector<Byte> blob(5 * 32);
  auto blocks = split_spans(blob, 5);
  rs.encode(data, blocks);
  // A parity block should not equal any data block for random input.
  for (std::size_t pb = 3; pb < 5; ++pb)
    for (std::size_t db = 0; db < 3; ++db)
      EXPECT_FALSE(std::equal(blocks[pb].begin(), blocks[pb].end(),
                              blocks[db].begin()));
}

TEST(ReedSolomon, ReconstructEveryBlockFromEveryHelperSet) {
  const std::size_t n = 6, k = 3, w = 48;
  Carousel rs(n, k, k, k);
  auto data = random_bytes(k * w);
  std::vector<Byte> blob(n * w);
  rs.encode(data, split_spans(blob, n));
  auto views = split_const_spans(blob, n);
  for (std::size_t failed = 0; failed < n; ++failed) {
    for (const auto& ids : subsets(n, k)) {
      if (std::find(ids.begin(), ids.end(), failed) != ids.end()) continue;
      std::vector<std::span<const Byte>> chosen;
      for (std::size_t id : ids) chosen.push_back(views[id]);
      // With exactly k survivors the planner takes all of them, whole.
      const auto plan = rs.plan_repair(failed, ids);
      ASSERT_TRUE(plan.has_value());
      EXPECT_FALSE(plan->projected);
      EXPECT_EQ(plan->sources, ids);
      std::vector<Byte> rebuilt(w);
      auto stats = rs.rebuild(failed, *plan, chosen, rebuilt);
      EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(),
                             views[failed].begin()))
          << "failed=" << failed;
      // RS repair traffic: k whole blocks (the cost Carousel/MSR beat).
      EXPECT_EQ(stats.bytes_read, k * w);
    }
  }
}

TEST(ReedSolomon, ReconstructRejectsSelfHelper) {
  Carousel rs(4, 2, 2, 2);
  auto data = random_bytes(2 * 16);
  std::vector<Byte> blob(4 * 16);
  rs.encode(data, split_spans(blob, 4));
  auto views = split_const_spans(blob, 4);
  const Carousel::RepairPlan plan{{1, 2}, /*projected=*/false};
  std::vector<std::span<const Byte>> chosen = {views[1], views[2]};
  std::vector<Byte> out(16);
  EXPECT_THROW(rs.rebuild(1, plan, chosen, out), std::invalid_argument);
}

TEST(ReedSolomon, DecodeShapeErrors) {
  Carousel rs(4, 2, 2, 2);
  auto data = random_bytes(2 * 16);
  std::vector<Byte> blob(4 * 16);
  rs.encode(data, split_spans(blob, 4));
  auto views = split_const_spans(blob, 4);
  std::vector<Byte> out(2 * 16);
  {
    std::vector<std::size_t> ids = {0};
    std::vector<std::span<const Byte>> chosen = {views[0]};
    EXPECT_THROW(rs.decode(ids, chosen, out), std::invalid_argument);
  }
  {
    std::vector<std::size_t> ids = {0, 0};  // repeated block: singular
    std::vector<std::span<const Byte>> chosen = {views[0], views[0]};
    EXPECT_THROW(rs.decode(ids, chosen, out), std::runtime_error);
  }
}

TEST(ReedSolomon, EncodeShapeErrors) {
  Carousel rs(4, 2, 2, 2);
  auto data = random_bytes(2 * 16);
  std::vector<Byte> blob(3 * 16);
  auto blocks = split_spans(blob, 3);  // one block short
  EXPECT_THROW(rs.encode(data, blocks), std::invalid_argument);
}

TEST(ReedSolomon, ParamsExposeRsShape) {
  Carousel rs(9, 6, 6, 6);
  EXPECT_EQ(rs.params().d, 6u);
  EXPECT_EQ(rs.params().p, 6u);
  EXPECT_EQ(rs.s(), 1u);
  EXPECT_TRUE(rs.params().trivial_repair());
  EXPECT_DOUBLE_EQ(rs.params().repair_traffic_blocks(), 6.0);
  EXPECT_STREQ(rs.kind(), "rs");
}

// Parameterised MDS sweep across realistic deployment shapes (the paper
// cites (6,4), (9,6), (12,6) among deployed RS configurations).
class RsMdsSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RsMdsSweep, RandomStripesRoundTrip) {
  auto [n, k] = GetParam();
  const std::size_t w = 40;
  Carousel rs(n, k, k, k);
  auto data = random_bytes(k * w, n * 1000 + k);
  std::vector<Byte> blob(n * w);
  rs.encode(data, split_spans(blob, n));
  auto views = split_const_spans(blob, n);
  // Last k blocks (all-parity-heavy subset) must decode.
  std::vector<std::size_t> ids;
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id = n - k; id < static_cast<std::size_t>(n); ++id) {
    ids.push_back(id);
    chosen.push_back(views[id]);
  }
  std::vector<Byte> out(k * w);
  rs.decode(ids, chosen, out);
  EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(DeployedShapes, RsMdsSweep,
                         ::testing::Values(std::pair{4, 2}, std::pair{6, 3},
                                           std::pair{6, 4}, std::pair{9, 6},
                                           std::pair{12, 6}, std::pair{14, 10},
                                           std::pair{20, 10}));

}  // namespace
}  // namespace carousel::codes
