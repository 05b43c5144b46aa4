#include <gtest/gtest.h>

#include <numeric>

#include "codes/lrc.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::keep_only;
using test::random_bytes;
using test::split_const_spans;
using test::split_spans;
using test::subsets;

// Azure WAS ships LRC(12, 2, 2); the tests use the scaled LRC(6, 2, 2).
TEST(Lrc, GeometryAndValidation) {
  LocalReconstructionCode lrc(6, 2, 2);
  EXPECT_EQ(lrc.n(), 10u);
  EXPECT_EQ(lrc.group_size(), 3u);
  EXPECT_EQ(lrc.global_parities(), 2u);
  EXPECT_EQ(lrc.group_of(0), 0u);
  EXPECT_EQ(lrc.group_of(5), 1u);
  EXPECT_EQ(lrc.group_of(6), 0u);  // local parity of group 0
  EXPECT_EQ(lrc.group_of(7), 1u);
  EXPECT_EQ(lrc.group_of(9), static_cast<std::size_t>(-1));
  EXPECT_THROW(LocalReconstructionCode(5, 2, 2), std::invalid_argument);
  EXPECT_THROW(LocalReconstructionCode(6, 0, 2), std::invalid_argument);
  EXPECT_THROW(LocalReconstructionCode(6, 2, 0), std::invalid_argument);
}

TEST(Lrc, SystematicAndLocalParityStructure) {
  LocalReconstructionCode lrc(6, 2, 2);
  const std::size_t w = 64;
  auto data = random_bytes(6 * w);
  std::vector<Byte> blob(10 * w);
  lrc.encode(data, split_spans(blob, 10));
  // Data verbatim.
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_TRUE(std::equal(blob.begin() + i * w, blob.begin() + (i + 1) * w,
                           data.begin() + i * w));
  // Local parity = XOR of its group.
  for (std::size_t b = 0; b < w; ++b) {
    EXPECT_EQ(blob[6 * w + b], Byte(data[b] ^ data[w + b] ^ data[2 * w + b]));
    EXPECT_EQ(blob[7 * w + b],
              Byte(data[3 * w + b] ^ data[4 * w + b] ^ data[5 * w + b]));
  }
}

TEST(Lrc, LocalRepairReadsOnlyTheGroup) {
  LocalReconstructionCode lrc(6, 2, 2);
  const std::size_t w = 48;
  auto data = random_bytes(6 * w);
  std::vector<Byte> blob(10 * w);
  lrc.encode(data, split_spans(blob, 10));
  auto views = split_const_spans(blob, 10);
  // Every data block and local parity repairs within its group.
  for (std::size_t failed = 0; failed < 8; ++failed) {
    auto ids = lrc.repair_set(failed);
    EXPECT_EQ(ids.size(), lrc.group_size())
        << "local repair fan-in is k/l, failed=" << failed;
    std::vector<std::span<const Byte>> chosen;
    for (std::size_t id : ids) chosen.push_back(views[id]);
    std::vector<Byte> rebuilt(w);
    auto stats = lrc.reconstruct(failed, ids, chosen, rebuilt);
    EXPECT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()))
        << "failed=" << failed;
    EXPECT_EQ(stats.bytes_read, lrc.group_size() * w);
  }
}

TEST(Lrc, GlobalParityRepairNeedsAllData) {
  LocalReconstructionCode lrc(6, 2, 2);
  const std::size_t w = 32;
  auto data = random_bytes(6 * w);
  std::vector<Byte> blob(10 * w);
  lrc.encode(data, split_spans(blob, 10));
  auto views = split_const_spans(blob, 10);
  for (std::size_t failed : {8u, 9u}) {
    auto ids = lrc.repair_set(failed);
    EXPECT_EQ(ids.size(), 6u);
    std::vector<std::span<const Byte>> chosen;
    for (std::size_t id : ids) chosen.push_back(views[id]);
    std::vector<Byte> rebuilt(w);
    lrc.reconstruct(failed, ids, chosen, rebuilt);
    EXPECT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()));
  }
}

TEST(Lrc, DecodeFromAvailableAfterFailures) {
  LocalReconstructionCode lrc(6, 2, 2);
  const std::size_t w = 40;
  auto data = random_bytes(6 * w);
  std::vector<Byte> blob(10 * w);
  lrc.encode(data, split_spans(blob, 10));
  auto views = split_const_spans(blob, 10);
  // Knock out a data block, a local parity and a global parity.
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < 10; ++i)
    if (i != 1 && i != 7 && i != 9) ids.push_back(i);
  std::vector<Byte> out(data.size());
  lrc.decode_stripe(keep_only(views, ids), out);
  EXPECT_EQ(out, data);
}

TEST(Lrc, RecoverabilityCensus) {
  // LRC is not MDS: count recoverable failure patterns per failure size and
  // pin the structure.  All single/double/triple failures of LRC(6,2,2)
  // must decode; some quadruples must not (4 = n - k here).
  LocalReconstructionCode lrc(6, 2, 2);
  for (std::size_t f = 1; f <= 3; ++f) {
    for (const auto& fail : subsets(10, f)) {
      std::vector<bool> avail(10, true);
      for (std::size_t i : fail) avail[i] = false;
      EXPECT_TRUE(lrc.recoverable(avail)) << "f=" << f;
    }
  }
  std::size_t recoverable = 0, total = 0;
  for (const auto& fail : subsets(10, 4)) {
    std::vector<bool> avail(10, true);
    for (std::size_t i : fail) avail[i] = false;
    recoverable += lrc.recoverable(avail);
    ++total;
  }
  EXPECT_LT(recoverable, total) << "LRC must not be MDS";
  EXPECT_GT(recoverable, total / 2) << "most quadruples decode (Azure LRC)";
  // A whole group plus its local parity gone (4 losses covering one group)
  // is exactly recoverable iff the two global parities + nothing else can
  // restore 3 unknowns — it is not.
  std::vector<bool> avail(10, true);
  avail[0] = avail[1] = avail[2] = avail[6] = false;
  EXPECT_FALSE(lrc.recoverable(avail));
}

TEST(Lrc, RepairSetValidation) {
  LocalReconstructionCode lrc(6, 2, 2);
  EXPECT_THROW(lrc.repair_set(10), std::invalid_argument);
  const std::size_t w = 16;
  auto data = random_bytes(6 * w);
  std::vector<Byte> blob(10 * w);
  lrc.encode(data, split_spans(blob, 10));
  auto views = split_const_spans(blob, 10);
  std::vector<std::size_t> wrong = {3, 4, 5};  // group 1 helpers for block 0
  std::vector<std::span<const Byte>> chosen = {views[3], views[4], views[5]};
  std::vector<Byte> out(w);
  EXPECT_THROW(lrc.reconstruct(0, wrong, chosen, out), std::invalid_argument);
}

// Parameterised sweep over deployed-style LRC shapes.
class LrcGrid
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(LrcGrid, RoundTripAndLocalRepair) {
  auto [k, l, g] = GetParam();
  LocalReconstructionCode lrc(k, l, g);
  const std::size_t w = 24;
  auto data = random_bytes(k * w, k * 100 + l);
  std::vector<Byte> blob(lrc.n() * w);
  lrc.encode(data, split_spans(blob, lrc.n()));
  auto views = split_const_spans(blob, lrc.n());
  // Decode with one data block missing.
  std::vector<std::size_t> ids(lrc.n() - 1);
  std::iota(ids.begin(), ids.end(), std::size_t{1});
  std::vector<Byte> out(data.size());
  lrc.decode_stripe(keep_only(views, ids), out);
  EXPECT_EQ(out, data);
  // Local repair of block 0.
  auto rs = lrc.repair_set(0);
  EXPECT_EQ(rs.size(), lrc.group_size());
}

INSTANTIATE_TEST_SUITE_P(DeployedShapes, LrcGrid,
                         ::testing::Values(std::tuple{12, 2, 2},   // Azure
                                           std::tuple{6, 2, 2},
                                           std::tuple{10, 5, 3},
                                           std::tuple{8, 4, 2},
                                           std::tuple{16, 4, 4}));

}  // namespace
}  // namespace carousel::codes
