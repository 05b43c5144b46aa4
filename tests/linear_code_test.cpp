// Engine-level tests for the generator-matrix codec shared by all codes:
// unit-level decode, the planned read over extra blocks (the paper's
// §VIII-B future-work extension), direct projection repair, and the
// systematic fast paths.

#include <gtest/gtest.h>

#include <numeric>

#include "codes/carousel.h"
#include "matrix/echelon.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::keep_only;
using test::random_bytes;
using test::split_const_spans;
using test::split_spans;

TEST(EchelonBasis, RankAccounting) {
  matrix::EchelonBasis b(3);
  EXPECT_EQ(b.size(), 0u);
  std::vector<Byte> r1 = {1, 2, 3}, r2 = {2, 4, 6}, r3 = {0, 1, 0},
                    r4 = {5, 5, 5};
  EXPECT_TRUE(b.try_insert(r1));
  EXPECT_FALSE(b.try_insert(r2));  // scalar multiple
  EXPECT_TRUE(b.contains(r2));
  EXPECT_TRUE(b.try_insert(r3));
  EXPECT_FALSE(b.full());
  EXPECT_TRUE(b.try_insert(r4));
  EXPECT_TRUE(b.full());
  std::vector<Byte> any = {9, 8, 7};
  EXPECT_FALSE(b.try_insert(any));
  EXPECT_TRUE(b.contains(any));
}

TEST(EchelonBasis, RejectsZeroRow) {
  matrix::EchelonBasis b(4);
  std::vector<Byte> zero(4, 0);
  EXPECT_FALSE(b.try_insert(zero));
  EXPECT_TRUE(b.contains(zero));
}

TEST(LinearCode, RejectsMalformedGenerator) {
  CodeParams p{4, 2, 2, 2};
  EXPECT_THROW(LinearCode(p, 1, matrix::Matrix(3, 2)), std::invalid_argument);
  EXPECT_THROW(LinearCode(p, 2, matrix::Matrix(8, 5)), std::invalid_argument);
  EXPECT_NO_THROW(LinearCode(p, 2, matrix::Matrix(8, 4)));
}

TEST(LinearCode, DecodeUnitsRejectsBadShapes) {
  Carousel rs(4, 2, 2, 2);
  auto data = random_bytes(2 * 16);
  std::vector<Byte> blob(4 * 16);
  rs.encode(data, split_spans(blob, 4));
  std::vector<Byte> out(2 * 16);
  std::vector<UnitRef> too_few = {{0, 0, blob.data()}};
  EXPECT_THROW(rs.decode_units(too_few, 16, out), std::invalid_argument);
  std::vector<UnitRef> bad_ref = {{0, 0, blob.data()}, {9, 0, blob.data()}};
  EXPECT_THROW(rs.decode_units(bad_ref, 16, out), std::invalid_argument);
  std::vector<UnitRef> dup = {{1, 0, blob.data() + 16},
                              {1, 0, blob.data() + 16}};
  EXPECT_THROW(rs.decode_units(dup, 16, out), std::runtime_error);
}

TEST(LinearCode, DecodeFromAvailableAllSystematic) {
  Carousel c(12, 6, 10, 12);
  const std::size_t ub = 8, w = c.s() * ub;
  auto data = random_bytes(c.k() * w);
  std::vector<Byte> blob(c.n() * w);
  c.encode(data, split_spans(blob, c.n()));
  auto views = split_const_spans(blob, c.n());
  std::vector<Byte> out(data.size());
  auto stats = c.decode_stripe(views, out);
  EXPECT_EQ(out, data);
  // With every data unit present, only the file-sized systematic units are
  // consumed — zero parity units, zero arithmetic.
  EXPECT_EQ(stats.bytes_read, data.size());
}

TEST(LinearCode, DecodeFromAvailableUsesMinimalParity) {
  Carousel c(12, 6, 10, 10);
  const std::size_t ub = 8, w = c.s() * ub;
  auto data = random_bytes(c.k() * w);
  std::vector<Byte> blob(c.n() * w);
  c.encode(data, split_spans(blob, c.n()));
  auto views = split_const_spans(blob, c.n());
  // Lose data-carrying block 2; give the decoder everything else.
  std::vector<std::size_t> ids;
  for (std::size_t i = 0; i < c.n(); ++i)
    if (i != 2) ids.push_back(i);
  std::vector<Byte> out(data.size());
  auto stats = c.decode_stripe(keep_only(views, ids), out);
  EXPECT_EQ(out, data);
  // Reads: all present data units + exactly K parity units for the lost slot.
  const std::size_t K = c.data_units_per_block();
  EXPECT_EQ(stats.bytes_read, (c.p() - 1) * K * ub + K * ub);
}

TEST(LinearCode, DecodeFromAvailableEverySingleLossEveryCode) {
  for (auto [n, k, d, p] :
       {std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>{
            6, 3, 3, 6},
        {6, 3, 4, 5},
        {8, 4, 6, 8},
        {12, 6, 10, 10}}) {
    Carousel c(n, k, d, p);
    const std::size_t ub = 4, w = c.s() * ub;
    auto data = random_bytes(c.k() * w);
    std::vector<Byte> blob(c.n() * w);
    c.encode(data, split_spans(blob, c.n()));
    auto views = split_const_spans(blob, c.n());
    for (std::size_t lost = 0; lost < n; ++lost) {
      std::vector<std::size_t> ids;
      for (std::size_t i = 0; i < n; ++i)
        if (i != lost) ids.push_back(i);
      std::vector<Byte> out(data.size());
      c.decode_stripe(keep_only(views, ids), out);
      ASSERT_EQ(out, data) << c.params().to_string() << " lost=" << lost;
    }
  }
}

TEST(LinearCode, DecodeFromAvailableMultiLossDownToK) {
  Carousel c(12, 6, 10, 12);
  const std::size_t ub = 4, w = c.s() * ub;
  auto data = random_bytes(c.k() * w);
  std::vector<Byte> blob(c.n() * w);
  c.encode(data, split_spans(blob, c.n()));
  auto views = split_const_spans(blob, c.n());
  // Progressively remove blocks until only k remain; decode at every step.
  std::vector<std::size_t> alive(c.n());
  std::iota(alive.begin(), alive.end(), 0);
  while (alive.size() >= c.k()) {
    std::vector<Byte> out(data.size());
    ASSERT_NO_THROW(c.decode_stripe(keep_only(views, alive), out))
        << alive.size() << " blocks alive";
    ASSERT_EQ(out, data);
    alive.erase(alive.begin());  // kill the lowest-numbered survivor
  }
}

TEST(LinearCode, DecodeFromAvailableComputesLessWithMoreBlocks) {
  // The future-work claim: with q > k blocks, fewer bytes must be computed.
  Carousel c(12, 6, 10, 12);
  const std::size_t ub = 4, w = c.s() * ub;
  auto data = random_bytes(c.k() * w);
  std::vector<Byte> blob(c.n() * w);
  c.encode(data, split_spans(blob, c.n()));
  auto views = split_const_spans(blob, c.n());
  auto parity_units_used = [&](std::size_t q) {
    std::vector<std::size_t> ids(q);
    std::iota(ids.begin(), ids.end(), 0);
    std::vector<Byte> out(data.size());
    auto stats = c.decode_stripe(keep_only(views, ids), out);
    EXPECT_EQ(out, data);
    // bytes beyond the systematic units present = parity consumed.
    const std::size_t K = c.data_units_per_block();
    return stats.bytes_read - std::min(q, c.p()) * K * ub;
  };
  std::size_t prev = parity_units_used(6);
  EXPECT_GT(prev, 0u);
  for (std::size_t q : {8u, 10u, 12u}) {
    std::size_t cur = parity_units_used(q);
    EXPECT_LT(cur, prev) << "q=" << q;
    prev = cur;
  }
  EXPECT_EQ(prev, 0u);  // all p data blocks present: pure copy
}

TEST(LinearCode, DecodeFromAvailableShapeErrors) {
  Carousel c(6, 3, 4, 6);
  const std::size_t ub = 4, w = c.s() * ub;
  auto data = random_bytes(c.k() * w);
  std::vector<Byte> blob(c.n() * w);
  c.encode(data, split_spans(blob, c.n()));
  auto views = split_const_spans(blob, c.n());
  std::vector<Byte> out(data.size());
  {
    std::vector<std::span<const Byte>> chosen = {views[0], views[1]};  // not n
    EXPECT_THROW(c.decode_stripe(chosen, out), std::invalid_argument);
  }
  {
    auto chosen = views;  // blocks of two sizes
    chosen[1] = chosen[1].first(w / 2);
    EXPECT_THROW(c.decode_stripe(chosen, out), std::invalid_argument);
  }
}

TEST(LinearCode, ProjectUnitsMatchesEncodeForEveryTarget) {
  Carousel c(8, 4, 6, 8);
  const std::size_t ub = 4, w = c.s() * ub;
  auto data = random_bytes(c.k() * w);
  std::vector<Byte> blob(c.n() * w);
  c.encode(data, split_spans(blob, c.n()));
  auto views = split_const_spans(blob, c.n());
  for (std::size_t target = 0; target < c.n(); ++target) {
    std::vector<UnitRef> sources;
    for (std::size_t b = 0; b < c.k(); ++b) {
      std::size_t id = (target + 1 + b) % c.n();
      for (std::size_t t = 0; t < c.s(); ++t)
        sources.push_back({id, t, views[id].data() + t * ub});
    }
    std::vector<Byte> rebuilt(w);
    c.project_units(sources, ub, target, rebuilt);
    EXPECT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[target].begin()))
        << "target=" << target;
  }
}

TEST(LinearCode, ProjectUnitsRejectsSelfSource) {
  Carousel rs(4, 2, 2, 2);
  auto data = random_bytes(2 * 8);
  std::vector<Byte> blob(4 * 8);
  rs.encode(data, split_spans(blob, 4));
  std::vector<UnitRef> sources = {{0, 0, blob.data()},
                                  {1, 0, blob.data() + 8}};
  std::vector<Byte> out(8);
  EXPECT_THROW(rs.project_units(sources, 8, 0, out), std::invalid_argument);
  EXPECT_THROW(rs.project_units(sources, 8, 7, out), std::invalid_argument);
}

}  // namespace
}  // namespace carousel::codes
