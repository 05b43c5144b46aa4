// Randomised property tests: many random (n, k, d, p) configurations,
// random failure patterns and random operation sequences, all seeded for
// reproducibility.  These complement the targeted suites by walking corners
// of the parameter space no curated list covers.

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "codes/carousel.h"
#include "storage/erasure_file.h"
#include "test_util.h"

namespace carousel::codes {
namespace {

using test::keep_only;
using test::random_bytes;
using test::split_const_spans;
using test::split_spans;

/// Draws a uniformly random valid (n, k, d, p) with n <= max_n.
CodeParams random_params(std::mt19937& rng, std::size_t max_n) {
  for (;;) {
    std::size_t n = 3 + rng() % (max_n - 2);
    std::size_t k = 2 + rng() % (n - 1);
    if (k >= n) continue;
    // d: either k, or in [max(k+1, 2k-2), n-1].
    std::vector<std::size_t> ds = {k};
    for (std::size_t d = std::max(k + 1, 2 * k - 2); d < n; ++d)
      ds.push_back(d);
    std::size_t d = ds[rng() % ds.size()];
    std::size_t p = k + rng() % (n - k + 1);
    CodeParams params{n, k, d, p};
    try {
      params.validate();
    } catch (const std::invalid_argument&) {
      continue;
    }
    return params;
  }
}

TEST(Fuzz, RandomConfigsEncodeDecodeRepair) {
  std::mt19937 rng(20170605);  // ICDCS'17 vintage
  for (int trial = 0; trial < 40; ++trial) {
    CodeParams params = random_params(rng, 14);
    SCOPED_TRACE("trial " + std::to_string(trial) + " " + params.to_string());
    Carousel code(params.n, params.k, params.d, params.p);
    EXPECT_TRUE(code.selection_is_papers()) << params.to_string();

    const std::size_t ub = 1 + rng() % 5;
    const std::size_t w = code.s() * ub;
    auto data = random_bytes(params.k * w, rng());
    std::vector<Byte> blob(params.n * w);
    code.encode(data, split_spans(blob, params.n));
    auto views = split_const_spans(blob, params.n);

    // Random k-subset decodes (MDS).
    std::vector<std::size_t> ids(params.n);
    std::iota(ids.begin(), ids.end(), 0);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(params.k);
    std::vector<std::span<const Byte>> chosen;
    for (std::size_t id : ids) chosen.push_back(views[id]);
    std::vector<Byte> out(data.size());
    code.decode(ids, chosen, out);
    ASSERT_EQ(out, data);

    // Random q-subset planned decode, q in [k, n].
    std::vector<std::size_t> all(params.n);
    std::iota(all.begin(), all.end(), 0);
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(params.k + rng() % (params.n - params.k + 1));
    std::sort(all.begin(), all.end());
    std::fill(out.begin(), out.end(), 0);
    code.decode_stripe(keep_only(views, all), out);
    ASSERT_EQ(out, data);

    // Random repair.
    std::size_t failed = rng() % params.n;
    std::vector<std::size_t> helpers;
    for (std::size_t h = 0; h < params.n; ++h)
      if (h != failed) helpers.push_back(h);
    std::shuffle(helpers.begin(), helpers.end(), rng);
    helpers.resize(params.d);
    std::vector<std::vector<Byte>> chunk_store;
    std::vector<std::span<const Byte>> chunks;
    for (std::size_t h : helpers) {
      chunk_store.emplace_back(code.helper_chunk_units() * ub);
      code.helper_compute(h, failed, views[h], chunk_store.back());
    }
    for (auto& c : chunk_store) chunks.emplace_back(c);
    std::vector<Byte> rebuilt(w);
    code.newcomer_compute(failed, helpers, chunks, rebuilt);
    ASSERT_TRUE(
        std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin()))
        << "failed=" << failed;
  }
}

TEST(Fuzz, RandomFailureChurnOnErasureFile) {
  std::mt19937 rng(424242);
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(6 * block * 3 + 17, 1);  // 4 stripes, ragged
  storage::ErasureFile ef(code, file, block);

  // 60 random operations: fail, repair, read — the file must stay
  // byte-identical throughout.
  for (int op = 0; op < 60; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    switch (rng() % 3) {
      case 0: {  // fail a random block of a random stripe, if safe
        std::size_t s = rng() % ef.stripes();
        std::size_t i = rng() % code.n();
        std::size_t down = 0;
        for (std::size_t b = 0; b < code.n(); ++b)
          down += !ef.block_available(s, b);
        if (down < code.n() - code.k() && ef.block_available(s, i))
          ef.set_block_available(s, i, false);
        break;
      }
      case 1: {  // repair the first missing block found
        for (std::size_t s = 0; s < ef.stripes(); ++s)
          for (std::size_t i = 0; i < code.n(); ++i)
            if (!ef.block_available(s, i)) {
              ef.repair_block(s, i);
              goto repaired;
            }
        repaired:
        break;
      }
      default: {
        ASSERT_EQ(ef.read_all(), file);
        break;
      }
    }
  }
  // Heal everything and do the final integrity sweep.
  for (std::size_t s = 0; s < ef.stripes(); ++s)
    for (std::size_t i = 0; i < code.n(); ++i)
      if (!ef.block_available(s, i)) ef.repair_block(s, i);
  EXPECT_TRUE(ef.verify(file));
  EXPECT_EQ(ef.read_all(), file);
}

TEST(Fuzz, RandomDoubleFailureParallelReads) {
  std::mt19937 rng(777);
  Carousel code(12, 6, 10, 8);  // 4 pure-parity stand-ins available
  const std::size_t ub = 3;
  const std::size_t w = code.s() * ub;
  auto data = random_bytes(code.k() * w, 2);
  std::vector<Byte> blob(code.n() * w);
  code.encode(data, split_spans(blob, code.n()));
  auto views = split_const_spans(blob, code.n());
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t lost1 = rng() % code.p();
    std::size_t lost2 = rng() % code.p();
    if (lost1 == lost2) continue;
    std::vector<std::size_t> subs = {8, 9, 10, 11};
    std::shuffle(subs.begin(), subs.end(), rng);
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < code.p(); ++i)
      if (i != lost1 && i != lost2) ids.push_back(i);
    ids.push_back(subs[0]);
    ids.push_back(subs[1]);
    std::vector<Byte> out(data.size());
    code.decode_stripe(keep_only(views, ids), out);
    ASSERT_EQ(out, data) << "lost " << lost1 << "," << lost2;
  }
}

}  // namespace
}  // namespace carousel::codes
