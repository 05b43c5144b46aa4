#include <gtest/gtest.h>

#include "codes/carousel.h"
#include "storage/erasure_file.h"
#include "test_util.h"

namespace carousel::storage {
namespace {

using codes::Carousel;
using test::random_bytes;

TEST(ErasureFile, RoundTripSingleStripe) {
  Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 16;
  auto file = random_bytes(6 * block);
  ErasureFile ef(code, file, block);
  EXPECT_EQ(ef.stripes(), 1u);
  EXPECT_EQ(ef.stored_bytes(), 12 * block);
  EXPECT_TRUE(ef.verify(file));
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, RoundTripMultiStripeWithPadding) {
  Carousel code(6, 3, 4, 5);
  const std::size_t block = code.s() * 8;
  // 2.5 stripes worth of data: forces padding in the last stripe.
  auto file = random_bytes(3 * block * 2 + block / 2 + 3);
  ErasureFile ef(code, file, block);
  EXPECT_EQ(ef.stripes(), 3u);
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, EmptyFileOccupiesOneStripe) {
  Carousel code(4, 2, 2, 4);
  ErasureFile ef(code, {}, code.s() * 4);
  EXPECT_EQ(ef.stripes(), 1u);
  EXPECT_TRUE(ef.read_all().empty());
}

TEST(ErasureFile, RejectsMisalignedBlockSize) {
  Carousel code(6, 3, 4, 6);  // s = alpha = 2... expansion dependent
  auto file = random_bytes(100);
  EXPECT_THROW(ErasureFile(code, file, code.s() * 4 + 1),
               std::invalid_argument);
  EXPECT_THROW(ErasureFile(code, file, 0), std::invalid_argument);
}

TEST(ErasureFile, ReadWithFailuresUsesParityStandIns) {
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(6 * block);
  ErasureFile ef(code, file, block);

  codes::IoStats healthy{};
  ef.read_all(&healthy);
  EXPECT_EQ(healthy.sources, code.p());

  ef.fail_block_index(3);  // a data-carrying block
  codes::IoStats degraded{};
  EXPECT_EQ(ef.read_all(&degraded), file);
  EXPECT_EQ(degraded.sources, code.p());  // still p readers (one stand-in)
  EXPECT_EQ(degraded.bytes_read, healthy.bytes_read);  // k/p each, total k
}

TEST(ErasureFile, ReadFallsBackToAnyKDecode) {
  Carousel code(6, 3, 3, 6);  // p = n: no pure-parity stand-ins
  const std::size_t block = code.s() * 6;
  auto file = random_bytes(3 * block);
  ErasureFile ef(code, file, block);
  ef.fail_block_index(0);
  ef.fail_block_index(4);
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, UnrecoverableStripeThrows) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  ef.fail_block_index(0);
  ef.fail_block_index(1);
  ef.fail_block_index(2);
  EXPECT_THROW(ef.read_all(), std::runtime_error);
}

TEST(ErasureFile, RepairRestoresExactBytesAtOptimalTraffic) {
  Carousel code(12, 6, 10, 12);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(6 * block);
  ErasureFile ef(code, file, block);
  auto original = std::vector<codes::Byte>(ef.block(0, 5).begin(),
                                           ef.block(0, 5).end());
  ef.set_block_available(0, 5, false);
  auto stats = ef.repair_block(0, 5);
  EXPECT_TRUE(ef.block_available(0, 5));
  EXPECT_TRUE(std::equal(original.begin(), original.end(),
                         ef.block(0, 5).begin()));
  EXPECT_TRUE(ef.verify(file));
  // Optimal repair traffic: d/(d-k+1) = 2 block sizes, not k = 6.
  EXPECT_DOUBLE_EQ(double(stats.bytes_read) / double(block), 2.0);
}

TEST(ErasureFile, RepairFallsBackBelowDHelpers) {
  Carousel code(6, 3, 4, 6);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(3 * block);
  ErasureFile ef(code, file, block);
  EXPECT_THROW(ef.repair_block(0, 1), std::invalid_argument);  // not missing
  ef.fail_block_index(1);
  ef.fail_block_index(2);
  ef.fail_block_index(3);  // only 3 = k helpers left, d = 4
  auto stats = ef.repair_block(0, 1);  // MDS fallback path
  EXPECT_EQ(stats.bytes_read, code.k() * block);  // k whole blocks
  EXPECT_TRUE(ef.block_available(0, 1));
  // Remaining failures can now heal at optimal traffic again.
  auto stats2 = ef.repair_block(0, 2);
  EXPECT_DOUBLE_EQ(double(stats2.bytes_read) / double(block),
                   code.params().repair_traffic_blocks());
  ef.repair_block(0, 3);
  EXPECT_TRUE(ef.verify(file));
  EXPECT_EQ(ef.read_all(), file);
}

TEST(ErasureFile, RepairUnrecoverableThrows) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  ef.fail_block_index(0);
  ef.fail_block_index(1);
  ef.fail_block_index(2);  // 1 survivor < k
  EXPECT_THROW(ef.repair_block(0, 0), std::runtime_error);
}

TEST(ErasureFile, ArchiveFromBlockFilesReadsAndRepairsLostIndices) {
  Carousel code(6, 3, 4, 6);
  const std::size_t block = code.s() * 8;
  auto file = random_bytes(2 * 3 * block + block + 5, 9);  // last stripe short
  ErasureFile ef(code, file, block);
  ASSERT_EQ(ef.stripes(), 3u);
  // block_file(i) is block i of every stripe, back to back.
  std::vector<std::vector<codes::Byte>> files;
  for (std::size_t i = 0; i < code.n(); ++i) {
    const auto bytes = ef.block_file(i);
    ASSERT_EQ(bytes.size(), ef.stripes() * block);
    for (std::size_t s = 0; s < ef.stripes(); ++s)
      EXPECT_TRUE(std::ranges::equal(bytes.subspan(s * block, block),
                                     ef.block(s, i)));
    files.emplace_back(bytes.begin(), bytes.end());
  }
  files[4].clear();     // a lost block file
  files[1].resize(10);  // a truncated one
  ErasureFile archive(code, file.size(), block, files);
  EXPECT_EQ(archive.stripes(), 3u);
  for (std::size_t s = 0; s < archive.stripes(); ++s) {
    EXPECT_FALSE(archive.block_available(s, 1));
    EXPECT_FALSE(archive.block_available(s, 4));
    EXPECT_TRUE(archive.block_available(s, 0));
  }
  EXPECT_EQ(archive.read_all(), file);
  for (std::size_t s = 0; s < archive.stripes(); ++s)
    archive.repair_block(s, 4);
  EXPECT_TRUE(std::ranges::equal(archive.block_file(4), ef.block_file(4)));
  // A replaced node: every stripe's block rebuilt, whether or not its copy
  // was available, at d/(d-k+1) = 2 block sizes per stripe.
  archive.repair_block_index(1);
  EXPECT_EQ(archive.repair_block_index(0).bytes_read,
            2 * archive.stripes() * block);
  for (std::size_t i = 0; i < code.n(); ++i)
    EXPECT_TRUE(std::ranges::equal(archive.block_file(i), ef.block_file(i)));
  EXPECT_TRUE(archive.verify(file));
}

TEST(ErasureFile, VerifyDetectsCorruption) {
  Carousel code(4, 2, 2, 4);
  const std::size_t block = code.s() * 4;
  auto file = random_bytes(2 * block);
  ErasureFile ef(code, file, block);
  EXPECT_TRUE(ef.verify(file));
  // Corrupt one byte through the const view (test-only laundering).
  auto view = ef.block(0, 1);
  const_cast<codes::Byte&>(view[0]) ^= 0xFF;
  EXPECT_FALSE(ef.verify(file));
}

}  // namespace
}  // namespace carousel::storage
