#include <gtest/gtest.h>

#include <map>

#include "storage/erasure_file.h"
#include "storage/stream.h"
#include "test_util.h"

namespace carousel::storage {
namespace {

using codes::Byte;
using codes::Carousel;
using test::random_bytes;

/// Collects emitted stripes into a map keyed by (stripe, block).
struct Collector {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<Byte>> blocks;
  StripeSink sink() {
    return [this](std::size_t stripe,
                  std::span<const std::span<const Byte>> bs) {
      for (std::size_t i = 0; i < bs.size(); ++i)
        blocks[{stripe, i}] = {bs[i].begin(), bs[i].end()};
    };
  }
};

TEST(StreamingEncoder, MatchesErasureFileByteForByte) {
  Carousel code(12, 6, 10, 10);
  const std::size_t block = code.s() * 16;
  auto file = random_bytes(6 * block * 3 + 211, 31);  // ragged 4th stripe
  Collector got;
  StreamingEncoder enc(code, block, got.sink());
  // Feed in awkward chunk sizes.
  std::size_t off = 0;
  for (std::size_t chunk : {1u, 7u, 100u, 4096u}) {
    enc.write(std::span<const Byte>(file.data() + off,
                                    std::min(chunk, file.size() - off)));
    off += std::min(chunk, file.size() - off);
  }
  enc.write(std::span<const Byte>(file.data() + off, file.size() - off));
  EXPECT_EQ(enc.finish(), 4u);
  EXPECT_EQ(enc.bytes_consumed(), file.size());

  ErasureFile ef(code, file, block);
  ASSERT_EQ(ef.stripes(), 4u);
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t i = 0; i < code.n(); ++i) {
      auto ref = ef.block(s, i);
      ASSERT_EQ(got.blocks.at({s, i}),
                std::vector<Byte>(ref.begin(), ref.end()))
          << "stripe " << s << " block " << i;
    }
}

TEST(StreamingEncoder, EmptyInputEmitsOnePaddedStripe) {
  Carousel code(4, 2, 2, 4);
  Collector got;
  StreamingEncoder enc(code, code.s() * 4, got.sink());
  EXPECT_EQ(enc.finish(), 1u);
  EXPECT_EQ(got.blocks.size(), 4u);
  EXPECT_THROW(enc.write(std::vector<Byte>(1)), std::logic_error);
  EXPECT_EQ(enc.finish(), 1u);  // idempotent
}

TEST(StreamingEncoder, ExactMultipleEmitsNoPaddingStripe) {
  Carousel code(6, 3, 4, 6);
  const std::size_t block = code.s() * 8;
  Collector got;
  StreamingEncoder enc(code, block, got.sink());
  auto file = random_bytes(3 * block * 2, 5);  // exactly two stripes
  enc.write(file);
  EXPECT_EQ(enc.finish(), 2u);
}

TEST(StreamingEncoder, Validation) {
  Carousel code(6, 3, 4, 6);
  Collector got;
  EXPECT_THROW(StreamingEncoder(code, 0, got.sink()), std::invalid_argument);
  EXPECT_THROW(StreamingEncoder(code, code.s() * 4 + 1, got.sink()),
               std::invalid_argument);
  EXPECT_THROW(StreamingEncoder(code, code.s(), nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace carousel::storage
