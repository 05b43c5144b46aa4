// Quickstart: encode, read in parallel, survive failures, repair cheaply.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Walks the whole public API on the paper's Hadoop configuration, a
// (12, 6, 10, 12) Carousel code: 6 data blocks' worth of input spread over
// 12 blocks, any 6 decode, repair contacts 10 helpers for 2 block-sizes of
// traffic instead of RS's 6.

#include <cstdio>
#include <random>
#include <vector>

#include "codes/carousel.h"

using namespace carousel::codes;

int main() {
  Carousel code(/*n=*/12, /*k=*/6, /*d=*/10, /*p=*/12);
  std::printf("Carousel %s: %zu units/block, %zu of them original data\n",
              code.params().to_string().c_str(), code.s(),
              code.data_units_per_block());

  // --- Encode one stripe -------------------------------------------------
  const std::size_t block_bytes = code.s() * 4096;
  std::vector<Byte> data(code.k() * block_bytes);
  std::mt19937 rng(7);
  for (auto& b : data) b = static_cast<Byte>(rng());

  std::vector<Byte> store(code.n() * block_bytes);
  std::vector<std::span<Byte>> blocks;
  for (std::size_t i = 0; i < code.n(); ++i)
    blocks.emplace_back(store.data() + i * block_bytes, block_bytes);
  code.encode(data, blocks);
  std::printf("encoded %zu KiB into %zu blocks of %zu KiB (1.5x more than "
              "the data, 2x less than 3-way replication)\n",
              data.size() / 1024, code.n(), block_bytes / 1024);

  // --- Parallel read: the planner asks every block for k/p of itself ------
  std::vector<std::span<const Byte>> views(blocks.begin(), blocks.end());
  const auto plan = code.plan_read(std::vector<bool>(code.n(), true));
  std::vector<Byte> out(data.size());
  code.decode_stripe(views, out);
  std::printf("parallel read of %zu units from each of %zu blocks: %s\n",
              (*plan)[0].size(), code.p(),
              out == data ? "bytes match" : "MISMATCH");

  // --- MDS: any k blocks decode ------------------------------------------
  std::vector<std::size_t> ids = {1, 3, 5, 7, 9, 11};
  std::vector<std::span<const Byte>> chosen;
  for (std::size_t id : ids) chosen.push_back(views[id]);
  std::fill(out.begin(), out.end(), 0);
  code.decode(ids, chosen, out);
  std::printf("MDS decode from blocks {1,3,5,7,9,11}: %s\n",
              out == data ? "bytes match" : "MISMATCH");

  // --- Repair at MSR-optimal traffic --------------------------------------
  const std::size_t failed = 4;
  std::vector<std::span<const Byte>> survivors = views;
  survivors[failed] = {};  // an empty span marks a lost block
  std::vector<Byte> rebuilt(block_bytes);
  auto stats = code.repair_stripe(failed, survivors, rebuilt);
  bool ok = std::equal(rebuilt.begin(), rebuilt.end(), views[failed].begin());
  std::printf("repaired block %zu from %zu helpers: %s, traffic %.2f block "
              "sizes (RS would need %zu)\n",
              failed, stats.sources, ok ? "bytes match" : "MISMATCH",
              double(stats.bytes_read) / double(block_bytes), code.k());
  return ok && out == data ? 0 : 1;
}
