// Scenario: a storage operator's week.  Servers fail one after another; the
// system repairs each at MSR-optimal traffic, keeps serving parallel reads
// throughout, and survives the worst case of n-k simultaneous losses.
//
//   ./build/examples/failure_recovery

#include <cstdio>
#include <random>
#include <vector>

#include "storage/erasure_file.h"

using namespace carousel;
using codes::Byte;

int main() {
  codes::Carousel code(12, 6, 10, 12);
  const std::size_t block_bytes = code.s() * (128 << 10);
  std::vector<Byte> object(2 * 6 * block_bytes);  // two stripes
  std::mt19937 rng(2024);
  for (auto& b : object) b = static_cast<Byte>(rng());
  storage::ErasureFile ef(code, object, block_bytes);

  std::printf("stored %.1f MiB as %zu stripes x %zu blocks, tolerance "
              "n-k = %zu losses per stripe\n\n",
              object.size() / 1048576.0, ef.stripes(), code.n(),
              code.n() - code.k());

  double total_repair_blocks = 0;
  std::mt19937 failure_rng(5);
  std::vector<std::size_t> victims = {3, 9, 0, 7};
  for (std::size_t day = 0; day < victims.size(); ++day) {
    std::size_t victim = victims[day];
    ef.fail_block_index(victim);
    bool readable = ef.read_all() == object;
    std::printf("day %zu: lost block %2zu on every stripe; reads still "
                "correct: %s\n",
                day + 1, victim, readable ? "yes" : "NO");
    total_repair_blocks +=
        double(ef.repair_block_index(victim).bytes_read) / double(block_bytes);
    std::printf("        repaired at %.2f block sizes per block (optimal "
                "d/(d-k+1) = %.2f; RS would pay %zu)\n",
                double(code.params().repair_traffic_blocks()),
                code.params().repair_traffic_blocks(), code.k());
  }
  std::printf("\ntotal repair traffic: %.1f block sizes for %zu repairs "
              "(RS: %.0f)\n",
              total_repair_blocks, victims.size() * ef.stripes(),
              double(victims.size() * ef.stripes() * code.k()));

  // Worst case: n-k simultaneous losses, including data-carrying blocks.
  for (std::size_t idx : {1u, 4u, 6u, 8u, 10u, 11u}) ef.fail_block_index(idx);
  bool ok = ef.read_all() == object;
  std::printf("catastrophe drill: 6 of 12 blocks gone, file still decodes: "
              "%s\n", ok ? "yes" : "NO");
  std::printf("integrity after all repairs: %s\n",
              ef.verify(object) ? "clean" : "CORRUPT");
  return ok ? 0 : 1;
}
