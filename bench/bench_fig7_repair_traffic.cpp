// Paper Fig. 7: network traffic to reconstruct one block, for k in
// {2,4,6,8,10} with n = 2k and 512 MB blocks.  RS downloads k whole blocks;
// MSR and both Carousel variants download d/(d-k+1) block sizes — the MSR
// optimum.  RS is Carousel(n,k,k,k) and MSR Carousel(n,k,d,k), so all four
// columns run one repair path: plan_repair picks the helpers and rebuild
// turns their chunks (or whole blocks) into the lost block.  Traffic is
// *measured* on real bytes (scaled blocks), then reported at the paper's
// 512 MB block size; byte counts scale exactly linearly with block size.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"

using namespace carousel::codes;

namespace {

constexpr double kPaperBlockMB = 512.0;

// Measured traffic, in block sizes, of rebuilding block 0 from the other
// n - 1 blocks (the planner takes blocks 1..d, or 1..k whole).
double traffic_blocks(const Carousel& code, std::size_t unit_bytes) {
  const std::size_t block = code.s() * unit_bytes;
  auto data = carousel::bench::random_bytes(code.k() * block);
  std::vector<std::uint8_t> blob(code.n() * block);
  code.encode(data, carousel::bench::split_spans(blob, code.n()));
  std::vector<std::uint8_t> rebuilt(block);
  auto stats = code.repair_stripe(
      0, carousel::bench::split_const_spans(blob, code.n()), rebuilt);
  if (!std::equal(rebuilt.begin(), rebuilt.end(), blob.begin())) std::abort();
  return double(stats.bytes_read) / double(block);
}

}  // namespace

int main() {
  std::printf("=== Fig. 7 — reconstruction traffic (MB at 512 MB blocks), "
              "n = 2k, p = n ===\n\n");
  std::printf("%4s | %10s %16s %14s %20s | %s\n", "k", "RS", "Carousel(d=k)",
              "MSR(d=2k-1)", "Carousel(d=2k-1)", "optimal d/(d-k+1)");
  bool all_optimal = true;
  for (int k : {2, 4, 6, 8, 10}) {
    const std::size_t n = 2 * k, d = 2 * k - 1;
    // 64-byte RS blocks, 16-byte units elsewhere: the sizes the byte
    // counters in BENCH_fig7.json have always been measured at.
    double rs = traffic_blocks(Carousel(n, k, k, k), 64) * kPaperBlockMB;
    double ck = traffic_blocks(Carousel(n, k, k, n), 16) * kPaperBlockMB;
    double ms = traffic_blocks(Carousel(n, k, d, k), 16) * kPaperBlockMB;
    double cd = traffic_blocks(Carousel(n, k, d, n), 16) * kPaperBlockMB;
    double opt = double(d) / double(d - k + 1) * kPaperBlockMB;
    std::printf("%4d | %10.0f %16.0f %14.1f %20.1f | %10.1f\n", k, rs, ck, ms,
                cd, opt);
    all_optimal = all_optimal && std::abs(ms - opt) < 1e-6 &&
                  std::abs(cd - opt) < 1e-6 &&
                  std::abs(rs - k * kPaperBlockMB) < 1e-6 &&
                  std::abs(ck - k * kPaperBlockMB) < 1e-6;
  }
  std::printf("\nshape checks:\n");
  std::printf("  RS/Carousel(d=k) traffic = k blocks, MSR/Carousel(d=2k-1) "
              "= optimal d/(d-k+1) < 2 blocks: %s\n",
              all_optimal ? "yes" : "NO");
  std::printf("  Carousel repair traffic identical to its base code at "
              "every k (paper: curves coincide).\n");
  std::string snap = carousel::bench::write_metrics_snapshot("fig7");
  if (!snap.empty())
    std::printf("  metrics snapshot: %s\n", snap.c_str());
  return 0;
}
