// Paper Fig. 8: reconstruction completion time at the newcomer (8a) and at
// a helper (8b), k in {2,4,6,8,10}, n = 2k, p = n.  The paper rebuilds
// 512 MB blocks; we run the same computations on scaled blocks (the work is
// strictly linear in block size) and report both the measured time and the
// 512 MB-extrapolated time.  RS is Carousel(n,k,k,k) and MSR
// Carousel(n,k,d,k): every column times the one repair path (helpers run
// helper_compute for a projected plan, the newcomer runs rebuild).
//
// Expected shape: newcomer time grows with k for every code; Carousel
// matches its base code at both sides; RS-family helpers do no arithmetic
// (the paper omits them from Fig. 8b), so only MSR-family helper times
// appear.

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"

using namespace carousel::codes;
using carousel::bench::kMiB;

namespace {

constexpr double kPaperBlockMB = 512.0;
constexpr std::size_t kBlockBytes = 8 << 20;  // measured block size

struct Timing {
  double newcomer_s = 0;
  double helper_s = 0;   // negative: no helper computation (whole blocks)
};

// Times the rebuild of block 0 from the planner's helpers among blocks
// 1..n-1.
Timing repair_time(const Carousel& code) {
  const std::size_t block = kBlockBytes / code.s() * code.s();
  const std::size_t ub = block / code.s();
  auto data = carousel::bench::random_bytes(code.k() * block);
  std::vector<std::uint8_t> blob(code.n() * block);
  code.encode(data, carousel::bench::split_spans(blob, code.n()));
  auto views = carousel::bench::split_const_spans(blob, code.n());
  std::vector<std::size_t> survivors(code.n() - 1);
  std::iota(survivors.begin(), survivors.end(), 1);
  const auto plan = code.plan_repair(0, survivors);
  if (!plan) std::abort();
  std::vector<std::vector<std::uint8_t>> store;
  std::vector<std::span<const std::uint8_t>> inputs;
  Timing t;
  t.helper_s = plan->projected ? 0 : -1;  // whole blocks: helpers only ship
  for (std::size_t h : plan->sources) {
    if (!plan->projected) {
      inputs.push_back(views[h]);
      continue;
    }
    store.emplace_back(code.helper_chunk_units() * ub);
    double s = carousel::bench::time_best_s(
        [&] { code.helper_compute(h, 0, views[h], store.back()); });
    t.helper_s = std::max(t.helper_s, s);  // slowest helper gates repair
  }
  for (auto& c : store) inputs.emplace_back(c);
  std::vector<std::uint8_t> rebuilt(block);
  t.newcomer_s = carousel::bench::time_best_s(
      [&] { code.rebuild(0, *plan, inputs, rebuilt); });
  if (!std::equal(rebuilt.begin(), rebuilt.end(), views[0].begin()))
    std::abort();
  return t;
}

void print_row(int k, const char* what, double rs, double ck, double ms,
               double cd) {
  auto cell = [](double v) {
    static char buf[4][32];
    static int i = 0;
    char* b = buf[i++ & 3];
    if (v < 0)
      std::snprintf(b, 32, "%10s", "-");
    else
      std::snprintf(b, 32, "%10.3f", v);
    return b;
  };
  std::printf("%4d %-9s %s %s %s %s\n", k, what, cell(rs), cell(ck), cell(ms),
              cell(cd));
}

}  // namespace

int main() {
  const double scale = kPaperBlockMB / (kBlockBytes / kMiB);
  std::printf("=== Fig. 8 — reconstruction time (seconds), n = 2k, p = n "
              "===\n");
  std::printf("measured on %zu MiB blocks; multiply by %.0fx for the paper's "
              "512 MB blocks\n\n",
              kBlockBytes / (std::size_t)kMiB, scale);
  std::printf("%4s %-9s %10s %10s %10s %10s\n", "k", "side", "RS",
              "Car(d=k)", "MSR", "Car(d=2k-1)");
  for (int k : {2, 4, 6, 8, 10}) {
    const std::size_t n = 2 * k, d = 2 * k - 1;
    Timing rs = repair_time(Carousel(n, k, k, k));
    Timing ck = repair_time(Carousel(n, k, k, n));
    Timing ms = repair_time(Carousel(n, k, d, k));
    Timing cd = repair_time(Carousel(n, k, d, n));
    print_row(k, "newcomer", rs.newcomer_s, ck.newcomer_s, ms.newcomer_s,
              cd.newcomer_s);
    print_row(k, "helper", rs.helper_s, ck.helper_s, ms.helper_s,
              cd.helper_s);
  }
  std::printf("\nshape notes: newcomer time grows with k everywhere; "
              "Carousel stays comparable to its base code\n"
              "(paper Fig. 8); RS-family helpers do no arithmetic, so the "
              "helper side is MSR-family only.\n");
  return 0;
}
