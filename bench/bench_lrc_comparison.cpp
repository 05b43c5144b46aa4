// Related-work comparison (paper §III): locally repairable codes vs MDS
// codes.  LRC buys single-failure repair *fan-in* (read only the local
// group); MSR/Carousel keep the MDS property and minimise repair *traffic*;
// RS is the simple baseline.  This bench tabulates, for storage layouts with
// the same k = 6:
//   storage overhead, MDS (yes/no), repair fan-in, repair traffic, and the
//   fraction of f-failure patterns each layout survives.
// RS and MSR are Carousel's p = k points, Carousel(n,k,k,k) and
// Carousel(n,k,d,k).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"
#include "codes/lrc.h"
#include "matrix/echelon.h"

using namespace carousel::codes;
using carousel::matrix::EchelonBasis;

namespace {

// Fraction of f-failure patterns whose survivors still decode (rank test).
double survival(const LinearCode& code, std::size_t f) {
  const std::size_t n = code.n();
  std::vector<std::size_t> pattern;
  std::size_t ok = 0, total = 0;
  auto rec = [&](auto&& self, std::size_t start) -> void {
    if (pattern.size() == f) {
      EchelonBasis basis(code.generator().cols());
      std::vector<bool> down(n, false);
      for (std::size_t i : pattern) down[i] = true;
      for (std::size_t b = 0; b < n && !basis.full(); ++b) {
        if (down[b]) continue;
        for (std::size_t t = 0; t < code.s(); ++t)
          basis.try_insert(code.generator().row(b * code.s() + t));
      }
      ok += basis.full();
      ++total;
      return;
    }
    for (std::size_t i = start; i + (f - pattern.size()) <= n; ++i) {
      pattern.push_back(i);
      self(self, i + 1);
      pattern.pop_back();
    }
  };
  rec(rec, 0);
  return double(ok) / double(total);
}

struct Layout {
  const char* name;
  const LinearCode* code;
  double overhead;
  std::size_t fanin;       // blocks contacted for a data-block repair
  double traffic_blocks;   // repair traffic in block sizes
};

}  // namespace

int main() {
  Carousel rs(10, 6, 6, 6);
  LocalReconstructionCode lrc(6, 2, 2);  // n = 10, matched overhead
  Carousel msr(12, 6, 10, 6);
  Carousel car(12, 6, 10, 12);

  Layout layouts[] = {
      {"RS (10,6)", &rs, 10.0 / 6, rs.k(), double(rs.k())},
      {"LRC (6,2,2)", &lrc, 10.0 / 6, lrc.group_size(),
       double(lrc.group_size())},
      {"MSR (12,6,10)", &msr, 2.0, msr.d(),
       msr.params().repair_traffic_blocks()},
      {"Carousel (12,6,10,12)", &car, 2.0, car.d(),
       car.params().repair_traffic_blocks()},
  };

  std::printf("=== Related-work comparison — LRC vs MDS codes, k = 6 ===\n\n");
  std::printf("%-22s %8s %5s %6s %9s | survival of f failures\n", "layout",
              "storage", "MDS", "fanin", "traffic");
  std::printf("%-22s %8s %5s %6s %9s | %6s %6s %6s %6s\n", "", "", "", "",
              "(blocks)", "f=1", "f=2", "f=3", "f=4");
  for (const auto& l : layouts) {
    bool mds = true;
    for (std::size_t f = 1; f <= l.code->n() - l.code->k(); ++f)
      mds = mds && survival(*l.code, f) == 1.0;
    std::printf("%-22s %7.2fx %5s %6zu %9.2f |", l.name, l.overhead,
                mds ? "yes" : "no", l.fanin, l.traffic_blocks);
    for (std::size_t f = 1; f <= 4; ++f)
      std::printf(" %5.1f%%", 100.0 * survival(*l.code, f));
    std::printf("\n");
  }

  std::printf(
      "\nreading the table (the trade-off the paper positions Carousel in):\n"
      "  - LRC matches RS overhead and repairs a data block from only %zu\n"
      "    blocks, but gives up the MDS property (f=4 survival < 100%%).\n"
      "  - MSR/Carousel keep MDS at every f <= n-k and cut repair traffic\n"
      "    from %zu to %.2f block sizes; Carousel additionally raises data\n"
      "    parallelism from k=6 to p=12 readers, which neither RS, LRC nor\n"
      "    MSR provides.\n",
      lrc.group_size(), rs.k(), car.params().repair_traffic_blocks());
  return 0;
}
