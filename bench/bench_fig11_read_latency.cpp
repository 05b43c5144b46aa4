// Paper Fig. 11: time to retrieve a 3 GB file from HDFS with datanode read
// throughput capped at 300 Mbps, comparing
//   - 3x replication via the built-in `hadoop fs -get` (sequential blocks),
//   - (12,6) systematic RS with a parallel reader (6 streams),
//   - (12,6,10,10) Carousel with a parallel reader (10 streams),
// each with no failure and with one lost data block (degraded read).
//
// Hybrid methodology (DESIGN.md): transfers run in the discrete-event
// cluster model; the decode CPU cost of the degraded paths is *measured* on
// the real codecs over scaled buffers and fed into the model as a
// bytes-per-second rate.
//
// Expected shape: parallel >> sequential; Carousel saves ~29% over RS with
// no failure; with one failure Carousel's win shrinks (its decode is more
// expensive) but it still beats RS and stays ~75% below `fs -get`.

#include <cstdio>
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "codes/carousel.h"
#include "gf/backend.h"
#include "hdfs/dfs.h"

using namespace carousel;
using hdfs::kMB;

namespace {

hdfs::ClusterConfig paper_cluster() {
  hdfs::ClusterConfig c;
  c.nodes = 30;
  c.disk_read_bps = 400 * kMB;            // disks out of the way
  c.node_egress_bps = hdfs::mbps(300);    // the paper's datanode cap
  c.node_ingress_bps = hdfs::mbps(1000);
  c.client_ingress_bps = hdfs::mbps(2500);
  return c;
}

constexpr double kFileBytes = 6.0 * 512 * kMB;  // 3 GB
constexpr double kBlockBytes = 512 * kMB;

// The paper's client decodes with ISA-L's SIMD kernels.  When this host
// supports the AVX2/GFNI backends (src/gf/backend.h) our measured rates are
// already ISA-L-class and enter the model unscaled; on a scalar-only host
// the table kernels are ~8x slower than ISA-L, so the rates are scaled up to
// keep the simulated client's CPU/network balance faithful to the paper's
// hardware.  The factor in use is printed.
double isal_factor() {
  return carousel::gf::best_backend() == carousel::gf::Backend::kScalar ? 8.0
                                                                        : 1.0;
}

/// Measures the degraded-read decode rate of `code` (bytes of missing data
/// recovered per second) on a scaled stripe, using the paper's read path:
/// the §VII plan with one data block replaced by a parity block.
double measured_decode_bps(const codes::Carousel& code) {
  const std::size_t ub = (4 << 20) / code.s();
  const std::size_t block = code.s() * ub;
  auto data = bench::random_bytes(code.k() * block);
  std::vector<std::uint8_t> blob(code.n() * block);
  code.encode(data, bench::split_spans(blob, code.n()));
  auto views = bench::split_const_spans(blob, code.n());
  // Healthy read: pure copies (the download landing in the file buffer).
  std::vector<std::span<const std::uint8_t>> healthy(code.n());
  std::copy(views.begin(), views.begin() + code.p(), healthy.begin());
  std::vector<std::uint8_t> out(code.k() * block);
  double t_healthy =
      bench::time_best_s([&] { code.decode_stripe(healthy, out); });

  // Degraded read: block 0 lost, the first parity block stands in.
  auto degraded = healthy;
  degraded[0] = {};
  degraded[code.p()] = views[code.p()];
  double t_degraded =
      bench::time_best_s([&] { code.decode_stripe(degraded, out); });
  if (!std::equal(out.begin(), out.end(), data.begin())) std::abort();

  // The decode cost is the *increment* over the copy-only path; the copies
  // themselves overlap the download in the real client.
  const double decoded =
      double(block) * double(code.k()) / double(code.p());  // one slot's share
  return decoded / std::max(t_degraded - t_healthy, 1e-9);
}

struct Scenario {
  double no_failure = 0;
  double one_failure = 0;
};

Scenario replication() {
  Scenario s;
  {
    hdfs::Cluster c(paper_cluster());
    auto f = hdfs::DfsFile::replicated(c, kFileBytes, kBlockBytes, 3);
    s.no_failure = hdfs::sequential_get(c, f).seconds;
  }
  {
    hdfs::Cluster c(paper_cluster());
    auto f = hdfs::DfsFile::replicated(c, kFileBytes, kBlockBytes, 3);
    f.blocks()[0].available = false;  // one replica lost; -get skips to peer
    s.one_failure = hdfs::sequential_get(c, f).seconds;
  }
  return s;
}

Scenario coded(codes::CodeParams params, double decode_bps) {
  Scenario s;
  {
    hdfs::Cluster c(paper_cluster());
    auto f = hdfs::DfsFile::coded(c, params, kFileBytes, kBlockBytes);
    s.no_failure = hdfs::parallel_read(c, f, decode_bps).seconds;
  }
  {
    hdfs::Cluster c(paper_cluster());
    auto f = hdfs::DfsFile::coded(c, params, kFileBytes, kBlockBytes);
    f.fail_block_index(1);  // one block with original data removed
    s.one_failure = hdfs::parallel_read(c, f, decode_bps).seconds;
  }
  return s;
}

}  // namespace

int main() {
  std::printf("=== Fig. 11 — 3 GB retrieval, 300 Mbps datanode cap ===\n\n");

  codes::Carousel rs_like(12, 6, 6, 6);        // the (12,6) RS layout
  codes::Carousel car(12, 6, 10, 10);
  const double factor = isal_factor();
  const double rs_decode = measured_decode_bps(rs_like) * factor;
  const double car_decode = measured_decode_bps(car) * factor;
  std::printf("degraded-decode rates: RS %.0f MB/s, Carousel %.0f MB/s\n"
              "(measured on the real kernels, %s backend, scale factor "
              "%.0fx; see source comment)\n\n",
              rs_decode / kMB, car_decode / kMB,
              carousel::gf::backend_name(carousel::gf::best_backend()),
              factor);

  auto rep = replication();
  auto rs = coded({12, 6, 6, 6}, rs_decode);
  auto cr = coded({12, 6, 10, 10}, car_decode);

  std::printf("%-28s %12s %12s\n", "layout", "no failure", "one failure");
  std::printf("%-28s %11.1fs %11.1fs\n", "HDFS 3x replication (fs -get)",
              rep.no_failure, rep.one_failure);
  std::printf("%-28s %11.1fs %11.1fs\n", "RS (12,6) parallel", rs.no_failure,
              rs.one_failure);
  std::printf("%-28s %11.1fs %11.1fs\n", "Carousel (12,6,10,10)",
              cr.no_failure, cr.one_failure);

  std::printf("\nshape checks:\n");
  std::printf("  parallel reads beat sequential fs -get:        %s\n",
              rs.no_failure < rep.no_failure && cr.no_failure < rep.no_failure
                  ? "yes"
                  : "NO");
  std::printf("  Carousel saves vs RS, no failure:              %.1f%% "
              "(paper: 29.0%%)\n",
              100 * (1 - cr.no_failure / rs.no_failure));
  std::printf("  Carousel still ahead of RS with one failure:   %s\n",
              cr.one_failure < rs.one_failure ? "yes" : "NO");
  std::printf("  Carousel vs fs -get, one failure:              %.1f%% less "
              "time (paper: 75.4%%)\n",
              100 * (1 - cr.one_failure / rep.one_failure));
  return 0;
}
