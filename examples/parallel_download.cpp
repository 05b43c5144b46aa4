// Scenario: a client fetches a large object from erasure-coded storage.
// With systematic RS it can stream from k servers; with Carousel it streams
// from p, and when a server dies mid-deployment it swaps in a parity server
// for the lost one and decodes only that slice (paper §VII, Fig. 11).
//
// This example does it with real bytes (storage::ErasureFile) and then
// prices the same scenario in simulated wall-clock time on a bandwidth-
// capped cluster.
//
//   ./build/examples/parallel_download

#include <cstdio>
#include <random>
#include <vector>

#include "hdfs/dfs.h"
#include "storage/erasure_file.h"

using namespace carousel;
using codes::Byte;

int main() {
  // --- Real bytes: a 24 MiB object under (12,6,10,10) -----------------------
  codes::Carousel code(12, 6, 10, 10);
  const std::size_t block_bytes = code.s() * (512 << 10);  // 2.5 MiB blocks
  std::vector<Byte> object(6 * block_bytes - 12345);
  std::mt19937 rng(99);
  for (auto& b : object) b = static_cast<Byte>(rng());

  storage::ErasureFile ef(code, object, block_bytes);
  std::printf("object: %.1f MiB in %zu stripe(s), %zu blocks of %.1f MiB\n",
              object.size() / 1048576.0, ef.stripes(), code.n(),
              block_bytes / 1048576.0);

  codes::IoStats healthy{};
  bool ok = ef.read_all(&healthy) == object;
  std::printf("healthy parallel read from %zu servers: %s, fetched %.1f MiB "
              "(exactly the object size)\n",
              code.p(), ok ? "bytes match" : "MISMATCH",
              healthy.bytes_read / 1048576.0);

  ef.fail_block_index(2);  // server holding block 2 of every stripe dies
  codes::IoStats degraded{};
  ok = ef.read_all(&degraded) == object;
  std::printf("degraded read (block 2 lost, parity stand-in): %s, still "
              "%zu parallel streams, fetched %.1f MiB\n",
              ok ? "bytes match" : "MISMATCH", degraded.sources / ef.stripes(),
              degraded.bytes_read / 1048576.0);

  auto repair = ef.repair_block(0, 2);
  std::printf("background repair of block 2: %.2f block sizes of traffic "
              "from %zu helpers; integrity check: %s\n",
              double(repair.bytes_read) / double(block_bytes), repair.sources,
              ef.verify(object) ? "clean" : "CORRUPT");

  // --- Simulated wall-clock on a 300 Mbps-capped cluster -------------------
  hdfs::ClusterConfig cfg;
  cfg.node_egress_bps = hdfs::mbps(300);
  cfg.client_ingress_bps = hdfs::mbps(2500);
  const double file = 6.0 * 512 * hdfs::kMB;

  auto time_read = [&](codes::CodeParams params, bool fail) {
    hdfs::Cluster cluster(cfg);
    auto f = hdfs::DfsFile::coded(cluster, params, file, 512 * hdfs::kMB);
    if (fail) f.fail_block_index(2);
    return hdfs::parallel_read(cluster, f, 200 * hdfs::kMB).seconds;
  };
  std::printf("\nsimulated 3 GB fetch, 300 Mbps per server:\n");
  std::printf("  RS (12,6):             %5.1fs healthy, %5.1fs degraded\n",
              time_read({12, 6, 6, 6}, false), time_read({12, 6, 6, 6}, true));
  std::printf("  Carousel (12,6,10,10): %5.1fs healthy, %5.1fs degraded\n",
              time_read({12, 6, 10, 10}, false),
              time_read({12, 6, 10, 10}, true));
  return 0;
}
