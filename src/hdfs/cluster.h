// Simulated storage cluster: nodes with disk and NIC resources plus one
// external client, mirroring the paper's EC2 deployment (30 r3.large slaves;
// datanode egress throttled to 300 Mbps for the data-access experiment).

#ifndef CAROUSEL_HDFS_CLUSTER_H
#define CAROUSEL_HDFS_CLUSTER_H

#include <vector>

#include "sim/flow.h"
#include "sim/simulation.h"

namespace carousel::hdfs {

using sim::ResourceId;
using sim::Time;

inline constexpr double kMB = 1024.0 * 1024.0;
inline constexpr double kGB = 1024.0 * kMB;
/// Megabits per second in bytes per second.
inline constexpr double mbps(double v) { return v * 1000.0 * 1000.0 / 8.0; }

struct ClusterConfig {
  std::size_t nodes = 30;
  /// Failure domains; node i belongs to rack i % racks.  With the
  /// interleaved id->rack mapping, the stagger placement automatically
  /// spreads each stripe across racks.
  std::size_t racks = 1;
  /// Local disk/SSD sequential read bandwidth per node.
  double disk_read_bps = 200.0 * kMB;
  /// Node NIC egress (the paper caps this at 300 Mbps in Fig. 11).
  double node_egress_bps = mbps(1000);
  /// Node NIC ingress.
  double node_ingress_bps = mbps(1000);
  /// External client download link.
  double client_ingress_bps = mbps(2500);

  /// Heterogeneity: every `slow_every`-th node (0 = none) runs
  /// `slow_factor` times slower — both its disk and its task CPU.  Models
  /// the stragglers of real clusters (contended VMs, ageing disks).
  std::size_t slow_every = 0;
  double slow_factor = 2.0;
};

/// Owns the simulation clock, the flow network and the per-node resources.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  std::size_t nodes() const { return config_.nodes; }
  std::size_t racks() const { return config_.racks; }
  std::size_t rack_of(std::size_t node) const { return node % config_.racks; }
  const ClusterConfig& config() const { return config_; }

  bool is_slow(std::size_t node) const {
    return config_.slow_every != 0 && node % config_.slow_every == 0;
  }
  /// CPU time multiplier of a node (1.0 for full-speed nodes).
  double cpu_factor(std::size_t node) const {
    return is_slow(node) ? config_.slow_factor : 1.0;
  }

  sim::Simulation& simulation() { return sim_; }
  sim::FlowNetwork& net() { return net_; }

  ResourceId disk(std::size_t node) const { return disk_[node]; }
  ResourceId egress(std::size_t node) const { return egress_[node]; }
  ResourceId ingress(std::size_t node) const { return ingress_[node]; }
  ResourceId client_ingress() const { return client_ingress_; }

 private:
  ClusterConfig config_;
  sim::Simulation sim_;
  sim::FlowNetwork net_;
  std::vector<ResourceId> disk_, egress_, ingress_;
  ResourceId client_ingress_;
};

}  // namespace carousel::hdfs

#endif  // CAROUSEL_HDFS_CLUSTER_H
