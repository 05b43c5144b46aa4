#include "hdfs/cluster.h"

namespace carousel::hdfs {

Cluster::Cluster(ClusterConfig config) : config_(config), net_(sim_) {
  disk_.reserve(config_.nodes);
  egress_.reserve(config_.nodes);
  ingress_.reserve(config_.nodes);
  for (std::size_t i = 0; i < config_.nodes; ++i) {
    disk_.push_back(net_.add_resource(config_.disk_read_bps / cpu_factor(i)));
    egress_.push_back(net_.add_resource(config_.node_egress_bps));
    ingress_.push_back(net_.add_resource(config_.node_ingress_bps));
  }
  client_ingress_ = net_.add_resource(config_.client_ingress_bps);
}

}  // namespace carousel::hdfs
