// Fluid-flow model with max-min fair sharing.
//
// Every data movement in the simulated cluster — a datanode's disk read, its
// throttled egress NIC (the paper caps it at 300 Mbps for Fig. 11), the
// client's ingress NIC — is a Resource with a byte-per-second capacity.  A
// Flow carries a byte count across a path of resources.  Concurrent flows
// share each resource max-min fairly (water-filling), the standard fluid
// approximation of TCP fair sharing that parallel-download analyses use.
//
// Rates are recomputed whenever a flow starts or finishes, so a download
// that loses a competitor speeds up mid-transfer, exactly the effect that
// makes p parallel readers finish in file_size / min(p * server_rate,
// client_rate) seconds.

#ifndef CAROUSEL_SIM_FLOW_H
#define CAROUSEL_SIM_FLOW_H

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/simulation.h"

namespace carousel::sim {

using ResourceId = std::size_t;
using FlowId = std::uint64_t;

class FlowNetwork {
 public:
  explicit FlowNetwork(Simulation& sim) : sim_(sim) {}

  /// Adds a resource with the given capacity in bytes/second.
  ResourceId add_resource(double capacity_bps);

  /// Begins moving `bytes` across `path` (at least one resource); `on_done`
  /// fires when the last byte lands, receiving the completion time.
  /// Zero-byte flows complete via an immediate event.
  FlowId start_flow(double bytes, std::vector<ResourceId> path,
                    std::function<void(Time)> on_done);

  /// Current max-min rate of an in-flight flow (bytes/s); 0 if unknown id.
  double flow_rate(FlowId id) const;

 private:
  struct Flow {
    FlowId id;
    double remaining;
    std::vector<ResourceId> path;
    double rate = 0;
    std::function<void(Time)> on_done;
  };

  void settle_progress();
  void recompute_rates();
  void schedule_next_completion();
  void on_completion_event(std::uint64_t epoch);

  Simulation& sim_;
  std::vector<double> capacity_;  // bytes/second, by ResourceId
  std::vector<Flow> flows_;
  FlowId next_flow_id_ = 1;
  Time last_settle_ = 0;
  std::uint64_t epoch_ = 0;  // invalidates stale completion events
};

}  // namespace carousel::sim

#endif  // CAROUSEL_SIM_FLOW_H
