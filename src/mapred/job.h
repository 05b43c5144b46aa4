// MapReduce job model over the simulated DFS.
//
// Reproduces the mechanism behind the paper's Figs. 9 and 10: the number of
// map tasks equals the number of blocks that carry original data, each task
// runs data-local on the node hosting its block, and with Carousel codes a
// task processes only k/p of a block — so doubling p halves per-task input.
//
// The model, in Hadoop terms:
//   map task   = task_overhead + local disk read of its split
//                + map_cpu_s_per_mb * split_MB, scheduled on the block's
//                node subject to map_slots_per_node;
//   shuffle    = map outputs (input * map_output_ratio) partitioned evenly
//                over the reducers, flowing mapper-egress -> reducer-ingress
//                once all maps finish (no slow-start overlap; documented
//                simplification);
//   reduce     = task_overhead + reduce_cpu_s_per_mb * partition_MB.
//
// Replicated files get one split per replica (split size block/replicas,
// every split data-local), which is how the paper's Fig. 10 compares r-way
// replication with Carousel p = r*k.

#ifndef CAROUSEL_MAPRED_JOB_H
#define CAROUSEL_MAPRED_JOB_H

#include <functional>
#include <string>
#include <vector>

#include "hdfs/dfs.h"

namespace carousel::mapred {

using hdfs::Cluster;
using hdfs::DfsFile;
using hdfs::Time;

/// Per-byte workload shape; the Fig. 9/10 benches instantiate `terasort`
/// (map and reduce both heavy, shuffle carries the full input) and
/// `wordcount` (map-heavy, tiny shuffle).
struct Workload {
  std::string name;
  double map_cpu_s_per_mb = 0;
  double reduce_cpu_s_per_mb = 0;
  /// map output bytes per input byte (1.0 for sort, ~0 for counting).
  double map_output_ratio = 0;
  /// Fixed per-task cost: JVM start, split setup, commit.
  double task_overhead_s = 1.0;
};

struct JobConfig {
  std::size_t map_slots_per_node = 2;  // r3.large: 2 vCPU
  /// One reducer per data block of the 3 GB benchmark file; keeps the
  /// shuffle reducer-ingress-bound, so the reduce phase is insensitive to
  /// the mapper count (the paper's Fig. 9 terasort behaviour).
  std::size_t reducers = 6;
  /// Client-side decode rate for degraded map tasks (bytes/s); measured
  /// kernel rates are ~650 MB/s for Carousel and ~2 GB/s for RS degraded
  /// decodes (EXPERIMENTS.md, Fig. 11 section).
  double decode_bps = 650.0 * 1024 * 1024;
};

struct JobResult {
  double map_avg_s = 0;     ///< mean map-task duration (Fig. 9 "map" bar)
  double map_max_s = 0;
  double reduce_avg_s = 0;  ///< mean reduce-task duration incl. shuffle wait
  double job_s = 0;         ///< completion time (Fig. 9 "job" bar)
  std::size_t map_tasks = 0;
};

/// Runs one job over `file` on `cluster` and reports task/job timings.
///
/// Unavailable data-carrying blocks get *degraded* map tasks (the regime of
/// the paper's related work [23]).  Each missing unit combines the matching
/// units of k other blocks (§V.C, §VII), so the task pulls k/p of a block
/// from each of the stripe's first k surviving blocks — the first from the
/// local disk (the task runs beside it), the other k-1 over the network —
/// and then pays the decode CPU.  For RS (p == k) that is k whole blocks,
/// k-1 of them remote; Carousel's pieces are p/k times smaller.
JobResult run_job(Cluster& cluster, const DfsFile& file,
                  const Workload& workload, const JobConfig& config);

/// Cluster-wide map-slot accounting shared by concurrently running jobs.
/// acquire() grants immediately when the node has a free slot, otherwise
/// queues the callback FIFO behind earlier requests.
class SlotPool {
 public:
  SlotPool(std::size_t nodes, std::size_t slots_per_node);
  void acquire(std::size_t node, std::function<void()> run);
  void release(std::size_t node);
  std::size_t free_slots(std::size_t node) const { return free_[node]; }

 private:
  std::vector<std::size_t> free_;
  std::vector<std::vector<std::function<void()>>> waiting_;  // FIFO per node
};

/// Multi-job scheduling: registers a job to start at `start` (simulated
/// seconds); the caller then drives cluster.simulation().run() once and
/// reads the results.  Jobs passed the same SlotPool contend for map slots,
/// disks and NICs — the multi-tenant regime the single-job figures cannot
/// show.  `result` and `slots` must outlive the simulation run.
void schedule_job(Cluster& cluster, const DfsFile& file,
                  const Workload& workload, const JobConfig& config,
                  Time start, SlotPool* slots, JobResult* result);

/// The two benchmarks the paper runs (§VIII-C), with constants calibrated so
/// the RS-(12,6) baseline reproduces the paper's reported proportions (see
/// EXPERIMENTS.md).
Workload terasort();
Workload wordcount();

}  // namespace carousel::mapred

#endif  // CAROUSEL_MAPRED_JOB_H
