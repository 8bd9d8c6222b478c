// Workload catalogue of the HitSched wall-clock benchmark.
//
// build_inputs() is the timed set-up: topology, cluster, generated jobs,
// workflow plan and fault plan, derived from the workload seed (batch-large
// keeps one fixed job population; see README.md).
// simulate() is the timed run: exactly one ClusterSimulator::run or
// OnlineSimulator::run call, followed (outside the timed region) by the
// output checks and the determinism digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/hit_scheduler.h"
#include "mapreduce/job.h"
#include "obs/context.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/online.h"
#include "topology/topology.h"
#include "workflow/dag.h"

namespace hit::perfbench {

enum class Engine { Batch, Online };

/// Host seconds spent in each set-up phase.
struct SetupTimes {
  double topology_s = 0.0;  ///< topology + cluster
  double generate_s = 0.0;  ///< job generation
  double plan_s = 0.0;      ///< workflow plan build (workflow-coflow only)
  double total_s = 0.0;     ///< all of set-up, fault plan (chaos) included
};

/// Everything one workload needs.  The cluster points into the topology, so
/// both live behind stable pointers.
struct Inputs {
  std::string workload;
  Engine engine = Engine::Online;
  std::unique_ptr<topo::Topology> topology;
  std::unique_ptr<cluster::Cluster> cluster;
  std::vector<mr::Job> jobs;
  mr::IdAllocator ids;  ///< allocator state after generation; copied per run
  /// Batch runs read `config.sim`; online runs read all of it.
  sim::OnlineConfig config;
  core::HitConfig hit;
  std::vector<workflow::Workflow> workflows;  ///< workflow-coflow only
  std::uint64_t run_seed = 0;                 ///< simulator rng seed
  SetupTimes setup;
};

/// The four workload names, in the order the benchmark documents them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Timed set-up for `workload` at `seed`.  Throws std::invalid_argument on
/// an unknown workload name.
[[nodiscard]] std::unique_ptr<Inputs> build_inputs(const std::string& workload,
                                                   std::uint64_t seed);

/// Shuffle flows the workload's jobs will create (counted on a throwaway
/// id allocator, outside any timed region).
[[nodiscard]] std::size_t count_shuffle_flows(const Inputs& inputs);

/// Fault-path work reported by the simulators' result structs.
struct FaultCounts {
  std::size_t flows_rerouted = 0;
  std::size_t flows_stalled = 0;
  std::size_t maps_reexecuted = 0;
  std::size_t quarantines = 0;
  std::size_t probes = 0;
  std::size_t journal_records = 0;
  std::size_t reconcile_repairs = 0;
  std::size_t partition_parks = 0;
  std::size_t maps_reexecuted_lineage = 0;
};

/// One simulate call, reduced to what the benchmark reports and checks.
struct RunOutcome {
  double wall_s = 0.0;        ///< host time of the simulate call alone
  std::size_t completed = 0;  ///< completed jobs (stage attempts in workflows)
  /// Job completion times; in workflow runs, DAG makespan per workflow.
  std::vector<double> jct;
  double makespan = 0.0;
  double shuffle_cost = 0.0;  ///< GB x switch hops (the paper's TAA cost)
  double cct_mean = 0.0;      ///< mean coflow completion time
  std::vector<sim::FlowTiming> flows;
  FaultCounts faults;
  std::uint64_t digest = 0;  ///< exact-bit hash of finish times and cost
  std::vector<std::string> check_failures;  ///< empty when every check passed
};

/// Run the workload once under `scheduler`.  `observer` (may be null) is
/// bound for the run, so the simulators' and scheduler's profiler scopes
/// report into it.  Exceptions from the simulator propagate.
[[nodiscard]] RunOutcome simulate(const Inputs& inputs,
                                  sched::Scheduler& scheduler,
                                  const obs::Context* observer);

}  // namespace hit::perfbench
