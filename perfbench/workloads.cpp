#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <stdexcept>

#include "mapreduce/profiles.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/workload.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "topology/builders.h"
#include "util/rng.h"
#include "workflow/runner.h"

namespace hit::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Independent rng streams derived from the workload seed, so changing one
// consumer (say, the fault plan) never shifts another's draws.
enum Stream : std::uint64_t { kJobs = 1, kRun = 2, kFaults = 3, kShapes = 4 };

// batch-large's fixed job population (see README.md: the batch engine's
// outcome is chaotic in the job mix, so its seed steers the simulator only).
constexpr std::uint64_t kBatchPopulation = 1;

// Two-slot servers, as in the paper's case-study configuration.
constexpr cluster::Resource kServerCapacity{2.0, 8.0};

// The paper's testbed-scale 64-host tree; `uplink` < 1 oversubscribes it.
topo::TreeConfig testbed_tree(double uplink = 1.0) {
  topo::TreeConfig config;
  config.depth = 3;
  config.fanout = 4;
  config.redundancy = 2;
  config.hosts_per_access = 4;
  config.uplink_bandwidth_factor = uplink;
  return config;
}

// Figure 9's 512-host large-scale tree.
topo::TreeConfig large_tree() {
  topo::TreeConfig config = testbed_tree();
  config.fanout = 8;
  config.hosts_per_access = 8;
  return config;
}

// The generated-job mix hitsim uses: at most 10 maps and 4 reduces a job.
mr::WorkloadConfig job_mix(std::size_t jobs) {
  mr::WorkloadConfig config;
  config.num_jobs = jobs;
  config.max_maps_per_job = 10;
  config.max_reduces_per_job = 4;
  config.block_size_gb = 2.0;
  return config;
}

void build_topology(Inputs& in, const topo::TreeConfig& tree) {
  const Clock::time_point start = Clock::now();
  in.topology = std::make_unique<topo::Topology>(topo::make_tree(tree));
  in.cluster = std::make_unique<cluster::Cluster>(*in.topology, kServerCapacity);
  in.setup.topology_s = seconds_since(start);
}

// Jobs in Table 1 proportions, dealt in blocks of kMixBlock: every block
// holds each profile's exact share (mix_percent is a multiple of 5), in an
// order the seed shuffles.  The seed also draws each job's input size
// (lognormal around the profile's typical input, as
// WorkloadGenerator::generate does).  Seeds so differ in order and sizes but
// never in class composition, not even over a stretch of arrivals.
constexpr std::size_t kMixBlock = 20;

void generate_jobs(Inputs& in, std::size_t jobs, std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Rng rng = Rng(seed).fork(kJobs);
  const mr::WorkloadConfig mix = job_mix(jobs);
  std::vector<const mr::BenchmarkProfile*> block;
  for (const mr::BenchmarkProfile& p : mr::puma_profiles()) {
    const auto n = static_cast<std::size_t>(std::llround(
        static_cast<double>(kMixBlock) * p.mix_percent / 100.0));
    block.insert(block.end(), n, &p);
  }
  std::vector<const mr::BenchmarkProfile*> order;
  while (order.size() < jobs) {
    rng.shuffle(block);
    order.insert(order.end(), block.begin(), block.end());
  }
  order.resize(jobs);
  const mr::WorkloadGenerator generator(mix);
  for (const mr::BenchmarkProfile* p : order) {
    const double input = std::max(
        mix.block_size_gb, rng.lognormal_median(p->typical_input_gb, mix.input_sigma));
    in.jobs.push_back(generator.make_job(*p, input, in.ids));
  }
  in.setup.generate_s = seconds_since(start);
}

// The bench_workflow shapes — aggregation trees, chains and diamonds whose
// criticality and shuffle size disagree — dealt in `copies` blocks of one
// of each shape.  The seed shuffles every block and draws input sizes; the
// stage count stays fixed.
void build_workflow_plan(Inputs& in, std::size_t copies, std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  Rng rng = Rng(seed).fork(kShapes);
  std::vector<int> order;
  std::vector<int> block = {0, 1, 2, 3, 4};
  for (std::size_t i = 0; i < copies; ++i) {
    rng.shuffle(block);
    order.insert(order.end(), block.begin(), block.end());
  }
  for (int shape : order) {
    workflow::GenConfig gen;
    gen.input_gb = rng.uniform(6.0, 10.0);
    switch (shape) {
      case 0: in.workflows.push_back(workflow::make_tree(2, 3, gen)); break;
      case 1: in.workflows.push_back(workflow::make_chain(5, gen)); break;
      case 2: in.workflows.push_back(workflow::make_diamond(4, gen)); break;
      case 3: in.workflows.push_back(workflow::make_chain(4, gen)); break;
      default: in.workflows.push_back(workflow::make_diamond(3, gen)); break;
    }
  }
  const mr::WorkloadGenerator generator(job_mix(0));
  workflow::OnlinePlanBuild plan = workflow::build_online_plan(
      in.workflows, workflow::SchedConfig{}, generator, in.ids);
  in.jobs = std::move(plan.jobs);
  in.config.workflow = std::move(plan.plan);
  in.setup.plan_s = seconds_since(start);
}

// Crash, gray, rack and controller faults over the online-1k arrival span,
// with every recovery mechanism switched on.
void add_chaos(Inputs& in, std::uint64_t seed) {
  sim::MtbfConfig mtbf;
  mtbf.horizon = 12000.0;
  mtbf.switch_mtbf = mtbf.server_mtbf = mtbf.link_mtbf = 20000.0;
  mtbf.switch_mttr = mtbf.server_mttr = mtbf.link_mttr = 120.0;
  mtbf.gray_switch_mtbf = mtbf.gray_link_mtbf = 4000.0;
  mtbf.gray_switch_mttr = mtbf.gray_link_mttr = 120.0;
  mtbf.rack_mtbf = 10000.0;
  mtbf.rack_mttr = 120.0;
  mtbf.controller_mtbf = 600.0;
  mtbf.controller_mttr = 60.0;
  sim::SimConfig& s = in.config.sim;
  s.faults = sim::FaultPlan::generate(*in.topology, mtbf,
                                      Rng(seed).fork(kFaults).seed());
  s.gray.quarantine = true;
  s.domains.enabled = true;
  s.domains.output_loss_prob = 0.5;
  s.recovery.snapshot_every = 500.0;
  s.recovery.standby = true;
}

void build(Inputs& in, std::uint64_t seed) {
  in.run_seed = Rng(seed).fork(kRun).seed();
  if (in.workload == "batch-large") {
    in.engine = Engine::Batch;
    build_topology(in, large_tree());
    generate_jobs(in, 120, kBatchPopulation);
    in.config.sim.bandwidth_scale = 0.035;
  } else if (in.workload == "online-1k" || in.workload == "chaos") {
    build_topology(in, testbed_tree());
    generate_jobs(in, 1000, seed);
    in.config.arrival_rate = 0.08;
    in.config.sim.bandwidth_scale = 0.05;
    if (in.workload == "chaos") add_chaos(in, seed);
  } else if (in.workload == "workflow-coflow") {
    build_topology(in, testbed_tree(0.25));
    in.config.arrival_rate = 0.01;  // workflow groups per second
    in.config.sim.bandwidth_scale = 0.1;
    in.config.sim.coflow.enabled = true;
    in.config.sim.coflow.order = coflow::OrderPolicy::CriticalPath;
    in.hit.coflow = in.config.sim.coflow;
    build_workflow_plan(in, 32, seed);
  } else {
    throw std::invalid_argument("unknown workload '" + in.workload + "'");
  }
}

// FNV-1a over exact bytes: two runs agree only when every hashed double is
// bit-identical.
class Digest {
 public:
  void add(double v) { bytes(&v, sizeof v); }
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    unsigned char buf[8];
    std::memcpy(buf, p, n);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= buf[i];
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// The simulators batch events that fall within 1e-9 s of each other, so a
// node-local flow can complete up to that much before its recorded release.
constexpr double kEventTolerance = 1e-9;

void check_flows(RunOutcome& out) {
  for (const sim::FlowTiming& f : out.flows) {
    if (!(f.finish >= f.release - kEventTolerance)) {
      out.check_failures.push_back(
          "flow " + std::to_string(f.id.value()) + " finishes at " +
          std::to_string(f.finish) + " before its release at " +
          std::to_string(f.release) + (f.local ? " (node-local)" : ""));
      return;
    }
  }
}

// SimResult and OnlineResult carry the same fault accounting blocks.
template <class Result>
FaultCounts fault_counts(const Result& r) {
  return {r.recovery.flows_rerouted,      r.recovery.flows_stalled,
          r.recovery.maps_reexecuted,     r.gray.quarantines,
          r.gray.probes,                  r.control.journal_records,
          r.control.reconcile_repairs,    r.fault_domains.partition_parks,
          r.fault_domains.maps_reexecuted_lineage};
}

void finish_digest(RunOutcome& out, Digest& d) {
  for (const sim::FlowTiming& f : out.flows) {
    d.add(std::uint64_t{f.id.value()});
    d.add(f.finish);
  }
  d.add(out.shuffle_cost);
  out.digest = d.value();
}

RunOutcome simulate_batch(const Inputs& in, sched::Scheduler& scheduler,
                          const obs::Context* observer) {
  sim::SimConfig config = in.config.sim;
  config.observer = observer;
  const sim::ClusterSimulator simulator(*in.cluster, config);
  mr::IdAllocator ids = in.ids;
  Rng rng(in.run_seed);

  const Clock::time_point start = Clock::now();
  sim::SimResult result = simulator.run(scheduler, in.jobs, ids, rng);
  RunOutcome out;
  out.wall_s = seconds_since(start);

  out.completed = result.jobs.size();
  out.jct = result.job_completion_times();
  out.makespan = result.makespan;
  out.shuffle_cost = result.total_shuffle_cost;
  out.cct_mean = result.average_coflow_cct();
  out.faults = fault_counts(result);
  out.flows = std::move(result.flows);

  if (result.jobs.size() != in.jobs.size()) {
    out.check_failures.push_back(std::to_string(result.jobs.size()) + " of " +
                                 std::to_string(in.jobs.size()) +
                                 " jobs completed");
  }
  check_flows(out);
  Digest d;
  for (const sim::JobResult& j : result.jobs) {
    d.add(std::uint64_t{j.id.value()});
    d.add(j.completion_time);
  }
  finish_digest(out, d);
  return out;
}

// DAG makespan per workflow: last winning stage finish minus the group's
// arrival (the earliest unlock among its attempts).
std::vector<double> workflow_makespans(const sim::OnlineResult& result) {
  std::map<std::uint32_t, std::pair<double, double>> span;  // arrival, finish
  for (const sim::WorkflowJobRecord& r : result.workflow_jobs) {
    const auto it = span.try_emplace(r.workflow, r.unlocked, 0.0).first;
    it->second.first = std::min(it->second.first, r.unlocked);
    if (r.stage_winner) it->second.second = std::max(it->second.second, r.finish);
  }
  std::vector<double> out;
  out.reserve(span.size());
  for (const auto& [wf, s] : span) out.push_back(s.second - s.first);
  return out;
}

RunOutcome simulate_online(const Inputs& in, sched::Scheduler& scheduler,
                           const obs::Context* observer) {
  sim::OnlineConfig config = in.config;
  config.sim.observer = observer;
  const sim::OnlineSimulator simulator(*in.cluster, config);
  mr::IdAllocator ids = in.ids;
  Rng rng(in.run_seed);

  const Clock::time_point start = Clock::now();
  sim::OnlineResult result = simulator.run(scheduler, in.jobs, ids, rng);
  RunOutcome out;
  out.wall_s = seconds_since(start);

  const bool workflows = config.workflow.enabled();
  out.completed = result.jobs.size();
  out.jct = workflows ? workflow_makespans(result) : result.completion_times();
  out.makespan = result.makespan;
  out.shuffle_cost = result.total_shuffle_cost;
  out.cct_mean = result.avg_coflow_cct;
  out.faults = fault_counts(result);

  if (result.jobs.size() + result.shed.size() != in.jobs.size()) {
    out.check_failures.push_back(
        std::to_string(result.jobs.size()) + " completed + " +
        std::to_string(result.shed.size()) + " shed of " +
        std::to_string(in.jobs.size()) + " jobs");
  }
  if (workflows) {
    const workflow::WorkflowStats stats =
        workflow::compute_online_stats(result, in.workflows);
    if (stats.stages_completed != stats.stages_total) {
      out.check_failures.push_back(std::to_string(stats.stages_completed) +
                                   " of " + std::to_string(stats.stages_total) +
                                   " workflow stages completed");
    }
  }
  if (result.control.reconcile_repairs != result.control.reconcile_violations) {
    out.check_failures.push_back(
        std::to_string(result.control.reconcile_repairs) + " repairs for " +
        std::to_string(result.control.reconcile_violations) +
        " reconcile violations");
  }
  out.flows = std::move(result.flows);
  check_flows(out);
  Digest d;
  for (const sim::OnlineJobRecord& j : result.jobs) {
    d.add(std::uint64_t{j.id.value()});
    d.add(j.finish);
  }
  for (const sim::ShedJobRecord& s : result.shed) {
    d.add(std::uint64_t{s.id.value()});
    d.add(s.shed_at);
  }
  finish_digest(out, d);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"batch-large", "online-1k",
                                                 "workflow-coflow", "chaos"};
  return names;
}

std::unique_ptr<Inputs> build_inputs(const std::string& workload,
                                     std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  auto in = std::make_unique<Inputs>();
  in->workload = workload;
  build(*in, seed);
  in->setup.total_s = seconds_since(start);
  return in;
}

std::size_t count_shuffle_flows(const Inputs& inputs) {
  mr::IdAllocator ids = inputs.ids;
  return mr::build_shuffle_flows(inputs.jobs, ids, inputs.config.sim.shuffle)
      .size();
}

RunOutcome simulate(const Inputs& inputs, sched::Scheduler& scheduler,
                    const obs::Context* observer) {
  return inputs.engine == Engine::Batch
             ? simulate_batch(inputs, scheduler, observer)
             : simulate_online(inputs, scheduler, observer);
}

}  // namespace hit::perfbench
