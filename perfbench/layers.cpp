#include "layers.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <utility>

#include "coflow/rate_allocator.h"
#include "core/policy_optimizer.h"
#include "core/stable_matching.h"
#include "network/bandwidth.h"

namespace hit::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// HitScheduler's §5.3.2 test: every open task is a map and every flow's
// destination is already fixed.  Anything else runs Algorithm 1 + 2.
bool is_initial_wave(const sched::Problem& problem) {
  if (problem.tasks.empty()) return false;
  for (const sched::TaskRef& t : problem.tasks) {
    if (t.kind != cluster::TaskKind::Map) return true;
  }
  for (const net::Flow& f : problem.flows) {
    if (!problem.fixed_host(f.dst_task).valid()) return true;
  }
  return false;
}

// Keeps the solvers' results observable so no call can be optimized away.
double g_rate_sink = 0.0;

}  // namespace

void WaveCapture::record(const sched::Problem& problem,
                         const sched::Assignment& assignment) {
  std::unordered_map<FlowId, const net::Flow*> flow_of;
  for (const net::Flow& f : problem.flows) flow_of.emplace(f.id, &f);
  for (const auto& [id, policy] : assignment.policies) {
    const auto it = flow_of.find(id);
    if (it == flow_of.end()) continue;
    const ServerId src = assignment.host(problem, it->second->src_task);
    const ServerId dst = assignment.host(problem, it->second->dst_task);
    if (!src.valid() || !dst.valid()) continue;
    routes_[id] = CapturedRoute{problem.cluster->node_of(src),
                                problem.cluster->node_of(dst), policy};
  }
  if (!is_initial_wave(problem)) return;

  CapturedWave wave;
  wave.problem = problem;
  // Neither Algorithm 1 nor Algorithm 2 reads the HDFS replica map, and it
  // does not outlive the run; the replay-fidelity check would catch a use.
  wave.problem.blocks = nullptr;
  if (problem.ambient_load != nullptr) {
    wave.load = std::make_unique<net::LoadTracker>(*problem.ambient_load);
    wave.problem.ambient_load = wave.load.get();
  }
  wave.placement = assignment.placement;
  waves_.push_back(std::move(wave));
}

sched::Assignment TimedScheduler::schedule(const sched::Problem& problem,
                                           Rng& rng) {
  // A call that throws (the online simulator's "does not fit yet" probe) is
  // scheduler time too: time it, count it, and let the exception through.
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  const auto account = [&] {
    elapsed = seconds_between(start, Clock::now());
    latencies_s_.push_back(elapsed);
    busy_s_ += elapsed;
    tasks_ += problem.tasks.size();
    flows_ += problem.flows.size();
  };
  sched::Assignment assignment;
  try {
    assignment = inner_->schedule(problem, rng);
  } catch (...) {
    account();
    ++rejected_;
    throw;
  }
  account();
  decisions_s_.push_back(elapsed);
  if (capture_ != nullptr) capture_->record(problem, assignment);
  return assignment;
}

SchedulerReplay replay_scheduler(const WaveCapture& capture,
                                 const core::CostConfig& cost) {
  SchedulerReplay out;
  const core::StableMatcher matcher;
  for (const CapturedWave& wave : capture.initial_waves()) {
    const sched::Problem& problem = wave.problem;
    core::PolicyOptimizer optimizer(*problem.topology, cost);
    if (!problem.penalized_switches.empty()) {
      optimizer.set_penalized(problem.penalized_switches, problem.switch_penalty);
    }
    const Clock::time_point t0 = Clock::now();
    const core::PreferenceMatrix prefs = optimizer.build_preferences(problem);
    const Clock::time_point t1 = Clock::now();
    const core::StableMatcher::MatchResult match =
        matcher.match_budgeted(problem, prefs, 0);
    const Clock::time_point t2 = Clock::now();

    ++out.waves;
    out.prefs_busy_s += seconds_between(t0, t1);
    out.match_busy_s += seconds_between(t1, t2);
    out.prefs_flows += problem.flows.size();
    out.proposals += match.proposals;
    out.cells += problem.tasks.size() * problem.cluster->size();
    if (matcher.match(problem, prefs) != wave.placement) ++out.mismatches;
  }
  return out;
}

SolveReplay replay_solver(Solver solver, const Inputs& inputs,
                          const WaveCapture& capture,
                          const std::vector<sim::FlowTiming>& flows) {
  struct Item {
    const sim::FlowTiming* timing;
    topo::Path path;
    std::size_t group;
  };
  // Coflow groups keyed on (job, wave), numbered by first release.
  std::vector<const sim::FlowTiming*> by_release;
  for (const sim::FlowTiming& f : flows) by_release.push_back(&f);
  std::stable_sort(by_release.begin(), by_release.end(),
                   [](const sim::FlowTiming* a, const sim::FlowTiming* b) {
                     return a->release < b->release;
                   });
  std::map<std::pair<JobId::value_type, std::uint32_t>, std::size_t> group_of;
  std::vector<Item> items;
  std::vector<double> instants;
  for (const sim::FlowTiming* f : by_release) {
    if (f->local || !(f->finish > f->release)) continue;
    const auto route = capture.routes().find(f->id);
    if (route == capture.routes().end() || route->second.src == route->second.dst) {
      continue;
    }
    const std::size_t group =
        group_of.try_emplace({f->job.value(), f->wave}, group_of.size()).first->second;
    items.push_back({f,
                     route->second.policy.realize(*inputs.topology,
                                                  route->second.src,
                                                  route->second.dst),
                     group});
    instants.push_back(f->release);
    instants.push_back(f->finish);
  }
  std::sort(instants.begin(), instants.end());
  instants.erase(std::unique(instants.begin(), instants.end()), instants.end());
  const std::size_t stride =
      std::max<std::size_t>(1, (instants.size() + kMaxReplaySolves - 1) /
                                   kMaxReplaySolves);

  const double scale = inputs.config.sim.bandwidth_scale;
  const net::MaxMinFairAllocator max_min(*inputs.topology, scale);
  SolveReplay out;
  for (std::size_t i = 0; i < instants.size(); i += stride) {
    const double t = instants[i];
    std::vector<net::FlowDemand> demands;
    std::vector<double> remaining;
    std::vector<std::vector<std::size_t>> groups(group_of.size());
    for (const Item& item : items) {
      const sim::FlowTiming& f = *item.timing;
      if (f.release > t || f.finish <= t) continue;
      groups[item.group].push_back(demands.size());
      demands.push_back({f.id, item.path, 0.0});
      remaining.push_back(f.size_gb * (f.finish - t) / (f.finish - f.release));
    }
    if (demands.empty()) continue;
    std::erase_if(groups, [](const auto& g) { return g.empty(); });

    const Clock::time_point start = Clock::now();
    const std::vector<double> rates =
        solver == Solver::MaxMin
            ? max_min.allocate(demands)
            : coflow::madd_allocate(*inputs.topology, demands, remaining,
                                    groups, scale);
    out.busy_s += seconds_between(start, Clock::now());
    ++out.solves;
    out.flows += demands.size();
    if (!rates.empty()) g_rate_sink += rates.front();
  }
  return out;
}

}  // namespace hit::perfbench
