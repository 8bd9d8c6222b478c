// Per-layer measurement from outside the program.
//
// TimedScheduler wraps the scheduler under test and times every
// schedule() call; with a WaveCapture attached (the traced run only) it also
// copies each call's inputs and answer after the clock has stopped.  The
// replay functions then feed those captured inputs back through the layers'
// public entry points — Algorithm 1's preference build, Algorithm 2's
// Gale-Shapley matching, the max-min fair and MADD rate solvers — and time
// each call on its own.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "network/load.h"
#include "network/policy.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "workloads.h"

namespace hit::perfbench {

/// An initial-wave Problem (both flow endpoints open: Algorithm 1 + 2 run)
/// with its own copy of the ambient switch load, plus the placement the
/// scheduler returned for it.
struct CapturedWave {
  sched::Problem problem;
  std::unique_ptr<net::LoadTracker> load;  ///< problem.ambient_load points here
  std::unordered_map<TaskId, ServerId> placement;
};

/// The last route each flow was given: endpoint nodes and switch policy.
struct CapturedRoute {
  NodeId src;
  NodeId dst;
  net::Policy policy;
};

class WaveCapture {
 public:
  void record(const sched::Problem& problem, const sched::Assignment& assignment);

  [[nodiscard]] const std::vector<CapturedWave>& initial_waves() const noexcept {
    return waves_;
  }
  [[nodiscard]] const std::unordered_map<FlowId, CapturedRoute>& routes() const noexcept {
    return routes_;
  }

 private:
  std::vector<CapturedWave> waves_;
  std::unordered_map<FlowId, CapturedRoute> routes_;
};

/// sched::Scheduler decorator owned by the benchmark: forwards to `inner`
/// and records the host latency and size of every call.
class TimedScheduler final : public sched::Scheduler {
 public:
  explicit TimedScheduler(sched::Scheduler& inner, WaveCapture* capture = nullptr)
      : inner_(&inner), capture_(capture) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] sched::Assignment schedule(const sched::Problem& problem,
                                           Rng& rng) override;

  /// Every call, in call order.
  [[nodiscard]] const std::vector<double>& latencies_s() const noexcept {
    return latencies_s_;
  }
  /// Calls that returned a placement (the decisions a job waits on).
  [[nodiscard]] const std::vector<double>& decision_latencies_s() const noexcept {
    return decisions_s_;
  }
  [[nodiscard]] double busy_s() const noexcept { return busy_s_; }
  [[nodiscard]] std::size_t tasks() const noexcept { return tasks_; }
  [[nodiscard]] std::size_t flows() const noexcept { return flows_; }
  /// Calls that threw (counted in every figure above as well).
  [[nodiscard]] std::size_t rejected() const noexcept { return rejected_; }

 private:
  sched::Scheduler* inner_;
  WaveCapture* capture_;
  std::vector<double> latencies_s_;
  std::vector<double> decisions_s_;
  double busy_s_ = 0.0;
  std::size_t tasks_ = 0;
  std::size_t flows_ = 0;
  std::size_t rejected_ = 0;
};

/// Algorithm 1 and Algorithm 2 replayed over every captured initial wave.
struct SchedulerReplay {
  std::size_t waves = 0;
  double prefs_busy_s = 0.0;    ///< PolicyOptimizer::build_preferences
  std::size_t prefs_flows = 0;  ///< flows graded across all waves
  double match_busy_s = 0.0;    ///< StableMatcher::match_budgeted(…, 0)
  std::uint64_t proposals = 0;
  std::uint64_t cells = 0;      ///< Σ tasks x servers
  /// Waves whose replayed StableMatcher::match placement differs from the
  /// one the decorator saw (replay fidelity; must stay 0).
  std::size_t mismatches = 0;
};

[[nodiscard]] SchedulerReplay replay_scheduler(const WaveCapture& capture,
                                               const core::CostConfig& cost);

/// A rate solver replayed over the run's active flow sets.
struct SolveReplay {
  std::size_t solves = 0;
  std::size_t flows = 0;  ///< Σ active flows over the solves
  double busy_s = 0.0;
};

/// Which rate solver the replay sweep calls.
enum class Solver { MaxMin, Madd };

/// Sweep the distinct release/finish instants of `flows` (at most
/// kMaxReplaySolves of them, evenly strided), rebuild the active flow set at
/// each from the captured routes, and time one `solver` call on it.  MADD
/// gets one group per (job, wave), ordered by first release, and remaining
/// bytes interpolated linearly over each flow's transfer.
[[nodiscard]] SolveReplay replay_solver(Solver solver, const Inputs& inputs,
                                        const WaveCapture& capture,
                                        const std::vector<sim::FlowTiming>& flows);

inline constexpr std::size_t kMaxReplaySolves = 400;

}  // namespace hit::perfbench
