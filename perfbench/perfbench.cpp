// perfbench — wall-clock benchmark of HitSched (see README.md beside this
// file for the workloads, metrics and how each layer maps to an end-to-end
// number).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One process, one thread, one workload.  The set-up (topology, cluster,
// jobs, workflow plan, fault plan) is built from the seed kSetupReps times
// and timed each time.  Then the workload is simulated back to back — a
// closed loop of whole runs, after one untimed warm-up run — for S seconds.
// Inside a run, jobs arrive as an open-loop Poisson process in simulated
// time.  Every run is checked and hashed; a run that throws, fails a check or
// does not reproduce the warm-up run's digest counts as failed.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 spends half the budget
// on untraced runs and then makes one traced run: the existing obs::Profiler
// is bound, the scheduler decorator captures every call's inputs, and those
// inputs are replayed through the layers' public functions.  It prints the
// per-layer metrics.  Host times are calibrated for host speed against a
// fixed reference kernel (calibration.h).  Both modes print a
// "name value unit" table and then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "calibration.h"
#include "core/hit_scheduler.h"
#include "layers.h"
#include "obs/context.h"
#include "obs/profile.h"
#include "workloads.h"

namespace {

using namespace hit;
using namespace hit::perfbench;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 201;
constexpr int kSetupReferenceReps = 5;
constexpr std::size_t kMinRuns = 3;
constexpr std::size_t kMaxRuns = 500;
/// The profiler's scheduler total may trail the decorator's by this share
/// plus kCrossCheckPerCallS per call (the decorator also times the virtual
/// dispatch and the observer bind that precede the profiler scope).
constexpr double kCrossCheckShare = 0.05;
constexpr double kCrossCheckPerCallS = 2e-6;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  bool have[4] = {false, false, false, false};
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      std::size_t used = 0;
      if (flag == "--workload") {
        opt.workload = value;
        have[0] = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, &used);
        have[1] = used == value.size();
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value, &used);
        have[2] = used == value.size() && opt.seconds > 0.0;
      } else if (flag == "--trace") {
        opt.trace = value == "1";
        have[3] = value == "0" || value == "1";
      } else {
        return std::nullopt;
      }
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (argc % 2 != 1 || !(have[0] && have[1] && have[2] && have[3])) {
    return std::nullopt;
  }
  return opt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
/// beyond it (p50 when the sample is smaller than twenty).
double tail_percentile(std::size_t n) {
  double best = 0.5;
  for (double p : {0.9, 0.99, 0.999, 0.9999}) {
    if ((1.0 - p) * static_cast<double>(n) >= 10.0) best = p;
  }
  return best;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One measured simulate call.
struct Sample {
  RunOutcome outcome;
  double peak_rss_mb = 0.0;  ///< process high-water mark after this run
  std::size_t calls = 0;
  double busy_s = 0.0;
  std::size_t tasks = 0;
  std::size_t flows = 0;
  std::size_t rejected = 0;
  std::vector<double> latencies_s;
  std::vector<double> decisions_s;
};

/// Runs workload simulations and keeps the attempted/failed account.
class Runner {
 public:
  explicit Runner(const Inputs& inputs) : inputs_(&inputs) {}

  /// Simulate once; nullopt when the run threw.  A run that fails a check
  /// or does not reproduce the first run's digest is returned but counted
  /// as failed.
  std::optional<Sample> run(const obs::Context* observer, WaveCapture* capture,
                            const char* label) {
    ++attempted_;
    core::HitScheduler hit(inputs_->hit);
    TimedScheduler timed(hit, capture);
    Sample s;
    try {
      s.outcome = simulate(*inputs_, timed, observer);
    } catch (const std::exception& e) {
      fail(std::string(label) + " run threw: " + e.what());
      return std::nullopt;
    }
    std::vector<std::string> problems = s.outcome.check_failures;
    if (!reference_) reference_ = s.outcome.digest;
    if (s.outcome.digest != *reference_) {
      problems.push_back(std::string(label) +
                         " run digest differs from the first run's");
    }
    if (!problems.empty()) {
      ++failed_;
      for (const std::string& p : problems) std::cerr << "perfbench: " << p << "\n";
    }
    s.calls = timed.latencies_s().size();
    s.busy_s = timed.busy_s();
    s.tasks = timed.tasks();
    s.flows = timed.flows();
    s.rejected = timed.rejected();
    s.latencies_s = timed.latencies_s();
    s.decisions_s = timed.decision_latencies_s();
    return s;
  }

  void fail(const std::string& why) {
    ++failed_;
    std::cerr << "perfbench: " << why << "\n";
  }

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  const Inputs* inputs_;
  std::optional<std::uint64_t> reference_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Times the reference kernel once, records the time in `reference_s` and
/// returns the host-speed factor for work timed right after (calibration.h).
double speed_factor(std::vector<double>& reference_s) {
  reference_s.push_back(reference_kernel_s());
  return kReferenceNominalS / reference_s.back();
}

/// Calibrates one run's host times by `factor`.
void scale(Sample& s, double factor) {
  s.outcome.wall_s *= factor;
  s.busy_s *= factor;
  for (double& v : s.latencies_s) v *= factor;
  for (double& v : s.decisions_s) v *= factor;
}

/// Untimed warm-up run, then measured runs until `budget_s` has passed
/// (at least kMinRuns of them).  Each run is calibrated by a reference
/// kernel timing taken just before it, appended to `reference_s`.
std::vector<Sample> measure(Runner& runner, double budget_s,
                            std::vector<double>& reference_s) {
  std::vector<Sample> samples;
  if (!runner.run(nullptr, nullptr, "warm-up")) return samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < kMaxRuns &&
         (samples.size() < kMinRuns ||
          std::chrono::duration<double>(Clock::now() - start).count() < budget_s)) {
    const double factor = speed_factor(reference_s);
    std::optional<Sample> s = runner.run(nullptr, nullptr, "measured");
    if (!s) break;
    scale(*s, factor);
    s->peak_rss_mb = process_peak_rss_mb();
    // Only the first run's outcome is reported; keeping every later run's
    // flow records would grow the peak RSS with the number of runs.
    if (!samples.empty()) s->outcome.flows = {};
    samples.push_back(std::move(*s));
  }
  return samples;
}

/// Medians over the measured runs of the host-time quantities every report
/// needs.  The runs are deterministic, so the i-th schedule() call of every
/// run is the same call: each call's latency is its median over the runs,
/// which takes the host's noise out before any percentile is read.
struct HostTimes {
  double run_wall_s = 0.0;
  double busy_s = 0.0;
  std::vector<double> latencies_s;  ///< per-call medians, every call, sorted
  std::vector<double> decisions_s;  ///< per-call medians, placements, sorted
};

std::vector<double> per_call_medians(
    const std::vector<Sample>& samples,
    std::vector<double> Sample::*latencies) {
  std::size_t calls = (samples.front().*latencies).size();
  for (const Sample& s : samples) calls = std::min(calls, (s.*latencies).size());
  std::vector<double> out(calls);
  std::vector<double> across(samples.size());
  for (std::size_t i = 0; i < calls; ++i) {
    for (std::size_t r = 0; r < samples.size(); ++r) {
      across[r] = (samples[r].*latencies)[i];
    }
    out[i] = median(across);
  }
  std::sort(out.begin(), out.end());
  return out;
}

HostTimes host_times(const std::vector<Sample>& samples) {
  HostTimes h;
  std::vector<double> wall, busy;
  for (const Sample& s : samples) {
    wall.push_back(s.outcome.wall_s);
    busy.push_back(s.busy_s);
  }
  h.run_wall_s = median(wall);
  h.busy_s = median(busy);
  h.latencies_s = per_call_medians(samples, &Sample::latencies_s);
  h.decisions_s = per_call_medians(samples, &Sample::decisions_s);
  return h;
}

std::vector<Metric> end_to_end(const Sample& first, const HostTimes& h,
                               double setup_s) {
  const RunOutcome& o = first.outcome;
  std::vector<double> jct = o.jct;
  std::sort(jct.begin(), jct.end());
  double jct_sum = 0.0;
  for (double v : jct) jct_sum += v;
  return {
      {"run_wall_s", h.run_wall_s, "s"},
      {"jobs_per_wall_s", ratio(static_cast<double>(o.completed), h.run_wall_s),
       "1/s"},
      {"decision_p50_ms", median(h.decisions_s) * 1e3, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", first.peak_rss_mb, "MB"},
      {"jct_mean_sim_s", ratio(jct_sum, static_cast<double>(jct.size())),
       "sim_s"},
      {"jct_p95_sim_s", quantile(jct, 0.95), "sim_s"},
      {"shuffle_cost_gbt", o.shuffle_cost, "GB.hop"},
      {"cct_mean_sim_s", o.cct_mean, "sim_s"},
  };
}

/// Everything the traced half of a --trace 1 invocation measured.
struct Traced {
  Sample sample;
  double profiled_sched_s = 0.0;
  std::uint64_t profiled_sched_calls = 0;
  SchedulerReplay sched;
  SolveReplay max_min;
  SolveReplay madd;
};

std::vector<Metric> per_layer(const Inputs& in, const std::vector<double>& topo_s,
                              const std::vector<double>& gen_s,
                              const std::vector<double>& plan_s,
                              const Sample& first, const HostTimes& h,
                              const Traced& t) {
  const double calls = static_cast<double>(first.calls);
  const double flows = static_cast<double>(first.outcome.flows.size());
  const double core_s = h.run_wall_s - h.busy_s;
  const FaultCounts& f = first.outcome.faults;
  const auto count = [](std::size_t n) { return static_cast<double>(n); };
  const bool workflows = in.config.workflow.enabled();
  return {
      {"topology.build_s", median(topo_s), "s"},
      {"mapreduce.generate_s", median(gen_s), "s"},
      {"mapreduce.flows", count(count_shuffle_flows(in)), "count"},
      {"workflow.plan_build_s", median(plan_s), "s"},
      {"workflow.stage_attempts", workflows ? count(in.jobs.size()) : 0.0,
       "count"},
      {"sched.calls", calls, "count"},
      {"sched.rejected_calls", count(first.rejected), "count"},
      {"sched.busy_s", h.busy_s, "s"},
      {"sched.share", ratio(h.busy_s, h.run_wall_s), "ratio"},
      {"sched.p50_us", median(h.latencies_s) * 1e6, "us"},
      {"sched.tail_us",
       quantile(h.latencies_s, tail_percentile(h.latencies_s.size())) * 1e6, "us"},
      {"sched.tasks_per_call", ratio(count(first.tasks), calls), "count"},
      {"sched.flows_per_call", ratio(count(first.flows), calls), "count"},
      {"sched.us_per_task", ratio(h.busy_s * 1e6, count(first.tasks)), "us"},
      {"sim.core_s", core_s, "s"},
      {"sim.core_share", ratio(core_s, h.run_wall_s), "ratio"},
      {"sim.flows", flows, "count"},
      {"sim.core_us_per_flow", ratio(core_s * 1e6, flows), "us"},
      {"sim.makespan_s", first.outcome.makespan, "sim_s"},
      {"core.policy_optimizer.build_preferences.calls", count(t.sched.waves),
       "count"},
      {"core.policy_optimizer.build_preferences.busy_s", t.sched.prefs_busy_s, "s"},
      {"core.policy_optimizer.build_preferences.us_per_flow",
       ratio(t.sched.prefs_busy_s * 1e6, count(t.sched.prefs_flows)), "us"},
      {"core.stable_matching.match.calls", count(t.sched.waves), "count"},
      {"core.stable_matching.match.busy_s", t.sched.match_busy_s, "s"},
      {"core.stable_matching.match.proposals",
       static_cast<double>(t.sched.proposals), "count"},
      {"core.stable_matching.match.us_per_cell",
       ratio(t.sched.match_busy_s * 1e6, static_cast<double>(t.sched.cells)), "us"},
      {"network.max_min.solves", count(t.max_min.solves), "count"},
      {"network.max_min.flows_per_solve",
       ratio(count(t.max_min.flows), count(t.max_min.solves)), "count"},
      {"network.max_min.busy_s", t.max_min.busy_s, "s"},
      {"network.max_min.us_per_solve",
       ratio(t.max_min.busy_s * 1e6, count(t.max_min.solves)), "us"},
      {"coflow.madd.solves", count(t.madd.solves), "count"},
      {"coflow.madd.flows_per_solve",
       ratio(count(t.madd.flows), count(t.madd.solves)), "count"},
      {"coflow.madd.busy_s", t.madd.busy_s, "s"},
      {"coflow.madd.us_per_solve", ratio(t.madd.busy_s * 1e6, count(t.madd.solves)),
       "us"},
      {"sim.faults.flows_rerouted", count(f.flows_rerouted), "count"},
      {"sim.faults.flows_stalled", count(f.flows_stalled), "count"},
      {"sim.faults.maps_reexecuted", count(f.maps_reexecuted), "count"},
      {"sim.gray.quarantines", count(f.quarantines), "count"},
      {"sim.gray.probes", count(f.probes), "count"},
      {"sim.ctrlplane.journal_records", count(f.journal_records), "count"},
      {"sim.ctrlplane.reconcile_repairs", count(f.reconcile_repairs), "count"},
      {"sim.domains.partition_parks", count(f.partition_parks), "count"},
      {"sim.domains.maps_reexecuted_lineage", count(f.maps_reexecuted_lineage),
       "count"},
      {"trace.overhead_share",
       ratio(t.sample.outcome.wall_s - h.run_wall_s, h.run_wall_s), "ratio"},
      {"profile.sched_s", t.profiled_sched_s, "s"},
      {"profile.unattributed_s", t.sample.outcome.wall_s - t.profiled_sched_s, "s"},
      {"replay.waves_checked", count(t.sched.waves), "count"},
  };
}

/// The traced run: profiler bound, inputs captured, then replayed.  Adds
/// the replay-fidelity and profiler cross-check verdicts to `runner`.  Host
/// times are calibrated like the measured runs'.
std::optional<Traced> traced_run(Runner& runner, const Inputs& in,
                                 std::vector<double>& reference_s) {
  obs::Profiler profiler;
  const obs::Context context(nullptr, nullptr, &profiler);
  WaveCapture capture;
  const double run_factor = speed_factor(reference_s);
  std::optional<Sample> s = runner.run(&context, &capture, "traced");
  if (!s) return std::nullopt;

  Traced t;
  t.sample = std::move(*s);
  scale(t.sample, run_factor);
  const auto scopes = profiler.snapshot();
  if (const auto it = scopes.find("core.hit_scheduler.schedule"); it != scopes.end()) {
    t.profiled_sched_s = static_cast<double>(it->second.total_ns) * 1e-9 * run_factor;
    t.profiled_sched_calls = it->second.count;
  }
  const double gap = t.sample.busy_s - t.profiled_sched_s;
  const double allowed = kCrossCheckShare * t.sample.busy_s +
                         kCrossCheckPerCallS * static_cast<double>(t.sample.calls);
  if (t.profiled_sched_calls != t.sample.calls || gap < 0.0 || gap > allowed) {
    runner.fail("profiler cross-check: decorator " +
                std::to_string(t.sample.busy_s) + " s over " +
                std::to_string(t.sample.calls) + " calls, profiler " +
                std::to_string(t.profiled_sched_s) + " s over " +
                std::to_string(t.profiled_sched_calls) + " calls");
  }

  const double replay_factor = speed_factor(reference_s);
  t.sched = replay_scheduler(capture, in.hit.cost);
  if (t.sched.mismatches > 0) {
    runner.fail("replay fidelity: " + std::to_string(t.sched.mismatches) + " of " +
                std::to_string(t.sched.waves) +
                " replayed waves placed differently");
  }
  const Solver solver = in.config.sim.coflow.enabled ? Solver::Madd : Solver::MaxMin;
  SolveReplay& slot = solver == Solver::Madd ? t.madd : t.max_min;
  slot = replay_solver(solver, in, capture, t.sample.outcome.flows);
  t.sched.prefs_busy_s *= replay_factor;
  t.sched.match_busy_s *= replay_factor;
  slot.busy_s *= replay_factor;
  return t;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  // Every host time is calibrated by reference kernel timings taken just
  // before the work it times (calibration.h): five for the set-up, one per
  // run, one each for the traced run and its replays.
  std::vector<double> reference_s;
  for (int i = 0; i < kSetupReferenceReps; ++i) (void)speed_factor(reference_s);
  const double setup_factor = kReferenceNominalS / median(reference_s);
  std::vector<double> setup_s, topo_s, gen_s, plan_s;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetupReps; ++i) {
    inputs.reset();  // every build starts from the same heap state
    inputs = build_inputs(opt.workload, opt.seed);
    setup_s.push_back(inputs->setup.total_s * setup_factor);
    topo_s.push_back(inputs->setup.topology_s * setup_factor);
    gen_s.push_back(inputs->setup.generate_s * setup_factor);
    plan_s.push_back(inputs->setup.plan_s * setup_factor);
  }

  Runner runner(*inputs);
  const double untraced_budget = opt.trace ? 0.5 * opt.seconds : opt.seconds;
  const std::vector<Sample> samples = measure(runner, untraced_budget, reference_s);
  std::optional<Traced> traced;
  if (opt.trace && !samples.empty()) traced = traced_run(runner, *inputs, reference_s);
  if (samples.empty() || (opt.trace && !traced)) {
    std::cerr << "perfbench: no complete run of " << opt.workload << "\n";
    return 1;
  }

  const HostTimes h = host_times(samples);
  std::vector<Metric> metrics =
      opt.trace ? per_layer(*inputs, topo_s, gen_s, plan_s, samples.front(), h,
                            *traced)
                : end_to_end(samples.front(), h, median(setup_s));
  const double reference = median(reference_s);
  if (opt.trace) metrics.push_back({"host.reference_s", reference, "s"});

  std::printf("# %s seed %llu: %zu measured runs%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), samples.size(),
              opt.trace ? " + 1 traced run" : "");
  std::printf("# host times calibrated to a %.3f s reference kernel "
              "(median here %.6f s)\n", kReferenceNominalS, reference);
  if (opt.trace) {
    std::printf("# sched.tail_us is p%g over %zu schedule() calls\n",
                100.0 * tail_percentile(h.latencies_s.size()), h.latencies_s.size());
  }
  for (const Metric& m : metrics) {
    std::printf("%-52s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_json(runner.failed() == 0, runner.attempted(), runner.failed(), metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads:";
    for (const std::string& w : workload_names()) std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
  }
  try {
    return run(*opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
