// Host-speed calibration for the wall-clock benchmark.
//
// The hosts this benchmark runs on are shared: the same simulate call can
// run 20-30% slower for minutes at a time while neighbours load the machine,
// which is more than the changes the benchmark has to resolve.
// reference_kernel_s() times a fixed piece of work that lives here, outside
// the code under test — Dijkstra over a seeded sparse graph plus a burst of
// hash-map inserts, the same branchy, pointer-chasing kind of work as the
// Hit-Scheduler's route search — so its time follows the host's current
// speed and no change to HitSched can move it.  Host times are then reported
// as if the kernel had taken kReferenceNominalS.
#pragma once

namespace hit::perfbench {

/// The reference kernel's nominal time.  On a host where the kernel takes
/// this long, calibrated host times equal wall-clock times.
inline constexpr double kReferenceNominalS = 0.020;

/// Wall-clock seconds one run of the reference kernel takes right now.
[[nodiscard]] double reference_kernel_s();

}  // namespace hit::perfbench
