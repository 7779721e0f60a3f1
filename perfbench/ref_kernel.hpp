// The reference kernel behind per-trial speed normalization.
//
// The simulator is memory-bound, so on a shared host its speed follows the
// neighbours' traffic: identical binaries and seeds swing by ±20 % between
// runs, in regimes that last from under a second to minutes.  Around every
// timed phase of a trial the harness times this fixed kernel, shaped like
// the event loop (a binary heap of pending events, a hash set of live
// handles, one heap-allocating std::function per op, and a short dependent
// chain of table reads), and rescales the phase by how fast the host ran
// the kernel just then.
//
// The kernel's table is deliberately small.  Measured against the three
// workloads, an 8 KiB table slowed down with them almost one for one
// (log-log slope 0.96 on client_testbed), while a 1 MiB table over-reacted
// (slope 0.55) and an ALU-only loop barely moved at all.  The footprint,
// about 0.3 MiB, stays far below every workload's peak RSS.
//
// The kernel is a yardstick: it must never change, or every recorded
// normalized number changes with it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Kernel time, in seconds, on a quiet host of the kind the benchmark was
/// pinned on (4-vCPU Xeon VM at 2.1 GHz).  Normalized times read "seconds
/// on that host when nothing else runs".
inline constexpr double kNominalKernelSec = 0.003;

/// Runs the kernel once and returns its wall time in seconds.  `checksum`
/// receives a value derived from every op so the work cannot be elided; it
/// is the same on every call.
double run_ref_kernel(std::uint64_t* checksum = nullptr);

/// Median of three kernel runs: one preempted run does not skew a trial.
double time_ref_kernel();

/// Rescales a raw duration measured while the kernel took `kernel_s` to the
/// nominal kernel speed.  Scaling the trial and the kernel by the same
/// factor leaves the result unchanged.
[[nodiscard]] constexpr double normalize(double raw_s, double kernel_s) {
  return raw_s * (kNominalKernelSec / kernel_s);
}

}  // namespace perfbench
