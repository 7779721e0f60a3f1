// One Monte-Carlo trial at a time, driven through the public
// core::ReliabilitySimulator API with run_monte_carlo's per-trial seeds.
//
// The untraced pass times construction (set-up) and the mission and nothing
// else.  The traced pass drives the mission event by event to charge each
// event's wall time to the first trace kind it emits, and times the storage
// layer's set-up on its own; it must reproduce the untraced pass's
// fingerprint exactly.
//
// The reference kernel (ref_kernel.hpp) is timed before and after every
// timed stretch; each stretch is normalized by the geometric mean of the
// two.  Set-up is one stretch.  The mission runs as kMissionSlices equal
// slices of simulated time (Simulator::run_until, then run() to assemble the
// result), each its own stretch: host speed drifts within a one-second
// mission, and sampling it between slices halves the normalized mission's
// trial-to-trial spread on scale_20pb.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "farm/config.hpp"
#include "farm/metrics.hpp"

namespace perfbench {

/// The counts a trial must reproduce exactly for a given seed, whichever
/// pass ran it.
struct Fingerprint {
  std::uint64_t events = 0;
  std::uint64_t disk_failures = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t redirections = 0;
  std::uint64_t lost_groups = 0;
  std::uint64_t client_requests = 0;
  std::uint64_t degraded_reads = 0;

  bool operator==(const Fingerprint&) const = default;
};

[[nodiscard]] Fingerprint fingerprint(const farm::core::TrialResult& r);

inline constexpr int kMissionSlices = 8;

/// A phase's raw wall time and its time at the nominal kernel speed, summed
/// over the stretches it was timed in.
struct Phase {
  double raw_s = 0.0;
  double normalized_s = 0.0;

  /// Adds a stretch of `raw_s` seconds timed while the kernel took `kernel_s`.
  void add(double raw, double kernel_s);
  /// The kernel time that normalizes the whole phase at once.
  [[nodiscard]] double kernel_s() const;
};

struct TrialTimes {
  Phase setup;    // ReliabilitySimulator construction
  Phase mission;  // simulated mission + result assembly, in slices
};

struct UntracedTrial {
  TrialTimes times;
  Fingerprint fp;
};

[[nodiscard]] UntracedTrial run_untraced_trial(const farm::core::SystemConfig& cfg,
                                               std::uint64_t seed);

/// Wall time charged to one event kind: the first trace kind an event
/// emitted, or "untraced" for events that emit none (client arrivals and
/// completions, transfer re-quotes).
struct KindSpan {
  std::string kind;
  std::uint64_t count = 0;
  double seconds = 0.0;  // raw
};

inline constexpr const char* kUntracedKind = "untraced";

struct TracedTrial {
  TrialTimes times;
  Phase storage;  // StorageSystem construction + initialize() alone
  std::vector<KindSpan> kinds;  // in order of first appearance
  std::uint64_t pending_peak = 0;
  farm::core::TrialResult result;
};

[[nodiscard]] TracedTrial run_traced_trial(const farm::core::SystemConfig& cfg,
                                           std::uint64_t seed);

}  // namespace perfbench
