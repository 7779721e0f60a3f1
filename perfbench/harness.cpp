#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string_view>

#include "farm/reliability_sim.hpp"
#include "farm/storage_system.hpp"
#include "ref_kernel.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Host speed across a phase: the kernel sampled on both sides of it.  One
/// sample before a ~1 s phase tracks a shared host's sub-second contention
/// swings too loosely.
double kernel_around(double before_s, double after_s) {
  return std::sqrt(before_s * after_s);
}

KindSpan& span_for(std::vector<KindSpan>& spans, std::string_view kind) {
  for (KindSpan& s : spans) {
    if (s.kind == kind) return s;
  }
  spans.push_back({std::string(kind), 0, 0.0});
  return spans.back();
}

/// Runs the mission in kMissionSlices slices of simulated time and returns
/// its result.  `advance(h)` runs the engine up to horizon h; after the last
/// slice run() assembles the result (the queue is past the horizon by then).
/// `kernel` holds the kernel time sampled just before the mission and
/// receives the one sampled just after it.
template <typename Advance>
farm::core::TrialResult run_sliced_mission(farm::core::ReliabilitySimulator& sim,
                                           farm::util::Seconds mission_time,
                                           Phase& phase, double& kernel,
                                           Advance&& advance) {
  farm::core::TrialResult result;
  for (int j = 1; j <= kMissionSlices; ++j) {
    const auto t0 = Clock::now();
    if (j < kMissionSlices) {
      advance(mission_time * (static_cast<double>(j) / kMissionSlices));
    } else {
      advance(mission_time);
      result = sim.run();
    }
    const double raw = seconds_between(t0, Clock::now());
    const double k = time_ref_kernel();
    phase.add(raw, kernel_around(kernel, k));
    kernel = k;
  }
  return result;
}

/// Runs the mission one event at a time, charging each event to a kind.
void run_traced_mission(farm::core::ReliabilitySimulator& sim,
                        farm::util::Seconds mission_time, double& kernel,
                        TracedTrial& out) {
  // Every trace kind the simulator emits is a string literal, so the view
  // stays valid after the callback returns.
  std::string_view first_kind;
  bool traced = false;
  sim.set_trace([&](double, std::string_view kind, std::uint64_t) {
    if (!traced) {
      first_kind = kind;
      traced = true;
    }
  });
  farm::sim::Simulator& engine = sim.simulator();
  auto last = Clock::now();
  // Called after every event: the interval since the previous call is that
  // event's pop + dispatch.  One clock read per event keeps the overhead
  // flat across event kinds.
  const auto charge = [&] {
    const auto now = Clock::now();
    KindSpan& s = span_for(out.kinds, traced ? first_kind : kUntracedKind);
    ++s.count;
    s.seconds += seconds_between(last, now);
    out.pending_peak =
        std::max<std::uint64_t>(out.pending_peak, engine.pending_events());
    traced = false;
    last = now;
    return false;
  };
  out.result = run_sliced_mission(sim, mission_time, out.times.mission, kernel,
                                  [&](farm::util::Seconds h) {
                                    last = Clock::now();  // skip the kernel run
                                    engine.run_until(h, charge);
                                  });
}

}  // namespace

void Phase::add(double raw, double kernel) {
  raw_s += raw;
  normalized_s += normalize(raw, kernel);
}

double Phase::kernel_s() const {
  return normalized_s > 0.0 ? kNominalKernelSec * raw_s / normalized_s : 0.0;
}

Fingerprint fingerprint(const farm::core::TrialResult& r) {
  return {r.events_executed, r.disk_failures,  r.rebuilds_completed,
          r.redirections,    r.lost_groups,    r.client.requests,
          r.client.degraded_reads};
}

UntracedTrial run_untraced_trial(const farm::core::SystemConfig& cfg,
                                 std::uint64_t seed) {
  UntracedTrial out;
  const double k0 = time_ref_kernel();
  const auto t0 = Clock::now();
  farm::core::ReliabilitySimulator sim(cfg, seed);
  const double setup_raw = seconds_between(t0, Clock::now());
  double kernel = time_ref_kernel();
  out.times.setup.add(setup_raw, kernel_around(k0, kernel));
  farm::sim::Simulator& engine = sim.simulator();
  out.fp = fingerprint(run_sliced_mission(
      sim, cfg.mission_time, out.times.mission, kernel,
      [&](farm::util::Seconds h) { engine.run_until(h); }));
  return out;
}

TracedTrial run_traced_trial(const farm::core::SystemConfig& cfg,
                             std::uint64_t seed) {
  TracedTrial out;
  double kernel = 0.0;
  {
    const double k0 = time_ref_kernel();
    const auto t0 = Clock::now();
    farm::core::ReliabilitySimulator sim(cfg, seed);
    const double setup_raw = seconds_between(t0, Clock::now());
    kernel = time_ref_kernel();
    out.times.setup.add(setup_raw, kernel_around(k0, kernel));
    run_traced_mission(sim, cfg.mission_time, kernel, out);
  }

  // The storage layer's share of set-up: disk population, failure sampling
  // and placement of every group, without the simulator's policy wiring.
  // Timed after the simulator is gone so that, like the simulator's own
  // construction, it starts right after a same-sized teardown.
  const auto t0 = Clock::now();
  const auto storage = std::make_unique<farm::core::StorageSystem>(cfg, seed);
  storage->initialize();
  const double storage_raw = seconds_between(t0, Clock::now());
  out.storage.add(storage_raw, kernel_around(kernel, time_ref_kernel()));
  return out;
}

}  // namespace perfbench
