// Self-checks of the perf harness: run with `ctest` in the perfbench build
// directory, or directly as `perfbench_test`.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/experiment.hpp"
#include "farm/reliability_sim.hpp"
#include "harness.hpp"
#include "ref_kernel.hpp"
#include "util/units.hpp"
#include "workload/spec.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

farm::core::SystemConfig workload(const std::string& name) {
  std::ifstream in(std::string(PERFBENCH_WORKLOAD_DIR) + "/" + name + ".json");
  std::ostringstream text;
  text << in.rdbuf();
  return farm::workload::parse_spec_text(text.str()).points.front().config;
}

// A host that slows down by factor f slows the kernel and the trial alike;
// the normalized time must not move.
void normalization_is_speed_invariant() {
  const double raw = 0.731, kernel = 0.0123;
  const double base = perfbench::normalize(raw, kernel);
  for (const double f : {0.5, 1.0, 1.37, 2.0, 10.0}) {
    const double slowed = perfbench::normalize(raw * f, kernel * f);
    check(std::fabs(slowed - base) <= 1e-12 * base,
          "normalize changes under a common slowdown factor " + std::to_string(f));
  }
  check(perfbench::normalize(1.0, perfbench::kNominalKernelSec) == 1.0,
        "a trial at nominal kernel speed keeps its raw time");

  // The same holds for a phase timed in slices, whatever each slice's speed.
  perfbench::Phase phase, slowed;
  const double slices[][2] = {{0.2, 0.003}, {0.5, 0.0045}, {0.1, 0.0031}};
  for (const auto& [r, k] : slices) {
    phase.add(r, k);
    slowed.add(r * 1.7, k * 1.7);
  }
  check(std::fabs(slowed.normalized_s - phase.normalized_s) <= 1e-12 * phase.normalized_s,
        "a sliced phase changes under a common slowdown factor");
  check(std::fabs(slowed.raw_s - 1.7 * phase.raw_s) <= 1e-12 * slowed.raw_s,
        "a sliced phase sums its raw slices");
}

void kernel_is_deterministic() {
  std::uint64_t a = 0, b = 0;
  const double t = perfbench::run_ref_kernel(&a);
  (void)perfbench::run_ref_kernel(&b);
  check(t > 0.0, "kernel time is positive");
  check(a == b && a != 0, "kernel checksum repeats");
}

// Per-kind counts partition the executed events, the spans fit inside the
// mission, and tracing does not perturb the trial.
void traced_trial_accounts_every_event(const std::string& name,
                                       const farm::core::SystemConfig& cfg) {
  const std::uint64_t seed = 42;
  const perfbench::TracedTrial t = perfbench::run_traced_trial(cfg, seed);
  std::uint64_t count = 0;
  double spans = 0.0;
  bool saw_detected = false;
  for (const perfbench::KindSpan& s : t.kinds) {
    count += s.count;
    spans += s.seconds;
    saw_detected |= s.kind == "detected";
  }
  check(t.result.events_executed > 0, name + ": trial executed events");
  check(count == t.result.events_executed,
        name + ": per-kind counts sum to events_executed");
  check(spans <= t.times.mission.raw_s, name + ": per-kind spans fit in the mission");
  check(t.result.disk_failures > 0, name + ": trial saw disk failures");
  check(saw_detected == (t.result.disk_failures > 0),
        name + ": detected events traced iff disks failed");
  check(t.storage.raw_s > 0.0 && t.storage.kernel_s() > 0.0,
        name + ": storage set-up timed");

  const perfbench::UntracedTrial u = perfbench::run_untraced_trial(cfg, seed);
  check(u.fp == perfbench::fingerprint(t.result),
        name + ": traced and untraced fingerprints agree");
  check(u.fp == perfbench::fingerprint(farm::core::run_trial(cfg, seed)),
        name + ": a sliced mission reproduces run_trial");
}

}  // namespace

int main() {
  normalization_is_speed_invariant();
  kernel_is_deterministic();

  // Shrunk copies of the benchmark workloads so the test runs in seconds.
  farm::core::SystemConfig client = workload("client_testbed");
  client.mission_time = farm::util::Seconds{1800.0};
  client.exponential_mttf = farm::util::Seconds{20.0 * 3600.0};
  traced_trial_accounts_every_event("client_testbed", client);

  farm::core::SystemConfig fabric = workload("fabric_2pb");
  fabric.total_user_data = fabric.total_user_data * 0.02;
  traced_trial_accounts_every_event("fabric_2pb", fabric);

  // scale_20pb's flat drain-clock recovery, at 2 % of the paper base.
  const farm::core::SystemConfig flat =
      farm::analysis::scale_config(workload("scale_20pb"), 0.002);
  traced_trial_accounts_every_event("scale_20pb", flat);

  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
