// perfbench_harness: runs one workload spec for a wall-clock budget and
// prints one JSON document with its metrics and per-trial fingerprints.
//
//   perfbench_harness --spec workloads/fabric_2pb.json --seed 1 --seconds 30
//                     [--trace 0|1] [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics (speed-normalized, see
// ref_kernel.hpp) plus their raw counterparts.  --trace 1 spends part of the
// budget on an untraced pass and then re-runs the same seeds traced,
// reporting per-layer metrics; --trace-out writes each traced trial's
// per-kind spans.  run.py checks the output and formats the final result.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ref_kernel.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "workload/spec.hpp"

namespace {

using perfbench::normalize;

// Every run has at least this many trials, so the pinned fingerprints in
// expected.json (this many, reported as "pinned_trials") are always checked
// at the default seed.
constexpr std::uint64_t kMinTrials = 3;

struct Args {
  std::string spec;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--spec") a.spec = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.spec.empty()) throw std::invalid_argument("--spec is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

farm::core::SystemConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read spec " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const farm::workload::Spec spec = farm::workload::parse_spec_text(text.str());
  if (spec.points.size() != 1) {
    throw std::invalid_argument("spec " + path + ": expected exactly one point");
  }
  // The harness runs the mission in slices of simulated time, which would
  // not stop at the first loss.
  if (spec.points.front().config.stop_at_first_loss) {
    throw std::invalid_argument("spec " + path + ": stop_at_first_loss must be off");
  }
  return spec.points.front().config;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<long>(mid)) + hi) / 2;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// This process's peak resident memory.  VmHWM belongs to the address space
/// exec created; getrusage's ru_maxrss would instead survive exec and report
/// the launching process's peak whenever that was larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// A fingerprint's fields in the order the document writes them; the
// document names them under "fingerprint_fields", so run.py and
// expected.json follow this one list.
std::array<std::pair<const char*, std::uint64_t>, 7> fingerprint_fields(
    const perfbench::Fingerprint& f) {
  return {{{"events", f.events},
           {"disk_failures", f.disk_failures},
           {"rebuilds", f.rebuilds},
           {"redirections", f.redirections},
           {"lost_groups", f.lost_groups},
           {"client_requests", f.client_requests},
           {"degraded_reads", f.degraded_reads}}};
}

void write_fingerprint(farm::util::JsonWriter& w, const perfbench::Fingerprint& f) {
  w.begin_array();
  for (const auto& [name, x] : fingerprint_fields(f)) w.value(x);
  w.end_array();
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void write_metrics(farm::util::JsonWriter& w, const char* key,
                   const std::vector<Metric>& ms) {
  w.key(key);
  w.begin_object();
  for (const Metric& m : ms) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", m.value);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
}

// Event kinds reported individually; any other first-trace kind is folded
// into "other" so the metric set is the same on every workload.
constexpr const char* kReportedKinds[] = {"detected", "disk_failed",
                                          "rebuild_complete",
                                          perfbench::kUntracedKind};
// Expensive kinds are reported per event in microseconds, cheap ones in ns.
bool reported_in_us(const std::string& kind) {
  return kind == "detected" || kind == "disk_failed";
}

int run(const Args& args) {
  using Clock = std::chrono::steady_clock;
  const farm::core::SystemConfig cfg = load_config(args.spec);
  const farm::util::SeedSequence seeds{args.seed};

  // Untraced pass: the whole budget, or 35 % of it when a traced pass over
  // the same seeds follows (tracing, the extra storage set-up and the extra
  // kernel sample make a traced trial up to twice as slow).
  const double budget = args.trace ? 0.35 * args.seconds : args.seconds;
  std::vector<perfbench::UntracedTrial> trials;
  std::vector<bool> ok;
  std::size_t failed = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (i >= kMinTrials && elapsed >= budget) break;
    try {
      trials.push_back(perfbench::run_untraced_trial(cfg, seeds.stream(i)));
      ok.push_back(true);
    } catch (const std::exception& e) {
      std::cerr << "trial " << i << " failed: " << e.what() << '\n';
      trials.emplace_back();
      ok.push_back(false);
      ++failed;
    }
  }

  std::vector<double> setup, trial, raw_setup, raw_trial, kernel_ms;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (!ok[i]) continue;
    const perfbench::TrialTimes& t = trials[i].times;
    raw_setup.push_back(t.setup.raw_s);
    raw_trial.push_back(t.setup.raw_s + t.mission.raw_s);
    setup.push_back(t.setup.normalized_s);
    trial.push_back(setup.back() + t.mission.normalized_s);
    kernel_ms.push_back(t.mission.kernel_s() * 1e3);
  }
  const auto sum = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return s;
  };
  const double n_ok = static_cast<double>(trial.size());

  std::vector<perfbench::TracedTrial> traced;
  std::vector<bool> traced_ok;
  if (args.trace) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      try {
        traced.push_back(perfbench::run_traced_trial(cfg, seeds.stream(i)));
        traced_ok.push_back(true);
      } catch (const std::exception& e) {
        std::cerr << "traced trial " << i << " failed: " << e.what() << '\n';
        traced.emplace_back();
        traced_ok.push_back(false);
        ++failed;
      }
    }
  }

  std::vector<Metric> end_to_end = {
      {"trials_per_s", ratio(n_ok, sum(trial)), "1/s"},
      {"trial_s_p50", median(trial), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  std::vector<Metric> raw = {
      {"trials_per_s", ratio(n_ok, sum(raw_trial)), "1/s"},
      {"trial_s_p50", median(raw_trial), "s"},
      {"setup_s", median(raw_setup), "s"},
  };

  std::vector<Metric> per_layer;
  if (args.trace) {
    // Totals over the traced trials; times normalized per trial like the
    // end-to-end metrics.
    std::map<std::string, std::pair<std::uint64_t, double>> kinds;  // count, s
    for (const char* k : kReportedKinds) kinds[k] = {0, 0.0};
    kinds["other"] = {0, 0.0};
    std::vector<double> storage, wiring;
    double mission_s = 0.0, events = 0.0, rebuilds = 0.0, failures = 0.0,
           redirections = 0.0, requotes = 0.0, local = 0.0, cross = 0.0,
           requests = 0.0, reads = 0.0, writes = 0.0, degraded = 0.0,
           pending_peak = 0.0;
    double traced_n = 0.0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!traced_ok[i]) continue;
      const perfbench::TracedTrial& t = traced[i];
      const double k = t.times.mission.kernel_s();
      traced_n += 1.0;
      storage.push_back(t.storage.normalized_s);
      wiring.push_back(t.times.setup.normalized_s - storage.back());
      mission_s += t.times.mission.normalized_s;
      for (const perfbench::KindSpan& s : t.kinds) {
        const bool known = std::find(std::begin(kReportedKinds),
                                     std::end(kReportedKinds),
                                     s.kind) != std::end(kReportedKinds);
        auto& slot = kinds[known ? s.kind : "other"];
        slot.first += s.count;
        slot.second += normalize(s.seconds, k);
      }
      const farm::core::TrialResult& r = t.result;
      events += static_cast<double>(r.events_executed);
      rebuilds += static_cast<double>(r.rebuilds_completed);
      failures += static_cast<double>(r.disk_failures);
      redirections += static_cast<double>(r.redirections);
      requotes += static_cast<double>(r.fabric_requotes);
      local += r.local_repair_bytes;
      cross += r.cross_rack_repair_bytes;
      requests += static_cast<double>(r.client.requests);
      reads += static_cast<double>(r.client.reads);
      writes += static_cast<double>(r.client.writes);
      degraded += static_cast<double>(r.client.degraded_reads);
      pending_peak = std::max(pending_peak, static_cast<double>(t.pending_peak));
    }
    double untraced_mission = 0.0;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (ok[i] && traced_ok[i]) untraced_mission += trials[i].times.mission.normalized_s;
    }
    for (const auto& [kind, cs] : kinds) {
      const double count = static_cast<double>(cs.first);
      const bool us = reported_in_us(kind);
      per_layer.push_back({"event." + kind + ".count", ratio(count, traced_n), "count"});
      per_layer.push_back({"event." + kind + (us ? ".us" : ".ns"),
                           ratio(cs.second, count) * (us ? 1e6 : 1e9),
                           us ? "us" : "ns"});
      per_layer.push_back({"event." + kind + ".share", ratio(cs.second, mission_s), "ratio"});
    }
    const double untraced_s = kinds[perfbench::kUntracedKind].second;
    per_layer.insert(per_layer.end(), {
        {"farm.rebuilds", ratio(rebuilds, traced_n), "count"},
        {"farm.failures", ratio(failures, traced_n), "count"},
        {"farm.redirections_per_rebuild", ratio(redirections, rebuilds), "ratio"},
        {"setup.storage_s", median(storage), "s"},
        {"setup.wiring_s", median(wiring), "s"},
        {"net.requotes", ratio(requotes, traced_n), "count"},
        {"net.requotes_per_rebuild", ratio(requotes, rebuilds), "ratio"},
        {"net.cross_rack_frac", ratio(cross, local + cross), "ratio"},
        {"client.requests", ratio(requests, traced_n), "count"},
        {"client.ns_per_request", ratio(untraced_s, requests) * 1e9, "ns"},
        {"client.degraded_frac", ratio(degraded, reads), "ratio"},
        {"client.write_frac", ratio(writes, requests), "ratio"},
        {"sim.events", ratio(events, traced_n), "count"},
        {"sim.ns_per_event", ratio(mission_s, events) * 1e9, "ns"},
        {"sim.pending_peak", pending_peak, "count"},
        {"trace.overhead", ratio(mission_s, untraced_mission) - 1.0, "ratio"},
        {"ref.kernel_ms", median(kernel_ms), "ms"},
        {"raw.trial_s_p50", median(raw_trial), "s"},
        {"raw.setup_s", median(raw_setup), "s"},
        {"trials", traced_n, "count"},
    });
  }

  farm::util::JsonWriter w(std::cout);
  w.begin_object();
  w.kv("attempted", static_cast<std::uint64_t>(trials.size() + traced.size()));
  w.kv("failed", static_cast<std::uint64_t>(failed));
  write_metrics(w, "end_to_end", end_to_end);
  write_metrics(w, "raw", raw);
  if (args.trace) write_metrics(w, "per_layer", per_layer);
  w.kv("pinned_trials", kMinTrials);
  w.key("fingerprint_fields");
  w.begin_array();
  for (const auto& [name, x] : fingerprint_fields({})) w.value(name);
  w.end_array();
  w.key("fingerprints");
  w.begin_array();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (ok[i]) write_fingerprint(w, trials[i].fp); else w.null();
  }
  w.end_array();
  if (args.trace) {
    w.key("traced_fingerprints");
    w.begin_array();
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (traced_ok[i]) write_fingerprint(w, perfbench::fingerprint(traced[i].result));
      else w.null();
    }
    w.end_array();
  }
  w.end_object();
  std::cout << '\n';

  if (args.trace && !args.trace_out.empty()) {
    // Spans stay in memory during the run and are written once, here.
    std::ofstream out(args.trace_out);
    farm::util::JsonWriter tw(out);
    tw.begin_object();
    tw.kv("spec", args.spec);
    tw.kv("seed", args.seed);
    tw.key("trials");
    tw.begin_array();
    for (std::size_t i = 0; i < traced.size(); ++i) {
      if (!traced_ok[i]) continue;
      const perfbench::TracedTrial& t = traced[i];
      tw.begin_object();
      tw.kv("index", static_cast<std::uint64_t>(i));
      tw.kv("setup_s", t.times.setup.raw_s);
      tw.kv("setup_kernel_s", t.times.setup.kernel_s());
      tw.kv("mission_s", t.times.mission.raw_s);
      tw.kv("mission_kernel_s", t.times.mission.kernel_s());
      tw.kv("storage_s", t.storage.raw_s);
      tw.kv("storage_kernel_s", t.storage.kernel_s());
      tw.kv("pending_peak", t.pending_peak);
      tw.key("kinds");
      tw.begin_object();
      for (const perfbench::KindSpan& s : t.kinds) {
        tw.key(s.kind);
        tw.begin_object();
        tw.kv("count", s.count);
        tw.kv("seconds", s.seconds);
        tw.end_object();
      }
      tw.end_object();
      tw.end_object();
    }
    tw.end_array();
    tw.end_object();
    out << '\n';
    if (!out) throw std::runtime_error("cannot write " + args.trace_out);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << '\n';
    return 2;
  }
}
