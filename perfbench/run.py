#!/usr/bin/env python3
"""Perf benchmark entry point.

    python3 perfbench/run.py --workload scale_20pb --seed 1 --seconds 30 --trace 0

Builds perfbench_harness from the checkout's sources (incrementally, under
$CARGO_TARGET_DIR or .bench_build), runs one workload for the given
wall-clock budget, checks the per-trial fingerprints, and prints one JSON
object as the last line of stdout:

    {"correct": true, "attempted": 17, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass (see README.md).  Build output and diagnostics go to stderr.

    python3 perfbench/run.py --pin

re-pins expected.json: the first trials' fingerprints of every workload at
the default seed.  Do that only for a change that is meant to alter
simulated results, and say so.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scale_20pb", "fabric_2pb", "client_testbed")
CLIENT_WORKLOADS = ("client_testbed",)
DEFAULT_SEED = 1
PINS = HERE / "expected.json"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds the harness incrementally."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("simulator sources (src/CMakeLists.txt) not found "
                         "next to perfbench/; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_harness", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_harness(workload, seed, seconds, trace, trace_out=None):
    """Runs the harness in its own process and returns its JSON document."""
    cmd = [str(build_dir() / "perfbench_harness"),
           "--spec", str(HERE / "workloads" / f"{workload}.json"),
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"harness exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def load_pins():
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def check(doc, workload, seed, trace):
    """Returns (extra failed trials, problems) found in a harness document.

    A trial fails when it raised (null fingerprint, already counted by the
    harness), when its traced re-run disagrees with it, when its fingerprint
    is implausible for the workload, or, at the default seed, when it differs
    from the pinned fingerprint."""
    failed = 0
    problems = []
    fps = doc["fingerprints"]
    fields = doc["fingerprint_fields"]
    if trace:
        for i, (a, b) in enumerate(zip(fps, doc["traced_fingerprints"])):
            if a is not None and b is not None and a != b:
                failed += 1
                problems.append(f"trial {i}: traced {b} != untraced {a}")
    if seed == DEFAULT_SEED:
        pins = load_pins()
        pinned = pins.get(workload)
        if pinned is None:
            problems.append(f"no pinned fingerprints for {workload}")
        if pins.get("fields") != fields:
            problems.append(f"pinned fields {pins.get('fields')} != {fields}")
        for i, want in enumerate(pinned or []):
            got = fps[i] if i < len(fps) else None
            if got is not None and got != want:
                failed += 1
                problems.append(f"trial {i}: {got} != pinned {want}")
    for i, fp in enumerate(fps):
        if fp is None:
            continue
        f = dict(zip(fields, fp))
        # client_testbed trials may see no disk failure at all (~5 %); the
        # recovery workloads always see hundreds.
        if workload in CLIENT_WORKLOADS:
            plausible = f["client_requests"] > 0
        else:
            plausible = f["client_requests"] == 0 and f["rebuilds"] > 0
        if f["events"] == 0 or not plausible:
            failed += 1
            problems.append(f"trial {i}: implausible fingerprint {f}")
    if trace:
        layer = doc["per_layer"]
        kinds = sum(v["value"] for k, v in layer.items()
                    if k.startswith("event.") and k.endswith(".count"))
        events = layer["sim.events"]["value"]
        if abs(kinds - events) > 1e-9 * max(events, 1.0):
            problems.append(f"per-kind counts {kinds} != sim.events {events}")
    return failed, problems


def pin():
    build()
    entries = {}
    for w in WORKLOADS:
        doc = run_harness(w, DEFAULT_SEED, 1e-3, trace=False)
        entries["fields"] = doc["fingerprint_fields"]
        entries[w] = doc["fingerprints"][:doc["pinned_trials"]]
    PINS.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in entries.items()) + "\n}\n")
    print(f"pinned {PINS.name}", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="re-pin expected.json at the default seed and exit")
    a = p.parse_args()
    try:
        if a.pin:
            pin()
            return 0
        if a.workload is None:
            p.error("--workload is required")
        build()
        trace_out = (build_dir() / f"trace_{a.workload}_{a.seed}.json"
                     if a.trace else None)
        doc = run_harness(a.workload, a.seed, a.seconds, bool(a.trace),
                          trace_out=trace_out)
        failed, problems = check(doc, a.workload, a.seed, bool(a.trace))
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for msg in problems:
        print(f"perfbench: {msg}", file=sys.stderr)
    failed += doc["failed"]
    metrics = doc["per_layer"] if a.trace else doc["end_to_end"]
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": doc["attempted"],
                      "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
