#!/usr/bin/env python3
"""Steadiness report: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py [--first-seed 1]

Runs every workload ten times for BENCHMARK.json's run_seconds, each run in
its own process with its own seed (--first-seed, then the next nine), and
prints per metric the median, the interquartile range and the max-min range,
both as a share of the median.  Time metrics appear twice: speed-normalized
(what the benchmark reports) and raw wall-clock, so the table shows what
normalization buys on this host.  Quartiles come from
statistics.quantiles(values, n=4).
"""

import argparse
import json
import statistics
import sys

import run

RUNS = 10
TIME_METRICS = ("trials_per_s", "trial_s_p50", "setup_s")


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run.build()

    print("| workload | metric | median | IQR/median | range/median "
          "| raw median | raw IQR/median | raw range/median |")
    print("|---|---|---|---|---|---|---|---|")
    for w in run.WORKLOADS:
        norm, raw = {}, {}
        for seed in range(a.first_seed, a.first_seed + RUNS):
            doc = run.run_harness(w, seed, seconds, trace=False)
            failed, problems = run.check(doc, w, seed, trace=False)
            if failed or doc["failed"] or problems:
                print(f"{w} seed {seed}: {problems}", file=sys.stderr)
            for k, v in doc["end_to_end"].items():
                norm.setdefault(k, []).append(v["value"])
            for k, v in doc["raw"].items():
                raw.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in doc["end_to_end"].items()),
                file=sys.stderr)
        for k, values in norm.items():
            med, iqr, rng = spread(values)
            row = f"| {w} | {k} | {med:.6g} | {iqr:.1%} | {rng:.1%} |"
            if k in TIME_METRICS:
                rmed, riqr, rrng = spread(raw[k])
                row += f" {rmed:.6g} | {riqr:.1%} | {rrng:.1%} |"
            else:
                row += " – | – | – |"
            print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
