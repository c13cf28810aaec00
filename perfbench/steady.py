#!/usr/bin/env python3
"""Steadiness check: run two interleaved sets of the same commit and compare.

    python3 perfbench/steady.py [--seconds S]

For each seed 1-10, runs every workload in BENCHMARK.json once per set
(set 1, then set 2), untraced, through run.py, for S seconds each (default
run_seconds). Then, per workload and set, reports the median and quartiles
of every end-to-end metric over the seeds and the spread
(q3 - q1) / median, and compares set 2's median with set 1's against the
metric's bound in BENCHMARK.json.

A workload passes when every spread is within its bound and set 2's median
is not worse than set 1's by more than the bound. The target is a spread
under a third of the bound; a spread above it is flagged. Results also go
to perfbench/out/steady.json. Exit status 1 if anything fails or a run is
incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)
SETS = 2


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    record = None
    if len(lines) >= 2 and lines[-2].startswith('{"run_record"'):
        record = json.loads(lines[-2])["run_record"]
    return p.returncode, result, record


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    d = (later - first) / abs(first)
    return d if metric["better"] == "lower" else -d


def main():
    bench = load_bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    # values[workload][set][metric] -> list over seeds
    values = {w: [{m["name"]: [] for m in metrics} for _ in range(SETS)]
              for w in workloads}
    steal = {w: [] for w in workloads}
    ok = True
    for seed in SEEDS:
        for k in range(SETS):
            for w in workloads:
                code, res, rec = run(w, seed, a.seconds)
                good = (code == 0 and res is not None and res["correct"]
                        and res["failed"] == 0)
                ok &= good
                if res is None:
                    print(f"{w} seed {seed} set {k + 1}: no result (exit {code})")
                    continue
                for m in metrics:
                    values[w][k][m["name"]].append(res["metrics"][m["name"]]["value"])
                if rec:
                    steal[w].append(rec["host_steal_s"])
                print(f"{w} seed {seed} set {k + 1}: "
                      + ("ok" if good else f"FAILED (exit {code})") + " "
                      + " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                                 for m in metrics), flush=True)

    report = {}
    print()
    for w in workloads:
        print(f"== {w} (host steal per run: median "
              f"{statistics.median(steal[w]) if steal[w] else 0:.2f}s, "
              f"max {max(steal[w], default=0):.2f}s)")
        print(f"  {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'worse':>8}")
        report[w] = {}
        for m in metrics:
            name, bound = m["name"], m["bound"]
            rows = []
            first_median = None
            for k in range(SETS):
                v = values[w][k][name]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                worse = 0.0 if first_median is None else worse_by(m, first_median, med)
                if first_median is None:
                    first_median = med
                flag = ""
                if spread > bound:
                    flag, ok = "SPREAD>BOUND", False
                elif spread > bound / 3:
                    flag = "spread>bound/3"
                if worse > bound:
                    flag, ok = flag + " WORSE>BOUND", False
                rows.append({"set": k + 1, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "worse_than_first": worse})
                print(f"  {name:<12} {k + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6} {worse:>+8.4f} {flag}")
            report[w][name] = rows
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "steady.json"), "w") as f:
        json.dump({"seeds": list(SEEDS), "sets": SETS,
                   "seconds": a.seconds, "ok": ok, "workloads": report}, f, indent=1)
    print("\nsteady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
