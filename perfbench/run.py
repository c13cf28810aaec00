#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Builds `paldia-serve` (the repository's workspace) and the `perfbench`
binary (its own workspace under perfbench/) into $CARGO_TARGET_DIR, default
`.bench_build` at the repository root, then runs the binary. Build output
goes to stderr; the binary's last stdout line is the result object. With
--all, every workload runs in turn and each result line is printed.

Exit status: the benchmark's (1 if an output check failed), or 1 if the
build fails or the program is not there to build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-twitter", "fleet-stress", "llm-triage", "serve-replay"]
# A run measures for --seconds; this bounds everything else it does.
RUN_TIMEOUT_S = 175


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "paldia-serve", "--bin", "paldia-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def commit():
    """The git commit, or "unknown" unless ROOT is a git checkout's top."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.splitlines()
    if (out.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def rustc_version():
    try:
        return subprocess.run(["rustc", "--version"], capture_output=True,
                               text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def run_one(workload, seed, seconds, trace, facts):
    tgt = target_dir()
    cmd = [
        os.path.join(tgt, "release", "perfbench"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--serve-bin", os.path.join(tgt, "release", "paldia-serve"),
        "--out", os.path.join(HERE, "out"),
        "--commit", facts[0], "--rustc", facts[1],
    ]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S}s",
              file=sys.stderr)
        return 1
    sys.stdout.write(p.stdout)
    sys.stdout.flush()
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if not a.all and not a.workload:
        ap.error("give --workload or --all")
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    facts = (commit(), rustc_version())
    status = 0
    for w in WORKLOADS if a.all else [a.workload]:
        status = max(status, run_one(w, a.seed, a.seconds, a.trace, facts))
    return status


if __name__ == "__main__":
    sys.exit(main())
