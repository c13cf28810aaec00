#!/usr/bin/env bash
# Re-bless the golden decision logs after an *intentional* scheduler policy
# or tunable change:
#
#   scripts/rebless.sh
#
# Regenerates the committed log of every row of the golden registry
# (experiments::diffcap::GOLDENS, one file under tests/golden/ per row)
# from the current build, then re-runs the gate to confirm every new log
# is reproducible. Review the resulting file diffs like code: every changed
# line is a scheduling decision your change altered, and
# `repro --diff <old> <new>` narrates the first one.
#
# Do NOT re-bless to silence a failure you cannot explain — an unexplained
# golden-gate failure is the differ catching a real behavioural regression.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> repro --bless-golden"
cargo run --release -q -p paldia-experiments --bin repro -- --bless-golden

echo "==> repro --diff-golden (verifying the new logs reproduce)"
cargo run --release -q -p paldia-experiments --bin repro -- --diff-golden

echo "==> re-blessed; review the diffs under tests/golden/ like code"
