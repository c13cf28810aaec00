#!/usr/bin/env bash
# The full CI gate, runnable locally:
#
#   scripts/ci.sh            # lints + formatting + tier-1 suite
#
# Stages, in fail-fast order (cheapest first):
#   1. cargo fmt --check      — the tree is formatted; run `cargo fmt` to fix
#   2. cargo clippy           — zero warnings across every target (-D warnings)
#   3. paldia-lint            — token rules (d1/d2/d3/r1/r2) plus the
#      boundary-graph passes: crate classification coverage, b1 dependency
#      edges, b2 re-export leaks, call-graph reachability narratives, u1
#      (pub items no non-test code calls), and the stale-hatch audit.
#      Emits target/lint-report.json for CI tooling.
#   4. cargo doc --no-deps    — rustdoc builds warning-free (missing docs, bad links)
#   5. cargo doc (core/obs/serve) — the documented-API crates additionally
#      build under -D missing_docs: every public item has rustdoc
#   6. cargo build --release  — the tier-1 build
#   7. perfbench build        — the benchmark harness is its own workspace,
#      so no other stage compiles it; building it here catches a signature
#      change to anything it calls by name (separate target dir, as
#      perfbench/run.py uses)
#   8. cargo test -q          — root integration tests (tier-1 gate)
#   9. repro --diff-golden    — the current build must reproduce the
#      committed decision log of every golden registry row
#      (diffcap::GOLDENS) bit for bit (re-bless intentional policy changes
#      with scripts/rebless.sh)
#  10. trace export           — a capture-only repro run writes the chrome
#      trace and the JSONL log, reads the log back, attributes it and
#      triages it at a 200 ms SLO; the chrome file must load as JSON and the
#      JSONL log must diff empty against itself. A second run at --jobs 1
#      must write the same log byte for byte and print the same triage, so
#      the reader's chunked decode on the worker pool does not show
#  11. repro --llm-smoke      — the iteration-level LLM storm fleet at
#      shards 1 and 3, decision streams diffed empty in both directions
#      (target/llm-report.json)
#  12. serve-smoke            — the wall-clock serving shell replays the quick
#      capture over loopback TCP and must diff divergence-free against the
#      virtual-clock session in both directions, at 20x (the server flushes
#      before pacing sleeps; target/serve-report.json) and at 1e6x (it
#      flushes when its input runs dry; target/serve-report-1e6.json); then
#      a `paldia-serve --listen --decisions` server takes one live session
#      over bash /dev/tcp (two `inv` lines) and must answer ready, acc,
#      done, summary and bye without an err, then close its side: the
#      client reads to EOF and fails on any 5 s wait for a line. The
#      decision log it streamed (target/ci.listen.jsonl) must self-diff
#      empty
#  13. hostile inputs        — paldia-serve --replay must refuse replay files
#      it would overflow on or silently drop (a `duration_us` or `reserve`
#      of u64::MAX, an arrival past the horizon, trailing junk), and
#      `repro --quik` / `paldia-serve --smoke --sped 5` must refuse the
#      misspelled flag before any work: each run exits non-zero, names what
#      it refused and never panics (files under target/hostile-*.replay)
#  14. ysearch latency       — the full Table II y-search (Eq. 1 over every
#      candidate kind) must average under the paper's 3 ms budget (§III) in
#      every case of `cargo bench -p paldia-core --bench ysearch_latency`
#  15. cargo test --workspace — every crate's unit/property/integration tests
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> paldia-lint --deny-all (token + boundary passes + u1 unused surface)"
mkdir -p target
cargo run -q -p paldia-lint -- --deny-all --json-artifact target/lint-report.json

echo "==> cargo doc --no-deps --workspace (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "==> cargo doc -p core/obs/serve (RUSTDOCFLAGS=-D warnings -D missing_docs)"
RUSTDOCFLAGS="-D warnings -D missing_docs" \
    cargo doc -q --no-deps -p paldia-core -p paldia-obs -p paldia-serve

echo "==> cargo build --release"
cargo build --release

echo "==> perfbench build (its own workspace, separate target dir)"
CARGO_TARGET_DIR=target/perfbench \
    cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> repro --diff-golden (decision-log regression gate, every golden registry row)"
cargo run --release -q -p paldia-experiments --bin repro -- --diff-golden

echo "==> trace export (chrome JSON parses, JSONL log triages, self-diffs empty, reads the same at --jobs 1)"
# --trace/--trace-file with no figure ids runs the capture only; with
# --trace-file, --triage reads the log back before attributing it.
cargo run --release -q -p paldia-experiments --bin repro -- \
    --trace target/ci.trace.json --trace-file target/ci.trace.jsonl --triage 200 \
    | tee target/ci.triage.txt
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' target/ci.trace.json
cargo run --release -q -p paldia-experiments --bin repro -- \
    --diff target/ci.trace.jsonl target/ci.trace.jsonl
# Width invariance on a real log: the capture (~15 MB, 93k lines) decodes
# in chunks on the pool by default and on one thread at --jobs 1. The
# outputs differ only in the lines naming the files written.
cargo run --release -q -p paldia-experiments --bin repro -- \
    --jobs 1 --trace-file target/ci.trace.j1.jsonl --triage 200 > target/ci.triage.j1.txt
cmp target/ci.trace.jsonl target/ci.trace.j1.jsonl
diff <(grep -v ' written to ' target/ci.triage.txt) \
    <(grep -v ' written to ' target/ci.triage.j1.txt)

echo "==> repro --llm-smoke (iteration-level shard-invariance gate)"
# Runs the quick LLM storm fleet at shards 1 and 3 and requires the
# decision streams to diff empty in both directions. Publishes
# target/llm-report.json.
cargo run --release -q -p paldia-experiments --bin repro -- --llm-smoke \
    --report target/llm-report.json

echo "==> serve-smoke (wall-clock shell vs DES differential, DESIGN.md §14)"
# Replays 200 requests of the quick capture through paldia-serve on a
# loopback ephemeral port at 20x, and through the virtual-clock session;
# exits non-zero unless the decision streams diff clean in both
# directions. Publishes target/serve-report.json.
cargo run --release -q -p paldia-serve -- --smoke \
    --requests 200 --speed 20 --report target/serve-report.json
# The same gate at 1e6x, where pacing never sleeps: mid-session, replies
# reach the client only in full buffers and through the flush before a
# wait on an empty input channel.
cargo run --release -q -p paldia-serve -- --smoke \
    --requests 200 --speed 1e6 --report target/serve-report-1e6.json
# Live mode over bash /dev/tcp. The listener streams the session's
# decision log to target/ci.listen.jsonl and prints a `decisions:` line
# once the file is complete; the server is killed on every path.
cargo build --release -q -p paldia-serve
listen_out=target/ci.listen.out
rm -f target/ci.listen.jsonl target/ci.listen.jsonl.stamps.jsonl
target/release/paldia-serve --listen --port 0 --speed 20 \
    --decisions target/ci.listen.jsonl > "$listen_out" 2>&1 &
listen_pid=$!
trap 'kill "$listen_pid" 2>/dev/null || true' EXIT
# Poll `$listen_out` for up to 10 s until `pattern` matches.
await_listen() {
    for _ in $(seq 100); do
        grep -q "$1" "$listen_out" && return 0
        sleep 0.1
    done
    printf '%s\npaldia-serve --listen: no line matching %s\n' "$(cat "$listen_out")" "$1"
    return 1
}
await_listen '^listening on '
port=$(sed -n '1s/^listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$listen_out")
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'hello live 30 googlenet\ninv googlenet\ninv googlenet\nend\n' >&3
# Read to EOF: a server that keeps the connection open after `bye` makes
# `read` time out (status > 128) instead of reaching EOF (status 1).
replies=""
while true; do
    IFS= read -r -t 5 line <&3 && { replies+="$line"$'\n'; continue; }
    read_status=$?
    break
done
exec 3<&-
if [ "$read_status" -gt 128 ]; then
    printf '%s--listen: no EOF within 5 s of the last reply\n' "$replies"
    exit 1
fi
for kind in ready acc done summary bye; do
    if ! grep -q "^$kind\b" <<<"$replies"; then
        printf '%s--listen: no %s reply\n' "$replies" "$kind"
        exit 1
    fi
done
if grep -q '^err' <<<"$replies"; then
    printf '%s--listen: err reply\n' "$replies"
    exit 1
fi
await_listen '^decisions: '
cargo run --release -q -p paldia-experiments --bin repro -- \
    --diff target/ci.listen.jsonl target/ci.listen.jsonl
kill "$listen_pid"
wait "$listen_pid" 2>/dev/null || true
trap - EXIT

echo "==> hostile inputs (replay files and misspelled flags are refused without panicking)"
# One GoogleNet arrival on g3s.xlarge; the arguments fill in duration_us,
# reserve and the arrival's at_us.
hostile_replay() {
    printf '# paldia-replay v1\nseed 1\nduration_us %s\nreserve %s\n' "$1" "$2"
    printf 'initial_hw g3s.xlarge\nmodel googlenet\narrival 0 1 %s googlenet\nend\n' "$3"
}
hostile_replay 18446744073709551615 1 1000 > target/hostile-duration.replay
hostile_replay 1000000 18446744073709551615 1000 > target/hostile-reserve.replay
hostile_replay 1000000 1 900000000 > target/hostile-late-arrival.replay
hostile_replay 1000000 1 1000 | sed 's/^seed 1$/seed 1 junk/' > target/hostile-junk.replay
for f in target/hostile-{duration,reserve,late-arrival,junk}.replay; do
    if out=$(cargo run --release -q -p paldia-serve -- --replay "$f" --speed 1e6 2>&1); then
        printf '%s\n%s: exit 0, but the file must be refused\n' "$out" "$f"
        exit 1
    fi
    if grep -q panicked <<<"$out"; then
        printf '%s\n%s: panicked\n' "$out" "$f"
        exit 1
    fi
    echo "$f: refused ($(tail -n 1 <<<"$out"))"
done
# A misspelled flag is refused by name before any work: the refusal is the
# whole output, so no run (and no banner) started.
for cmd in "repro --quik" "paldia-serve --smoke --sped 5"; do
    read -r bin flags <<<"$cmd"
    pkg=paldia-experiments
    [ "$bin" = paldia-serve ] && pkg=paldia-serve
    # $flags is word-split on purpose.
    if out=$(cargo run --release -q -p "$pkg" --bin "$bin" -- $flags 2>&1); then
        printf '%s\n%s: exit 0, but the flag must be refused\n' "$out" "$cmd"
        exit 1
    fi
    if grep -q panicked <<<"$out" || [ "$(wc -l <<<"$out")" -ne 1 ] \
        || ! grep -q "unknown flag --" <<<"$out"; then
        printf '%s\n%s: not refused up front by name\n' "$out" "$cmd"
        exit 1
    fi
    echo "$cmd: refused ($out)"
done

echo "==> ysearch latency (every case's mean < 3 ms, the paper's §III budget)"
cargo bench -q -p paldia-core --bench ysearch_latency | tee target/ysearch-latency.txt
# Shim output: "<id> mean <value> <unit> min <value> <unit> (<n> samples)".
awk '
    /no samples recorded/ { print "no samples: " $1; bad++; next }
    $2 == "mean" {
        scale["ns"] = 1e-6; scale["us"] = 1e-3; scale["ms"] = 1; scale["s"] = 1e3
        if (!($4 in scale)) { print "unparsed unit: " $0; bad++; next }
        ms = $3 * scale[$4]; n++
        if (ms >= 3) { printf "%s: mean %.3f ms >= 3 ms\n", $1, ms; bad++ }
    }
    END {
        if (n == 0) { print "no ysearch_latency cases ran"; exit 1 }
        if (bad > 0) exit 1
        printf "%d case(s) under 3 ms\n", n
    }
' target/ysearch-latency.txt

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> ci green"
