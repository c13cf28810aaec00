//! The reproduction harness: re-runs every figure/table of the paper's
//! evaluation and prints paper-vs-measured tables plus shape checks.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--shards N] [--timings] [--label NAME]
//!       [--faults SPEC] [--trace FILE] [--trace-file FILE]
//!       [--explain ID] [--triage SLO_MS] [--stress]
//!       [--diff A.jsonl B.jsonl] [--diff-flip KEY=VALUE]
//!       [--diff-golden] [--bless-golden] [--replay-capture FILE]
//!       [--llm] [--llm-smoke [--report FILE]]
//!       [fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig11 fig12 fig13a fig13b table3 llm]
//! ```
//!
//! Without experiment ids, everything runs. `--quick` uses one repetition
//! (the paper uses five) and shortened heavy traces. Experiments execute on
//! the bounded worker pool (`--jobs N` / `PALDIA_JOBS` override the cap;
//! parallel output is bit-identical to `--jobs 1`). `--shards N` /
//! `PALDIA_SHARDS` set the partition count of the `--stress` fleet
//! (results are invariant across shard counts; shards compose with
//! `--jobs`). `--timings` prints per-figure wall-clock plus the y-search
//! plan-cache hit rate and appends an entry to `BENCH_repro.json` at the
//! root of the workspace containing the working directory (exit 2 when
//! there is none).
//!
//! `--stress` skips the figure sweep and runs the partitioned engine at
//! scale instead: 1000 Paldia tenants at 56 req/s each for 180 simulated
//! seconds (~10.08 M requests on a 1000+-node elastic fleet), reporting
//! wall-clock, engine events/s, and conservation — a workload the serial
//! engine cannot turn around interactively.
//!
//! `--trace FILE` re-runs the primary evaluation setting with the
//! observability sink attached and writes the capture as a
//! chrome://tracing JSON file; `--trace-file FILE` streams the same
//! capture to an append-only JSONL file instead (readable back with
//! `paldia_obs::read_jsonl_file`); `--explain ID` prints the plain-text
//! lifecycle of request ID from the same capture; `--triage SLO_MS`
//! attributes every request's latency from the trace, filters the
//! SLO-missing ones, clusters them by dominant overhead component (cold
//! start / transition / queueing / batching / interference), and prints
//! one exemplar lifecycle per cluster. A `--faults` schedule applies to
//! the capture too. When any of these flags is given without explicit
//! experiment ids, only the capture runs (the 13-experiment sweep is
//! skipped).
//!
//! `--diff A.jsonl B.jsonl` aligns two captured decision logs by monitor
//! tick and scope and prints the first-divergence narrative (exit 0 on an
//! empty diff, 1 on divergence, 2 on usage/IO errors); `--diff-flip
//! KEY=VALUE` runs the primary setting twice in-process — default
//! tunables vs one flipped knob — and diffs the decision streams, naming
//! the responsible tunable delta in the narrative; `--diff-golden` is the
//! CI regression gate (current build must reproduce the committed
//! `tests/golden/decision_log_quick.jsonl` bit for bit); `--bless-golden`
//! regenerates that log after an intentional policy change
//! (`scripts/rebless.sh`). A `--faults` schedule composes with
//! `--diff-flip`.
//!
//! `--replay-capture FILE` records the quick scenario's sampled arrivals
//! in the `# paldia-replay v1` line format, for `paldia-serve --replay`
//! and the serving shell's differential gate (DESIGN.md §14).
//!
//! `--llm` (or the positional id `llm`) runs the iteration-level LLM
//! study: Paldia under continuous batching vs the request-level batcher,
//! plus a continuous-batching-aware fixed baseline, on the token-card
//! workloads under a cold-start storm — the LLM experiment is opt-in and
//! never part of the default sweep. `--llm-smoke` is the CI gate for the
//! same scenario: it runs its three-tenant fleet version at shards 1 and
//! 3, diffs the decision streams in both directions (both must be empty),
//! writes the headline
//! numbers to `target/llm-report.json` (`--report FILE` overrides), and
//! exits 1 on any shard divergence. The LLM golden decision log
//! (`tests/golden/decision_log_llm.jsonl`) and the fleet one
//! (`tests/golden/decision_log_fleet.jsonl`: three tenants, one unit per
//! kind, one node-crash window) are blessed and gated by the same
//! `--bless-golden` / `--diff-golden` flags as the quick log.
//!
//! `--faults SPEC` injects a deterministic fault schedule into every
//! experiment whose cells do not already carry one (Fig. 13b keeps its
//! own). SPEC values:
//!
//! * `fig13b` — the Fig. 13b minute-crash pattern, paper failover rule
//! * `crashes:COUNT:SEED` — COUNT 30-second crashes sampled over the first
//!   10 minutes from SEED (same SEED ⇒ same schedule, bit for bit)

use paldia_cluster::{FailoverPolicyKind, FaultPlan};
use paldia_core::{pool, ysearch};
use paldia_experiments::timings::{append_entry, default_bench_path, FigureTiming, TimingReport};
use paldia_experiments::*;
use paldia_sim::{SimDuration, SimTime};
use std::time::Instant;

/// Short hash of the commit the binary runs from, "unknown" outside git.
fn current_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run the `--stress` scenario and report throughput. Exits non-zero if
/// the run loses requests or the fleet never reaches 1000 node leases.
fn run_stress_report(shards: u32) {
    let spec = stress::StressSpec::full();
    println!(
        "stress — {} tenants × {} req/s × {}s (~{:.2} M requests), {} shard(s), {} job(s)",
        spec.tenants,
        spec.rps,
        spec.secs,
        spec.arrivals() as f64 / 1e6,
        shards,
        pool::max_jobs()
    );
    let t0 = Instant::now();
    let out = stress::run_stress(&spec, shards);
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "  {} arrived, {} completed, {} unserved across {} tenants",
        out.arrived, out.completed, out.unserved, out.tenants
    );
    println!(
        "  {} node leases, {} engine events",
        out.node_leases, out.engine_events
    );
    println!(
        "  {:.1}s wall-clock — {:.2} M events/s, {:.2} M requests/s",
        wall,
        out.engine_events as f64 / wall / 1e6,
        out.arrived as f64 / wall / 1e6
    );
    let conserved = out.completed + out.unserved == out.arrived;
    let at_scale = out.node_leases >= 1000 && out.arrived >= 10_000_000;
    if !conserved || !at_scale {
        eprintln!("stress FAILED: conserved={conserved}, at_scale={at_scale}");
        std::process::exit(1);
    }
    println!("stress OK");
}

/// Parse a `--faults` spec into a plan (see the module docs for values).
fn parse_fault_spec(spec: &str) -> Option<FaultPlan> {
    if spec == "fig13b" {
        return Some(fig13_adverse::fig13b_fault_plan());
    }
    let ["crashes", count, seed] = spec.split(':').collect::<Vec<_>>()[..] else {
        return None;
    };
    let (count, seed) = (count.parse().ok()?, seed.parse().ok()?);
    let (span, crash) = (SimTime::from_secs(600), SimDuration::from_secs(30));
    Some(FaultPlan::sampled_crashes(seed, span, count, crash))
}

/// Run the primary-setting observability capture
/// (`--trace`/`--trace-file`/`--explain`/`--triage`): write the
/// chrome-trace JSON and/or JSONL capture, render request lifecycles, and
/// triage SLO misses from the trace.
fn run_capture(
    quick: bool,
    seed: u64,
    faults: Option<(FaultPlan, FailoverPolicyKind)>,
    trace_out: Option<&str>,
    trace_file: Option<&str>,
    triage_slo: Option<f64>,
    explain: &[u64],
) {
    println!(
        "observability capture — {} primary run (Paldia / Azure / GoogleNet), seed {seed}",
        if quick { "quick" } else { "full" }
    );
    // Everything after the capture (chrome export, explain, triage) reads
    // the event stream back from memory; with `--trace-file` the stream
    // goes to disk first and is re-parsed, so the downstream consumers see
    // exactly what a later session would read from the file.
    let mut dropped = 0u64;
    let (events, result) = if let Some(path) = trace_file {
        let mut sink = match paldia_obs::JsonlSink::create(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("  could not create {path}: {e}");
                std::process::exit(2);
            }
        };
        let result = tracecap::capture_primary_run_with(quick, seed, faults, &mut sink);
        match sink.finish() {
            Ok(lines) => println!("  jsonl trace written to {path} ({lines} events)"),
            Err(e) => {
                eprintln!("  could not write {path}: {e}");
                std::process::exit(2);
            }
        }
        let events = if trace_out.is_some() || triage_slo.is_some() || !explain.is_empty() {
            match paldia_obs::read_jsonl_file(path) {
                Ok(evs) => evs,
                Err(e) => {
                    eprintln!("  could not read back {path}: {e}");
                    std::process::exit(2);
                }
            }
        } else {
            Vec::new()
        };
        (events, result)
    } else {
        let mut sink = paldia_obs::RingSink::new(tracecap::CAPTURE_CAPACITY);
        let result = tracecap::capture_primary_run_with(quick, seed, faults, &mut sink);
        dropped = sink.dropped();
        (sink.into_events(), result)
    };
    if let Some(warning) = tracecap::dropped_warning(dropped) {
        eprintln!("  warning: {warning}");
    }
    // With `--trace-file` and no downstream consumer the stream went
    // straight to disk (already reported above) and was never read back.
    if events.is_empty() && trace_file.is_some() {
        println!("  {} requests served", result.completed.len());
    } else {
        println!(
            "  {} requests served, {} trace events captured{}",
            result.completed.len(),
            events.len(),
            if dropped > 0 {
                format!(" ({dropped} DROPPED — truncated capture)")
            } else {
                String::new()
            }
        );
    }
    if let Some(path) = trace_out {
        let json = paldia_obs::chrome_trace_json(&events);
        match std::fs::write(path, &json) {
            Ok(()) => println!("  chrome trace written to {path} (load via chrome://tracing)"),
            Err(e) => {
                eprintln!("  could not write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(slo) = triage_slo {
        let attribution = paldia_obs::TraceAttribution::from_events(&events);
        let report = paldia_obs::TriageReport::build(&attribution, slo);
        println!("\n{}", paldia_obs::render_triage(&report, &events));
    }
    for &id in explain {
        match paldia_obs::explain_request(&events, id) {
            Some(text) => println!("\n{text}"),
            None => {
                let ids = paldia_obs::completed_request_ids(&events);
                let sample: Vec<String> = ids.iter().take(10).map(|i| i.to_string()).collect();
                eprintln!(
                    "request {id} not in the captured trace ({} completed requests; first ids: {})",
                    ids.len(),
                    sample.join(", ")
                );
            }
        }
    }
    println!("{}", "=".repeat(72));
}

/// `--diff A.jsonl B.jsonl`: align two captured decision logs and exit 0
/// on an empty report, 1 with the first-divergence narrative otherwise.
fn run_file_diff(path_a: &str, path_b: &str) -> ! {
    let read = |path: &str| match paldia_obs::read_jsonl_file(path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("could not read {path}: {e}");
            std::process::exit(2);
        }
    };
    let (ea, eb) = (read(path_a), read(path_b));
    let report = paldia_obs::diff_decision_streams(&ea, &eb);
    print!("{}", paldia_obs::render_diff(&report, path_a, path_b, &[]));
    std::process::exit(if report.is_empty() { 0 } else { 1 });
}

/// `--diff-flip KEY=VALUE`: run the primary setting twice in-process —
/// default tunables vs one flipped — diff the decision streams, and
/// narrate the first divergent decision with the responsible delta.
fn run_diff_flip(
    quick: bool,
    seed: u64,
    faults: Option<(FaultPlan, FailoverPolicyKind)>,
    spec: &str,
) -> ! {
    let Some((key, value)) = spec.split_once('=') else {
        eprintln!(
            "--diff-flip needs KEY=VALUE (known keys: {})",
            diffcap::TUNABLE_KEYS.join(", ")
        );
        std::process::exit(2);
    };
    let mut base = diffcap::DiffRunOpts::quick(seed);
    base.faults = faults;
    if !quick {
        base.capture_secs = 0; // full-day trace
    }
    let mut flipped = base.clone();
    if let Err(e) = diffcap::apply_tunable(&mut flipped.config, key, value) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let deltas = diffcap::tunable_deltas(&base.config, &flipped.config);
    if deltas.is_empty() {
        println!("--diff-flip {spec}: value equals the default; both sides are identical runs");
    }
    println!(
        "decision diff — {} primary run (Paldia / Azure / GoogleNet), seed {seed}: default vs {spec}",
        if quick { "quick" } else { "full" }
    );
    let (report, ra, rb) = diffcap::diff_runs(&base, &flipped);
    print!(
        "{}",
        paldia_obs::render_diff(&report, "default", spec, &deltas)
    );
    println!(
        "  A (default): {} completed, cost ${:.4} | B ({spec}): {} completed, cost ${:.4}",
        ra.completed.len(),
        ra.total_cost(),
        rb.completed.len(),
        rb.total_cost()
    );
    std::process::exit(if report.is_empty() { 0 } else { 1 });
}

/// Run one golden gate (named for the output), printing its diff.
/// Returns whether the committed log reproduced bit for bit.
fn gate_one(
    name: &str,
    path: &std::path::Path,
    gate: impl FnOnce() -> Result<paldia_obs::DiffReport, String>,
) -> bool {
    match gate() {
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
        Ok(report) => {
            print!(
                "{}",
                paldia_obs::render_diff(&report, &path.display().to_string(), "current build", &[])
            );
            if report.is_empty() {
                println!("{name} golden decision-log gate OK");
                true
            } else {
                false
            }
        }
    }
}

/// `--diff-golden`: the CI regression gate — re-run the three golden
/// scenarios (the quick primary setting, the iteration-level LLM storm,
/// and the three-tenant fleet under a node crash) and require
/// bit-identical decision streams vs the committed logs.
fn run_golden_gate() -> ! {
    let quick_ok = gate_one("quick", &diffcap::golden_path(), diffcap::golden_gate);
    let llm_ok = gate_one(
        "llm",
        &llm_iter::llm_golden_path(),
        llm_iter::llm_golden_gate,
    );
    let fleet_ok = gate_one(
        "fleet",
        &diffcap::fleet_golden_path(),
        diffcap::fleet_golden_gate,
    );
    if quick_ok && llm_ok && fleet_ok {
        std::process::exit(0);
    }
    eprintln!(
        "golden decision-log gate FAILED: the scheduler no longer reproduces the \
         committed decision log.\nIf this change is intentional (a policy/tunable \
         change), re-bless with scripts/rebless.sh and review the new log in the diff."
    );
    std::process::exit(1);
}

/// `--llm-smoke`: the iteration-level CI gate — quick fleet LLM storm at
/// shards 1 and 3, decision streams diffed both directions, headline
/// numbers written as JSON. Exits 1 on any shard divergence.
fn run_llm_smoke_cmd(seed: u64, report_path: &str) -> ! {
    println!(
        "llm smoke — iterative storm scenario, seed {seed}, {}s, fleet at shards 1 vs 3",
        llm_iter::LLM_GOLDEN_SECS
    );
    let report = llm_iter::run_llm_smoke(seed);
    println!(
        "  {} completed, {} unserved, {} decision(s)",
        report.completed, report.unserved, report.decisions
    );
    println!(
        "  P99 token latency: {:.2} ms iterative vs {:.2} ms request-level",
        report.p99_token_ms_iterative, report.p99_token_ms_request_level
    );
    if let Some(dir) = std::path::Path::new(report_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(report_path, report.to_json()) {
        Ok(()) => println!("  report written to {report_path}"),
        Err(e) => {
            eprintln!("  could not write {report_path}: {e}");
            std::process::exit(2);
        }
    }
    if report.shard_invariant {
        println!("llm smoke OK: shards 1 and 3 bit-identical, decision diffs empty both ways");
        std::process::exit(0);
    }
    eprintln!("llm smoke FAILED: shard 1 and shard 3 runs diverged");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let timings_on = args.iter().any(|a| a == "--timings");
    // Resolve the bench file before any work, so a run outside a checkout
    // fails in the first second rather than after the figures.
    let bench_path = if timings_on {
        match default_bench_path() {
            Ok(p) => Some(p),
            Err(e) => {
                eprintln!("--timings: {e}");
                std::process::exit(2);
            }
        }
    } else {
        None
    };
    let mut opts = if quick {
        RunOpts::quick()
    } else {
        RunOpts::full()
    };
    let mut label = String::from("repro");
    let mut flag_values = Vec::new();
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        if let Some(s) = args.get(i + 1).and_then(|v| v.parse().ok()) {
            opts.seed_base = s;
            flag_values.push(i + 1);
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--jobs") {
        if let Some(n) = args.get(i + 1).and_then(|v| v.parse().ok()) {
            pool::set_jobs(n);
            flag_values.push(i + 1);
        }
    }
    let mut shards = common::default_shards();
    if let Some(i) = args.iter().position(|a| a == "--shards") {
        match args.get(i + 1).and_then(|v| v.parse::<u32>().ok()) {
            Some(n) if n >= 1 => {
                shards = n;
                flag_values.push(i + 1);
            }
            _ => {
                eprintln!("--shards needs a positive shard count (e.g. --shards 3)");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "--stress") {
        run_stress_report(shards);
        return;
    }
    if let Some(i) = args.iter().position(|a| a == "--faults") {
        // A missing spec is the empty spec: refused like any bad one.
        let spec = args.get(i + 1).map_or("", String::as_str);
        let Some(plan) = parse_fault_spec(spec) else {
            eprintln!("unrecognized --faults spec '{spec}' (use fig13b or crashes:COUNT:SEED)");
            std::process::exit(2);
        };
        opts = opts.with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
        flag_values.push(i + 1);
    }
    // Decision-log diff subcommands: none of them run the experiment
    // sweep, so they exit directly (0 empty diff / 1 divergent / 2 usage
    // or IO error).
    if let Some(i) = args.iter().position(|a| a == "--diff") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("--diff needs two JSONL capture paths (e.g. --diff a.jsonl b.jsonl)");
            std::process::exit(2);
        };
        run_file_diff(a, b);
    }
    if let Some(i) = args.iter().position(|a| a == "--diff-flip") {
        let Some(spec) = args.get(i + 1) else {
            eprintln!(
                "--diff-flip needs KEY=VALUE (known keys: {})",
                diffcap::TUNABLE_KEYS.join(", ")
            );
            std::process::exit(2);
        };
        run_diff_flip(
            quick,
            opts.seed_base,
            opts.faults.clone().map(|plan| (plan, opts.failover)),
            spec,
        );
    }
    if args.iter().any(|a| a == "--diff-golden") {
        run_golden_gate();
    }
    if args.iter().any(|a| a == "--llm-smoke") {
        let report_path = args
            .iter()
            .position(|a| a == "--report")
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| "target/llm-report.json".to_string());
        run_llm_smoke_cmd(opts.seed_base, &report_path);
    }
    // Replay-trace capture for the serving shell (DESIGN.md §14): record
    // the sampled arrivals of the quick scenario so `paldia-serve
    // --replay` and the DES can execute the identical request sequence.
    if let Some(i) = args.iter().position(|a| a == "--replay-capture") {
        let Some(path) = args.get(i + 1) else {
            eprintln!("--replay-capture needs an output path (e.g. --replay-capture trace.txt)");
            std::process::exit(2);
        };
        let trace = replaycap::quick_replay_trace(opts.seed_base);
        match replaycap::write_replay_trace(std::path::Path::new(path), &trace) {
            Ok(n) => {
                println!(
                    "replay trace captured: {n} arrival(s) over {:.1}s -> {path}",
                    trace.duration.as_secs_f64()
                );
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    if args.iter().any(|a| a == "--bless-golden") {
        let path = diffcap::golden_path();
        match diffcap::write_golden(&path) {
            Ok(n) => println!(
                "golden decision log re-blessed: {n} decision(s) -> {}",
                path.display()
            ),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        let llm_path = llm_iter::llm_golden_path();
        match llm_iter::write_llm_golden(&llm_path) {
            Ok(n) => println!(
                "llm golden decision log re-blessed: {n} decision(s) -> {}",
                llm_path.display()
            ),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        let fleet_path = diffcap::fleet_golden_path();
        match diffcap::write_fleet_golden(&fleet_path) {
            Ok(n) => {
                println!(
                    "fleet golden decision log re-blessed: {n} decision(s) -> {}",
                    fleet_path.display()
                );
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--label") {
        if let Some(l) = args.get(i + 1) {
            label = l.clone();
            flag_values.push(i + 1);
        }
    }
    let mut trace_out: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        if let Some(path) = args.get(i + 1) {
            trace_out = Some(path.clone());
            flag_values.push(i + 1);
        }
    }
    let mut trace_file: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--trace-file") {
        if let Some(path) = args.get(i + 1) {
            trace_file = Some(path.clone());
            flag_values.push(i + 1);
        } else {
            eprintln!("--trace-file needs an output path");
            std::process::exit(2);
        }
    }
    let mut triage_slo: Option<f64> = None;
    if let Some(i) = args.iter().position(|a| a == "--triage") {
        match args.get(i + 1).and_then(|v| v.parse::<f64>().ok()) {
            Some(slo) if slo.is_finite() && slo > 0.0 => {
                triage_slo = Some(slo);
                flag_values.push(i + 1);
            }
            _ => {
                eprintln!("--triage needs a positive SLO in milliseconds (e.g. --triage 200)");
                std::process::exit(2);
            }
        }
    }
    let mut explain_ids: Vec<u64> = Vec::new();
    if let Some(i) = args.iter().position(|a| a == "--explain") {
        if let Some(id) = args.get(i + 1).and_then(|v| v.parse().ok()) {
            explain_ids.push(id);
            flag_values.push(i + 1);
        } else {
            eprintln!("--explain needs a numeric request id");
            std::process::exit(2);
        }
    }
    let mut selected: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--") && a.parse::<u64>().is_err() && !flag_values.contains(i)
        })
        .map(|(_, a)| a.as_str())
        .collect();
    // `--llm` is sugar for the positional id: with no other ids it runs
    // the LLM study alone, never silently enlarging the default sweep.
    if args.iter().any(|a| a == "--llm") && !selected.contains(&"llm") {
        selected.push("llm");
    }
    let want = |id: &str| selected.is_empty() || selected.contains(&id);

    if trace_out.is_some()
        || trace_file.is_some()
        || triage_slo.is_some()
        || !explain_ids.is_empty()
    {
        run_capture(
            quick,
            opts.seed_base,
            opts.faults.clone().map(|plan| (plan, opts.failover)),
            trace_out.as_deref(),
            trace_file.as_deref(),
            triage_slo,
            &explain_ids,
        );
        if selected.is_empty() {
            return;
        }
    }

    println!(
        "Paldia reproduction harness — {} mode, {} rep(s), seed base {}, {} job(s), {} shard(s)",
        if quick { "quick" } else { "full" },
        opts.reps,
        opts.seed_base,
        pool::max_jobs(),
        shards
    );
    println!("{}", "=".repeat(72));

    ysearch::reset_cache_counters();

    type Runner = Box<dyn Fn(&RunOpts) -> ExperimentReport>;
    let experiments: Vec<(&str, Runner)> = vec![
        (
            "fig1",
            Box::new(move |o: &RunOpts| {
                fig01_motivation::run_with(o, if quick { 420 } else { 900 })
            }),
        ),
        (
            "fig3",
            Box::new(move |o: &RunOpts| {
                if quick {
                    fig03_slo_vision::run_models(o, &fig03_slo_vision::QUICK_MODELS)
                } else {
                    fig03_slo_vision::run(o)
                }
            }),
        ),
        ("fig4", Box::new(|o: &RunOpts| fig04_breakdown::run(o))),
        ("fig5", Box::new(|o: &RunOpts| fig05_cost::run(o))),
        ("fig6", Box::new(|o: &RunOpts| fig06_cdf::run(o))),
        ("fig7", Box::new(|o: &RunOpts| fig07_goodput_power::run(o))),
        ("fig8", Box::new(|o: &RunOpts| fig08_utilization::run(o))),
        ("fig9", Box::new(|o: &RunOpts| fig09_llm::run(o))),
        ("fig11", Box::new(|o: &RunOpts| fig11_oracle::run(o))),
        ("fig12", Box::new(|o: &RunOpts| fig12_traces::run(o))),
        (
            "fig13a",
            Box::new(|o: &RunOpts| fig13_adverse::run_exhaustion(o, 600)),
        ),
        (
            "fig13b",
            Box::new(|o: &RunOpts| fig13_adverse::run_failures(o)),
        ),
        ("table3", Box::new(|o: &RunOpts| table3_mixed::run(o))),
        ("llm", Box::new(|o: &RunOpts| llm_iter::run(o))),
    ];

    let mut reports = Vec::new();
    let mut figure_times = Vec::new();
    let t0 = Instant::now();

    for (id, run) in &experiments {
        // fig10 shares a module with fig9; llm is opt-in (never part of
        // the default sweep — see `--llm` in the module docs).
        let wanted = if *id == "llm" {
            selected.contains(&"llm")
        } else {
            want(id) || (*id == "fig9" && selected.contains(&"fig10"))
        };
        if !wanted {
            continue;
        }
        let tf = Instant::now();
        reports.push(run(&opts));
        figure_times.push(FigureTiming {
            id: (*id).to_string(),
            secs: tf.elapsed().as_secs_f64(),
        });
    }

    let total_s = t0.elapsed().as_secs_f64();

    let mut holds = 0usize;
    let mut total = 0usize;
    for r in &reports {
        println!("{}", r.render());
        holds += r.checks.iter().filter(|c| c.holds).count();
        total += r.checks.len();
    }

    println!("{}", "=".repeat(72));
    if let Some(path) = bench_path {
        let (cache_hits, cache_misses) = ysearch::cache_counters();
        let report = TimingReport {
            label,
            unix_time: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            mode: if quick { "quick" } else { "full" }.to_string(),
            commit: current_commit(),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            jobs: pool::max_jobs(),
            shards,
            seed: opts.seed_base,
            total_s,
            figures: figure_times,
            cache_hits,
            cache_misses,
        };
        print!("{}", report.render());
        match append_entry(&path, &report) {
            Ok(()) => println!("recorded entry '{}' in {}", report.label, path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        println!("{}", "=".repeat(72));
    }
    println!(
        "{}/{} shape checks hold across {} experiments ({:.1}s total)",
        holds,
        total,
        reports.len(),
        total_s
    );
    if holds < total {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_specs_parse_exactly() {
        let fig13b = fig13_adverse::fig13b_fault_plan();
        assert_eq!(parse_fault_spec("fig13b"), Some(fig13b));
        let (span, crash) = (SimTime::from_secs(600), SimDuration::from_secs(30));
        let sampled = FaultPlan::sampled_crashes(7, span, 3, crash);
        assert_eq!(parse_fault_spec("crashes:3:7"), Some(sampled));
        for bad in [
            "crashes:3:7:junk",
            "crashes:3",
            "crashes:x:7",
            "crashes:3:x",
            "",
        ] {
            assert_eq!(parse_fault_spec(bad), None, "{bad:?} must be refused");
        }
    }
}
