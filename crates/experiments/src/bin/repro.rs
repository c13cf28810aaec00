//! The reproduction harness: re-runs every figure/table of the paper's
//! evaluation and prints paper-vs-measured tables plus shape checks.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--shards N] [--timings] [--label NAME]
//!       [--faults SPEC] [--trace FILE] [--trace-file FILE]
//!       [--explain ID] [--triage SLO_MS] [--stress]
//!       [--diff A.jsonl B.jsonl] [--diff-flip KEY=VALUE]
//!       [--diff-golden] [--bless-golden]
//!       [--llm] [--llm-smoke [--report FILE]]
//!       [fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig11 fig12 fig13a fig13b table3 llm]
//!       [ablations | ablation-escalation ablation-hysteresis ablation-headroom
//!        ablation-predictor ablation-batch-window ablation-slo
//!        ablation-host-aware ext-fleet]
//! ```
//!
//! Without experiment ids, every figure and table runs. `--quick` uses one
//! repetition (the paper uses five) and shortened heavy traces. Experiments
//! execute on the bounded worker pool (`--jobs N` / `PALDIA_JOBS` override
//! the cap; parallel output is bit-identical to `--jobs 1`). `--shards N`
//! sets how many parallel jobs step the `--stress` fleet's per-tenant
//! partitions (1 when absent; results and the engine event count are
//! invariant across shard counts; shards compose with `--jobs`, which
//! caps how many of those jobs run at once). `--timings` prints
//! per-experiment wall-clock plus the y-search plan-cache hit rate and
//! appends an entry to `BENCH_repro.json` at the root of the workspace
//! containing the working directory (exit 2 when there is none).
//!
//! The ablation and sensitivity studies are opt-in rows: each runs when
//! named by its report id, and the alias `ablations` selects all eight
//! (the seven `ablation-*` design-choice studies and the `ext-fleet`
//! multi-tenant extension). They read only the seed base, so `--quick`
//! does not change them.
//!
//! `--stress` skips the figure sweep and runs the partitioned engine at
//! scale instead: 1000 Paldia tenants at 56 req/s each for 180 simulated
//! seconds (~10.08 M requests on a 1000+-node elastic fleet), reporting
//! wall-clock, engine events/s, and conservation — a workload the serial
//! engine cannot turn around interactively. With `--timings` it appends a
//! `"mode": "stress"` entry (wall seconds, engine events and events/s) to
//! `BENCH_repro.json`.
//!
//! `--trace FILE` re-runs the primary evaluation setting
//! ([`diffcap::PrimaryScenario`]: the quick 120 s slice with `--quick`, the
//! full-day trace without) with the observability sink attached and writes the capture as a
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
//! CI regression gate: it re-runs every row of the golden registry
//! (`diffcap::GOLDENS`), requires each committed `tests/golden/` log to
//! reproduce bit for bit, and names every row that diverged;
//! `--bless-golden` regenerates every row's log after an intentional
//! policy change (`scripts/rebless.sh`). A `--faults` schedule composes
//! with `--diff-flip`.
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
//! exits 1 on any shard divergence.
//!
//! An argument `repro` cannot use exits 2 before anything runs, naming it:
//! an unknown experiment id (a bare number included), an unknown or
//! repeated flag, or a value flag whose value is missing, starts with
//! `--`, or does not parse. Every flag is listed once, in [`FLAGS`].
//! (The replay file of the serving shell is written by
//! `paldia-serve --capture`.)
//!
//! `--faults SPEC` injects a deterministic fault schedule into every
//! experiment whose cells do not already carry one (Fig. 13b and the LLM
//! study keep their own). The ablation rows build their own
//! configurations, which no schedule reaches, so `--faults` together with
//! any of them exits 2 before anything runs, naming them. SPEC values:
//!
//! * `fig13b` — the Fig. 13b minute-crash pattern, paper failover rule
//! * `crashes:COUNT:SEED` — COUNT 30-second crashes sampled over the first
//!   10 minutes from SEED (same SEED ⇒ same schedule, bit for bit)

use paldia_cluster::{FailoverPolicyKind, FaultPlan};
use paldia_core::{pool, ysearch};
use paldia_experiments::cli::{emit, Cli, Flag};
use paldia_experiments::diffcap::PrimaryScenario;
use paldia_experiments::timings::{append_entry, default_bench_path, FigureTiming, TimingReport};
use paldia_experiments::*;
use paldia_sim::{SimDuration, SimTime};
use std::num::NonZeroU32;
use std::path::Path;
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

/// A `BENCH_repro.json` entry for a run that took `total_s`: the host,
/// pool, commit and plan-cache facts filled in, figures left empty.
fn bench_entry(label: &str, mode: &str, shards: u32, seed: u64, total_s: f64) -> TimingReport {
    let (cache_hits, cache_misses) = ysearch::cache_counters();
    TimingReport {
        label: label.to_string(),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        mode: mode.to_string(),
        commit: current_commit(),
        nproc: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        jobs: pool::max_jobs(),
        shards,
        seed,
        total_s,
        figures: Vec::new(),
        cache_hits,
        cache_misses,
        engine_events: None,
    }
}

/// Append `report` to the bench file at `path` and say so.
fn record_entry(path: &Path, report: &TimingReport) {
    match append_entry(path, report) {
        Ok(()) => outln!("recorded entry '{}' in {}", report.label, path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Run the `--stress` scenario and report throughput; with `bench`
/// (`--timings`), append a `stress` entry under `label` to that file.
/// Exits non-zero if the run loses requests or the fleet never reaches
/// 1000 node leases.
fn run_stress_report(shards: u32, bench: Option<&Path>, label: &str) {
    let spec = stress::StressSpec::full();
    outln!(
        "stress — {} tenants × {} req/s × {}s (~{:.2} M requests), {} shard(s), {} job(s)",
        spec.tenants,
        spec.rps,
        spec.secs,
        spec.arrivals() as f64 / 1e6,
        shards,
        pool::max_jobs()
    );
    ysearch::reset_cache_counters();
    let t0 = Instant::now();
    let out = stress::run_stress(&spec, shards);
    let wall = t0.elapsed().as_secs_f64();
    outln!(
        "  {} arrived, {} completed, {} unserved across {} tenants",
        out.arrived,
        out.completed,
        out.unserved,
        out.tenants
    );
    outln!(
        "  {} node leases, {} engine events",
        out.node_leases,
        out.engine_events
    );
    outln!(
        "  {:.1}s wall-clock — {:.2} M events/s, {:.2} M requests/s",
        wall,
        out.engine_events as f64 / wall / 1e6,
        out.arrived as f64 / wall / 1e6
    );
    let conserved = out.completed + out.unserved == out.arrived;
    let at_scale = out.node_leases >= 1000 && out.arrived >= 10_000_000;
    if let Some(path) = bench {
        let report = TimingReport {
            engine_events: Some(out.engine_events),
            ..bench_entry(label, "stress", shards, spec.seed, wall)
        };
        record_entry(path, &report);
    }
    if !conserved || !at_scale {
        eprintln!("stress FAILED: conserved={conserved}, at_scale={at_scale}");
        std::process::exit(1);
    }
    outln!("stress OK");
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

/// Ring capacity for captured runs. A full-day Azure run of the primary
/// setting emits a few events per request; 4 M slots hold the whole run
/// without eviction while bounding memory to a few hundred MB worst case.
const CAPTURE_CAPACITY: usize = 4_000_000;

/// Human-readable warning when a bounded capture evicted events, or `None`
/// when the ring held the whole run. A silently truncated log poisons
/// every downstream consumer — attribution under-counts, and a decision
/// diff against it reports bogus structural desync — so the capture
/// surfaces this on stderr and in its summary.
fn dropped_warning(dropped: u64) -> Option<String> {
    if dropped == 0 {
        return None;
    }
    Some(format!(
        "trace capture dropped {dropped} event(s) (ring capacity {CAPTURE_CAPACITY}); \
         the log is truncated and diffs/attribution over it are unreliable"
    ))
}

/// The primary scenario `--trace`, `--explain`, `--triage` and
/// `--diff-flip` run: the quick slice with `--quick`, else the full day,
/// under the `--faults` schedule if any.
fn primary_scenario(quick: bool, opts: &RunOpts) -> PrimaryScenario {
    let mut scenario = PrimaryScenario {
        faults: opts.faults.clone().map(|plan| (plan, opts.failover)),
        ..PrimaryScenario::quick(opts.seed_base)
    };
    if !quick {
        scenario.capture_secs = 0; // the full-day trace
    }
    scenario
}

/// Run the primary-setting observability capture
/// (`--trace`/`--trace-file`/`--explain`/`--triage`): write the
/// chrome-trace JSON and/or JSONL capture, render request lifecycles, and
/// triage SLO misses from the trace. `mode` ("quick"/"full") labels the
/// banner.
fn run_capture(
    mode: &str,
    scenario: &PrimaryScenario,
    trace_out: Option<&str>,
    trace_file: Option<&str>,
    triage_slo: Option<f64>,
    explain: &[u64],
) {
    outln!(
        "observability capture — {mode} primary run (Paldia / Azure / GoogleNet), seed {}",
        scenario.seed
    );
    let mut sched = scenario.scheduler();
    // Everything after the capture (chrome export, explain, triage) reads
    // the event stream back from memory; with `--trace-file` the stream
    // goes to disk first and is re-parsed, so the downstream consumers see
    // exactly what a later session would read from the file.
    let mut dropped = 0u64;
    let (events, result) = if let Some(path) = trace_file {
        let sink = paldia_obs::JsonlSink::create(path);
        let mut sink = or_exit(sink.map_err(|e| format!("  could not create {path}: {e}")));
        let result = scenario.record(&mut sched, &mut sink);
        let lines = or_exit(
            sink.finish()
                .map_err(|e| format!("  could not write {path}: {e}")),
        );
        outln!("  jsonl trace written to {path} ({lines} events)");
        let events = if trace_out.is_some() || triage_slo.is_some() || !explain.is_empty() {
            let events = paldia_obs::read_jsonl_file(path);
            or_exit(events.map_err(|e| format!("  could not read back {path}: {e}")))
        } else {
            Vec::new()
        };
        (events, result)
    } else {
        let mut sink = paldia_obs::RingSink::new(CAPTURE_CAPACITY);
        let result = scenario.record(&mut sched, &mut sink);
        dropped = sink.dropped();
        (sink.into_events(), result)
    };
    if let Some(warning) = dropped_warning(dropped) {
        eprintln!("  warning: {warning}");
    }
    // With `--trace-file` and no downstream consumer the stream went
    // straight to disk (already reported above) and was never read back.
    if events.is_empty() && trace_file.is_some() {
        outln!("  {} requests served", result.completed.len());
    } else {
        outln!(
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
        let written = std::fs::write(path, paldia_obs::chrome_trace_json(&events));
        or_exit(written.map_err(|e| format!("  could not write {path}: {e}")));
        outln!("  chrome trace written to {path} (load via chrome://tracing)");
    }
    if let Some(slo) = triage_slo {
        let attribution = paldia_obs::TraceAttribution::from_events(&events);
        let report = paldia_obs::TriageReport::build(&attribution, slo);
        outln!("\n{}", paldia_obs::render_triage(&report, &events));
    }
    for &id in explain {
        match paldia_obs::explain_request(&events, id) {
            Some(text) => outln!("\n{text}"),
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
    outln!("{}", "=".repeat(72));
}

/// `--diff A.jsonl B.jsonl`: align two captured decision logs and exit 0
/// on an empty report, 1 with the first-divergence narrative otherwise.
fn run_file_diff(path_a: &str, path_b: &str) -> ! {
    let read = |path: &str| {
        let events = paldia_obs::read_jsonl_file(path);
        or_exit(events.map_err(|e| format!("could not read {path}: {e}")))
    };
    let (ea, eb) = (read(path_a), read(path_b));
    let report = paldia_obs::diff_decision_streams(&ea, &eb);
    emit(&paldia_obs::render_diff(&report, path_a, path_b, &[]));
    std::process::exit(if report.is_empty() { 0 } else { 1 });
}

/// `--diff-flip KEY=VALUE`: run the primary setting twice in-process —
/// default tunables vs one flipped — diff the decision streams, and
/// narrate the first divergent decision with the responsible delta.
fn run_diff_flip(mode: &str, base: PrimaryScenario, spec: &str) -> ! {
    let keys = diffcap::tunable_keys();
    let kv = spec.split_once('=');
    let (key, value) =
        or_exit(kv.ok_or(format!("--diff-flip needs KEY=VALUE (known keys: {keys})")));
    let mut flipped = base.clone();
    or_exit(diffcap::apply_tunable(&mut flipped.config, key, value));
    let deltas = diffcap::tunable_deltas(&base.config, &flipped.config);
    if deltas.is_empty() {
        outln!("--diff-flip {spec}: value equals the default; both sides are identical runs");
    }
    outln!(
        "decision diff — {mode} primary run (Paldia / Azure / GoogleNet), seed {}: default vs {spec}",
        base.seed
    );
    let (report, ra, rb) = diffcap::diff_runs(&base, &flipped);
    emit(&paldia_obs::render_diff(&report, "default", spec, &deltas));
    outln!(
        "  A (default): {} completed, cost ${:.4} | B ({spec}): {} completed, cost ${:.4}",
        ra.completed.len(),
        ra.total_cost(),
        rb.completed.len(),
        rb.total_cost()
    );
    std::process::exit(if report.is_empty() { 0 } else { 1 });
}

/// `--diff-golden`: the CI regression gate — re-run every golden scenario
/// and require bit-identical decision streams vs the committed logs. Every
/// row is gated before the exit: 0 when all reproduce, 1 naming the rows
/// that diverged, 2 when a log is missing or unreadable.
fn gate_goldens() -> ! {
    let (mut diverged, mut unreadable) = (Vec::new(), false);
    for golden in diffcap::GOLDENS {
        match golden.gate() {
            Err(e) => {
                eprintln!("{e}");
                unreadable = true;
            }
            Ok(report) => {
                let committed = golden.path().display().to_string();
                emit(&paldia_obs::render_diff(
                    &report,
                    &committed,
                    "current build",
                    &[],
                ));
                if report.is_empty() {
                    outln!("{} golden decision-log gate OK", golden.name);
                } else {
                    diverged.push(golden.name);
                }
            }
        }
    }
    if unreadable {
        std::process::exit(2);
    }
    if diverged.is_empty() {
        std::process::exit(0);
    }
    eprintln!(
        "golden decision-log gate FAILED: the scheduler no longer reproduces the \
         committed decision log of row(s) {}.\nIf this change is intentional (a \
         policy/tunable change), re-bless with scripts/rebless.sh and review the new \
         logs in the diff.",
        diverged.join(", ")
    );
    std::process::exit(1);
}

/// `--bless-golden`: regenerate every golden row's committed log.
fn bless_goldens() {
    for golden in diffcap::GOLDENS {
        let n = or_exit(golden.bless());
        outln!(
            "{} golden decision log re-blessed: {n} decision(s) -> {}",
            golden.name,
            golden.path().display()
        );
    }
}

/// `--llm-smoke`: the iteration-level CI gate — quick fleet LLM storm at
/// shards 1 and 3, decision streams diffed both directions, headline
/// numbers written as JSON. Exits 1 on any shard divergence.
fn run_llm_smoke_cmd(seed: u64, report_path: &str) -> ! {
    outln!(
        "llm smoke — iterative storm scenario, seed {seed}, {}s, fleet at shards 1 vs 3",
        diffcap::GOLDEN_SECS
    );
    let report = llm_iter::run_llm_smoke(seed);
    outln!(
        "  {} completed, {} unserved, {} decision(s)",
        report.completed,
        report.unserved,
        report.decisions
    );
    outln!(
        "  P99 token latency: {:.2} ms iterative vs {:.2} ms request-level",
        report.p99_token_ms_iterative,
        report.p99_token_ms_request_level
    );
    if let Some(dir) = std::path::Path::new(report_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let written = std::fs::write(report_path, report.to_json());
    or_exit(written.map_err(|e| format!("  could not write {report_path}: {e}")));
    outln!("  report written to {report_path}");
    if report.shard_invariant {
        outln!("llm smoke OK: shards 1 and 3 bit-identical, decision diffs empty both ways");
        std::process::exit(0);
    }
    eprintln!("llm smoke FAILED: shard 1 and shard 3 runs diverged");
    std::process::exit(1);
}

/// One experiment: its positional id and its runner.
type Experiment = (&'static str, Box<dyn Fn(&RunOpts) -> ExperimentReport>);

/// The rows the positional alias `ablations` selects: the design-choice
/// ablations and the multi-tenant extension study, named by the report ids
/// they print. They read only the seed base, so quick and full mode print
/// the same reports.
const ABLATIONS: [&str; 8] = [
    "ablation-escalation",
    "ablation-hysteresis",
    "ablation-headroom",
    "ablation-predictor",
    "ablation-batch-window",
    "ablation-slo",
    "ablation-host-aware",
    "ext-fleet",
];

/// Every experiment `repro` can run, in sweep order. `llm` and the
/// [`ABLATIONS`] rows are opt-in: they run only when named (see
/// [`selects`]). The id `fig10` selects `fig9`, which shares its module.
fn experiments(quick: bool) -> Vec<Experiment> {
    vec![
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
        ("ablation-escalation", Box::new(ablations::escalation)),
        ("ablation-hysteresis", Box::new(ablations::hysteresis_sweep)),
        ("ablation-headroom", Box::new(ablations::headroom_sweep)),
        ("ablation-predictor", Box::new(ablations::predictor_sweep)),
        (
            "ablation-batch-window",
            Box::new(ablations::batch_window_sweep),
        ),
        ("ablation-slo", Box::new(ablations::slo_sensitivity)),
        ("ablation-host-aware", Box::new(ablations::host_aware)),
        ("ext-fleet", Box::new(ext_fleet::run)),
    ]
}

/// Whether the row `id` runs for the positional ids `selected`: a named
/// row, a row an alias names (`fig10` → `fig9`, `ablations` → every
/// [`ABLATIONS`] row), or, with no ids at all, every row but the opt-in
/// ones (`llm` and the ablations).
fn selects(selected: &[&str], id: &str) -> bool {
    let opt_in = id == "llm" || ABLATIONS.contains(&id);
    selected.contains(&id)
        || (selected.is_empty() && !opt_in)
        || (id == "fig9" && selected.contains(&"fig10"))
        || (ABLATIONS.contains(&id) && selected.contains(&"ablations"))
}

/// Every flag `repro` knows, once each, with what its values are.
const FLAGS: &[Flag] = &[
    ("--quick", 0, ""),
    ("--seed", 1, "a numeric seed"),
    ("--jobs", 1, "a worker count"),
    ("--shards", 1, "a positive shard count (e.g. --shards 3)"),
    ("--timings", 0, ""),
    ("--label", 1, "a name"),
    ("--faults", 1, "a spec: fig13b or crashes:COUNT:SEED"),
    ("--trace", 1, "an output path"),
    ("--trace-file", 1, "an output path"),
    ("--explain", 1, "a numeric request id"),
    ("--triage", 1, "a positive SLO in milliseconds (e.g. 200)"),
    ("--stress", 0, ""),
    ("--diff", 2, "two JSONL captures (e.g. a.jsonl b.jsonl)"),
    ("--diff-flip", 1, "KEY=VALUE (a tunable key and its value)"),
    ("--diff-golden", 0, ""),
    ("--bless-golden", 0, ""),
    ("--llm", 0, ""),
    ("--llm-smoke", 0, ""),
    ("--report", 1, "an output path"),
];

/// `Ok` as is; an `Err` is printed and exits 2 (a usage error).
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Read the command line: every flag against [`FLAGS`], every other
/// argument against the experiment ids (and the `fig10` alias). `Err`
/// names the bad flag, or every unknown id and the known ones, or the
/// [`ABLATIONS`] rows selected together with `--faults`: they build their
/// own configurations, which no fault schedule reaches.
fn read_args(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let cli = Cli::parse(FLAGS, args)?;
    let known: Vec<&str> = experiments(false).iter().map(|(id, _)| *id).collect();
    let selected: Vec<&str> = cli.positional.iter().map(String::as_str).collect();
    let unknown: Vec<&str> = selected
        .iter()
        .copied()
        .filter(|id| !["fig10", "ablations"].contains(id) && !known.contains(id))
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown experiment id(s): {}\nknown ids: {} (fig10 selects fig9, ablations \
             selects every ablation-* row and ext-fleet)",
            unknown.join(" "),
            known.join(" ")
        ));
    }
    let unfaulted: Vec<&str> = ABLATIONS
        .into_iter()
        .filter(|id| selects(&selected, id))
        .collect();
    if cli.has("--faults") && !unfaulted.is_empty() {
        return Err(format!(
            "--faults does not reach the ablation rows {}: they build their own \
             configurations; run them without --faults",
            unfaulted.join(" ")
        ));
    }
    Ok(cli)
}

fn main() {
    let cli = or_exit(read_args(std::env::args().skip(1)));
    let quick = cli.has("--quick");
    let mode = if quick { "quick" } else { "full" };
    // Resolve the bench file before any work, so a run outside a checkout
    // fails in the first second rather than after the figures.
    let bench_path = cli
        .has("--timings")
        .then(|| or_exit(default_bench_path().map_err(|e| format!("--timings: {e}"))));
    let mut opts = if quick {
        RunOpts::quick()
    } else {
        RunOpts::full()
    };
    if let Some(seed) = or_exit(cli.parsed("--seed")) {
        opts.seed_base = seed;
    }
    if let Some(n) = or_exit(cli.parsed("--jobs")) {
        pool::set_jobs(n);
    }
    let shards = or_exit(cli.parsed("--shards")).map_or(1, NonZeroU32::get);
    let label = cli.value("--label").unwrap_or("repro").to_string();
    if let Some(plan) = or_exit(cli.parsed_with("--faults", parse_fault_spec)) {
        opts = opts.with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    }
    let triage_slo = or_exit(cli.parsed_with("--triage", |v| {
        v.parse()
            .ok()
            .filter(|slo: &f64| slo.is_finite() && *slo > 0.0)
    }));
    let explain: Option<u64> = or_exit(cli.parsed("--explain"));
    let mut selected: Vec<&str> = cli.positional.iter().map(String::as_str).collect();
    // `--llm` is sugar for the positional id: with no other ids it runs
    // the LLM study alone, never silently enlarging the default sweep.
    if cli.has("--llm") && !selected.contains(&"llm") {
        selected.push("llm");
    }

    if cli.has("--stress") {
        run_stress_report(shards, bench_path.as_deref(), &label);
        return;
    }
    // Decision-log diff subcommands: none of them run the experiment
    // sweep, so they exit directly (0 empty diff / 1 divergent / 2 usage
    // or IO error).
    if let Some([a, b]) = cli.values("--diff") {
        run_file_diff(a, b);
    }
    if let Some(spec) = cli.value("--diff-flip") {
        run_diff_flip(mode, primary_scenario(quick, &opts), spec);
    }
    if cli.has("--diff-golden") {
        gate_goldens();
    }
    if cli.has("--llm-smoke") {
        let report_path = cli.value("--report").unwrap_or("target/llm-report.json");
        run_llm_smoke_cmd(opts.seed_base, report_path);
    }
    if cli.has("--bless-golden") {
        bless_goldens();
        return;
    }
    let trace_out = cli.value("--trace");
    let trace_file = cli.value("--trace-file");
    let experiments = experiments(quick);

    if trace_out.is_some() || trace_file.is_some() || triage_slo.is_some() || explain.is_some() {
        run_capture(
            mode,
            &primary_scenario(quick, &opts),
            trace_out,
            trace_file,
            triage_slo,
            explain.as_slice(),
        );
        if selected.is_empty() {
            return;
        }
    }

    outln!(
        "Paldia reproduction harness — {} mode, {} rep(s), seed base {}, {} job(s), {} shard(s)",
        mode,
        opts.reps,
        opts.seed_base,
        pool::max_jobs(),
        shards
    );
    outln!("{}", "=".repeat(72));

    ysearch::reset_cache_counters();

    let mut reports = Vec::new();
    let mut figure_times = Vec::new();
    let t0 = Instant::now();

    for (id, run) in &experiments {
        if !selects(&selected, id) {
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
        outln!("{}", r.render());
        holds += r.checks.iter().filter(|c| c.holds).count();
        total += r.checks.len();
    }

    outln!("{}", "=".repeat(72));
    if let Some(path) = bench_path {
        let report = TimingReport {
            figures: figure_times,
            ..bench_entry(&label, mode, shards, opts.seed_base, total_s)
        };
        emit(&report.render());
        record_entry(&path, &report);
        outln!("{}", "=".repeat(72));
    }
    outln!(
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

    /// Each command line is accepted, or refused with an error naming the
    /// bad argument.
    #[test]
    fn command_lines_check_exactly() {
        let known = experiments(true)
            .iter()
            .map(|(id, _)| *id)
            .collect::<Vec<_>>();
        let cases: [(&str, Option<&str>); 30] = [
            ("", None),
            ("fig5", None),
            ("fig10", None),
            ("llm", None),
            ("ablations", None),
            ("ablation-slo ext-fleet", None),
            ("ablation", Some("ablation")),
            ("ablations-slo", Some("ablations-slo")),
            ("fig1 fig13a fig13b table3", None),
            ("--quick --seed 7 --jobs 2 fig5", None),
            ("--diff a.jsonl b.jsonl", None),
            ("--llm-smoke --report r.json --quick", None),
            ("fig99", Some("fig99")),
            ("5", Some("5")),
            ("fig5 abc", Some("abc")),
            ("Fig5", Some("Fig5")),
            ("fig13", Some("fig13")),
            ("--bogus --diff-golden", Some("unknown flag --bogus")),
            ("--quik", Some("unknown flag --quik")),
            ("--replay-capture x", Some("unknown flag --replay-capture")),
            (
                "--explain 1 --explain 2 --quick",
                Some("--explain given more than once"),
            ),
            ("--quick --quick", Some("--quick given more than once")),
            (
                "--llm-smoke --report --quick",
                Some("--report needs an output path, got \"--quick\""),
            ),
            ("--trace", Some("--trace needs an output path")),
            ("--diff a.jsonl", Some("--diff needs two JSONL captures")),
            ("--faults crashes:4:7 fig6", None),
            ("--quick --faults fig13b", None),
            (
                "--faults crashes:4:7 ablation-escalation ablation-slo",
                Some("ablation rows ablation-escalation ablation-slo:"),
            ),
            (
                "--faults fig13b fig6 ext-fleet",
                Some("--faults does not reach the ablation rows ext-fleet:"),
            ),
            (
                "ablations --faults fig13b",
                Some("the ablation rows ablation-escalation ablation-hysteresis"),
            ),
        ];
        for (line, refused) in cases {
            match (
                read_args(line.split_whitespace().map(String::from)),
                refused,
            ) {
                (Ok(_), None) => {}
                (Err(e), Some(needle)) => {
                    assert!(e.contains(needle), "{line:?}: {e} must name {needle}");
                    if e.starts_with("unknown experiment id(s)") {
                        assert!(e.contains(&known.join(" ")), "{e} lists the known ids");
                    }
                }
                (Ok(_), Some(_)) => panic!("{line:?} must be refused"),
                (Err(e), None) => panic!("{line:?} must be accepted, got: {e}"),
            }
        }
    }

    /// The default sweep is the 13 figure and table rows; `llm` and the
    /// ablation rows run only when named, by id or by the `ablations` alias.
    #[test]
    fn opt_in_rows_run_only_when_named() {
        let ids: Vec<&str> = experiments(true).iter().map(|(id, _)| *id).collect();
        let runs = |selected: &[&str]| -> Vec<&str> {
            ids.iter()
                .copied()
                .filter(|id| selects(selected, id))
                .collect()
        };
        let opt_in: Vec<&str> = std::iter::once("llm").chain(ABLATIONS).collect();
        let sweep = runs(&[]);
        assert_eq!(sweep.len(), 13, "default sweep: {sweep:?}");
        assert_eq!(sweep.len() + opt_in.len(), ids.len());
        for id in &ids {
            if opt_in.contains(id) {
                assert_eq!(runs(&[id]), [*id], "{id} runs alone when named");
                continue;
            }
            for unnamed in runs(&[id]).iter().chain(&sweep) {
                assert!(!opt_in.contains(unnamed), "{unnamed} ran unnamed");
            }
        }
        assert_eq!(runs(&["fig10"]), ["fig9"]);
        assert_eq!(runs(&["ablations"]), ABLATIONS);
        assert_eq!(
            runs(&["ablation-slo", "ext-fleet"]),
            ["ablation-slo", "ext-fleet"]
        );
        assert_eq!(runs(&["fig5", "ablations"]).len(), 9);
    }

    #[test]
    fn dropped_warning_only_fires_on_truncation() {
        assert!(dropped_warning(0).is_none());
        let w = dropped_warning(17).expect("non-zero drops warn");
        assert!(w.contains("dropped 17 event(s)"));
        assert!(w.contains("truncated"));
    }
}
