//! Replay determinism: two fresh in-process executions of the same grid
//! must be bit-identical.
//!
//! This is the dynamic counterpart to lint rule d1 (see
//! `crates/lint/README.md`). The static pass bans `HashMap`/`HashSet` in
//! sim-facing crates because their `RandomState` is seeded per *instance* —
//! a second run of the very same code in the same process gets different
//! bucket orders. Running each grid twice back-to-back therefore exercises
//! exactly the failure mode the lint guards against: any surviving
//! hash-order (or allocator/address-keyed) dependence shows up as a
//! fingerprint mismatch here even when a single run looks plausible.
//!
//! Faulted and clean grids are both covered, and everything lives in one
//! `#[test]` because the pool-jobs override is process-global while the
//! harness runs tests concurrently.

use paldia_cluster::{run, FailoverPolicyKind, FaultPlan, RunResult, RunSpec, SimConfig};
use paldia_core::pool;
use paldia_experiments::diffcap::{self, PrimaryScenario};
use paldia_experiments::llm_iter::{capture_llm_fleet, LlmRunOpts};
use paldia_experiments::scenarios::azure_workload_truncated;
use paldia_experiments::{run_grid, GridCell, RunOpts, SchemeKind};
use paldia_hw::Catalog;
use paldia_obs::{
    diff_decision_streams, event_to_jsonl, ScopeRollup, TraceAttribution, TraceEvent,
    TraceEventKind, VecSink,
};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// Every bit of observable output: per-request timings and overheads plus
/// run-level aggregates, as raw u64 words.
fn fingerprint(grid: &[Vec<RunResult>]) -> Vec<u64> {
    let mut bits = Vec::new();
    for reps in grid {
        for r in reps {
            bits.push(r.completed.len() as u64);
            bits.push(r.unserved);
            bits.push(r.total_cost().to_bits());
            bits.push(r.slo_compliance(200.0).to_bits());
            for c in &r.completed {
                bits.push(c.queue_ms().to_bits());
                bits.push(c.interference_ms().to_bits());
                bits.push(c.solo_ms.to_bits());
            }
        }
    }
    bits
}

/// The primary roster over one model — the quick-repro figure shape.
fn roster_cells(seed: u64, cfg: SimConfig) -> Vec<GridCell> {
    let workloads = vec![azure_workload_truncated(MlModel::SeNet18, seed, 90)];
    SchemeKind::primary_roster()
        .iter()
        .map(|s| GridCell::new(s.clone(), workloads.clone(), cfg.clone()))
        .collect()
}

fn run_once(cells: Vec<GridCell>, opts: &RunOpts) -> Vec<u64> {
    let catalog = Catalog::table_ii();
    fingerprint(&run_grid(cells, &catalog, opts))
}

#[test]
fn replaying_a_grid_is_bit_identical() {
    pool::set_jobs(1);
    for seed in [42u64, 7_777] {
        let opts = RunOpts {
            reps: 2,
            seed_base: seed,
            ..RunOpts::quick()
        };

        let clean_cfg = SimConfig::default();
        let faulted_cfg = SimConfig::default().with_faults(
            FaultPlan::sampled_crashes(seed, SimTime::from_secs(90), 3, SimDuration::from_secs(10)),
            FailoverPolicyKind::CheapestMorePerformant,
        );
        for (label, cfg) in [("clean", clean_cfg), ("faulted", faulted_cfg)] {
            let first = run_once(roster_cells(seed, cfg.clone()), &opts);
            let second = run_once(roster_cells(seed, cfg.clone()), &opts);
            assert!(!first.is_empty(), "{label}/seed {seed}: empty fingerprint");
            assert_eq!(
                first, second,
                "{label}/seed {seed}: second in-process run diverged — \
                 hash-order or address-keyed nondeterminism survives"
            );
        }
    }
    pool::set_jobs(0);
}

/// The decision-event stream is part of the replay contract too — not
/// just the metrics it produces. Two in-process captures of the same
/// elastic fleet (the fleet golden scenario's three Paldia tenants and
/// node-crash window, on unlimited inventory), one on a single shard and
/// one split across three, must emit bit-identical decision streams: same
/// ticks, same scopes, same candidate tables, same flags, byte-for-byte in
/// JSONL. The decision differ must agree, reporting an empty `DiffReport`
/// in both directions for every pair.
#[test]
fn decision_stream_replays_bit_identical_across_shards() {
    let capture = |shards: u32| -> Vec<TraceEvent> {
        let mut sink = VecSink::new();
        let deployments = diffcap::fleet_golden_deployments();
        let cfg = diffcap::fleet_golden_config();
        run(RunSpec {
            shards: Some(shards),
            sink: Some(&mut sink),
            ..RunSpec::fleet(deployments, Catalog::table_ii(), u32::MAX, &cfg)
        });
        sink.into_events()
    };
    // Decisions only, seq zeroed: the sharded merge re-assigns global
    // sequence numbers, which carry no decision content.
    let decision_lines = |events: &[TraceEvent]| -> Vec<String> {
        events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
            .map(|e| {
                let mut e = e.clone();
                e.seq = 0;
                event_to_jsonl(&e)
            })
            .collect()
    };
    let base = capture(1);
    let rerun = capture(1);
    let sharded = capture(3);
    assert!(
        !decision_lines(&base).is_empty(),
        "fleet capture emitted no decisions"
    );
    assert_eq!(
        decision_lines(&base),
        decision_lines(&rerun),
        "second in-process run emitted a different decision stream"
    );
    assert_eq!(
        decision_lines(&base),
        decision_lines(&sharded),
        "partitioned engine (shards=3) emitted a different decision stream"
    );
    let pairs: [(&str, &[TraceEvent], &[TraceEvent]); 4] = [
        ("rerun vs base", &rerun, &base),
        ("base vs rerun", &base, &rerun),
        ("sharded vs base", &sharded, &base),
        ("base vs sharded", &base, &sharded),
    ];
    for (label, a, b) in pairs {
        let report = diff_decision_streams(a, b);
        assert!(
            report.is_empty(),
            "{label}: non-empty decision diff; first divergence: {:?}",
            report.first()
        );
        assert!(report.aligned > 0, "{label}: nothing aligned");
    }
}

/// The iteration-level LLM mode joins the replay contract: the
/// three-tenant LLM fleet, clean and under the cold-start storm, each run
/// at shards 1 (twice, in-process) and shards 3, must agree on every bit
/// of observable output — the metric fingerprint, the attribution rollup,
/// and the decision stream byte-for-byte in JSONL (seq zeroed, as above,
/// since the sharded merge re-assigns global sequence numbers).
#[test]
fn llm_mode_replays_bit_identical_across_shards() {
    let seed = 1_000u64;
    let decision_lines = |events: &[TraceEvent]| -> Vec<String> {
        events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
            .map(|e| {
                let mut e = e.clone();
                e.seq = 0;
                event_to_jsonl(&e)
            })
            .collect()
    };
    for storm in [false, true] {
        let label = if storm { "storm" } else { "clean" };
        let capture = |shards: u32| {
            let opts = LlmRunOpts {
                seed,
                secs: 90,
                scheme: SchemeKind::Paldia,
                iterative: true,
                storm,
            };
            let (events, results) = capture_llm_fleet(&opts, shards);
            let rollup = TraceAttribution::from_events(&events)
                .rollup(None)
                .map(|r| rollup_bits(&r))
                .unwrap_or_default();
            (fingerprint(&[results]), rollup, decision_lines(&events))
        };
        let base = capture(1);
        let rerun = capture(1);
        let sharded = capture(3);
        assert!(!base.0.is_empty(), "{label}: empty metric fingerprint");
        assert!(!base.1.is_empty(), "{label}: empty attribution rollup");
        assert!(!base.2.is_empty(), "{label}: no decisions captured");
        assert_eq!(base, rerun, "{label}: second in-process LLM run diverged");
        assert_eq!(
            base, sharded,
            "{label}: LLM fleet diverged between shards 1 and 3"
        );
    }
}

/// Every bit of an attribution rollup, as raw u64 words.
fn rollup_bits(rollup: &ScopeRollup) -> Vec<u64> {
    let mut bits = vec![rollup.requests as u64];
    for b in [&rollup.p50, &rollup.p99] {
        bits.push(b.requests as u64);
        for v in [
            b.total_ms,
            b.min_possible_ms,
            b.batching_ms,
            b.cold_start_ms,
            b.transition_ms,
            b.queueing_ms,
            b.interference_ms,
        ] {
            bits.push(v.to_bits());
        }
    }
    bits
}

/// The trace-driven attribution rollup is part of the replay contract too:
/// two in-process captures of the same run — clean and faulted — must
/// produce bit-identical per-component tail rollups. (The capture path
/// never touches the worker pool, so this can run concurrently with the
/// grid test above.)
#[test]
fn attribution_rollup_replays_bit_identical() {
    let seed = 1_000u64;
    let plans: [(&str, Option<FaultPlan>); 2] = [
        ("clean", None),
        (
            "faulted",
            Some(FaultPlan::sampled_crashes(
                seed,
                SimTime::from_secs(90),
                3,
                SimDuration::from_secs(10),
            )),
        ),
    ];
    for (label, plan) in plans {
        let capture = || {
            let scenario = PrimaryScenario {
                faults: plan
                    .clone()
                    .map(|p| (p, FailoverPolicyKind::CheapestMorePerformant)),
                ..PrimaryScenario::quick(seed)
            };
            let mut sink = VecSink::new();
            let _ = scenario.record(&mut scenario.scheduler(), &mut sink);
            let attribution = TraceAttribution::from_events(&sink.into_events());
            attribution
                .rollup(None)
                .map(|r| rollup_bits(&r))
                .unwrap_or_default()
        };
        let first = capture();
        let second = capture();
        assert!(!first.is_empty(), "{label}: empty rollup fingerprint");
        assert_eq!(
            first, second,
            "{label}: attribution rollup diverged across in-process replays"
        );
    }
}
