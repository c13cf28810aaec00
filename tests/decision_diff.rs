//! Golden-corpus tests for the decision-log differ on real simulations.
//!
//! Three layers, matching DESIGN.md §12:
//!
//! * the **golden gate** — the unmodified tree must reproduce every
//!   committed log of the golden registry (`diffcap::GOLDENS`) bit for
//!   bit (the same check `repro --diff-golden` runs in `scripts/ci.sh`),
//!   and `tests/golden/` holds exactly the registry's files;
//! * **pinned ablation pairs** — a tunable flip and a cold-start-storm
//!   window each diverge at a pinned first decision (tick, scope, class)
//!   with a pinned narrative, so renderer or alignment regressions are
//!   caught on real decision streams, not just synthetic ones;
//! * the **causality check** — decisions are the only scheduler→cluster
//!   channel, so a tunable flip's first decision divergence must occur at
//!   or before its first downstream metric delta.
//!
//! If a pin fails after an *intentional* scheduler change: re-bless the
//! golden log with `scripts/rebless.sh` and re-pin from the new narrative.

use paldia_cluster::{FailoverPolicyKind, FaultPlan, RunResult};
use paldia_experiments::diffcap::{apply_tunable, tunable_deltas, PrimaryScenario, GOLDENS};
use paldia_obs::{diff_decision_streams, render_diff, DivergenceClass, TraceEvent, VecSink};
use paldia_sim::SimTime;

/// Run `scenario` and keep its full trace (decision events included).
fn capture_decision_run(scenario: &PrimaryScenario) -> (Vec<TraceEvent>, RunResult) {
    let mut sink = VecSink::new();
    let result = scenario.record(&mut scenario.scheduler(), &mut sink);
    (sink.into_events(), result)
}

/// Sim-time (µs) of the first completed request whose timing, hardware,
/// or latency differs between two runs — infinity when the metrics are
/// identical.
fn first_metric_delta_us(a: &RunResult, b: &RunResult) -> Option<u64> {
    let n = a.completed.len().min(b.completed.len());
    for i in 0..n {
        let (x, y) = (&a.completed[i], &b.completed[i]);
        if x.completed != y.completed || x.solo_ms.to_bits() != y.solo_ms.to_bits() || x.hw != y.hw
        {
            return Some(x.completed.as_micros().min(y.completed.as_micros()));
        }
    }
    if a.completed.len() != b.completed.len() {
        return a
            .completed
            .get(n)
            .or_else(|| b.completed.get(n))
            .map(|c| c.completed.as_micros());
    }
    None
}

/// The unmodified tree reproduces every committed golden decision log —
/// the in-process version of the `repro --diff-golden` CI gate.
#[test]
fn goldens_reproduce_committed_logs() {
    for golden in GOLDENS {
        let name = golden.name;
        let report = golden
            .gate()
            .expect("golden log readable (scripts/rebless.sh)");
        assert!(
            report.is_empty(),
            "{name} golden decision-log gate failed; first divergence:\n{}",
            render_diff(&report, "committed golden", "current build", &[])
        );
        assert!(report.aligned > 100, "{name} golden log suspiciously short");
    }
}

/// The fleet golden (three tenants, one unit per kind, one node-crash
/// window) carries every tenant's decision scope.
#[test]
fn fleet_golden_has_one_scope_per_tenant() {
    let fleet = GOLDENS
        .iter()
        .find(|g| g.name == "fleet")
        .expect("fleet row");
    let committed = paldia_obs::read_jsonl_file(fleet.path()).expect("fleet golden log readable");
    let mut scopes: Vec<u32> = committed.iter().map(|e| e.scope).collect();
    scopes.sort_unstable();
    scopes.dedup();
    assert_eq!(scopes, vec![1, 2, 3], "one decision scope per tenant");
}

/// `tests/golden/` and the registry name the same logs: every committed
/// `*.jsonl` file is a row, every row's file exists, and names are unique,
/// so an orphaned log or an unblessed row fails here.
#[test]
fn golden_corpus_matches_registry() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden readable")
        .map(|entry| {
            entry
                .expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|file| file.ends_with(".jsonl"))
        .collect();
    on_disk.sort();
    let mut files: Vec<String> = GOLDENS.iter().map(|g| g.file.to_string()).collect();
    files.sort();
    assert_eq!(on_disk, files, "tests/golden/*.jsonl vs the GOLDENS rows");
    for golden in GOLDENS {
        assert!(golden.path().is_file(), "{} is not blessed", golden.name);
    }
    let mut names: Vec<&str> = GOLDENS.iter().map(|g| g.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), GOLDENS.len(), "golden row names are unique");
}

/// `diff(A, A)` is empty for a real seeded run, and the pinned
/// `selection.wait_limit` ablation diverges at exactly the pinned first
/// decision, with the pinned narrative, at or before its first metric
/// delta.
#[test]
fn wait_limit_flip_diverges_at_pinned_decision() {
    let base = PrimaryScenario::golden();
    let mut flipped = base.clone();
    apply_tunable(&mut flipped.config, "selection.wait_limit", "1").expect("known tunable");

    let (events_a, result_a) = capture_decision_run(&base);
    let (events_b, result_b) = capture_decision_run(&flipped);

    // Self-diff on a real capture is empty.
    let self_report = diff_decision_streams(&events_a, &events_a);
    assert!(self_report.is_empty(), "self-diff of a real run not empty");

    let report = diff_decision_streams(&events_a, &events_b);
    assert!(!report.is_empty(), "wait_limit flip produced no divergence");
    assert_eq!(report.aligned, 179, "golden scenario decision count moved");
    assert_eq!(report.only_a + report.only_b, 0, "streams lost alignment");

    // Pinned first divergence: hysteresis relaxed from 3 ticks to 1 lets
    // the upgrade fire at tick 127 (t = 64 s) instead of being held.
    let first = report.first().expect("non-empty report");
    assert_eq!(first.tick, 127);
    assert_eq!(first.scope, 0);
    assert_eq!(first.at, SimTime::from_micros(64_000_000));
    assert_eq!(first.class, DivergenceClass::ChosenHwFlip);

    // Pinned narrative: names the tick, the flip, and the delta.
    let deltas = tunable_deltas(&base.config, &flipped.config);
    let narrative = render_diff(&report, "default", "selection.wait_limit=1", &deltas);
    assert!(
        narrative.contains(
            "first divergent decision: tick #127 (t 64000.000 ms, scope 0) — chosen-hw-flip"
        ),
        "narrative lost its pinned first-divergence line:\n{narrative}"
    );
    assert!(narrative.contains("A chose c6i.2xlarge, B chose c6i.4xlarge"));
    assert!(narrative.contains("selection.wait_limit: 3 (A) -> 1 (B)"));
    assert!(narrative.contains("candidate table (Eq. 1):"));

    // Causality: the decision stream is the only scheduler→cluster
    // channel, so the first decision divergence precedes (or coincides
    // with) the first completed-request delta.
    let delta_us = first_metric_delta_us(&result_a, &result_b)
        .expect("a chosen-hw flip must eventually move the metrics");
    assert!(
        first.at.as_micros() <= delta_us,
        "first decision divergence at {} µs but metrics moved earlier at {} µs",
        first.at.as_micros(),
        delta_us
    );
}

/// Storm-window variant: a cold-start storm 10 s into the golden scenario
/// (same tunables on both sides) shows up in the decision stream as
/// candidate-table drift — the purge inflates `t_max` on the serving node
/// at the pinned tick.
#[test]
fn cold_start_storm_diverges_as_candidate_drift() {
    let clean = PrimaryScenario::golden();
    let mut stormy = clean.clone();
    stormy.faults = Some((
        FaultPlan::new().cold_start_storm(SimTime::from_secs(10)),
        FailoverPolicyKind::CheapestMorePerformant,
    ));

    let (events_a, _) = capture_decision_run(&clean);
    let (events_b, _) = capture_decision_run(&stormy);
    let report = diff_decision_streams(&events_a, &events_b);
    assert!(!report.is_empty(), "storm left no trace in the decisions");
    assert_eq!(report.aligned, 179);
    assert_eq!(report.only_a + report.only_b, 0);

    let first = report.first().expect("non-empty report");
    assert_eq!(first.tick, 20, "first post-storm monitor tick");
    assert_eq!(first.scope, 0);
    assert_eq!(first.at, SimTime::from_micros(10_500_000));
    assert_eq!(first.class, DivergenceClass::CandidateDrift);
    assert!(
        first.detail.contains("c6i.2xlarge"),
        "drift should name the serving node: {}",
        first.detail
    );

    let narrative = render_diff(&report, "clean", "storm@10s", &[]);
    assert!(narrative.contains("candidate-table-drift"));
    assert!(narrative.contains("tick #20"));
}

/// A second, earlier-diverging flip (`ramp_headroom` 2.2 → 1) also
/// respects divergence-before-metrics, and its report mirrors cleanly
/// when the arguments swap — the real-run version of the property tests
/// in `crates/obs/tests/diff_props.rs`.
#[test]
fn headroom_flip_precedes_metrics_and_mirrors() {
    let base = PrimaryScenario::golden();
    let mut flipped = base.clone();
    apply_tunable(&mut flipped.config, "ramp_headroom", "1").expect("known tunable");

    let (events_a, result_a) = capture_decision_run(&base);
    let (events_b, result_b) = capture_decision_run(&flipped);
    let report = diff_decision_streams(&events_a, &events_b);

    let first = report.first().expect("headroom flip diverges");
    assert_eq!(first.tick, 11);
    assert_eq!(first.at, SimTime::from_micros(6_000_000));
    assert_eq!(first.class, DivergenceClass::ChosenHwFlip);

    let delta_us = first_metric_delta_us(&result_a, &result_b)
        .expect("a chosen-hw flip must eventually move the metrics");
    assert!(first.at.as_micros() <= delta_us);

    // Mirror: swapped arguments preserve alignment keys/classes and swap
    // payload sides.
    let mirrored = diff_decision_streams(&events_b, &events_a);
    assert_eq!(mirrored.total_divergent, report.total_divergent);
    assert_eq!(mirrored.aligned, report.aligned);
    let mfirst = mirrored.first().expect("mirrored report non-empty");
    assert_eq!(mfirst.tick, first.tick);
    assert_eq!(mfirst.class, first.class);
    assert_eq!(mfirst.a, first.b);
    assert_eq!(mfirst.b, first.a);
}

/// Every committed golden log survives a JSONL round-trip: parsing it and
/// re-serializing yields the same decisions the differ aligns on (diff
/// against the in-process capture stays empty either way).
#[test]
fn golden_log_round_trip_keeps_diff_empty() {
    for golden in GOLDENS {
        let committed: Vec<TraceEvent> =
            paldia_obs::read_jsonl_file(golden.path()).expect("golden log readable");
        let reserialized: Vec<TraceEvent> = committed
            .iter()
            .map(|e| {
                let line = paldia_obs::event_to_jsonl(e);
                paldia_obs::event_from_jsonl(&line).expect("golden line round-trips")
            })
            .collect();
        let report = diff_decision_streams(&committed, &reserialized);
        assert!(
            report.is_empty(),
            "{}: round-trip changed the stream",
            golden.name
        );
        assert_eq!(report.aligned, committed.len());
    }
}
