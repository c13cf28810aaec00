//! Trace-driven attribution cross-validated against the metrics layer:
//! `paldia_obs::TraceAttribution` (computed purely from the span stream)
//! and `paldia_metrics::TailBreakdown` (computed from the harness's
//! `CompletedRequest` records) are two independent derivations of the
//! Fig. 4 breakdown — on the same run they must agree per component within
//! a fixed tolerance, for the single-tenant harness AND the fleet.
//!
//! Also here: the `--triage` golden-shape test on a seeded cold-start
//! storm, the span-coverage regression (every request phase has an
//! emitting span — transition windows and prewarm cold starts included),
//! the JSONL-vs-ring sink equivalence on a real capture, and the
//! attribution of an iteration-level LLM capture read back from JSONL.

use paldia_cluster::{
    run, FailoverPolicyKind, FaultPlan, FleetDeployment, RunResult, RunSpec, SimConfig,
};
use paldia_core::PaldiaScheduler;
use paldia_experiments::diffcap::PrimaryScenario;
use paldia_experiments::llm_iter::{capture_llm_run, LlmRunOpts};
use paldia_experiments::scenarios::azure_workload_truncated;
use paldia_hw::{Catalog, InstanceKind};
use paldia_metrics::{tail_cohort, TailBreakdown};
use paldia_obs::{
    event_to_jsonl, events_from_jsonl, render_triage, Component, JsonlSink, RingSink,
    TraceAttribution, TraceEvent, TraceEventKind, TriageReport,
};
use paldia_sim::SimTime;
use paldia_workloads::MlModel;

/// Fixed agreement tolerance between the two derivations: per-request solo
/// rounding is at most 0.0005 ms, so component means over any cohort stay
/// within 0.05 ms absolute (plus a 0.1% relative term for the large
/// totals).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.05_f64.max(0.001 * a.abs().max(b.abs()))
}

fn assert_breakdowns_agree(
    label: &str,
    trace: &paldia_obs::AttributedBreakdown,
    metrics: &TailBreakdown,
) {
    assert!(
        close(trace.total_ms, metrics.total_ms),
        "{label}: total {} vs {}",
        trace.total_ms,
        metrics.total_ms
    );
    assert!(
        close(trace.combined_queueing_ms(), metrics.queueing_ms),
        "{label}: queueing {} vs {}",
        trace.combined_queueing_ms(),
        metrics.queueing_ms
    );
    assert!(
        close(trace.min_possible_ms, metrics.min_possible_ms),
        "{label}: min possible {} vs {}",
        trace.min_possible_ms,
        metrics.min_possible_ms
    );
    assert!(
        close(trace.interference_ms, metrics.interference_ms),
        "{label}: interference {} vs {}",
        trace.interference_ms,
        metrics.interference_ms
    );
}

/// The quick primary scenario under `faults`, captured into a ring that
/// holds the whole run.
fn quick_capture(
    seed: u64,
    faults: Option<(FaultPlan, FailoverPolicyKind)>,
) -> (Vec<TraceEvent>, RunResult) {
    let scenario = PrimaryScenario {
        faults,
        ..PrimaryScenario::quick(seed)
    };
    let mut sink = RingSink::new(1_000_000);
    let result = scenario.record(&mut scenario.scheduler(), &mut sink);
    assert_eq!(sink.dropped(), 0, "the ring holds the whole capture");
    (sink.into_events(), result)
}

#[test]
fn single_tenant_attribution_matches_metrics() {
    let (events, result) = quick_capture(1_000, None);
    let attribution = TraceAttribution::from_events(&events);

    // One-to-one with the harness's completed list: same requests, same
    // order, bit-identical latencies.
    assert_eq!(attribution.requests.len(), result.completed.len());
    for (a, c) in attribution.requests.iter().zip(&result.completed) {
        assert_eq!(a.request, c.id.0, "completion order diverged");
        assert_eq!(
            a.latency_ms().to_bits(),
            c.latency_ms().to_bits(),
            "latency of request {} diverged",
            c.id.0
        );
    }

    // The Fig. 4 cross-check: both derivations agree per component at the
    // median tail and the paper's P99.
    for p in [90.0, 99.0] {
        let metrics = TailBreakdown::at(&result.completed, p).expect("non-empty run");
        let trace = attribution.breakdown(None, p).expect("non-empty run");
        assert_eq!(trace.requests, tail_cohort(&result.completed, p).len());
        assert_breakdowns_agree(&format!("single-tenant p{p}"), &trace, &metrics);
    }
}

fn fleet_deployments(seed: u64) -> Vec<FleetDeployment> {
    [(MlModel::GoogleNet, 0u64), (MlModel::SeNet18, 1u64)]
        .iter()
        .map(|&(model, off)| FleetDeployment {
            name: format!("{model}"),
            workloads: vec![azure_workload_truncated(model, seed + off, 90)],
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: InstanceKind::C6i_2xlarge,
        })
        .collect()
}

#[test]
fn fleet_attribution_matches_metrics_per_tenant() {
    let seed = 1_000u64;
    let cfg = SimConfig::with_seed(seed);
    let mut sink = RingSink::new(1_000_000);
    let results = run(RunSpec {
        sink: Some(&mut sink),
        ..RunSpec::fleet(fleet_deployments(seed), Catalog::table_ii(), 1, &cfg)
    })
    .results;
    let events = sink.into_events();
    let attribution = TraceAttribution::from_events(&events);
    assert_eq!(attribution.scopes(), vec![1, 2], "one scope per tenant");

    for (i, result) in results.iter().enumerate() {
        let scope = 1 + i as u32;
        let per_tenant = attribution.for_scope(Some(scope));
        assert_eq!(per_tenant.len(), result.completed.len());
        for (a, c) in per_tenant.iter().zip(&result.completed) {
            assert_eq!(
                a.request, c.id.0,
                "tenant {scope}: completion order diverged"
            );
            assert_eq!(a.latency_ms().to_bits(), c.latency_ms().to_bits());
        }
        let metrics = TailBreakdown::at(&result.completed, 99.0).expect("non-empty tenant");
        let trace = attribution
            .breakdown(Some(scope), 99.0)
            .expect("non-empty tenant");
        assert_breakdowns_agree(&format!("tenant {scope} p99"), &trace, &metrics);

        // The per-tenant rollup is well-formed.
        let rollup = attribution.rollup(Some(scope)).expect("non-empty tenant");
        assert_eq!(rollup.requests, result.completed.len());
        assert!(rollup.p50.total_ms <= rollup.p99.total_ms + 1e-9);
    }
}

/// A quick primary capture with a cold-start storm injected mid-trace:
/// every warm idle container dies every five seconds through the back half
/// of the trace, so each recovery wave pays the full cold start again.
fn storm_capture(seed: u64) -> (Vec<TraceEvent>, RunResult) {
    let mut plan = FaultPlan::new();
    for at in (60..PrimaryScenario::quick(seed).capture_secs).step_by(5) {
        plan = plan.cold_start_storm(SimTime::from_secs(at));
    }
    quick_capture(
        seed,
        Some((plan, FailoverPolicyKind::CheapestMorePerformant)),
    )
}

#[test]
fn triage_surfaces_a_cold_start_cluster_under_a_storm() {
    let (events, result) = storm_capture(1_000);
    let attribution = TraceAttribution::from_events(&events);
    let report = TriageReport::build(&attribution, 200.0);

    assert_eq!(report.total, result.completed.len());
    assert!(
        report.misses > 0,
        "a cold-start storm must cause SLO misses"
    );
    // The storm must surface a cold-start-dominated cluster. (It need not
    // be the largest: the backlog a storm causes accrues mostly *before*
    // batch close, so a batching-dominated cluster legitimately coexists.)
    let cold = report
        .cluster(Component::ColdStart)
        .expect("storm must surface a cold-start-dominated cluster");
    assert!(
        cold.count >= 5,
        "expected a substantial cold-start cluster, got {:?}",
        report
            .clusters
            .iter()
            .map(|c| (c.component, c.count))
            .collect::<Vec<_>>()
    );
    assert!(cold.exemplar.cold_start_us > 0);
    assert!(cold.exemplar.latency_ms() > 200.0);

    // Golden shape of the rendered report: header, the cluster line, the
    // component split of the worst request, and its inlined lifecycle.
    let text = render_triage(&report, &events);
    for needle in [
        "SLO triage @ 200.0 ms",
        "cluster: cold start dominated",
        "worst: request",
        "arrived",
        "end-to-end latency",
    ] {
        assert!(
            text.contains(needle),
            "triage report missing '{needle}':\n{text}"
        );
    }
}

#[test]
fn every_request_phase_has_an_emitting_span() {
    // Clean capture: transitions must be explicit begin/end windows.
    let (events, result) = quick_capture(1_000, None);
    let committed_ends: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::TransitionEnded {
                    committed: true,
                    ..
                }
            )
        })
        .collect();
    let switches = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::HwSwitched { .. }))
        .count();
    assert_eq!(
        committed_ends.len(),
        switches,
        "every routing switch must close an explicit transition window"
    );
    assert_eq!(
        committed_ends.len() as u64,
        result.transitions,
        "trace and metrics disagree on the number of transitions"
    );
    for end in &committed_ends {
        let TraceEventKind::TransitionEnded { worker, .. } = end.kind else {
            unreachable!()
        };
        assert!(
            events.iter().any(|e| {
                (e.at, e.seq) < (end.at, end.seq)
                    && matches!(e.kind, TraceEventKind::TransitionBegan { worker: w, .. } if w == worker)
            }),
            "transition end on worker {worker} has no earlier begin"
        );
    }

    // Storm capture: every cold start that finishes must have begun —
    // including prewarmed containers (the path that used to be untraced).
    let (events, _) = storm_capture(1_000);
    let finished: Vec<(u32, u32, SimTime, u64)> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::ColdStartFinished { worker, container } => {
                Some((worker, container, e.at, e.seq))
            }
            _ => None,
        })
        .collect();
    assert!(!finished.is_empty(), "storm run must cold-start containers");
    for (worker, container, at, seq) in finished {
        assert!(
            events.iter().any(|e| {
                (e.at, e.seq) < (at, seq)
                    && matches!(
                        e.kind,
                        TraceEventKind::ColdStartBegan { worker: w, container: c, .. }
                            if w == worker && c == container
                    )
            }),
            "cold start finish for worker {worker} container {container} has no earlier begin"
        );
    }
}

#[test]
fn jsonl_capture_is_equivalent_to_ring_capture() {
    // Same run, two sinks: the ring keeps events in memory, the JSONL sink
    // streams them through a writer. Reading the JSONL back must yield the
    // identical event stream — and therefore the identical attribution.
    let (ring_events, _) = quick_capture(1_000, None);
    let mut buf: Vec<u8> = Vec::new();
    {
        let mut sink = JsonlSink::new(&mut buf);
        let scenario = PrimaryScenario::quick(1_000);
        let _ = scenario.record(&mut scenario.scheduler(), &mut sink);
        let written = sink.finish().expect("in-memory writer cannot fail");
        assert_eq!(written, ring_events.len() as u64);
    }
    let text = String::from_utf8(buf).expect("jsonl is utf-8");
    let file_events = events_from_jsonl(&text).expect("capture must parse back");
    assert_eq!(ring_events, file_events, "jsonl capture diverged from ring");
    assert_eq!(
        TraceAttribution::from_events(&ring_events),
        TraceAttribution::from_events(&file_events)
    );
}

#[test]
fn llm_iterative_capture_attributes_through_jsonl() {
    // The golden iteration-level storm run (both storm edges crossed),
    // written out line by line and read back, as a capture file would be.
    let (events, result) = capture_llm_run(&LlmRunOpts::golden());
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::BatchLeave { .. })),
        "the capture must retire sequences per token"
    );
    let text: String = events.iter().map(|e| event_to_jsonl(e) + "\n").collect();
    let parsed = events_from_jsonl(&text).expect("capture must parse back");
    assert_eq!(parsed, events, "jsonl read-back diverged from the capture");

    let attribution = TraceAttribution::from_events(&parsed);
    assert!(!result.completed.is_empty());
    let mut attributed: Vec<u64> = attribution.requests.iter().map(|r| r.request).collect();
    attributed.sort_unstable();
    let mut completed: Vec<u64> = result.completed.iter().map(|c| c.id.0).collect();
    completed.sort_unstable();
    assert_eq!(
        attributed, completed,
        "every completed request is attributed exactly once"
    );

    let by_id: std::collections::HashMap<u64, &paldia_cluster::CompletedRequest> =
        result.completed.iter().map(|c| (c.id.0, c)).collect();
    for r in &attribution.requests {
        let c = by_id[&r.request];
        assert_eq!(
            r.latency_us(),
            c.completed.as_micros() - c.arrival.as_micros(),
            "latency of request {} diverged from the harness",
            r.request
        );
    }

    let report = TriageReport::build(&attribution, 200.0);
    assert_eq!(report.total, result.completed.len());
}
