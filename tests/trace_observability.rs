//! Observability is observation-only: a traced run must be bit-identical
//! to the untraced run, the chrome-trace export must have the documented
//! shape, and the sinks must stay bounded.
//!
//! Static counterpart: `paldia-obs` is in the lint's sim-facing and
//! deterministic scopes (`crates/lint/README.md`), so the sink layer
//! cannot grow wall-clock reads or hash-order iteration.

use paldia_cluster::{
    run, FailoverPolicyKind, FaultPlan, FleetDeployment, RunOutput, RunResult, RunSpec, SimConfig,
};
use paldia_core::PaldiaScheduler;
use paldia_experiments::scenarios::azure_workload_truncated;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{
    chrome_trace_json, completed_request_ids, explain_request, RingSink, TraceEvent, TraceEventKind,
};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::MlModel;

/// Every bit of observable output of one run, as raw u64 words (the
/// `determinism_replay` fingerprint, for a single result).
fn fingerprint(r: &RunResult) -> Vec<u64> {
    let mut bits = vec![
        r.completed.len() as u64,
        r.unserved,
        r.total_cost().to_bits(),
        r.slo_compliance(200.0).to_bits(),
        r.transitions,
    ];
    for c in &r.completed {
        bits.push(c.queue_ms().to_bits());
        bits.push(c.interference_ms().to_bits());
        bits.push(c.solo_ms.to_bits());
    }
    bits
}

/// One Paldia run of a lone deployment, recording into a sink when
/// `traced`. Returns the captured stream and the run output.
fn capture_single(seed: u64, traced: bool) -> (Vec<TraceEvent>, RunOutput) {
    let workloads = vec![azure_workload_truncated(MlModel::GoogleNet, seed, 90)];
    let cfg = SimConfig::with_seed(seed);
    let mut s = PaldiaScheduler::new();
    let hw = InstanceKind::C6i_2xlarge;
    let spec = RunSpec::lone(&workloads, &mut s, hw, Catalog::table_ii(), &cfg);
    let mut sink = RingSink::new(1_000_000);
    let out = run(RunSpec {
        sink: traced.then_some(&mut sink),
        ..spec
    });
    (sink.into_events(), out)
}

/// A two-tenant Paldia fleet on one unit of each kind under two sampled
/// node crashes, recording into a sink when `traced`.
fn capture_fleet(seed: u64, traced: bool) -> (Vec<TraceEvent>, RunOutput) {
    let deployments = [(MlModel::GoogleNet, 0u64), (MlModel::SeNet18, 1u64)]
        .iter()
        .map(|&(model, off)| FleetDeployment {
            name: format!("{model}"),
            workloads: vec![azure_workload_truncated(model, seed + off, 90)],
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: InstanceKind::C6i_2xlarge,
        })
        .collect();
    let plan =
        FaultPlan::sampled_crashes(seed, SimTime::from_secs(90), 2, SimDuration::from_secs(8));
    let cfg = SimConfig::with_seed(seed).with_faults(plan, FailoverPolicyKind::SameTierSpread);
    let mut sink = RingSink::new(1_000_000);
    let out = run(RunSpec {
        sink: traced.then_some(&mut sink),
        ..RunSpec::fleet(deployments, Catalog::table_ii(), 1, &cfg)
    });
    (sink.into_events(), out)
}

/// Tracing perturbs neither results nor the returned event count, and the
/// count is the one the stream's `RunSummary` reports. Returns the stream.
fn assert_observation_only(
    label: &str,
    capture: impl Fn(bool) -> (Vec<TraceEvent>, RunOutput),
) -> Vec<TraceEvent> {
    let (events, traced) = capture(true);
    let (_, untraced) = capture(false);
    let fingerprints = |o: &RunOutput| o.results.iter().map(fingerprint).collect::<Vec<_>>();
    assert_eq!(
        fingerprints(&traced),
        fingerprints(&untraced),
        "{label}: tracing perturbed it"
    );
    let summary = events.iter().find_map(|e| match e.kind {
        TraceEventKind::RunSummary { events, .. } => Some(events),
        _ => None,
    });
    assert_eq!(summary, Some(traced.events), "{label}: RunSummary count");
    assert_eq!(traced.events, untraced.events, "{label}: untraced count");
    events
}

#[test]
fn traced_single_tenant_run_is_bit_identical() {
    for seed in [1_000u64, 4_242] {
        let events = assert_observation_only(&format!("seed {seed}"), |traced| {
            capture_single(seed, traced)
        });
        assert!(!events.is_empty());
    }
}

#[test]
fn traced_fleet_run_is_bit_identical() {
    let events = assert_observation_only("fleet", |traced| capture_fleet(1_000, traced));
    let faulted = |e: &TraceEvent| matches!(e.kind, TraceEventKind::FaultEdge { .. });
    assert!(events.iter().any(faulted), "the crash plan fired no edge");
    // Tenant scoping: both tenants (scopes 1 and 2) emit events.
    assert!(events.iter().any(|e| e.scope == 1));
    assert!(events.iter().any(|e| e.scope == 2));
}

#[test]
fn chrome_export_has_the_documented_shape() {
    let (events, _) = capture_single(1_000, true);
    let json = chrome_trace_json(&events);
    // Container shape.
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced braces"
    );
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    // Required phases: metadata, complete spans, async request arrows,
    // instants.
    for ph in [
        "\"ph\":\"M\"",
        "\"ph\":\"X\"",
        "\"ph\":\"b\"",
        "\"ph\":\"e\"",
        "\"ph\":\"i\"",
    ] {
        assert!(json.contains(ph), "missing {ph}");
    }
    // Required fields on every event line.
    for field in ["\"ts\":", "\"pid\":", "\"tid\":", "\"dur\":", "\"name\":"] {
        assert!(json.contains(field), "missing {field}");
    }
    // No NaN/Infinity bare tokens (they would break JSON.parse).
    for bad in ["NaN,", "Infinity,", ":NaN", ":Infinity", ":-Infinity"] {
        assert!(!json.contains(bad), "bare non-finite token {bad}");
    }
    // Export is a pure function of the events.
    assert_eq!(json, chrome_trace_json(&events));
}

#[test]
fn explain_renders_a_request_lifecycle() {
    let (events, out) = capture_single(1_000, true);
    let ids = completed_request_ids(&events);
    assert!(!ids.is_empty());
    assert!(ids.len() <= out.into_lone().completed.len());
    let text = explain_request(&events, ids[ids.len() / 2]).expect("known id must render");
    for needle in [
        "arrived",
        "formed",
        "admitted",
        "completed",
        "end-to-end latency",
    ] {
        assert!(
            text.contains(needle),
            "explain output missing '{needle}':\n{text}"
        );
    }
    // Unknown requests render nothing.
    assert!(explain_request(&events, u64::MAX).is_none());
}

#[test]
fn decision_log_is_captured_when_traced() {
    let (events, _) = capture_single(1_000, true);
    let decisions: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            TraceEventKind::Decision(d) => Some(d),
            _ => None,
        })
        .collect();
    assert!(!decisions.is_empty(), "traced run recorded no decisions");
    for d in &decisions {
        assert_eq!(d.scheduler, "Paldia");
        assert!(!d.candidates.is_empty());
    }
}

#[test]
fn ring_sink_stays_bounded() {
    let workloads = vec![azure_workload_truncated(MlModel::GoogleNet, 1_000, 90)];
    let cfg = SimConfig::with_seed(1_000);
    let mut s = PaldiaScheduler::new();
    let mut sink = RingSink::new(64);
    let spec = RunSpec::lone(
        &workloads,
        &mut s,
        InstanceKind::C6i_2xlarge,
        Catalog::table_ii(),
        &cfg,
    );
    run(RunSpec {
        sink: Some(&mut sink),
        ..spec
    });
    assert!(sink.len() <= 64);
    assert!(sink.dropped() > 0, "a 64-slot ring must have evicted");
    // The survivors are the newest events, still ordered.
    let events = sink.into_events();
    assert!(events
        .windows(2)
        .all(|w| (w[0].at, w[0].seq) < (w[1].at, w[1].seq)));
}
