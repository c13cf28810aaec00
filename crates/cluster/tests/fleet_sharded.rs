//! Sharded fleet execution: the partitioned coordinator must be invariant
//! across shard counts, agree with the serial engine on clean elastic
//! runs, and conserve requests under fault schedules.

use paldia_cluster::{
    run, FailoverPolicyKind, FaultPlan, FleetDeployment, RunResult, RunSpec, SimConfig,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::Catalog;
use paldia_obs::{TraceEventKind, VecSink};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::MlModel;

const ELASTIC: u32 = u32::MAX;

/// A four-tenant Paldia fleet with staggered per-tenant traffic.
fn deployments(secs: u64) -> Vec<FleetDeployment> {
    [
        (MlModel::GoogleNet, 60.0),
        (MlModel::ResNet50, 40.0),
        (MlModel::SeNet18, 90.0),
        (MlModel::MobileNet, 25.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (model, rps))| FleetDeployment {
        name: format!("tenant-{i}"),
        workloads: vec![paldia_cluster::WorkloadSpec::new(
            model,
            RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
        )],
        scheduler: Box::new(PaldiaScheduler::new()),
        initial_hw: Catalog::table_ii().by_cost_ascending()[i % 3],
    })
    .collect()
}

fn fingerprint(results: &[RunResult]) -> String {
    format!("{results:?}")
}

fn assert_identical(label: &str, a: &str, b: &str) {
    if a != b {
        let pos = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        let lo = pos.saturating_sub(120);
        panic!(
            "{label}: results diverge at byte {pos}\n  a: …{}\n  b: …{}",
            &a[lo..(pos + 120).min(a.len())],
            &b[lo..(pos + 120).min(b.len())],
        );
    }
}

/// `spec` on `shards` event loops.
fn sharded(shards: u32, spec: RunSpec<'_>) -> RunSpec<'_> {
    RunSpec {
        shards: Some(shards),
        ..spec
    }
}

/// The fingerprint of `deployments` over `units` per kind on `shards`.
fn fleet(deps: Vec<FleetDeployment>, units: u32, cfg: &SimConfig, shards: Option<u32>) -> String {
    let spec = RunSpec::fleet(deps, Catalog::table_ii(), units, cfg);
    fingerprint(&run(RunSpec { shards, ..spec }).results)
}

#[test]
fn clean_elastic_fleet_matches_serial_bit_for_bit() {
    let cfg = SimConfig::with_seed(21);
    let serial = fleet(deployments(60), ELASTIC, &cfg, None);
    for shards in [1u32, 2, 3] {
        let sharded = fleet(deployments(60), ELASTIC, &cfg, Some(shards));
        assert_identical(&format!("clean shards={shards}"), &serial, &sharded);
    }
}

#[test]
fn faulted_fleet_is_invariant_across_shard_counts() {
    let plan = FaultPlan::new()
        .crash(SimTime::from_secs(20), SimDuration::from_secs(10))
        .degrade(SimTime::from_secs(12), SimDuration::from_secs(25), 0.4)
        .straggler(SimTime::from_secs(35), SimDuration::from_secs(15), 3.0)
        .cold_start_storm(SimTime::from_secs(50));
    let cfg =
        SimConfig::with_seed(22).with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    let baseline = fleet(deployments(70), ELASTIC, &cfg, Some(1));
    for shards in [2u32, 3, 7] {
        let sharded = fleet(deployments(70), ELASTIC, &cfg, Some(shards));
        assert_identical(&format!("faulted shards={shards}"), &baseline, &sharded);
    }
}

#[test]
fn crashed_sharded_fleet_conserves_requests() {
    let plan = FaultPlan::sampled_crashes(9, SimTime::from_secs(60), 2, SimDuration::from_secs(8));
    let cfg = SimConfig::with_seed(23).with_faults(plan, FailoverPolicyKind::SameTierSpread);
    let results = run(sharded(
        3,
        RunSpec::fleet(deployments(60), Catalog::table_ii(), ELASTIC, &cfg),
    ))
    .results;
    assert_eq!(results.len(), 4);
    let mut ids = std::collections::BTreeSet::new();
    for r in &results {
        let arrived: u64 = r.arrived_per_model.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            r.completed.len() as u64 + r.unserved,
            arrived,
            "{}: completed + unserved must equal arrived",
            r.scheme
        );
        assert!(arrived > 0, "{}: no traffic generated", r.scheme);
        for c in &r.completed {
            assert!(ids.insert(c.id.0), "duplicate request id {}", c.id.0);
        }
    }
}

#[test]
fn finite_inventory_and_single_tenant_fall_back_to_serial() {
    let cfg = SimConfig::with_seed(24);
    // Finite inventory: sharded must equal the serial engine exactly.
    let serial = fleet(deployments(40), 1, &cfg, None);
    let sharded = fleet(deployments(40), 1, &cfg, Some(4));
    assert_identical("finite inventory", &serial, &sharded);
    // Single tenant: likewise.
    let one = || vec![deployments(40).remove(0)];
    let serial = fleet(one(), ELASTIC, &cfg, None);
    let sharded = fleet(one(), ELASTIC, &cfg, Some(4));
    assert_identical("single tenant", &serial, &sharded);
}

/// Trace-stream shape with the `RunSummary` dispatched-event count masked
/// (each shard runs its own keep-alive chain, so the count varies with the
/// shard count by design; everything else must not).
fn masked_trace(events: Vec<paldia_obs::TraceEvent>) -> Vec<String> {
    events
        .into_iter()
        .map(|e| match e.kind {
            TraceEventKind::RunSummary { horizon, .. } => {
                format!("{}:{}:RunSummary@{horizon:?}", e.seq, e.scope)
            }
            kind => format!("{}:{}:{:?}@{:?}", e.seq, e.scope, kind, e.at),
        })
        .collect()
}

#[test]
fn traced_stream_is_invariant_across_shard_counts() {
    let plan = FaultPlan::new()
        .crash(SimTime::from_secs(15), SimDuration::from_secs(10))
        .degrade(SimTime::from_secs(8), SimDuration::from_secs(20), 0.3);
    let cfg =
        SimConfig::with_seed(25).with_faults(plan, FailoverPolicyKind::CheapestMorePerformant);
    let capture = |shards| {
        let mut sink = VecSink::new();
        let spec = RunSpec::fleet(deployments(50), Catalog::table_ii(), ELASTIC, &cfg);
        let out = run(RunSpec {
            sink: Some(&mut sink),
            ..sharded(shards, spec)
        });
        let events = sink.into_events();
        let summary = events.iter().find_map(|e| match e.kind {
            TraceEventKind::RunSummary { events, .. } => Some(events),
            _ => None,
        });
        assert_eq!(
            Some(out.events),
            summary,
            "shards={shards}: RunSummary count"
        );
        (masked_trace(events), fingerprint(&out.results), out.events)
    };
    let (trace1, results1, _) = capture(1);
    assert!(
        trace1.iter().any(|l| l.contains("FaultEdge")),
        "fault edges must appear in the coordinator stream"
    );
    assert!(trace1.iter().any(|l| l.contains("RunSummary")));
    for shards in [2u32, 4] {
        let (trace_n, results_n, events_n) = capture(shards);
        assert_eq!(results1, results_n, "traced results diverged at {shards}");
        assert_eq!(
            trace1, trace_n,
            "merged trace stream diverged at shards={shards}"
        );
        // Tracing is observation-only on the sharded path too, event count
        // included.
        let spec = RunSpec::fleet(deployments(50), Catalog::table_ii(), ELASTIC, &cfg);
        let untraced = run(sharded(shards, spec));
        let label = format!("traced vs untraced, shards={shards}");
        assert_identical(&label, &fingerprint(&untraced.results), &results_n);
        assert_eq!(untraced.events, events_n, "{label}: event count");
    }
}
