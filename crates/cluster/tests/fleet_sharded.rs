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
    fleet_counted(deps, units, cfg, shards).0
}

/// [`fleet`]'s fingerprint plus the engine event count.
fn fleet_counted(
    deps: Vec<FleetDeployment>,
    units: u32,
    cfg: &SimConfig,
    shards: Option<u32>,
) -> (String, u64) {
    let spec = RunSpec::fleet(deps, Catalog::table_ii(), units, cfg);
    let out = run(RunSpec { shards, ..spec });
    (fingerprint(&out.results), out.events)
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
    let (baseline, events) = fleet_counted(deployments(70), ELASTIC, &cfg, Some(1));
    for shards in [2u32, 3, 7] {
        let (sharded, n) = fleet_counted(deployments(70), ELASTIC, &cfg, Some(shards));
        assert_identical(&format!("faulted shards={shards}"), &baseline, &sharded);
        assert_eq!(events, n, "faulted shards={shards}: event count");
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

/// Trace-stream shape, one line per event, the `RunSummary` count
/// included.
fn trace_lines(events: Vec<paldia_obs::TraceEvent>) -> Vec<String> {
    events
        .into_iter()
        .map(|e| format!("{}:{}:{:?}@{:?}", e.seq, e.scope, e.kind, e.at))
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
        (trace_lines(events), fingerprint(&out.results), out.events)
    };
    let (trace1, results1, events1) = capture(1);
    assert!(
        trace1.iter().any(|l| l.contains("FaultEdge")),
        "fault edges must appear in the coordinator stream"
    );
    assert!(trace1.iter().any(|l| l.contains("RunSummary")));
    for shards in [2u32, 4] {
        let (trace_n, results_n, events_n) = capture(shards);
        assert_eq!(results1, results_n, "traced results diverged at {shards}");
        assert_eq!(events1, events_n, "event count diverged at shards={shards}");
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

/// Four tenants serving two or three models each. Each tenant's arrivals
/// are sampled model-major, so its rail is out of time order and takes
/// the stable sort in its own partition, where the serial engine sorts
/// every tenant's arrivals together.
fn multi_model_deployments(secs: u64) -> Vec<FleetDeployment> {
    let served: [&[(MlModel, f64)]; 4] = [
        &[(MlModel::GoogleNet, 40.0), (MlModel::ResNet50, 25.0)],
        &[
            (MlModel::SeNet18, 30.0),
            (MlModel::MobileNet, 45.0),
            (MlModel::GoogleNet, 15.0),
        ],
        &[(MlModel::ResNet50, 35.0), (MlModel::MobileNet, 20.0)],
        &[
            (MlModel::MobileNet, 10.0),
            (MlModel::SeNet18, 50.0),
            (MlModel::ResNet50, 20.0),
        ],
    ];
    served
        .into_iter()
        .enumerate()
        .map(|(i, models)| FleetDeployment {
            name: format!("multi-{i}"),
            workloads: models
                .iter()
                .map(|&(model, rps)| {
                    paldia_cluster::WorkloadSpec::new(
                        model,
                        RateTrace::constant(
                            rps,
                            SimDuration::from_secs(secs),
                            SimDuration::from_secs(1),
                        ),
                    )
                })
                .collect(),
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: Catalog::table_ii().by_cost_ascending()[i % 3],
        })
        .collect()
}

/// The per-tenant partitions against a shared calendar: on a clean elastic
/// fleet of multi-model tenants, every shard count must give the serial
/// engine's results and decision stream. Decisions are compared per
/// tenant in emission order (the serial engine interleaves same-instant
/// tenants by its heap order, the merged stream by scope).
#[test]
fn multi_model_partitions_match_the_serial_engine() {
    let cfg = SimConfig::with_seed(26);
    let capture = |shards: Option<u32>| {
        let mut sink = VecSink::new();
        let spec = RunSpec::fleet(
            multi_model_deployments(45),
            Catalog::table_ii(),
            ELASTIC,
            &cfg,
        );
        let out = run(RunSpec {
            shards,
            sink: Some(&mut sink),
            ..spec
        });
        let mut decisions: Vec<(u32, String)> = sink
            .into_events()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Decision(_)))
            .map(|e| (e.scope, format!("{:?}@{:?}", e.kind, e.at)))
            .collect();
        decisions.sort_by_key(|&(scope, _)| scope);
        (fingerprint(&out.results), decisions)
    };
    let (serial, serial_decisions) = capture(None);
    assert!(
        serial_decisions.len() > 4,
        "every tenant must decide at least once"
    );
    for shards in [1u32, 2, 7] {
        let (results, decisions) = capture(Some(shards));
        assert_identical(&format!("multi-model shards={shards}"), &serial, &results);
        assert_eq!(
            serial_decisions, decisions,
            "multi-model shards={shards}: decision stream"
        );
    }
}
