//! End-to-end tests of the multi-tenant fleet harness.

use paldia_cluster::{
    run, Decision, FailoverPolicyKind, FaultPlan, FleetDeployment, ModelDecision, Observation,
    RunResult, RunSpec, Scheduler, SimConfig, WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{MlModel, Profile};

/// Scheme that always wants one specific kind with unbounded MPS.
struct Wants(InstanceKind);

impl Scheduler for Wants {
    fn name(&self) -> &str {
        "wants"
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision {
            hw: self.0,
            total_cap: None,
            per_model: obs
                .models
                .iter()
                .map(|m| {
                    (
                        m.model,
                        ModelDecision {
                            batch_size: Profile::default_batch(m.model),
                            spatial_cap: u32::MAX,
                        },
                    )
                })
                .collect(),
        }
    }
}

fn steady(model: MlModel, rps: f64, secs: u64) -> Vec<WorkloadSpec> {
    vec![WorkloadSpec::new(
        model,
        RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
    )]
}

#[test]
fn single_tenant_fleet_matches_solo_run_closely() {
    // One deployment over an effectively unlimited inventory should behave
    // like the single-tenant harness (event interleaving differs slightly,
    // headline numbers must not).
    let cfg = SimConfig::with_seed(3);
    let solo = run(RunSpec::lone(
        &steady(MlModel::ResNet50, 80.0, 60),
        &mut Wants(InstanceKind::G3s_xlarge),
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
    ))
    .into_lone();
    let deployments = vec![FleetDeployment {
        name: "only".into(),
        workloads: steady(MlModel::ResNet50, 80.0, 60),
        scheduler: Box::new(Wants(InstanceKind::G3s_xlarge)),
        initial_hw: InstanceKind::G3s_xlarge,
    }];
    let fleet = run(RunSpec::fleet(deployments, Catalog::table_ii(), 10, &cfg)).results;
    assert_eq!(fleet.len(), 1);
    let f = &fleet[0];
    assert_eq!(f.completed.len(), solo.completed.len());
    assert!((f.slo_compliance(cfg.slo_ms) - solo.slo_compliance(cfg.slo_ms)).abs() < 0.01);
    assert!((f.total_cost() - solo.total_cost()).abs() < 0.01);
    assert!(f.scheme.contains("only"));
}

#[test]
fn inventory_contention_blocks_the_second_tenant() {
    // Two tenants both demand the single V100: only one can hold it.
    let cfg = SimConfig::with_seed(4);
    let mk = |name: &str, start: InstanceKind| FleetDeployment {
        name: name.into(),
        workloads: steady(MlModel::ResNet50, 50.0, 45),
        scheduler: Box::new(Wants(InstanceKind::P3_2xlarge)),
        initial_hw: start,
    };
    let deployments = vec![
        mk("holder", InstanceKind::P3_2xlarge),
        mk("wisher", InstanceKind::G3s_xlarge),
    ];
    let results = run(RunSpec::fleet(deployments, Catalog::table_ii(), 1, &cfg)).results;
    let holder = &results[0];
    let wisher = &results[1];
    assert!(holder.cost.hours_on(InstanceKind::P3_2xlarge) > 0.0);
    // The wisher never obtained the V100 — the unit was taken the whole run.
    assert_eq!(wisher.cost.hours_on(InstanceKind::P3_2xlarge), 0.0);
    assert!(wisher.cost.hours_on(InstanceKind::G3s_xlarge) > 0.0);
    // It still served its traffic on what it had.
    let total = wisher.completed.len() as u64 + wisher.unserved;
    assert!(wisher.unserved < total / 10);
}

#[test]
fn freed_units_become_available() {
    // Tenant A (Paldia) starts on the V100 but its traffic dies after 15 s,
    // so it downgrades to cheap hardware — freeing the single V100 unit for
    // tenant B's standing wish.
    use paldia_core::PaldiaScheduler;
    let cfg = SimConfig::with_seed(5);
    let deployments = vec![
        FleetDeployment {
            name: "short".into(),
            workloads: steady(MlModel::ResNet50, 50.0, 15),
            scheduler: Box::new(PaldiaScheduler::new()),
            initial_hw: InstanceKind::P3_2xlarge,
        },
        FleetDeployment {
            name: "long".into(),
            workloads: steady(MlModel::SeNet18, 50.0, 180),
            scheduler: Box::new(Wants(InstanceKind::P3_2xlarge)),
            initial_hw: InstanceKind::G3s_xlarge,
        },
    ];
    let results = run(RunSpec::fleet(deployments, Catalog::table_ii(), 1, &cfg)).results;
    let short = &results[0];
    let long = &results[1];
    assert!(
        short.transitions >= 1,
        "Paldia should have downgraded off the V100 once traffic died"
    );
    assert!(
        long.cost.hours_on(InstanceKind::P3_2xlarge) > 0.0,
        "the freed V100 should eventually go to the waiting tenant: {}",
        long.cost
    );
    assert!(long
        .hw_timeline
        .iter()
        .any(|&(_, k)| k == InstanceKind::P3_2xlarge));
}

/// Conservation invariant: whatever the crash schedule does, every admitted
/// request is exactly-once completed or counted unserved — never lost,
/// never duplicated. `unserved` is a saturating difference, so duplicated
/// completions would silently hide; checking `completed + unserved ==
/// arrived` alongside RequestId uniqueness closes that hole.
fn assert_conserved(r: &RunResult, label: &str) -> u64 {
    let arrived: u64 = r.arrived_per_model.iter().map(|&(_, n)| n).sum();
    let mut ids: Vec<u64> = r.completed.iter().map(|c| c.id.0).collect();
    ids.sort_unstable();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "{label}: duplicate completed RequestIds");
    assert_eq!(
        r.completed.len() as u64 + r.unserved,
        arrived,
        "{label}: completed + unserved != arrived"
    );
    arrived
}

#[test]
fn crash_schedules_conserve_requests() {
    // Clean run pins the arrival count; every crash schedule must then
    // conserve it, for both the single-tenant and the fleet harness.
    let base = SimConfig::with_seed(9);
    let schedules: Vec<(String, FaultPlan)> = [11u64, 77, 4_040]
        .iter()
        .map(|&s| {
            (
                format!("sampled-{s}"),
                FaultPlan::sampled_crashes(s, SimTime::from_secs(60), 4, SimDuration::from_secs(8)),
            )
        })
        .chain(std::iter::once((
            "minute".into(),
            FaultPlan::minute_crashes(SimTime::from_secs(10), 3),
        )))
        .collect();

    let solo_at = |cfg: &SimConfig| {
        run(RunSpec::lone(
            &steady(MlModel::ResNet50, 80.0, 60),
            &mut Wants(InstanceKind::P3_2xlarge),
            InstanceKind::P3_2xlarge,
            Catalog::table_ii(),
            cfg,
        ))
        .into_lone()
    };
    let fleet_at = |cfg: &SimConfig| {
        use paldia_core::PaldiaScheduler;
        let deployments = vec![
            FleetDeployment {
                name: "wants".into(),
                workloads: steady(MlModel::ResNet50, 60.0, 60),
                scheduler: Box::new(Wants(InstanceKind::P3_2xlarge)),
                initial_hw: InstanceKind::P3_2xlarge,
            },
            FleetDeployment {
                name: "paldia".into(),
                workloads: steady(MlModel::SeNet18, 90.0, 60),
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::G3s_xlarge,
            },
        ];
        run(RunSpec::fleet(deployments, Catalog::table_ii(), 2, cfg)).results
    };

    let clean_solo = assert_conserved(&solo_at(&base), "solo/clean");
    let clean_fleet: Vec<u64> = fleet_at(&base)
        .iter()
        .map(|r| assert_conserved(r, "fleet/clean"))
        .collect();

    for (label, plan) in &schedules {
        let cfg = base
            .clone()
            .with_faults(plan.clone(), FailoverPolicyKind::CheapestMorePerformant);
        let solo = solo_at(&cfg);
        assert_eq!(
            assert_conserved(&solo, &format!("solo/{label}")),
            clean_solo,
            "solo/{label}: faults must not change the pre-sampled arrivals"
        );
        assert!(
            !solo.completed.is_empty(),
            "solo/{label}: nothing completed under faults"
        );
        for (r, &clean) in fleet_at(&cfg).iter().zip(clean_fleet.iter()) {
            assert_eq!(
                assert_conserved(r, &format!("fleet/{label}")),
                clean,
                "fleet/{label}: faults must not change the pre-sampled arrivals"
            );
        }
    }
}

#[test]
fn fleet_with_paldia_tenants_is_deterministic() {
    use paldia_core::PaldiaScheduler;
    let cfg = SimConfig::with_seed(6);
    let mk = || {
        vec![
            FleetDeployment {
                name: "a".into(),
                workloads: steady(MlModel::GoogleNet, 60.0, 45),
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::C6i_4xlarge,
            },
            FleetDeployment {
                name: "b".into(),
                workloads: steady(MlModel::SeNet18, 90.0, 45),
                scheduler: Box::new(PaldiaScheduler::new()),
                initial_hw: InstanceKind::C6i_2xlarge,
            },
        ]
    };
    let r1 = run(RunSpec::fleet(mk(), Catalog::table_ii(), 1, &cfg)).results;
    let r2 = run(RunSpec::fleet(mk(), Catalog::table_ii(), 1, &cfg)).results;
    for (a, b) in r1.iter().zip(r2.iter()) {
        assert_eq!(a.completed.len(), b.completed.len());
        assert_eq!(a.unserved, b.unserved);
        assert!((a.total_cost() - b.total_cost()).abs() < 1e-12);
    }
}
