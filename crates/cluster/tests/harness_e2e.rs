//! End-to-end exercises of the cluster harness with simple fixed policies.
//! These validate the substrate itself; the real schemes live in
//! `paldia-core` / `paldia-baselines`.

use paldia_cluster::{
    run, Decision, FailoverPolicyKind, FaultPlan, ModelDecision, Observation, RunResult, RunSpec,
    Scheduler, SimConfig, WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{MlModel, Profile};

/// Fixed hardware, fixed sharing mode.
struct Fixed {
    hw: InstanceKind,
    total_cap: Option<u32>,
}

impl Scheduler for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision {
            hw: self.hw,
            total_cap: self.total_cap,
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

fn steady(model: MlModel, rps: f64, secs: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        model,
        RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
    )
}

fn run_fixed(hw: InstanceKind, total_cap: Option<u32>, spec: WorkloadSpec, seed: u64) -> RunResult {
    let mut sched = Fixed { hw, total_cap };
    let cfg = SimConfig::with_seed(seed);
    let workloads = [spec];
    let lone = RunSpec::lone(&workloads, &mut sched, hw, Catalog::table_ii(), &cfg);
    run(lone).into_lone()
}

#[test]
fn v100_serves_moderate_load_compliantly() {
    let r = run_fixed(
        InstanceKind::P3_2xlarge,
        None,
        steady(MlModel::ResNet50, 100.0, 60),
        1,
    );
    let total = r.completed.len() as u64 + r.unserved;
    assert!(total > 5_000, "expected ~6000 requests, got {total}");
    assert!(r.unserved < total / 100, "unserved {}", r.unserved);
    let slo = r.slo_compliance(200.0);
    assert!(slo > 0.99, "V100 at 100 rps should be compliant: {slo}");
    assert!(r.total_cost() > 0.0);
    let util = r.gpu_utilization().expect("gpu leased");
    assert!(util > 0.0 && util < 1.0, "util {util}");
}

#[test]
fn m60_overload_time_sharing_queues() {
    // ResNet-50 time-shared capacity on the M60 is ~490 rps; offering
    // 700 rps makes the FIFO queue grow without bound: massive queueing,
    // low compliance, and the tail must be queue-dominated.
    let r = run_fixed(
        InstanceKind::G3s_xlarge,
        Some(1),
        steady(MlModel::ResNet50, 700.0, 60),
        2,
    );
    let slo = r.slo_compliance(200.0);
    assert!(slo < 0.7, "overloaded TS should violate heavily: {slo}");
    // Queueing dominates interference for time sharing.
    let mut lat: Vec<&paldia_cluster::CompletedRequest> = r.completed.iter().collect();
    lat.sort_by(|a, b| a.latency_ms().total_cmp(&b.latency_ms()));
    let p99 = lat[(lat.len() as f64 * 0.99) as usize];
    assert!(
        p99.queue_ms() > 5.0 * p99.interference_ms(),
        "queue {} vs interference {}",
        p99.queue_ms(),
        p99.interference_ms()
    );
}

/// A calm → surge → calm trace (the Azure-style stress pattern).
fn surge(model: MlModel, base: f64, peak: f64, secs: u64) -> WorkloadSpec {
    let mut rates = vec![base; secs as usize];
    let mid = secs as usize / 2;
    for r in rates.iter_mut().take(mid + 8).skip(mid) {
        *r = peak;
    }
    WorkloadSpec::new(
        model,
        RateTrace::from_rates(SimDuration::from_secs(1), rates),
    )
}

#[test]
fn mps_surge_is_interference_dominated_vs_time_sharing() {
    // During a surge the backlog forms full batches instantly. Unbounded
    // MPS consolidates them (execution stretches = interference); pure time
    // sharing serializes them (waiting = queueing). The *shape* of the tail
    // breakdown must differ accordingly — Fig. 4's contrast.
    let spec = || surge(MlModel::GoogleNet, 40.0, 700.0, 60);
    let mps = run_fixed(InstanceKind::G3s_xlarge, None, spec(), 3);
    let ts = run_fixed(InstanceKind::G3s_xlarge, Some(1), spec(), 3);

    let share = |r: &RunResult| {
        let interf: f64 = r.completed.iter().map(|c| c.interference_ms()).sum();
        let queue: f64 = r.completed.iter().map(|c| c.queue_ms()).sum();
        interf / (interf + queue).max(1e-9)
    };
    let mps_share = share(&mps);
    let ts_share = share(&ts);
    assert!(
        mps_share > ts_share + 0.2,
        "MPS interference share {mps_share:.2} vs TS {ts_share:.2}"
    );
    // Both schemes violate during the surge on the cheap GPU.
    assert!(
        mps.slo_compliance(200.0) < 0.98,
        "mps {}",
        mps.slo_compliance(200.0)
    );
    assert!(
        ts.slo_compliance(200.0) < 0.98,
        "ts {}",
        ts.slo_compliance(200.0)
    );
}

#[test]
fn hybrid_cap_beats_both_extremes_under_surge() {
    // A bounded spatial cap (the mechanism Paldia's y-search tunes) should
    // outperform both pure time sharing and unbounded MPS under the same
    // overload.
    let spec = || steady(MlModel::GoogleNet, 400.0, 60);
    let ts = run_fixed(InstanceKind::G3s_xlarge, Some(1), spec(), 4);
    let mps = run_fixed(InstanceKind::G3s_xlarge, None, spec(), 4);
    let hybrid = run_fixed(InstanceKind::G3s_xlarge, Some(2), spec(), 4);
    let (s_ts, s_mps, s_hy) = (
        ts.slo_compliance(200.0),
        mps.slo_compliance(200.0),
        hybrid.slo_compliance(200.0),
    );
    assert!(
        s_hy >= s_ts && s_hy >= s_mps,
        "hybrid {s_hy:.3} vs ts {s_ts:.3} / mps {s_mps:.3}"
    );
}

#[test]
fn transition_switches_hardware_in_background() {
    struct Upgrader {
        ticks: u32,
    }
    impl Scheduler for Upgrader {
        fn name(&self) -> &str {
            "upgrader"
        }
        fn decide(&mut self, _obs: &Observation) -> Decision {
            self.ticks += 1;
            let hw = if self.ticks > 10 {
                InstanceKind::P3_2xlarge
            } else {
                InstanceKind::G3s_xlarge
            };
            Decision {
                hw,
                total_cap: None,
                per_model: vec![],
            }
        }
    }
    let mut sched = Upgrader { ticks: 0 };
    let cfg = SimConfig::with_seed(5);
    let r = run(RunSpec::lone(
        &[steady(MlModel::ResNet50, 50.0, 60)],
        &mut sched,
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
    ))
    .into_lone();
    assert!(r.transitions >= 1, "transition should have happened");
    let kinds: Vec<InstanceKind> = r.nodes.iter().map(|n| n.kind).collect();
    assert!(kinds.contains(&InstanceKind::G3s_xlarge));
    assert!(kinds.contains(&InstanceKind::P3_2xlarge));
    // The routing timeline records the switch: starts on the M60, moves to
    // the V100 once the background provisioning completes.
    assert_eq!(
        r.hw_timeline.first(),
        Some(&(0.0, InstanceKind::G3s_xlarge))
    );
    assert!(r
        .hw_timeline
        .iter()
        .any(|&(t, k)| k == InstanceKind::P3_2xlarge && t > 0.0));
    assert!(r.hw_timeline.windows(2).all(|w| w[0].0 <= w[1].0));
    // Both nodes billed.
    assert!(r.cost.hours_on(InstanceKind::G3s_xlarge) > 0.0);
    assert!(r.cost.hours_on(InstanceKind::P3_2xlarge) > 0.0);
}

#[test]
fn node_failure_fails_over_and_recovers() {
    let mut cfg = SimConfig::with_seed(6);
    cfg.faults = FaultPlan::new().crash(SimTime::from_secs(20), SimDuration::from_secs(30));
    cfg.failover = FailoverPolicyKind::CheapestMorePerformant;
    let mut sched = Fixed {
        hw: InstanceKind::G3s_xlarge,
        total_cap: None,
    };
    let r = run(RunSpec::lone(
        &[steady(MlModel::ResNet50, 50.0, 90)],
        &mut sched,
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
    ))
    .into_lone();
    // Failover provisioned the cheapest more performant node: the V100 box.
    assert!(
        r.cost.hours_on(InstanceKind::P3_2xlarge) > 0.0,
        "{}",
        r.cost
    );
    // The vast majority of requests still complete.
    let total = r.completed.len() as u64 + r.unserved;
    assert!(
        r.unserved < total / 10,
        "unserved {} of {total}",
        r.unserved
    );
}

#[test]
fn deterministic_runs() {
    let a = run_fixed(
        InstanceKind::G3s_xlarge,
        None,
        steady(MlModel::SeNet18, 80.0, 30),
        7,
    );
    let b = run_fixed(
        InstanceKind::G3s_xlarge,
        None,
        steady(MlModel::SeNet18, 80.0, 30),
        7,
    );
    assert_eq!(a.completed.len(), b.completed.len());
    assert_eq!(a.unserved, b.unserved);
    assert!((a.total_cost() - b.total_cost()).abs() < 1e-12);
    let la: Vec<f64> = a.completed.iter().map(|c| c.latency_ms()).collect();
    let lb: Vec<f64> = b.completed.iter().map(|c| c.latency_ms()).collect();
    assert_eq!(la, lb);
}

#[test]
fn cpu_node_serves_trickle_traffic() {
    let r = run_fixed(
        InstanceKind::C6i_4xlarge,
        None, // CPU workers are serial regardless
        steady(MlModel::MobileNet, 10.0, 60),
        8,
    );
    let slo = r.slo_compliance(200.0);
    assert!(slo > 0.95, "CPU at 10 rps MobileNet: {slo}");
    assert!(r.gpu_utilization().is_none());
    assert!(r.cpu_utilization().is_some());
}

#[test]
fn latency_accounting_is_consistent() {
    let r = run_fixed(
        InstanceKind::P3_2xlarge,
        None,
        steady(MlModel::ResNet50, 100.0, 20),
        9,
    );
    for c in &r.completed {
        assert!(c.completed >= c.exec_start);
        assert!(c.exec_start >= c.arrival);
        let sum = c.queue_ms() + c.solo_ms + c.interference_ms();
        assert!(
            (sum - c.latency_ms()).abs() < 0.01,
            "breakdown {} != latency {}",
            sum,
            c.latency_ms()
        );
        assert!(c.batch_size >= 1);
    }
}
