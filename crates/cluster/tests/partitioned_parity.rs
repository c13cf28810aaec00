//! Bit-identity of the batch engine and the incremental session.
//!
//! A lone `run` puts its pre-sampled arrivals on the calendar's rail. A
//! `SimSession` replaying the same recorded arrivals runs on the same
//! calendar with an empty rail, injecting each arrival into the heap under
//! its reserved sequence number just before it is due. The two must
//! produce a `RunResult` that is byte-for-byte identical — same
//! completions in the same order, same costs, same node stats, same
//! timelines — and the same engine event count, across clean runs,
//! overload, hardware transitions, and every fault kind. The comparison
//! goes through `format!("{:?}")`, which for `f64` prints the shortest
//! round-trip representation and therefore distinguishes any two different
//! bit patterns outside of NaN/signed-zero (neither occurs here). (The
//! calendar itself is held against a plain heap in `fleet.rs`'s unit
//! tests.)

use paldia_cluster::{
    run, run_replay_virtual, Decision, FailoverPolicyKind, FaultPlan, ModelDecision, Observation,
    RecordedTrace, RunResult, RunSpec, Scheduler, SimConfig, SimSession, WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{MlModel, Profile};

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

/// Run the scenario on the batch engine and as a session replay of its
/// recorded arrivals (a fresh scheduler from `sched` each), and demand
/// identical output and event counts.
fn assert_parity<S: Scheduler>(
    sched: impl Fn() -> S,
    hw: InstanceKind,
    spec: &WorkloadSpec,
    cfg: &SimConfig,
) -> RunResult {
    let specs = std::slice::from_ref(spec);
    let mut batch_sched = sched();
    let spec = RunSpec::lone(specs, &mut batch_sched, hw, Catalog::table_ii(), cfg);
    let out = run(spec);
    let batch_events = out.events;
    let batch = out.into_lone();
    let trace = RecordedTrace::record(specs, cfg.seed, hw);
    let mut replay_sched = sched();
    let mut session = SimSession::new(
        trace.models.clone(),
        &mut replay_sched,
        trace.initial_hw,
        Catalog::table_ii(),
        cfg,
        trace.trace_end(),
        trace.reserve,
    );
    run_replay_virtual(&mut session, &trace.arrivals).expect("recorded trace replays");
    assert_eq!(
        session.events(),
        batch_events,
        "engine event counts diverged"
    );
    let replayed = session.finish();
    assert_identical(&batch, &replayed);
    batch
}

fn fixed(hw: InstanceKind, total_cap: Option<u32>) -> impl Fn() -> Fixed {
    move || Fixed { hw, total_cap }
}

fn assert_identical(batch: &RunResult, replayed: &RunResult) {
    assert_eq!(
        batch.completed.len(),
        replayed.completed.len(),
        "completion count diverged"
    );
    let a = format!("{batch:?}");
    let b = format!("{replayed:?}");
    if a != b {
        // Find the first divergent region for a readable failure message.
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "engines diverged at byte {at}:\n batch:  …{}…\n replay: …{}…",
            &a[lo..(at + 80).min(a.len())],
            &b[lo..(at + 80).min(b.len())]
        );
    }
}

#[test]
fn parity_moderate_gpu_load() {
    let cfg = SimConfig::with_seed(11);
    assert_parity(
        fixed(InstanceKind::P3_2xlarge, None),
        InstanceKind::P3_2xlarge,
        &steady(MlModel::ResNet50, 100.0, 60),
        &cfg,
    );
}

#[test]
fn parity_time_sharing_overload() {
    // Overload keeps the batch-deadline path and hold-back logic hot.
    let cfg = SimConfig::with_seed(12);
    assert_parity(
        fixed(InstanceKind::G3s_xlarge, Some(1)),
        InstanceKind::G3s_xlarge,
        &steady(MlModel::ResNet50, 700.0, 45),
        &cfg,
    );
}

#[test]
fn parity_cpu_node() {
    let cfg = SimConfig::with_seed(13);
    assert_parity(
        fixed(InstanceKind::C6i_4xlarge, None),
        InstanceKind::C6i_4xlarge,
        &steady(MlModel::MobileNet, 10.0, 60),
        &cfg,
    );
}

#[test]
fn parity_under_hardware_transition() {
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
    let cfg = SimConfig::with_seed(14);
    let batch = assert_parity(
        || Upgrader { ticks: 0 },
        InstanceKind::G3s_xlarge,
        &steady(MlModel::ResNet50, 50.0, 60),
        &cfg,
    );
    assert!(batch.transitions >= 1, "scenario must exercise a switch");
}

#[test]
fn parity_under_faults() {
    // Crash + degradation + straggler + cold-start storm in one plan, so
    // every fault arm of the event handler runs on both engines.
    let mut cfg = SimConfig::with_seed(15);
    cfg.faults = FaultPlan::new()
        .crash(SimTime::from_secs(20), SimDuration::from_secs(25))
        .degrade(SimTime::from_secs(10), SimDuration::from_secs(30), 0.4)
        .straggler(SimTime::from_secs(35), SimDuration::from_secs(20), 3.0)
        .cold_start_storm(SimTime::from_secs(60));
    cfg.failover = FailoverPolicyKind::CheapestMorePerformant;
    assert_parity(
        fixed(InstanceKind::G3s_xlarge, None),
        InstanceKind::G3s_xlarge,
        &steady(MlModel::ResNet50, 50.0, 90),
        &cfg,
    );
}
