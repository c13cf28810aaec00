//! Bit-identity of the incremental session executor against the batch
//! engine, on replayed recorded traces.
//!
//! This is the inner half of the serving shell's differential guarantee
//! (DESIGN.md §14): `RecordedTrace::record` + `SimSession` + `run_replay`
//! on the virtual clock must reproduce a lone `run` byte-for-byte —
//! same completions in the same order, same costs, same node stats, same
//! timelines, and (traced) the same decision stream in both diff
//! directions. The outer half — the wall-clock shell over TCP against the
//! virtual replay — lives in `crates/serve/tests/differential.rs`.

use paldia_cluster::{
    run, run_replay, run_replay_virtual, Decision, ModelDecision, Observation, RecordedTrace,
    RequestId, RunResult, RunSpec, SampledArrival, Scheduler, SimConfig, SimSession, SliceSource,
    WorkloadSpec,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{diff_decision_streams, TraceEvent, VecSink};
use paldia_sim::{SimDuration, SimTime, VirtualClock};
use paldia_traces::RateTrace;
use paldia_workloads::{MlModel, Profile};

struct Fixed {
    hw: InstanceKind,
}

impl Scheduler for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        Decision {
            hw: self.hw,
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

fn steady(model: MlModel, rps: f64, secs: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        model,
        RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
    )
}

fn assert_identical(batch: &RunResult, session: &RunResult, label: &str) {
    let a = format!("{batch:?}");
    let b = format!("{session:?}");
    if a != b {
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "executors diverged ({label}), byte {at}:\n batch:   …{}…\n session: …{}…",
            &a[lo..(at + 80).min(a.len())],
            &b[lo..(at + 80).min(b.len())]
        );
    }
}

/// Record the workloads, replay through a session on the virtual clock,
/// and demand the batch engine's exact result.
fn assert_replay_parity(
    workloads: &[WorkloadSpec],
    initial_hw: InstanceKind,
    cfg: &SimConfig,
    make: &dyn Fn() -> Box<dyn Scheduler>,
    label: &str,
) {
    let batch = {
        let mut sched = make();
        let (hw, catalog) = (initial_hw, Catalog::table_ii());
        run(RunSpec::lone(workloads, sched.as_mut(), hw, catalog, cfg)).into_lone()
    };

    let trace = RecordedTrace::record(workloads, cfg.seed, initial_hw);
    let text = trace.to_text();
    let parsed = RecordedTrace::parse(&text).expect("recorded trace round-trips");
    assert_eq!(parsed, trace, "text round trip ({label})");

    let mut sched = make();
    let mut session = SimSession::new(
        parsed.models.clone(),
        sched.as_mut(),
        parsed.initial_hw,
        Catalog::table_ii(),
        cfg,
        parsed.trace_end(),
        parsed.reserve,
    );
    run_replay_virtual(&mut session, &parsed.arrivals).expect("recorded trace replays");
    let replayed = session.finish();
    assert_identical(&batch, &replayed, label);
}

#[test]
fn session_replay_matches_batch_fixed_gpu() {
    let cfg = SimConfig::with_seed(21);
    assert_replay_parity(
        &[steady(MlModel::ResNet50, 120.0, 60)],
        InstanceKind::P3_2xlarge,
        &cfg,
        &|| {
            Box::new(Fixed {
                hw: InstanceKind::P3_2xlarge,
            })
        },
        "fixed/gpu",
    );
}

#[test]
fn session_replay_matches_batch_paldia_multi_model() {
    let cfg = SimConfig::with_seed(22);
    assert_replay_parity(
        &[
            steady(MlModel::GoogleNet, 60.0, 90),
            steady(MlModel::ResNet50, 25.0, 75),
        ],
        InstanceKind::G3s_xlarge,
        &cfg,
        &|| Box::new(PaldiaScheduler::new()),
        "paldia/multi-model",
    );
}

#[test]
fn session_completions_stream_in_completion_order() {
    let cfg = SimConfig::with_seed(23);
    let workloads = [steady(MlModel::GoogleNet, 40.0, 30)];
    let trace = RecordedTrace::record(&workloads, cfg.seed, InstanceKind::G3s_xlarge);
    let mut sched = PaldiaScheduler::new();
    let mut session = SimSession::new(
        trace.models.clone(),
        &mut sched,
        trace.initial_hw,
        Catalog::table_ii(),
        &cfg,
        trace.trace_end(),
        trace.reserve,
    );
    let mut streamed = Vec::new();
    let mut source = SliceSource::new(&trace.arrivals);
    let mut clock = VirtualClock;
    run_replay(&mut session, &mut source, &mut clock, |c| {
        streamed.push(*c);
    })
    .expect("recorded trace replays");
    let result = session.finish();
    assert_eq!(
        streamed.len(),
        result.completed.len(),
        "every completion streams exactly once"
    );
    assert_eq!(
        format!("{streamed:?}"),
        format!("{:?}", result.completed),
        "stream order == record order"
    );
    assert!(
        streamed
            .windows(2)
            .all(|w| w[0].completed <= w[1].completed),
        "completions stream in time order"
    );
}

#[test]
fn traced_session_replay_matches_batch_decision_stream() {
    let cfg = SimConfig::with_seed(24);
    let workloads = [steady(MlModel::GoogleNet, 80.0, 90)];

    let mut batch_sink = VecSink::new();
    let batch = {
        let mut sched = PaldiaScheduler::new();
        let hw = InstanceKind::G3s_xlarge;
        let spec = RunSpec::lone(&workloads, &mut sched, hw, Catalog::table_ii(), &cfg);
        run(RunSpec {
            sink: Some(&mut batch_sink),
            ..spec
        })
        .into_lone()
    };

    let trace = RecordedTrace::record(&workloads, cfg.seed, InstanceKind::G3s_xlarge);
    let mut session_sink = VecSink::new();
    let mut sched = PaldiaScheduler::new();
    let mut session = SimSession::new_traced(
        trace.models.clone(),
        &mut sched,
        trace.initial_hw,
        Catalog::table_ii(),
        &cfg,
        trace.trace_end(),
        trace.reserve,
        &mut session_sink,
    );
    run_replay_virtual(&mut session, &trace.arrivals).expect("recorded trace replays");
    let replayed = session.finish();
    assert_identical(&batch, &replayed, "paldia/traced");

    let a: Vec<TraceEvent> = batch_sink.into_events();
    let b: Vec<TraceEvent> = session_sink.into_events();
    assert!(!a.is_empty(), "traced batch run must emit events");
    assert_eq!(a, b, "full trace streams are identical");
    let fwd = diff_decision_streams(&a, &b);
    let rev = diff_decision_streams(&b, &a);
    assert!(fwd.is_empty(), "forward diff clean: {fwd:?}");
    assert!(rev.is_empty(), "reverse diff clean: {rev:?}");
}

/// Recorded arrival `seq` of GoogleNet at `ms` milliseconds.
fn arrival(seq: u64, ms: u64) -> SampledArrival {
    SampledArrival {
        seq,
        id: RequestId(seq + 1),
        at: SimTime::from_millis(ms),
        model: MlModel::GoogleNet,
    }
}

/// Every malformed recorded injection is refused — in release builds too —
/// with an error naming the offending seq, and leaves the session usable:
/// a seq outside the reserved block, a seq injected twice, an `(at, seq)`
/// not after the previous recorded arrival, and an `at` before now.
#[test]
fn malformed_injections_are_refused_without_panic() {
    let cfg = SimConfig::with_seed(25);
    let mut sched = Fixed {
        hw: InstanceKind::G3s_xlarge,
    };
    let mut session = SimSession::new(
        vec![MlModel::GoogleNet],
        &mut sched,
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
        SimTime::from_secs(10),
        4,
    );
    let refused = |r: Result<(), String>, seq: u64, why: &str| {
        let e = r.expect_err("malformed arrival refused");
        assert!(
            e.contains(&format!("seq {seq} ")),
            "error names seq {seq}: {e}"
        );
        assert!(e.contains(why), "error says `{why}`: {e}");
    };
    refused(
        session.inject_recorded(&arrival(4, 1_000)),
        4,
        "reserved block",
    );
    session
        .inject_recorded(&arrival(1, 2_000))
        .expect("in-order arrival accepted");
    refused(
        session.inject_recorded(&arrival(1, 3_000)),
        1,
        "already injected",
    );
    refused(session.inject_recorded(&arrival(0, 1_000)), 0, "not after");
    while session
        .next_event_time()
        .is_some_and(|t| t < SimTime::from_millis(2_600))
    {
        session.step();
    }
    assert!(session.now() > SimTime::from_millis(2_200));
    refused(
        session.inject_recorded(&arrival(2, 2_200)),
        2,
        "earlier than",
    );
    session
        .inject_recorded(&arrival(2, 3_000))
        .expect("the session stays usable after a refusal");
    // The horizon is exclusive: an arrival there could never be processed.
    let horizon = session.horizon();
    let at = |t: SimTime| SampledArrival {
        at: t,
        ..arrival(3, 0)
    };
    refused(session.inject_recorded(&at(horizon)), 3, "horizon");
    let last = at(SimTime::from_micros(horizon.as_micros() - 1));
    session
        .inject_recorded(&last)
        .expect("an arrival just before the horizon is accepted");
    let result = session.finish();
    let arrived: u64 = result.arrived_per_model.iter().map(|&(_, n)| n).sum();
    assert_eq!(arrived, 3, "only the three accepted arrivals entered");
    assert_eq!(result.completed.len() as u64 + result.unserved, 3);
}

/// The replay driver stops at the first refused arrival and reports it.
#[test]
fn run_replay_surfaces_a_refused_arrival() {
    let cfg = SimConfig::with_seed(26);
    let mut sched = Fixed {
        hw: InstanceKind::G3s_xlarge,
    };
    let mut session = SimSession::new(
        vec![MlModel::GoogleNet],
        &mut sched,
        InstanceKind::G3s_xlarge,
        Catalog::table_ii(),
        &cfg,
        SimTime::from_secs(10),
        3,
    );
    let arrivals = [arrival(0, 1_000), arrival(1, 2_000), arrival(1, 2_500)];
    let e = run_replay_virtual(&mut session, &arrivals).expect_err("duplicate seq refused");
    assert!(e.contains("seq 1 already injected"), "{e}");
    let result = session.finish();
    assert_eq!(result.completed.len() as u64 + result.unserved, 2);
}
