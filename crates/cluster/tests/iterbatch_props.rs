//! Property battery for iteration-level continuous batching.
//!
//! The iterative engine's contract is narrow but load-bearing: sequences
//! only join and leave the running batch at iteration boundaries, the KV
//! cache is a hard capacity bound at every instant, every request does
//! exactly the work its token card prescribes, and none of it depends on
//! which executor drives the events. Each property replays full end-to-end
//! simulations over generated seeds/rates — a single deployment, and a
//! three-tenant fleet at shards {1, 2, 3} — and audits the emitted
//! `IterationStarted`/`BatchJoin`/`BatchLeave` stream.

use paldia_cluster::{
    run, run_replay_virtual, Decision, FleetDeployment, ModelDecision, Observation, RecordedTrace,
    RunResult, RunSpec, Scheduler, SimConfig, SimSession, WorkloadSpec,
};
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceEvent, TraceEventKind, VecSink};
use paldia_sim::{SimDuration, SimTime};
use paldia_traces::RateTrace;
use paldia_workloads::{tokens::TokenCard, MlModel, Profile};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fixed hardware, default batching — the substrate test policy. Records
/// the largest `kv_demand_tokens` it was ever shown.
struct Fixed(InstanceKind, Arc<AtomicU64>);

impl Fixed {
    fn new(hw: InstanceKind) -> Self {
        Fixed(hw, Arc::new(AtomicU64::new(0)))
    }
}

impl Scheduler for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        for m in &obs.models {
            self.1.fetch_max(m.kv_demand_tokens, Ordering::Relaxed);
        }
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

/// Bert (long-doc card) plus FunnelTransformer (bimodal card) at the given
/// rates.
fn llm_specs(rps_a: f64, rps_b: f64, secs: u64) -> Vec<WorkloadSpec> {
    let mk = |m: MlModel, rps: f64| {
        WorkloadSpec::new(
            m,
            RateTrace::constant(rps, SimDuration::from_secs(secs), SimDuration::from_secs(1)),
        )
    };
    vec![
        mk(MlModel::Bert, rps_a),
        mk(MlModel::FunnelTransformer, rps_b),
    ]
}

/// One traced iterative run of a single deployment on the batch engine.
fn run_llm(seed: u64, rps_a: f64, rps_b: f64, secs: u64) -> (RunResult, Vec<TraceEvent>) {
    let specs = llm_specs(rps_a, rps_b, secs);
    let mut sched = Fixed::new(InstanceKind::P3_2xlarge);
    let cfg = SimConfig::with_seed(seed).with_iterative_batching();
    let mut sink = VecSink::new();
    let hw = InstanceKind::P3_2xlarge;
    let spec = RunSpec::lone(&specs, &mut sched, hw, Catalog::table_ii(), &cfg);
    let result = run(RunSpec {
        sink: Some(&mut sink),
        ..spec
    })
    .into_lone();
    (result, sink.into_events())
}

/// The same run replayed through an incremental session from its
/// recorded arrivals.
fn replay_llm(seed: u64, rps_a: f64, rps_b: f64, secs: u64) -> (RunResult, Vec<TraceEvent>) {
    let trace = RecordedTrace::record(
        &llm_specs(rps_a, rps_b, secs),
        seed,
        InstanceKind::P3_2xlarge,
    );
    let mut sched = Fixed::new(InstanceKind::P3_2xlarge);
    let cfg = SimConfig::with_seed(seed).with_iterative_batching();
    let mut sink = VecSink::new();
    let result = {
        let mut session = SimSession::new_traced(
            trace.models.clone(),
            &mut sched,
            trace.initial_hw,
            Catalog::table_ii(),
            &cfg,
            trace.trace_end(),
            trace.reserve,
            &mut sink,
        );
        run_replay_virtual(&mut session, &trace.arrivals).expect("recorded trace replays");
        session.finish()
    };
    (result, sink.into_events())
}

/// A traced three-tenant elastic fleet in iterative mode (tenant `i`
/// serves both models at `rps + 5i` / `rps / 2 + 5`), partitioned across
/// `shards` event loops. Also returns the largest `kv_demand_tokens` any
/// tenant's observation carried.
fn run_llm_fleet(
    seed: u64,
    rps: u64,
    secs: u64,
    shards: u32,
) -> (Vec<RunResult>, Vec<TraceEvent>, u64) {
    let kv_seen = Arc::new(AtomicU64::new(0));
    let deployments = (0..3u64)
        .map(|i| {
            let mut sched = Fixed::new(InstanceKind::P3_2xlarge);
            sched.1 = Arc::clone(&kv_seen);
            FleetDeployment {
                name: format!("llm-{i}"),
                workloads: llm_specs((rps + 5 * i) as f64, (rps / 2 + 5) as f64, secs),
                scheduler: Box::new(sched),
                initial_hw: InstanceKind::P3_2xlarge,
            }
        })
        .collect();
    let cfg = SimConfig::with_seed(seed).with_iterative_batching();
    let mut sink = VecSink::new();
    let results = run(RunSpec {
        shards: Some(shards),
        sink: Some(&mut sink),
        ..RunSpec::fleet(deployments, Catalog::table_ii(), u32::MAX, &cfg)
    })
    .results;
    (results, sink.into_events(), kv_seen.load(Ordering::Relaxed))
}

/// The iteration-level subsequence of a trace, in stream order.
fn iter_events(events: &[TraceEvent]) -> Vec<&TraceEvent> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                TraceEventKind::IterationStarted { .. }
                    | TraceEventKind::BatchJoin { .. }
                    | TraceEventKind::BatchLeave { .. }
            )
        })
        .collect()
}

/// Joins and leaves only ever happen at iteration boundaries: once an
/// `IterationStarted` commits a duration, no `BatchJoin` or `BatchLeave`
/// appears on that worker before the boundary instant.
fn audit_boundaries(events: &[TraceEvent]) -> Result<(), TestCaseError> {
    // Per worker: end of the in-flight iteration, if any.
    let mut open: BTreeMap<u32, SimTime> = BTreeMap::new();
    let mut saw_iteration = false;
    for e in iter_events(events) {
        match e.kind {
            TraceEventKind::IterationStarted { worker, dur_us, .. } => {
                saw_iteration = true;
                if let Some(&end) = open.get(&worker) {
                    prop_assert!(
                        e.at >= end,
                        "iteration started mid-iteration on worker {worker}: {:?} < {end:?}",
                        e.at
                    );
                }
                open.insert(worker, e.at + SimDuration::from_micros(dur_us));
            }
            TraceEventKind::BatchJoin { worker, .. }
            | TraceEventKind::BatchLeave { worker, .. } => {
                if let Some(&end) = open.get(&worker) {
                    prop_assert!(
                        e.at >= end,
                        "join/leave mid-iteration on worker {worker}: {:?} inside (.., {end:?})",
                        e.at
                    );
                }
            }
            _ => {}
        }
    }
    prop_assert!(saw_iteration, "run produced no iterations at all");
    Ok(())
}

/// The KV cache is a hard bound at every tick: the occupancy each
/// `IterationStarted` reports equals the join/leave ledger exactly and
/// never exceeds the device capacity.
fn audit_kv(events: &[TraceEvent]) -> Result<(), TestCaseError> {
    // Ledger: per worker, resident KV; per request, its reserved KV.
    let mut kv: BTreeMap<u32, u64> = BTreeMap::new();
    let mut reserved: BTreeMap<u64, u64> = BTreeMap::new();
    for e in iter_events(events) {
        match e.kind {
            TraceEventKind::BatchJoin {
                request,
                worker,
                kv_tokens,
                ..
            } => {
                *kv.entry(worker).or_insert(0) += kv_tokens;
                reserved.insert(request, kv_tokens);
            }
            TraceEventKind::BatchLeave {
                request, worker, ..
            } => {
                let k = reserved
                    .remove(&request)
                    .expect("invariant: every leave was preceded by a join");
                let slot = kv.entry(worker).or_insert(0);
                prop_assert!(*slot >= k, "leave released more KV than resident");
                *slot -= k;
            }
            TraceEventKind::IterationStarted {
                worker,
                kv_used,
                kv_capacity,
                ..
            } => {
                let ledger = kv.get(&worker).copied().unwrap_or(0);
                prop_assert_eq!(
                    kv_used,
                    ledger,
                    "reported KV diverges from the join/leave ledger"
                );
                prop_assert!(
                    kv_used <= kv_capacity,
                    "KV over capacity: {kv_used} > {kv_capacity}"
                );
            }
            _ => {}
        }
    }
    Ok(())
}

/// Token conservation: every retired sequence decoded exactly its card's
/// token count, and was resident for exactly `prefill_iters + decode`
/// iterations (the card re-derived from the pure `(seed, request id)` hash
/// — no sampling state to drift); `completed` requests match the leaves.
fn audit_tokens(seed: u64, completed: usize, events: &[TraceEvent]) -> Result<(), TestCaseError> {
    let mut joined: BTreeMap<u64, u64> = BTreeMap::new();
    let mut leaves = 0u64;
    for e in iter_events(events) {
        match e.kind {
            TraceEventKind::BatchJoin {
                request, iteration, ..
            } => {
                joined.insert(request, iteration);
            }
            TraceEventKind::BatchLeave {
                request,
                model,
                iteration,
                decoded,
                ..
            } => {
                leaves += 1;
                let lens = TokenCard::for_model(model).sample(seed, request);
                prop_assert_eq!(
                    decoded,
                    lens.decode,
                    "request {} decoded a different token count than its card",
                    request
                );
                let join_iter = joined
                    .remove(&request)
                    .expect("invariant: every leave was preceded by a join");
                let resident = iteration - join_iter + 1;
                prop_assert_eq!(
                    resident,
                    (lens.prefill_iters() + lens.decode) as u64,
                    "request {} was resident for the wrong iteration count",
                    request
                );
            }
            _ => {}
        }
    }
    prop_assert_eq!(
        leaves,
        completed as u64,
        "completed requests diverge from BatchLeave spans"
    );
    prop_assert!(leaves > 0, "run retired no sequences at all");
    Ok(())
}

proptest! {
    #[test]
    fn no_join_or_leave_mid_iteration(seed in 1u64..5_000, rps in 10u64..60) {
        let (_, events) = run_llm(seed, rps as f64, (rps / 2).max(5) as f64, 8);
        audit_boundaries(&events)?;
    }

    #[test]
    fn kv_occupancy_never_exceeds_capacity(seed in 1u64..5_000, rps in 10u64..80) {
        let (_, events) = run_llm(seed, rps as f64, (rps / 2).max(5) as f64, 8);
        audit_kv(&events)?;
    }

    #[test]
    fn per_request_token_conservation(seed in 1u64..5_000, rps in 10u64..60) {
        let (result, events) = run_llm(seed, rps as f64, (rps / 2).max(5) as f64, 8);
        audit_tokens(seed, result.completed.len(), &events)?;
    }

    /// Executor invariance: the batch engine, an in-process rerun, and an
    /// incremental session replaying the recorded arrivals (arrivals
    /// injected one at a time instead of on the rail) emit the
    /// bit-identical iteration event stream — same
    /// times, same sequence numbers, same payloads — and the same results.
    #[test]
    fn iteration_stream_is_engine_invariant(seed in 1u64..2_000, rps in 10u64..40) {
        let (r1, e1) = run_llm(seed, rps as f64, 8.0, 6);
        let (r1b, e1b) = run_llm(seed, rps as f64, 8.0, 6);
        let (rs, es) = replay_llm(seed, rps as f64, 8.0, 6);
        prop_assert_eq!(&e1, &e1b, "in-process rerun diverges");
        prop_assert_eq!(iter_events(&e1), iter_events(&es), "batch vs session iteration streams diverge");
        prop_assert_eq!(format!("{r1:?}"), format!("{r1b:?}"));
        prop_assert_eq!(format!("{r1:?}"), format!("{rs:?}"));
    }

    /// The fleet LLM grid: a three-tenant elastic fleet in iterative mode
    /// keeps every stream audit above, produces identical results and
    /// iteration streams at shards {1, 2, 3}, and its tenants' observations
    /// carry non-zero KV demand.
    #[test]
    fn fleet_llm_grid_keeps_iteration_invariants(seed in 1u64..2_000, rps in 10u64..40) {
        let (r1, e1, kv) = run_llm_fleet(seed, rps, 6, 1);
        audit_boundaries(&e1)?;
        audit_kv(&e1)?;
        audit_tokens(seed, r1.iter().map(|r| r.completed.len()).sum(), &e1)?;
        prop_assert!(kv > 0, "no fleet observation carried KV demand");
        for shards in [2u32, 3] {
            let (r, e, _) = run_llm_fleet(seed, rps, 6, shards);
            prop_assert_eq!(format!("{r1:?}"), format!("{r:?}"), "fleet results diverge at shards={}", shards);
            prop_assert_eq!(iter_events(&e1), iter_events(&e), "fleet iteration streams diverge at shards={}", shards);
        }
    }
}
