//! Property tests for the trace-driven attribution and the JSONL capture
//! format, over randomly generated (but deterministic — the vendored
//! proptest shim seeds from the test name) synthetic lifecycles:
//!
//! * every attribution's six components are non-negative (by type) and sum
//!   **exactly** to the request's end-to-end latency in microseconds;
//! * attribution is invariant under arbitrary reordering of the event
//!   stream (it re-sorts by `(at, seq)` internally);
//! * JSONL serialization round-trips every event bit-identically
//!   (structural equality plus byte-identical re-serialization).
//!
//! The same identity and invariance hold for iteration-level lifecycles
//! (`BatchJoin` / `IterationStarted` / `BatchLeave` over several workers,
//! with iterations starting exactly on the join and leave microseconds),
//! and their isolated-time split matches a full scan of every iteration.

use paldia_hw::InstanceKind;
use paldia_obs::{
    event_from_jsonl, event_to_jsonl, BatchTrigger, TraceAttribution, TraceEvent, TraceEventKind,
};
use paldia_sim::SimTime;
use paldia_workloads::tokens::ITER_RESIDENT_PENALTY;
use paldia_workloads::MlModel;
use proptest::prelude::*;

/// One synthetic batch lifecycle: (members, batching µs, wait µs, exec µs,
/// solo ms, cold-window coin, transition-window coin).
type BatchSpec = (usize, u64, u64, u64, f64, f64, f64);

fn batch_spec() -> impl Strategy<Value = BatchSpec> {
    (
        1usize..4,
        0u64..100_000,
        1u64..400_000,
        1_000u64..500_000,
        0.0f64..600.0,
        0.0f64..1.0,
        0.0f64..1.0,
    )
}

/// Build a well-formed event stream from the specs: batch `i` lives in its
/// own 1-second slot on worker `i`, with an optional cold-start window on
/// that worker and an optional scope-wide transition window overlapping the
/// post-close wait.
fn build(specs: &[BatchSpec]) -> Vec<TraceEvent> {
    let mut timeline: Vec<(u64, TraceEventKind)> = Vec::new();
    for (i, &(members, batching, wait, exec, solo_ms, cold_coin, trans_coin)) in
        specs.iter().enumerate()
    {
        let i = i as u64;
        let base = i * 1_000_000;
        let formed = base + 10_000 + batching;
        let started = formed + wait;
        let completed = started + exec;
        let ids: Vec<u64> = (0..members as u64).map(|j| i * 100 + j).collect();
        for (j, &id) in ids.iter().enumerate() {
            timeline.push((
                base + j as u64 * 500,
                TraceEventKind::RequestArrived {
                    request: id,
                    model: MlModel::GoogleNet,
                },
            ));
        }
        timeline.push((
            formed,
            TraceEventKind::BatchFormed {
                batch: i,
                model: MlModel::GoogleNet,
                size: members as u32,
                requests: ids,
                trigger: BatchTrigger::Window,
            },
        ));
        if cold_coin > 0.5 {
            timeline.push((
                formed + wait / 4,
                TraceEventKind::ColdStartBegan {
                    worker: i as u32,
                    container: 0,
                    ready_at: SimTime::from_micros(formed + wait / 4 + wait / 2),
                },
            ));
        }
        if trans_coin > 0.5 {
            timeline.push((
                formed + wait / 8,
                TraceEventKind::TransitionBegan {
                    worker: 10_000 + i as u32,
                    from: InstanceKind::M4_xlarge,
                    to: InstanceKind::G3s_xlarge,
                },
            ));
            timeline.push((
                formed + wait * 7 / 8,
                TraceEventKind::TransitionEnded {
                    worker: 10_000 + i as u32,
                    committed: trans_coin > 0.75,
                },
            ));
        }
        timeline.push((
            completed,
            TraceEventKind::BatchCompleted {
                batch: i,
                model: MlModel::GoogleNet,
                worker: i as u32,
                hw: InstanceKind::C6i_2xlarge,
                started: SimTime::from_micros(started),
                solo_ms,
                size: members as u32,
            },
        ));
    }
    sequence(timeline)
}

/// Sort a timeline by time (stable, so same-µs events keep their push
/// order) and number it.
fn sequence(mut timeline: Vec<(u64, TraceEventKind)>) -> Vec<TraceEvent> {
    timeline.sort_by_key(|(at, _)| *at);
    timeline
        .into_iter()
        .enumerate()
        .map(|(seq, (at, kind))| TraceEvent {
            seq: seq as u64,
            at: SimTime::from_micros(at),
            scope: 0,
            kind,
        })
        .collect()
}

/// One synthetic iterative worker: its iterations as (duration µs,
/// residents), and its sequences as (join iteration, iterations resident,
/// arrival lead µs, batching lead µs, edge skew). Indices wrap into range
/// when the stream is built.
type IterWorkerSpec = (Vec<(u64, u32)>, Vec<(usize, usize, u64, u64, u64)>);

fn iter_worker_spec() -> impl Strategy<Value = IterWorkerSpec> {
    (
        prop::collection::vec((1u64..5_000, 1u32..9), 2..40),
        prop::collection::vec(
            (0usize..64, 0usize..64, 0u64..50_000, 0u64..50_000, 0u64..4),
            1..8,
        ),
    )
}

/// Build an iteration-level stream: worker `w` runs its iterations back to
/// back from a base that overlaps the other workers' in time. A sequence
/// joins at the start of iteration `j` and leaves at the start of
/// iteration `k` (or at the end of the last one), so an iteration starts
/// exactly on both edges; skew bit 0 moves the join 1 µs late and bit 1
/// the leave 1 µs late (never before the join), so the lookup also sees
/// the edges from each side.
fn build_iterative(workers: &[IterWorkerSpec]) -> Vec<TraceEvent> {
    let mut timeline: Vec<(u64, TraceEventKind)> = Vec::new();
    for (w, (iters, seqs)) in workers.iter().enumerate() {
        let worker = w as u32;
        timeline.push((
            0,
            TraceEventKind::WorkerProvisioned {
                worker,
                hw: InstanceKind::P3_2xlarge,
                ready_at: SimTime::ZERO,
            },
        ));
        let mut starts = Vec::with_capacity(iters.len() + 1);
        let mut at = 100_000 + w as u64 * 777;
        for (i, &(dur, residents)) in iters.iter().enumerate() {
            starts.push(at);
            timeline.push((
                at,
                TraceEventKind::IterationStarted {
                    worker,
                    iteration: i as u64,
                    residents,
                    kv_used: 64 * residents as u64,
                    kv_capacity: 4_096,
                    dur_us: dur,
                },
            ));
            at += dur;
        }
        starts.push(at);
        for (s, &(join, len, arrival_lead, batching_lead, skew)) in seqs.iter().enumerate() {
            let request = w as u64 * 1_000 + s as u64;
            let j = join % iters.len();
            let k = j + len % (iters.len() - j + 1);
            let join_us = starts[j] + (skew & 1);
            let leave_us = (starts[k] + (skew >> 1 & 1)).max(join_us);
            let formed = join_us - batching_lead;
            timeline.push((
                formed - arrival_lead,
                TraceEventKind::RequestArrived {
                    request,
                    model: MlModel::Bert,
                },
            ));
            timeline.push((
                formed,
                TraceEventKind::BatchFormed {
                    batch: request,
                    model: MlModel::Bert,
                    size: 1,
                    requests: vec![request],
                    trigger: BatchTrigger::Window,
                },
            ));
            timeline.push((
                join_us,
                TraceEventKind::BatchJoin {
                    request,
                    model: MlModel::Bert,
                    worker,
                    iteration: j as u64,
                    kv_tokens: 64,
                },
            ));
            timeline.push((
                leave_us,
                TraceEventKind::BatchLeave {
                    request,
                    model: MlModel::Bert,
                    worker,
                    iteration: k as u64,
                    decoded: (k - j) as u32,
                },
            ));
        }
    }
    sequence(timeline)
}

/// Reference isolated-time split of every iterative request, in `BatchLeave`
/// order: `(request, min_possible_us, interference_us)` from a scan over
/// every iteration the worker ran.
fn full_scan_exec(events: &[TraceEvent]) -> Vec<(u64, u64, u64)> {
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.at, e.seq));
    let mut formed = std::collections::HashMap::new();
    let mut joins = std::collections::HashMap::new();
    for ev in &order {
        match &ev.kind {
            TraceEventKind::BatchFormed { requests, .. } => {
                for &r in requests {
                    formed.insert(r, ev.at.as_micros());
                }
            }
            TraceEventKind::BatchJoin { request, .. } => {
                joins.insert(*request, ev.at.as_micros());
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    for ev in &order {
        let TraceEventKind::BatchLeave {
            request, worker, ..
        } = &ev.kind
        else {
            continue;
        };
        let join_us = joins[request].max(formed[request]);
        let completed_us = ev.at.as_micros().max(join_us);
        let mut solo = 0.0f64;
        for it in &order {
            if let TraceEventKind::IterationStarted {
                worker: w,
                residents,
                dur_us,
                ..
            } = &it.kind
            {
                let start = it.at.as_micros();
                if w == worker && start >= join_us && start < completed_us {
                    solo += *dur_us as f64
                        / (1.0 + ITER_RESIDENT_PENALTY * residents.saturating_sub(1) as f64);
                }
            }
        }
        let exec_us = completed_us - join_us;
        let interference_us = exec_us.saturating_sub(solo.round() as u64);
        out.push((*request, exec_us - interference_us, interference_us));
    }
    out
}

proptest! {
    /// The six components of every attributed request sum exactly — in
    /// integer microseconds, no tolerance — to its end-to-end latency, and
    /// every request of every batch is attributed.
    fn components_sum_exactly_to_latency(specs in prop::collection::vec(batch_spec(), 1..6)) {
        let events = build(&specs);
        let attribution = TraceAttribution::from_events(&events);
        let expected: usize = specs.iter().map(|s| s.0).sum();
        prop_assert_eq!(attribution.requests.len(), expected);
        for r in &attribution.requests {
            let latency = r.completed.as_micros() - r.arrival.as_micros();
            prop_assert_eq!(
                r.batching_us + r.cold_start_us + r.transition_us + r.queueing_us
                    + r.min_possible_us + r.interference_us,
                latency,
                "components must sum to latency for request {}", r.request
            );
            prop_assert_eq!(r.latency_us(), latency);
        }
    }

    /// Attribution is a pure function of the `(at, seq)`-sorted stream:
    /// any permutation of the input yields the identical result.
    fn attribution_is_reorder_invariant(
        specs in prop::collection::vec(batch_spec(), 1..6),
        rot in 0usize..64,
        flip in any::<bool>(),
    ) {
        let events = build(&specs);
        let baseline = TraceAttribution::from_events(&events);
        let mut shuffled = events.clone();
        if flip {
            shuffled.reverse();
        }
        let n = shuffled.len();
        shuffled.rotate_left(rot % n.max(1));
        prop_assert_eq!(baseline, TraceAttribution::from_events(&shuffled));
    }

    /// JSONL round-trips the lifecycle stream bit-identically: parsed
    /// events are structurally equal and re-serialize to the same bytes.
    fn jsonl_round_trips_bit_identically(specs in prop::collection::vec(batch_spec(), 1..6)) {
        for ev in build(&specs) {
            let line = event_to_jsonl(&ev);
            let back = match event_from_jsonl(&line) {
                Ok(b) => b,
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                    format!("parse failed on {line}: {e}"),
                )),
            };
            prop_assert_eq!(&ev, &back, "round-trip mismatch for {}", line);
            prop_assert_eq!(event_to_jsonl(&back), line);
        }
    }

    /// Float-bearing events survive the round trip with exact bits for
    /// arbitrary finite doubles (shortest-round-trip Display).
    fn jsonl_preserves_float_bits(share in any::<f64>(), slowdown in any::<f64>()) {
        let ev = TraceEvent {
            seq: 1,
            at: SimTime::from_micros(99),
            scope: 2,
            kind: TraceEventKind::BatchAdmitted {
                batch: 7,
                model: MlModel::Bert,
                worker: 3,
                container: 1,
                share,
                concurrency: 2,
                slowdown,
            },
        };
        let line = event_to_jsonl(&ev);
        let back = match event_from_jsonl(&line) {
            Ok(b) => b,
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("parse failed on {line}: {e}"),
            )),
        };
        match back.kind {
            TraceEventKind::BatchAdmitted { share: s, slowdown: d, .. } => {
                prop_assert_eq!(s.to_bits(), share.to_bits());
                prop_assert_eq!(d.to_bits(), slowdown.to_bits());
            }
            _ => return Err(proptest::test_runner::TestCaseError::fail("wrong variant")),
        }
    }

    /// The per-scope breakdown means recompose: combined queueing plus
    /// execution components equals the mean latency within float tolerance.
    fn breakdown_recomposes(specs in prop::collection::vec(batch_spec(), 1..6), p in 0.0f64..100.0) {
        let attribution = TraceAttribution::from_events(&build(&specs));
        if let Some(b) = attribution.breakdown(None, p) {
            let recomposed = b.combined_queueing_ms() + b.min_possible_ms + b.interference_ms;
            prop_assert!(
                (recomposed - b.total_ms).abs() < 1e-6,
                "recomposed {} vs total {}", recomposed, b.total_ms
            );
        }
    }

    /// Iterative requests over several workers: every sequence is
    /// attributed, its six components sum exactly to its latency, and the
    /// isolated/interference split equals the full-scan reference.
    fn iterative_components_match_full_scan(
        workers in prop::collection::vec(iter_worker_spec(), 2..5),
    ) {
        let events = build_iterative(&workers);
        let attribution = TraceAttribution::from_events(&events);
        let expected: usize = workers.iter().map(|w| w.1.len()).sum();
        prop_assert_eq!(attribution.requests.len(), expected);
        for r in &attribution.requests {
            prop_assert_eq!(r.latency_us(), r.completed.as_micros() - r.arrival.as_micros());
        }
        let got: Vec<(u64, u64, u64)> = attribution
            .requests
            .iter()
            .map(|r| (r.request, r.min_possible_us, r.interference_us))
            .collect();
        prop_assert_eq!(got, full_scan_exec(&events));
    }

    /// Iterative attribution is invariant under reordering of the stream.
    fn iterative_attribution_is_reorder_invariant(
        workers in prop::collection::vec(iter_worker_spec(), 2..5),
        rot in 0usize..512,
        flip in any::<bool>(),
    ) {
        let events = build_iterative(&workers);
        let baseline = TraceAttribution::from_events(&events);
        let mut shuffled = events.clone();
        if flip {
            shuffled.reverse();
        }
        let n = shuffled.len();
        shuffled.rotate_left(rot % n.max(1));
        prop_assert_eq!(baseline, TraceAttribution::from_events(&shuffled));
    }
}
