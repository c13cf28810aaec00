//! Trace-driven tail-latency attribution: a second, independent derivation
//! of the Fig. 4 breakdown, computed from the span stream instead of the
//! harness's [`CompletedRequest`] records.
//!
//! [`TraceAttribution::from_events`] consumes a capture ([`crate::RingSink`]
//! or a JSONL file read back via [`crate::read_jsonl_file`]) and splits each
//! completed request's end-to-end latency into six non-negative components
//! that **sum exactly** to the latency (all arithmetic is integer
//! microseconds, so the identity is bit-exact, not approximate):
//!
//! * **batching** — arrival → batch close (the batch-formation delay);
//! * **cold start** — the part of the post-close wait that overlaps a
//!   cold-start window on the worker that executed the batch;
//! * **transition** — the part of the remaining wait that overlaps a
//!   hardware-transition window of the request's scope
//!   ([`crate::TraceEventKind::TransitionBegan`] /
//!   [`crate::TraceEventKind::TransitionEnded`]) or the executing worker's
//!   own provisioning window (failover replacements);
//! * **queueing** — the residual wait (device/admission queueing proper);
//! * **min possible** — the isolated execution time (capped at the actual
//!   execution time);
//! * **interference** — execution stretch beyond the isolated time
//!   (share contention / co-location slowdown).
//!
//! Overlap priority is cold start > transition > queueing: a wait interval
//! covered by both a cold-start and a transition window counts as cold
//! start. The decomposition is a pure function of the event stream — events
//! are re-sorted by `(at, seq)` first, so any reordering that preserves
//! that key order yields the identical attribution (a property test holds
//! this).
//!
//! Cost: one sort, one pass that collects the window sources, and a
//! lookup per request. An iterative request's iterations are found with
//! two binary searches over its worker's iteration start times (pushed in
//! stream order, so already sorted); its wait is clipped from its worker's
//! cold-start windows and its scope's transition windows, which are few.
//!
//! The differential test `tests/trace_attribution.rs` holds the resulting
//! tail breakdown against `paldia_metrics::TailBreakdown` (same cohort
//! rule) on the Fig. 4 scenario for both harnesses.
//!
//! ## Iteration-level (continuous-batching) requests
//!
//! In `DeviceMode::IterativeBatch` runs a request does not ride a
//! [`crate::TraceEventKind::BatchCompleted`] span: it joins a running
//! batch at an iteration boundary ([`crate::TraceEventKind::BatchJoin`])
//! and retires per-token ([`crate::TraceEventKind::BatchLeave`]). The same
//! six-component identity is derived for those requests: batching is
//! arrival → batch close as before, the wait window runs close → join,
//! execution is join → leave, and the isolated time is the sum of the
//! request's iterations ([`crate::TraceEventKind::IterationStarted`])
//! deflated by the resident-count stretch
//! (`paldia_workloads::tokens::ITER_RESIDENT_PENALTY`) — so interference
//! is exactly the slowdown contributed by co-resident sequences. The
//! iterations are those of the worker that started in `[join, leave)`,
//! summed in stream order.
//!
//! [`kv_occupancy`] additionally rolls the `IterationStarted` stream into
//! a per-worker time-weighted KV-cache occupancy summary — the capacity
//! dimension that request-level attribution has no analogue for.
//!
//! [`CompletedRequest`]: https://docs.rs/paldia-cluster

use std::collections::BTreeMap;

use paldia_hw::InstanceKind;
use paldia_sim::SimTime;
use paldia_workloads::tokens::ITER_RESIDENT_PENALTY;
use paldia_workloads::MlModel;

use crate::event::{TraceEvent, TraceEventKind};

/// One latency component of the attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// Wait covered by a cold-start window on the executing worker.
    ColdStart,
    /// Wait covered by a hardware-transition or provisioning window.
    Transition,
    /// Residual pre-execution wait (admission/device queueing).
    Queueing,
    /// Batch-formation delay (arrival → batch close).
    Batching,
    /// Execution stretch beyond the isolated batch time.
    Interference,
    /// Isolated ("min possible") execution time.
    Execution,
}

impl Component {
    /// All components, overhead components first in dominance-tie order.
    pub const ALL: [Component; 6] = [
        Component::ColdStart,
        Component::Transition,
        Component::Queueing,
        Component::Batching,
        Component::Interference,
        Component::Execution,
    ];

    /// Human-readable name (used by the triage report).
    pub fn name(self) -> &'static str {
        match self {
            Component::ColdStart => "cold start",
            Component::Transition => "transition",
            Component::Queueing => "queueing",
            Component::Batching => "batching",
            Component::Interference => "interference",
            Component::Execution => "execution",
        }
    }
}

/// One request's end-to-end latency, split into the six components.
///
/// All `_us` fields are integer microseconds and sum exactly to
/// [`RequestAttribution::latency_us`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Request id.
    pub request: u64,
    /// Scope (tenant) the request belongs to.
    pub scope: u32,
    /// Model served.
    pub model: MlModel,
    /// Batch the request rode in.
    pub batch: u64,
    /// Worker that executed the batch.
    pub worker: u32,
    /// Hardware that executed the batch.
    pub hw: InstanceKind,
    /// Gateway arrival time.
    pub arrival: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Batch-formation delay, µs.
    pub batching_us: u64,
    /// Cold-start share of the post-close wait, µs.
    pub cold_start_us: u64,
    /// Transition/provisioning share of the post-close wait, µs.
    pub transition_us: u64,
    /// Residual queueing share of the post-close wait, µs.
    pub queueing_us: u64,
    /// Isolated execution time (capped at actual execution), µs.
    pub min_possible_us: u64,
    /// Execution stretch beyond the isolated time, µs.
    pub interference_us: u64,
}

impl RequestAttribution {
    /// End-to-end latency in microseconds — by construction the exact sum
    /// of the six components.
    pub fn latency_us(&self) -> u64 {
        self.batching_us
            + self.cold_start_us
            + self.transition_us
            + self.queueing_us
            + self.min_possible_us
            + self.interference_us
    }

    /// End-to-end latency, ms (same arithmetic as the harness's
    /// `CompletedRequest::latency_ms`, so the two derivations agree to the
    /// bit).
    pub fn latency_ms(&self) -> f64 {
        self.completed
            .saturating_since(self.arrival)
            .as_millis_f64()
    }

    /// The value of one component, µs.
    pub fn component_us(&self, c: Component) -> u64 {
        match c {
            Component::ColdStart => self.cold_start_us,
            Component::Transition => self.transition_us,
            Component::Queueing => self.queueing_us,
            Component::Batching => self.batching_us,
            Component::Interference => self.interference_us,
            Component::Execution => self.min_possible_us,
        }
    }

    /// The overhead component (everything except
    /// [`Component::Execution`]) with the largest share of this request's
    /// latency. Ties resolve to the earlier entry of [`Component::ALL`];
    /// a request whose latency is pure execution reports
    /// [`Component::Execution`].
    pub fn dominant(&self) -> Component {
        let mut best = Component::Execution;
        let mut best_us = 0u64;
        for c in Component::ALL {
            if matches!(c, Component::Execution) {
                continue;
            }
            let v = self.component_us(c);
            if v > best_us {
                best = c;
                best_us = v;
            }
        }
        best
    }
}

/// Tail breakdown derived from the attribution: the mean of each component
/// over the slowest `(100 − percentile)%` of requests — the same cohort
/// rule as `paldia_metrics::TailBreakdown::at` / `tail_cohort`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttributedBreakdown {
    /// The percentile the cohort was taken at.
    pub percentile: f64,
    /// Number of requests in the cohort.
    pub requests: usize,
    /// Mean end-to-end latency over the cohort, ms.
    pub total_ms: f64,
    /// Mean isolated execution time, ms.
    pub min_possible_ms: f64,
    /// Mean batch-formation delay, ms.
    pub batching_ms: f64,
    /// Mean cold-start share, ms.
    pub cold_start_ms: f64,
    /// Mean transition share, ms.
    pub transition_ms: f64,
    /// Mean residual queueing, ms.
    pub queueing_ms: f64,
    /// Mean interference stretch, ms.
    pub interference_ms: f64,
}

impl AttributedBreakdown {
    /// Everything the metrics layer calls "queueing" (its `queueing_ms` is
    /// arrival → execution start): batching + cold start + transition +
    /// residual queueing. This is the value to hold against
    /// `TailBreakdown::queueing_ms` in differential tests.
    pub fn combined_queueing_ms(&self) -> f64 {
        self.batching_ms + self.cold_start_ms + self.transition_ms + self.queueing_ms
    }
}

/// Per-scope (tenant) P50/P99 rollup of the attribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScopeRollup {
    /// The scope the rollup covers; `None` = all scopes together.
    pub scope: Option<u32>,
    /// Number of attributed requests in the scope.
    pub requests: usize,
    /// Breakdown over the slowest 50%.
    pub p50: AttributedBreakdown,
    /// Breakdown over the slowest 1%.
    pub p99: AttributedBreakdown,
}

/// The full attribution of a span capture: one record per request that
/// arrived, rode a formed batch, and completed inside the trace, in
/// completion order (batch completion order, members in formation order —
/// the same order the harness appends to `RunResult::completed`).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceAttribution {
    /// Attributed requests, completion order.
    pub requests: Vec<RequestAttribution>,
}

/// Sorted-disjoint interval list over `u64` microseconds, half-open
/// `[start, end)`.
type Intervals = Vec<(u64, u64)>;

/// Clip `windows` to `[lo, hi)`, then merge into a sorted disjoint list.
fn clip_merge(windows: impl IntoIterator<Item = (u64, u64)>, lo: u64, hi: u64) -> Intervals {
    let mut v: Intervals = windows
        .into_iter()
        .filter_map(|(s, e)| {
            let s = s.max(lo);
            let e = e.min(hi);
            (s < e).then_some((s, e))
        })
        .collect();
    v.sort_unstable();
    let mut merged: Intervals = Vec::with_capacity(v.len());
    for (s, e) in v {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Subtract one sorted-disjoint list from another.
fn subtract(from: &[(u64, u64)], minus: &[(u64, u64)]) -> Intervals {
    let mut out = Vec::with_capacity(from.len());
    for &(s, e) in from {
        let mut cur = s;
        for &(ms, me) in minus {
            if me <= cur {
                continue;
            }
            if ms >= e {
                break;
            }
            if ms > cur {
                out.push((cur, ms.min(e)));
            }
            cur = cur.max(me);
            if cur >= e {
                break;
            }
        }
        if cur < e {
            out.push((cur, e));
        }
    }
    out
}

/// Total measure of a sorted-disjoint list.
fn measure(v: &[(u64, u64)]) -> u64 {
    v.iter().map(|&(s, e)| e - s).sum()
}

/// Split the post-close wait `[formed_us, started_us)` into
/// (cold, transition, queueing) microseconds under the documented overlap
/// priority: cold start first, then the scope's transition windows plus the
/// executing worker's own provisioning window, then the residual.
fn wait_split(
    cold_w: &[(u64, u64)],
    trans_scope: &[(u64, u64)],
    prov: Option<(u64, u64)>,
    formed_us: u64,
    started_us: u64,
) -> (u64, u64, u64) {
    let cold_iv = clip_merge(cold_w.iter().copied(), formed_us, started_us);
    let trans_src = trans_scope.iter().copied().chain(prov);
    let trans_iv = subtract(&clip_merge(trans_src, formed_us, started_us), &cold_iv);
    let cold_us = measure(&cold_iv);
    let trans_us = measure(&trans_iv);
    (
        cold_us,
        trans_us,
        started_us - formed_us - cold_us - trans_us,
    )
}

/// Per-batch metadata collected on the first pass.
struct BatchInfo {
    formed_at: SimTime,
    members: Vec<u64>,
}

impl TraceAttribution {
    /// Attribute every request that completed inside `events`.
    ///
    /// The input may be in any order; events are re-sorted by `(at, seq)` —
    /// the emission order — before processing, so the result is invariant
    /// under reordering that preserves that key order. Requests whose
    /// arrival or batch-formation event is missing (evicted from a bounded
    /// ring) are skipped.
    pub fn from_events(events: &[TraceEvent]) -> TraceAttribution {
        let mut order: Vec<&TraceEvent> = events.iter().collect();
        order.sort_by_key(|e| (e.at, e.seq));

        // Pass 1: arrivals, batch membership, and the window sources.
        let mut arrivals: BTreeMap<u64, SimTime> = BTreeMap::new();
        let mut batches: BTreeMap<u64, BatchInfo> = BTreeMap::new();
        // Cold-start windows per worker.
        let mut cold: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        // Provisioning window per worker (first provisioning wins; ids are
        // never reused within a run).
        let mut provisioned: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        // Transition windows per scope; `open` tracks in-flight ones by
        // pending-worker id.
        let mut transitions: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        let mut open: BTreeMap<u32, (u32, u64)> = BTreeMap::new();
        // Iterative-mode sources: request -> owning batch, request -> join
        // time, per-worker iteration spans (start, dur, residents), and the
        // hardware each worker runs on (needed because `BatchLeave` does
        // not carry it).
        let mut member_batch: BTreeMap<u64, u64> = BTreeMap::new();
        let mut joins: BTreeMap<u64, u64> = BTreeMap::new();
        let mut iters: BTreeMap<u32, Vec<(u64, u64, u32)>> = BTreeMap::new();
        let mut worker_hw: BTreeMap<u32, InstanceKind> = BTreeMap::new();
        let mut last_at = SimTime::ZERO;
        for ev in &order {
            last_at = ev.at;
            match &ev.kind {
                TraceEventKind::RequestArrived { request, .. } => {
                    arrivals.insert(*request, ev.at);
                }
                TraceEventKind::BatchFormed {
                    batch, requests, ..
                } => {
                    for &m in requests {
                        member_batch.insert(m, *batch);
                    }
                    batches.insert(
                        *batch,
                        BatchInfo {
                            formed_at: ev.at,
                            members: requests.clone(),
                        },
                    );
                }
                TraceEventKind::BatchDispatched { worker, hw, .. } => {
                    worker_hw.entry(*worker).or_insert(*hw);
                }
                TraceEventKind::BatchJoin { request, .. } => {
                    joins.insert(*request, ev.at.as_micros());
                }
                TraceEventKind::IterationStarted {
                    worker,
                    residents,
                    dur_us,
                    ..
                } => {
                    iters.entry(*worker).or_default().push((
                        ev.at.as_micros(),
                        *dur_us,
                        *residents,
                    ));
                }
                TraceEventKind::ColdStartBegan {
                    worker, ready_at, ..
                } => {
                    cold.entry(*worker)
                        .or_default()
                        .push((ev.at.as_micros(), ready_at.as_micros()));
                }
                TraceEventKind::WorkerProvisioned {
                    worker,
                    hw,
                    ready_at,
                } => {
                    worker_hw.entry(*worker).or_insert(*hw);
                    provisioned
                        .entry(*worker)
                        .or_insert((ev.at.as_micros(), ready_at.as_micros()));
                }
                TraceEventKind::TransitionBegan { worker, .. } => {
                    open.insert(*worker, (ev.scope, ev.at.as_micros()));
                }
                TraceEventKind::TransitionEnded { worker, .. } => {
                    if let Some((scope, began)) = open.remove(worker) {
                        transitions
                            .entry(scope)
                            .or_default()
                            .push((began, ev.at.as_micros()));
                    }
                }
                _ => {}
            }
        }
        // A transition still open when the trace ends covers everything up
        // to the last event.
        for (_, (scope, began)) in open {
            transitions
                .entry(scope)
                .or_default()
                .push((began, last_at.as_micros()));
        }

        // Pass 2: walk completions in stream order and attribute members.
        // `BatchCompleted` retires a whole request-level batch at once;
        // `BatchLeave` retires one iterative sequence.
        let empty: Vec<(u64, u64)> = Vec::new();
        let mut requests = Vec::new();
        for ev in &order {
            match &ev.kind {
                TraceEventKind::BatchCompleted {
                    batch,
                    model,
                    worker,
                    hw,
                    started,
                    solo_ms,
                    ..
                } => {
                    let Some(info) = batches.get(batch) else {
                        continue; // formation fell off a bounded ring
                    };
                    let formed_us = info.formed_at.as_micros();
                    let started_us = started.as_micros().max(formed_us);
                    let completed_us = ev.at.as_micros().max(started_us);

                    // Window overlap of the post-close wait [formed, started).
                    let (cold_us, trans_us, queue_us) = wait_split(
                        cold.get(worker).unwrap_or(&empty),
                        transitions.get(&ev.scope).map_or(&empty[..], |v| v),
                        provisioned.get(worker).copied(),
                        formed_us,
                        started_us,
                    );

                    let exec_us = completed_us - started_us;
                    let solo_us = (solo_ms.max(0.0) * 1_000.0).round() as u64;
                    let interference_us = exec_us.saturating_sub(solo_us);
                    let min_possible_us = exec_us - interference_us;

                    for &member in &info.members {
                        let Some(&arrival) = arrivals.get(&member) else {
                            continue; // arrival fell off a bounded ring
                        };
                        let arrival_us = arrival.as_micros().min(formed_us);
                        requests.push(RequestAttribution {
                            request: member,
                            scope: ev.scope,
                            model: *model,
                            batch: *batch,
                            worker: *worker,
                            hw: *hw,
                            arrival,
                            completed: ev.at,
                            batching_us: formed_us - arrival_us,
                            cold_start_us: cold_us,
                            transition_us: trans_us,
                            queueing_us: queue_us,
                            min_possible_us,
                            interference_us,
                        });
                    }
                }
                TraceEventKind::BatchLeave {
                    request,
                    model,
                    worker,
                    ..
                } => {
                    let (Some(&batch), Some(&arrival), Some(&join_at), Some(&hw)) = (
                        member_batch.get(request),
                        arrivals.get(request),
                        joins.get(request),
                        worker_hw.get(worker),
                    ) else {
                        continue; // a source event fell off a bounded ring
                    };
                    let Some(info) = batches.get(&batch) else {
                        continue;
                    };
                    let formed_us = info.formed_at.as_micros();
                    let join_us = join_at.max(formed_us);
                    let completed_us = ev.at.as_micros().max(join_us);

                    // Same wait decomposition, over [formed, join).
                    let (cold_us, trans_us, queue_us) = wait_split(
                        cold.get(worker).unwrap_or(&empty),
                        transitions.get(&ev.scope).map_or(&empty[..], |v| v),
                        provisioned.get(worker).copied(),
                        formed_us,
                        join_us,
                    );

                    // Isolated time: the request's iterations deflated by
                    // the resident-count stretch — exactly what a solo
                    // residency would have cost on the same device.
                    // A worker's iterations are pushed in stream order, so
                    // they are sorted by start: the residency
                    // [join, completed) is one slice of them.
                    let exec_us = completed_us - join_us;
                    let ran = iters.get(worker).map_or(&[][..], |v| v);
                    let lo = ran.partition_point(|it| it.0 < join_us);
                    let hi = lo + ran[lo..].partition_point(|it| it.0 < completed_us);
                    let mut solo = 0.0f64;
                    for &(_, dur, residents) in &ran[lo..hi] {
                        let stretch =
                            1.0 + ITER_RESIDENT_PENALTY * residents.saturating_sub(1) as f64;
                        solo += dur as f64 / stretch;
                    }
                    let solo_us = solo.round() as u64;
                    let interference_us = exec_us.saturating_sub(solo_us);
                    let min_possible_us = exec_us - interference_us;

                    let arrival_us = arrival.as_micros().min(formed_us);
                    requests.push(RequestAttribution {
                        request: *request,
                        scope: ev.scope,
                        model: *model,
                        batch,
                        worker: *worker,
                        hw,
                        arrival,
                        completed: ev.at,
                        batching_us: formed_us - arrival_us,
                        cold_start_us: cold_us,
                        transition_us: trans_us,
                        queueing_us: queue_us,
                        min_possible_us,
                        interference_us,
                    });
                }
                _ => {}
            }
        }
        TraceAttribution { requests }
    }

    /// Scopes present in the attribution, ascending.
    pub fn scopes(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self.requests.iter().map(|r| r.scope).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// The attributed requests of one scope (completion order), or all of
    /// them when `scope` is `None`.
    pub fn for_scope(&self, scope: Option<u32>) -> Vec<&RequestAttribution> {
        self.requests
            .iter()
            .filter(|r| scope.is_none_or(|s| r.scope == s))
            .collect()
    }

    /// Breakdown over the slowest `(100 − p)%` of `scope`'s requests (at
    /// least one), or `None` if the scope has no attributed requests.
    ///
    /// Cohort selection mirrors `paldia_metrics::tail_cohort`: a stable
    /// sort by latency descending over the completion-order list, truncated
    /// to `ceil((100 − p)/100 · n)`.
    pub fn breakdown(&self, scope: Option<u32>, p: f64) -> Option<AttributedBreakdown> {
        let mut reqs = self.for_scope(scope);
        if reqs.is_empty() {
            return None;
        }
        let k = (((100.0 - p.clamp(0.0, 100.0)) / 100.0 * reqs.len() as f64).ceil() as usize)
            .max(1)
            .min(reqs.len());
        reqs.sort_by(|a, b| b.latency_ms().total_cmp(&a.latency_ms()));
        reqs.truncate(k);
        let n = reqs.len() as f64;
        let mean_us = |f: &dyn Fn(&RequestAttribution) -> u64| -> f64 {
            reqs.iter().map(|r| f(r) as f64 / 1_000.0).sum::<f64>() / n
        };
        Some(AttributedBreakdown {
            percentile: p,
            requests: reqs.len(),
            total_ms: reqs.iter().map(|r| r.latency_ms()).sum::<f64>() / n,
            min_possible_ms: mean_us(&|r| r.min_possible_us),
            batching_ms: mean_us(&|r| r.batching_us),
            cold_start_ms: mean_us(&|r| r.cold_start_us),
            transition_ms: mean_us(&|r| r.transition_us),
            queueing_ms: mean_us(&|r| r.queueing_us),
            interference_ms: mean_us(&|r| r.interference_us),
        })
    }

    /// P50/P99 rollup for one scope (`None` = all requests), or `None` if
    /// the scope has no attributed requests.
    pub fn rollup(&self, scope: Option<u32>) -> Option<ScopeRollup> {
        let requests = self.for_scope(scope).len();
        Some(ScopeRollup {
            scope,
            requests,
            p50: self.breakdown(scope, 50.0)?,
            p99: self.breakdown(scope, 99.0)?,
        })
    }

    /// Per-scope rollups for every scope present, ascending scope order.
    pub fn rollups(&self) -> Vec<ScopeRollup> {
        self.scopes()
            .into_iter()
            .filter_map(|s| self.rollup(Some(s)))
            .collect()
    }
}

/// Time-weighted KV-cache occupancy of one worker's iterative device,
/// rolled up from its [`TraceEventKind::IterationStarted`] spans.
///
/// This is the capacity dimension the six latency components cannot carry:
/// a device can be latency-healthy while its KV cache is the binding
/// resource (long-context sequences), and this summary is how that shows
/// up in a capture.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvOccupancy {
    /// Worker the iterative device belongs to.
    pub worker: u32,
    /// Iterations the device ran inside the trace.
    pub iterations: u64,
    /// Total time the device spent iterating, µs.
    pub busy_us: u64,
    /// Peak KV tokens resident in any one iteration.
    pub peak_kv: u64,
    /// KV capacity of the device in tokens.
    pub kv_capacity: u64,
    /// Time-weighted mean occupancy fraction
    /// (`Σ used·dur / Σ capacity·dur`).
    pub mean_frac: f64,
    /// Peak occupancy fraction (`peak_kv / kv_capacity`).
    pub peak_frac: f64,
}

/// Roll the [`TraceEventKind::IterationStarted`] spans of `events` into one
/// [`KvOccupancy`] per worker, ascending worker order.
///
/// Like [`TraceAttribution::from_events`], the input is re-sorted by
/// `(at, seq)` first, so the result (including its float accumulations) is
/// invariant under any reordering that preserves that key order. Workers
/// with no iterations produce no entry; an empty stream yields an empty
/// vector.
pub fn kv_occupancy(events: &[TraceEvent]) -> Vec<KvOccupancy> {
    struct Acc {
        iterations: u64,
        busy_us: u64,
        peak_kv: u64,
        cap: u64,
        used_dur: f64,
        cap_dur: f64,
    }
    let mut order: Vec<&TraceEvent> = events.iter().collect();
    order.sort_by_key(|e| (e.at, e.seq));
    let mut acc: BTreeMap<u32, Acc> = BTreeMap::new();
    for ev in order {
        if let TraceEventKind::IterationStarted {
            worker,
            kv_used,
            kv_capacity,
            dur_us,
            ..
        } = &ev.kind
        {
            let a = acc.entry(*worker).or_insert(Acc {
                iterations: 0,
                busy_us: 0,
                peak_kv: 0,
                cap: 0,
                used_dur: 0.0,
                cap_dur: 0.0,
            });
            a.iterations += 1;
            a.busy_us += dur_us;
            a.peak_kv = a.peak_kv.max(*kv_used);
            a.cap = a.cap.max(*kv_capacity);
            a.used_dur += *kv_used as f64 * *dur_us as f64;
            a.cap_dur += *kv_capacity as f64 * *dur_us as f64;
        }
    }
    acc.into_iter()
        .map(|(worker, a)| KvOccupancy {
            worker,
            iterations: a.iterations,
            busy_us: a.busy_us,
            peak_kv: a.peak_kv,
            kv_capacity: a.cap,
            mean_frac: if a.cap_dur > 0.0 {
                a.used_dur / a.cap_dur
            } else {
                0.0
            },
            peak_frac: if a.cap > 0 {
                a.peak_kv as f64 / a.cap as f64
            } else {
                0.0
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BatchTrigger;

    fn ev(seq: u64, at_us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at: SimTime::from_micros(at_us),
            scope: 0,
            kind,
        }
    }

    /// arrival 1000, formed 9000, started 30000, completed 80000; one cold
    /// window [10000, 25000) on worker 0 and a transition [20000, 40000).
    fn lifecycle() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                0,
                TraceEventKind::WorkerProvisioned {
                    worker: 0,
                    hw: InstanceKind::M4_xlarge,
                    ready_at: SimTime::ZERO,
                },
            ),
            ev(
                1,
                1_000,
                TraceEventKind::RequestArrived {
                    request: 7,
                    model: MlModel::Bert,
                },
            ),
            ev(
                2,
                9_000,
                TraceEventKind::BatchFormed {
                    batch: 3,
                    model: MlModel::Bert,
                    size: 1,
                    requests: vec![7],
                    trigger: BatchTrigger::Window,
                },
            ),
            ev(
                3,
                10_000,
                TraceEventKind::ColdStartBegan {
                    worker: 0,
                    container: 1,
                    ready_at: SimTime::from_micros(25_000),
                },
            ),
            ev(
                4,
                20_000,
                TraceEventKind::TransitionBegan {
                    worker: 9,
                    from: InstanceKind::M4_xlarge,
                    to: InstanceKind::G3s_xlarge,
                },
            ),
            ev(
                5,
                40_000,
                TraceEventKind::TransitionEnded {
                    worker: 9,
                    committed: false,
                },
            ),
            ev(
                6,
                80_000,
                TraceEventKind::BatchCompleted {
                    batch: 3,
                    model: MlModel::Bert,
                    worker: 0,
                    hw: InstanceKind::M4_xlarge,
                    started: SimTime::from_micros(30_000),
                    solo_ms: 40.0,
                    size: 1,
                },
            ),
        ]
    }

    #[test]
    fn components_follow_window_priority() {
        let a = TraceAttribution::from_events(&lifecycle());
        assert_eq!(a.requests.len(), 1);
        let r = &a.requests[0];
        assert_eq!(r.batching_us, 8_000);
        // Wait [9000, 30000): cold covers [10000, 25000) = 15000; the
        // transition [20000, 40000) clipped to the wait minus cold leaves
        // [25000, 30000) = 5000; residual queueing is [9000, 10000) = 1000.
        assert_eq!(r.cold_start_us, 15_000);
        assert_eq!(r.transition_us, 5_000);
        assert_eq!(r.queueing_us, 1_000);
        // Exec [30000, 80000) = 50000 with solo 40 ms.
        assert_eq!(r.min_possible_us, 40_000);
        assert_eq!(r.interference_us, 10_000);
        assert_eq!(r.latency_us(), 79_000);
        assert_eq!(r.dominant(), Component::ColdStart);
    }

    #[test]
    fn attribution_is_reorder_invariant() {
        let sorted = TraceAttribution::from_events(&lifecycle());
        let mut shuffled = lifecycle();
        shuffled.reverse();
        shuffled.rotate_left(2);
        assert_eq!(sorted, TraceAttribution::from_events(&shuffled));
    }

    #[test]
    fn breakdown_means_components() {
        let a = TraceAttribution::from_events(&lifecycle());
        let b = a.breakdown(None, 99.0).expect("one request present");
        assert_eq!(b.requests, 1);
        assert!((b.total_ms - 79.0).abs() < 1e-9);
        assert!((b.combined_queueing_ms() - 29.0).abs() < 1e-9);
        assert!((b.min_possible_ms - 40.0).abs() < 1e-9);
        assert!((b.interference_ms - 10.0).abs() < 1e-9);
        let roll = a.rollup(None).expect("non-empty");
        assert_eq!(roll.requests, 1);
        assert_eq!(roll.p99, b);
    }

    /// Iterative lifecycle: arrival 1000, formed 9000, cold window
    /// [10000, 25000), join at 25000, two 10 ms iterations (residents 2
    /// then 1), leave at 45000.
    fn iter_lifecycle() -> Vec<TraceEvent> {
        vec![
            ev(
                0,
                0,
                TraceEventKind::WorkerProvisioned {
                    worker: 0,
                    hw: InstanceKind::P3_2xlarge,
                    ready_at: SimTime::ZERO,
                },
            ),
            ev(
                1,
                1_000,
                TraceEventKind::RequestArrived {
                    request: 7,
                    model: MlModel::Bert,
                },
            ),
            ev(
                2,
                9_000,
                TraceEventKind::BatchFormed {
                    batch: 3,
                    model: MlModel::Bert,
                    size: 1,
                    requests: vec![7],
                    trigger: BatchTrigger::Window,
                },
            ),
            ev(
                3,
                10_000,
                TraceEventKind::ColdStartBegan {
                    worker: 0,
                    container: 1,
                    ready_at: SimTime::from_micros(25_000),
                },
            ),
            ev(
                4,
                25_000,
                TraceEventKind::BatchJoin {
                    request: 7,
                    model: MlModel::Bert,
                    worker: 0,
                    iteration: 5,
                    kv_tokens: 200,
                },
            ),
            ev(
                5,
                25_000,
                TraceEventKind::IterationStarted {
                    worker: 0,
                    iteration: 5,
                    residents: 2,
                    kv_used: 300,
                    kv_capacity: 4_096,
                    dur_us: 10_000,
                },
            ),
            ev(
                6,
                35_000,
                TraceEventKind::IterationStarted {
                    worker: 0,
                    iteration: 6,
                    residents: 1,
                    kv_used: 200,
                    kv_capacity: 4_096,
                    dur_us: 10_000,
                },
            ),
            ev(
                7,
                45_000,
                TraceEventKind::BatchLeave {
                    request: 7,
                    model: MlModel::Bert,
                    worker: 0,
                    iteration: 6,
                    decoded: 2,
                },
            ),
        ]
    }

    #[test]
    fn iterative_requests_attribute_via_join_and_leave() {
        let a = TraceAttribution::from_events(&iter_lifecycle());
        assert_eq!(a.requests.len(), 1);
        let r = &a.requests[0];
        assert_eq!(r.request, 7);
        assert_eq!(r.batch, 3);
        assert_eq!(r.hw, InstanceKind::P3_2xlarge);
        assert_eq!(r.batching_us, 8_000);
        // Wait [9000, 25000): cold covers [10000, 25000) = 15000, residual
        // queueing [9000, 10000) = 1000, no transitions.
        assert_eq!(r.cold_start_us, 15_000);
        assert_eq!(r.transition_us, 0);
        assert_eq!(r.queueing_us, 1_000);
        // Exec [25000, 45000) = 20000. Isolated: 10000/1.02 + 10000/1.00
        // = 19804 µs rounded; the 196 µs remainder is the co-resident
        // stretch of the first iteration.
        assert_eq!(r.min_possible_us, 19_804);
        assert_eq!(r.interference_us, 196);
        assert_eq!(r.latency_us(), 44_000);
        // The identity still closes bit-exactly against the timestamps.
        assert_eq!(
            r.latency_us(),
            r.completed.as_micros() - r.arrival.as_micros()
        );
    }

    #[test]
    fn iterative_attribution_is_reorder_invariant() {
        let sorted = TraceAttribution::from_events(&iter_lifecycle());
        let mut shuffled = iter_lifecycle();
        shuffled.reverse();
        shuffled.rotate_left(3);
        assert_eq!(sorted, TraceAttribution::from_events(&shuffled));
    }

    #[test]
    fn kv_occupancy_rolls_up_per_worker() {
        let mut events = iter_lifecycle();
        events.push(ev(
            8,
            50_000,
            TraceEventKind::IterationStarted {
                worker: 2,
                iteration: 0,
                residents: 4,
                kv_used: 2_048,
                kv_capacity: 2_048,
                dur_us: 5_000,
            },
        ));
        let occ = kv_occupancy(&events);
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].worker, 0);
        assert_eq!(occ[0].iterations, 2);
        assert_eq!(occ[0].busy_us, 20_000);
        assert_eq!(occ[0].peak_kv, 300);
        assert_eq!(occ[0].kv_capacity, 4_096);
        // Time-weighted mean: (300 + 200) / 2 over a 4096 capacity.
        assert!((occ[0].mean_frac - 250.0 / 4_096.0).abs() < 1e-12);
        assert!((occ[0].peak_frac - 300.0 / 4_096.0).abs() < 1e-12);
        // Worker 2 is saturated.
        assert_eq!(occ[1].worker, 2);
        assert!((occ[1].mean_frac - 1.0).abs() < 1e-12);
        assert!((occ[1].peak_frac - 1.0).abs() < 1e-12);
        // Reordering the stream changes nothing, bit for bit.
        let mut shuffled = events.clone();
        shuffled.reverse();
        assert_eq!(occ, kv_occupancy(&shuffled));
        assert!(kv_occupancy(&[]).is_empty());
    }

    #[test]
    fn interval_helpers_hold() {
        assert_eq!(
            clip_merge([(5, 10), (8, 12), (20, 30)], 6, 25),
            vec![(6, 12), (20, 25)]
        );
        assert_eq!(
            subtract(&[(0, 10), (20, 30)], &[(3, 5), (8, 22)]),
            vec![(0, 3), (5, 8), (22, 30)]
        );
        assert_eq!(measure(&[(1, 4), (10, 11)]), 4);
        assert_eq!(subtract(&[(0, 10)], &[]), vec![(0, 10)]);
        assert_eq!(clip_merge([], 0, 100), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn empty_scope_is_none() {
        let a = TraceAttribution::from_events(&[]);
        assert!(a.breakdown(None, 99.0).is_none());
        assert!(a.rollup(Some(3)).is_none());
        assert!(a.scopes().is_empty());
    }
}
