//! Trace event types: per-request spans and scheduler decision records.
//!
//! This file is the trace schema. [`TraceEventKind`] is declared by one
//! table whose rows name each variant, its JSONL tag and its typed fields;
//! the table also derives the kind's tag, payload writer and payload
//! reader, which both the JSONL codec and the chrome exporter use. The
//! structs nested in a decision payload come from a second such table.
//!
//! Every event carries the simulated timestamp it was emitted at plus a
//! process-wide sequence number, so sinks can reconstruct a total order
//! without ever consulting the wall clock (see the determinism contract in
//! DESIGN.md §Observability).

use paldia_hw::InstanceKind;
use paldia_sim::SimTime;
use paldia_workloads::MlModel;

use crate::jsonl::{get_field, put_field, Field, Json, Obj};

/// One record in a trace: where (`scope`), when (`at`, `seq`), and what
/// (`kind`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotonic sequence number assigned by the [`crate::Tracer`]; breaks
    /// ties between events emitted at the same simulated instant.
    pub seq: u64,
    /// Simulated time the event was emitted at.
    pub at: SimTime,
    /// Logical process the event belongs to: `0` for a single-tenant run,
    /// `1 + deployment index` for fleet runs.
    pub scope: u32,
    /// The event payload.
    pub kind: TraceEventKind,
}

/// What caused a batch to close and leave the batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchTrigger {
    /// The batch reached its configured size.
    Size,
    /// The batching window deadline expired.
    Window,
}

/// Declares [`TraceEventKind`] from one table of rows and derives the rest
/// of the schema from the same rows: [`TraceEventKind::tag`], the payload
/// writer and the payload reader.
///
/// A row is `Variant = "tag" { field: Type, .. }`, or `Variant = "tag"
/// (key: Type)` for a tuple variant whose one value is written under `key`.
/// Each field is written under its own name, in row order, by its type's
/// [`Field`] impl; the reader looks fields up by name.
macro_rules! trace_event_kinds {
    // Normalise a struct row to `[docs] Variant "tag" {decl} [field binding: Type, ..]`.
    (@rows $meta:tt [$($done:tt)*]
        $(#[$vm:meta])* $v:ident = $tag:literal { $($(#[$fm:meta])* $f:ident: $t:ty),* $(,)? },
        $($rest:tt)*
    ) => {
        trace_event_kinds!(@rows $meta [$($done)*
            [$(#[$vm])*] $v $tag { $($(#[$fm])* $f: $t),* } [$($f $f: $t),*]
        ] $($rest)*);
    };
    // Normalise a tuple row: its one field is `0`, bound and keyed as `key`.
    (@rows $meta:tt [$($done:tt)*]
        $(#[$vm:meta])* $v:ident = $tag:literal ($b:ident: $t:ty),
        $($rest:tt)*
    ) => {
        trace_event_kinds!(@rows $meta [$($done)* [$(#[$vm])*] $v $tag ($t) [0 $b: $t]] $($rest)*);
    };
    (@rows [$(#[$meta:meta])*] [$(
        [$(#[$vm:meta])*] $v:ident $tag:literal $decl:tt [$($field:tt $b:ident: $t:ty),*]
    )*]) => {
        $(#[$meta])*
        pub enum TraceEventKind {
            $($(#[$vm])* $v $decl,)*
        }

        impl TraceEventKind {
            /// The kind's JSONL tag: the `"kind"` value of its line.
            pub(crate) fn tag(&self) -> &'static str {
                match self {
                    $(Self::$v { .. } => $tag,)*
                }
            }

            /// Append the payload as `"key":value` members of an open JSON
            /// object.
            pub(crate) fn write_payload(&self, out: &mut String) {
                match self {
                    $(Self::$v { $($field: $b),* } => {
                        $(put_field(out, stringify!($b), $b);)*
                    })*
                }
            }

            /// Read the payload of kind `tag` from the members of `obj`.
            pub(crate) fn read_payload(tag: &str, obj: &Obj) -> Result<Self, String> {
                Ok(match tag {
                    $($tag => Self::$v { $($field: get_field(obj, stringify!($b))?),* },)*
                    other => return Err(format!("unknown kind {other:?}")),
                })
            }
        }
    };
    ($(#[$meta:meta])* pub enum TraceEventKind { $($rows:tt)* }) => {
        trace_event_kinds!(@rows [$(#[$meta])*] [] $($rows)*);
    };
}

/// Declares the structs nested in a [`TraceEventKind::Decision`] payload,
/// each written as a JSON object of its fields in declaration order.
macro_rules! payload_structs {
    ($($(#[$meta:meta])* pub struct $name:ident { $($(#[$fm:meta])* pub $f:ident: $t:ty,)* })*) => {$(
        $(#[$meta])*
        pub struct $name {
            $($(#[$fm])* pub $f: $t,)*
        }

        impl Field for $name {
            fn put(&self, out: &mut String) {
                out.push('{');
                $(put_field(out, stringify!($f), &self.$f);)*
                out.push('}');
            }

            fn get(v: &Json) -> Result<Self, String> {
                let obj = Obj::of(v);
                Ok($name { $($f: get_field(&obj, stringify!($f))?,)* })
            }
        }
    )*};
}

trace_event_kinds! {
    /// The payload of a [`TraceEvent`].
    ///
    /// Variants follow a request's life: arrival, batch formation, dispatch,
    /// admission onto a (possibly shared) device, completion — interleaved with
    /// the infrastructure events (cold starts, provisioning, hardware switches,
    /// faults) and scheduler [`DecisionEvent`]s that explain the timings.
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceEventKind {
        /// A request entered the system and was queued at its model's batcher.
        RequestArrived = "request_arrived" {
            /// Request id.
            request: u64,
            /// Model the request targets.
            model: MlModel,
        },
        /// A batch closed (by size or window deadline) and is ready to dispatch.
        BatchFormed = "batch_formed" {
            /// Batch id.
            batch: u64,
            /// Model the batch serves.
            model: MlModel,
            /// Number of requests in the batch.
            size: u32,
            /// Ids of the member requests.
            requests: Vec<u64>,
            /// Why the batch closed.
            trigger: BatchTrigger,
        },
        /// A formed batch was routed to a worker's admission queue.
        BatchDispatched = "batch_dispatched" {
            /// Batch id.
            batch: u64,
            /// Model the batch serves.
            model: MlModel,
            /// Target worker id.
            worker: u32,
            /// Hardware kind of the target worker.
            hw: InstanceKind,
        },
        /// A batch claimed a warm container and started executing on the device.
        BatchAdmitted = "batch_admitted" {
            /// Batch id.
            batch: u64,
            /// Model the batch serves.
            model: MlModel,
            /// Worker executing the batch.
            worker: u32,
            /// Container id the batch claimed.
            container: u32,
            /// Fair share of the device granted at admission (0, 1].
            share: f64,
            /// Number of batches concurrently resident on the device after
            /// admission.
            concurrency: u32,
            /// Contention slowdown factor applied by the shared device
            /// (1.0 = no interference).
            slowdown: f64,
        },
        /// A batch finished executing; its requests are complete.
        BatchCompleted = "batch_completed" {
            /// Batch id.
            batch: u64,
            /// Model the batch serves.
            model: MlModel,
            /// Worker that executed the batch.
            worker: u32,
            /// Hardware kind that executed the batch.
            hw: InstanceKind,
            /// Simulated time execution started (device admission).
            started: SimTime,
            /// Solo (interference-free) execution estimate in milliseconds.
            solo_ms: f64,
            /// Number of requests in the batch.
            size: u32,
        },
        /// A container began cold-starting.
        ColdStartBegan = "cold_start_began" {
            /// Worker the container belongs to.
            worker: u32,
            /// Container id.
            container: u32,
            /// Simulated time the container will become ready.
            ready_at: SimTime,
        },
        /// A cold-starting container became warm.
        ColdStartFinished = "cold_start_finished" {
            /// Worker the container belongs to.
            worker: u32,
            /// Container id.
            container: u32,
        },
        /// A new worker was provisioned.
        WorkerProvisioned = "worker_provisioned" {
            /// Worker id.
            worker: u32,
            /// Hardware kind provisioned.
            hw: InstanceKind,
            /// Simulated time the worker becomes usable.
            ready_at: SimTime,
        },
        /// A worker was released (scale-down, hardware switch, or end of run).
        WorkerReleased = "worker_released" {
            /// Worker id.
            worker: u32,
            /// Hardware kind released.
            hw: InstanceKind,
        },
        /// A hardware transition opened: a pending worker was provisioned and
        /// the scope is now waiting for it to become ready. Paired with a
        /// [`TraceEventKind::TransitionEnded`] on the same worker (commit,
        /// abandon, or abort), so the attribution layer can treat the window as
        /// an explicit interval instead of guessing a residual.
        TransitionBegan = "transition_began" {
            /// The pending worker provisioned for the transition.
            worker: u32,
            /// Hardware serving traffic when the transition opened.
            from: InstanceKind,
            /// Hardware the transition is moving to.
            to: InstanceKind,
        },
        /// A hardware transition closed. `committed == true` means routing
        /// switched to the pending worker (a [`TraceEventKind::HwSwitched`]
        /// follows at the same instant); `false` means the pending lease was
        /// given up — abandoned for a better rung, or aborted because its kind
        /// failed.
        TransitionEnded = "transition_ended" {
            /// The pending worker the transition was waiting on.
            worker: u32,
            /// Whether routing actually switched to the pending worker.
            committed: bool,
        },
        /// Routing switched to a newly ready worker on different hardware.
        HwSwitched = "hw_switched" {
            /// The newly active worker id.
            worker: u32,
            /// Hardware kind routing moved away from, if the old worker was
            /// still known.
            from: Option<InstanceKind>,
            /// Hardware kind now serving traffic.
            to: InstanceKind,
        },
        /// An iteration-level device began one iteration of its running batch
        /// (continuous-batching mode). Joins and leaves happen only at these
        /// boundaries; the `dur_us` field makes every boundary instant
        /// reconstructible from the stream alone.
        IterationStarted = "iteration_started" {
            /// Worker whose device is iterating.
            worker: u32,
            /// Monotonic iteration index on this worker's device.
            iteration: u64,
            /// Sequences resident in the running batch this iteration.
            residents: u32,
            /// KV-cache tokens reserved by the residents.
            kv_used: u64,
            /// KV-cache capacity of the device in tokens.
            kv_capacity: u64,
            /// Iteration duration in integer microseconds (the next boundary
            /// is at `at + dur_us`).
            dur_us: u64,
        },
        /// A request joined a running iterative batch at an iteration boundary
        /// (prefill join).
        BatchJoin = "batch_join" {
            /// Request id.
            request: u64,
            /// Model the request targets.
            model: MlModel,
            /// Worker whose running batch admitted the request.
            worker: u32,
            /// Iteration index the request joins at (its first iteration).
            iteration: u64,
            /// KV-cache tokens the sequence reserved for its residency.
            kv_tokens: u64,
        },
        /// A request left a running iterative batch after its final decode
        /// token (decode leave), at an iteration boundary.
        BatchLeave = "batch_leave" {
            /// Request id.
            request: u64,
            /// Model the request targets.
            model: MlModel,
            /// Worker whose running batch retired the request.
            worker: u32,
            /// Iteration index of the request's last iteration.
            iteration: u64,
            /// Decode tokens the sequence produced while resident.
            decoded: u32,
        },
        /// A scheduler decision, with the candidate evaluations behind it.
        Decision = "decision" (decision: Box<DecisionEvent>),
        /// A failover policy replaced failed hardware.
        Failover = "failover" {
            /// Hardware kind that failed.
            failed: InstanceKind,
            /// Replacement chosen by the policy, if any was available.
            replacement: Option<InstanceKind>,
            /// Name of the [`FailoverPolicy`] that chose.
            ///
            /// [`FailoverPolicy`]: https://docs.rs/paldia-cluster
            policy: String,
        },
        /// A fault window opened (`started == true`) or closed.
        FaultEdge = "fault_edge" {
            /// Index of the fault window in the compiled schedule.
            window: u32,
            /// Debug rendering of the fault kind.
            desc: String,
            /// Whether this edge starts (true) or ends (false) the window.
            started: bool,
        },
        /// End-of-run summary emitted once per harness run.
        RunSummary = "run_summary" {
            /// Number of simulation events the engine processed
            /// ([`paldia_sim::RunOutcome::events`]).
            events: u64,
            /// Horizon the run was driven to.
            horizon: SimTime,
        },
    }
}

payload_structs! {
    /// A structured record of one scheduler `decide()` call.
    ///
    /// Captures the inputs (per-model loads), the Eq. 1 candidate evaluations
    /// (`candidates`), the y-search output for the chosen kind (`plans`), and
    /// the control-state flags that steered hardware selection.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DecisionEvent {
        /// Scheduler name (e.g. `"paldia"`).
        pub scheduler: String,
        /// Hardware serving traffic when the decision was made.
        pub current_hw: InstanceKind,
        /// Hardware the decision selected (may equal `current_hw`).
        pub chosen_hw: InstanceKind,
        /// SLO target in milliseconds.
        pub slo_ms: f64,
        /// Whether the distress path (current hardware missing SLO) fired.
        pub distress: bool,
        /// Whether ramp detection boosted the planning rate.
        pub ramping: bool,
        /// Whether a hardware transition was already in flight.
        pub transitioning: bool,
        /// Per-model load inputs to the y-search (pending depth + planning rate).
        pub loads: Vec<LoadSummary>,
        /// Eq. 1 evaluation of every available hardware candidate.
        pub candidates: Vec<HwCandidate>,
        /// Per-model plans for the hardware actually serving traffic.
        pub plans: Vec<PlanSummary>,
    }

    /// Per-model load input recorded in a [`DecisionEvent`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LoadSummary {
        /// The model.
        pub model: MlModel,
        /// Requests queued at decision time.
        pub pending: u64,
        /// Planning arrival rate in requests per second.
        pub rate_rps: f64,
    }

    /// One hardware candidate's Eq. 1 evaluation in a [`DecisionEvent`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct HwCandidate {
        /// The candidate hardware kind.
        pub kind: InstanceKind,
        /// Worst per-model latency estimate (Eq. 1) in milliseconds.
        pub t_max_ms: f64,
        /// On-demand price of the candidate in $/hour.
        pub price_per_hour: f64,
        /// Whether the candidate fits its feasibility budget
        /// (SLO minus safety margin, tightened for downgrades).
        pub feasible: bool,
    }

    /// Per-model y-search output recorded in a [`DecisionEvent`].
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PlanSummary {
        /// The model.
        pub model: MlModel,
        /// Chosen y (requests per dispatch wave).
        pub best_y: u64,
        /// Batch size the plan dispatches.
        pub batch_size: u32,
        /// Spatial-sharing cap (concurrent batches) the plan allows.
        pub spatial_cap: u32,
        /// Eq. 1 latency estimate for this plan in milliseconds.
        pub t_max_ms: f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_kinds_are_cloneable_and_comparable() {
        let a = TraceEvent {
            seq: 0,
            at: SimTime::ZERO,
            scope: 0,
            kind: TraceEventKind::RequestArrived {
                request: 1,
                model: MlModel::ResNet50,
            },
        };
        let b = a.clone();
        assert_eq!(a, b);
    }

    #[test]
    fn decision_event_boxes_into_kind() {
        let d = DecisionEvent {
            scheduler: "paldia".to_string(),
            current_hw: InstanceKind::M4_xlarge,
            chosen_hw: InstanceKind::M4_xlarge,
            slo_ms: 200.0,
            distress: false,
            ramping: false,
            transitioning: false,
            loads: vec![],
            candidates: vec![],
            plans: vec![],
        };
        let k = TraceEventKind::Decision(Box::new(d.clone()));
        match k {
            TraceEventKind::Decision(inner) => assert_eq!(*inner, d),
            _ => panic!("wrong variant"),
        }
    }
}
