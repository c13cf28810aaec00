//! # paldia-obs
//!
//! Deterministic request-level observability for the Paldia simulation:
//! per-request spans (arrival → batch-form → dispatch → admit →
//! cold-start → execute → complete, annotated with device, container, and
//! MPS share) and structured scheduler decision logs (y-search inputs and
//! outputs, Eq. 1 hardware candidates with latency/cost estimates,
//! failover choices).
//!
//! ## Design
//!
//! * **Zero cost when disabled.** Instrumentation sites go through
//!   [`Tracer::emit`], which takes a closure; with no sink attached the
//!   closure never runs, so an untraced simulation pays one branch per
//!   site and performs no allocation or formatting.
//! * **Deterministic.** Events are ordered by `(sim time, sequence
//!   number)` assigned at emission. Sinks must not consult the wall clock
//!   or any other ambient state ([`TraceSink`] documents the contract).
//!   Tracing is observation-only: a traced run produces bit-identical
//!   metrics to an untraced run (enforced by `tests/trace_observability.rs`
//!   at the workspace root).
//! * **Bounded memory.** [`RingSink`] keeps the most recent N events and
//!   counts what it dropped, so multi-hour traces can be captured with a
//!   fixed budget.
//! * **One schema.** A single kind table declares [`TraceEventKind`]: each
//!   row's variant, rustdoc, JSONL tag and typed fields. The JSONL writer,
//!   the JSONL reader and the chrome `args` are all derived from it, so a
//!   new kind is one row (plus its chrome name and lane).
//!
//! ## Consumers
//!
//! * [`chrome_trace_json`] serialises a captured stream for
//!   `chrome://tracing` / Perfetto (`repro --trace out.json`); each entry's
//!   `args` is the event's JSONL payload.
//! * [`explain_request`] renders one request's plain-text timeline
//!   (`repro --explain <id>`, `examples/trace_anatomy.rs`).
//! * [`TraceAttribution`] splits each request's end-to-end latency into
//!   queueing / batching / cold-start / transition / interference
//!   components straight from the span stream — an independent derivation
//!   of the Fig. 4 breakdown, cross-checked against `paldia-metrics` by
//!   `tests/trace_attribution.rs`.
//! * [`TriageReport`] clusters SLO-missing requests by dominant component
//!   and [`render_triage`] prints one exemplar lifecycle per cluster
//!   (`repro --triage SLO_MS`).
//! * [`JsonlSink`] appends events to a file as JSONL;
//!   [`read_jsonl_file`] parses a capture back bit-identically
//!   (`repro --trace-file out.jsonl`).
//! * [`diff_decision_streams`] aligns two captures' decision events by
//!   monitor tick and scope, classifies every divergence, and
//!   [`render_diff`] narrates the first divergent decision with both
//!   candidate tables side by side (`repro --diff A.jsonl B.jsonl`, the
//!   golden-decision-log CI gate).

#![warn(missing_docs)]

mod attrib;
mod chrome;
mod diff;
mod event;
mod explain;
mod jsonl;
mod merge;
mod sink;
mod triage;

pub use attrib::{
    kv_occupancy, AttributedBreakdown, Component, KvOccupancy, RequestAttribution, ScopeRollup,
    TraceAttribution,
};
pub use chrome::chrome_trace_json;
pub use diff::{
    diff_decision_streams, render_diff, DiffReport, Divergence, DivergenceClass, TunableDelta,
    MAX_RECORDED_DIVERGENCES,
};
pub use event::{
    BatchTrigger, DecisionEvent, HwCandidate, LoadSummary, PlanSummary, TraceEvent, TraceEventKind,
};
pub use explain::{completed_request_ids, explain_request};
pub use jsonl::{
    append_jsonl, event_from_jsonl, event_to_jsonl, events_from_jsonl, read_jsonl_file, JsonlError,
    JsonlSink, DEFAULT_FLUSH_EVERY, MIN_CHUNK,
};
pub use merge::{merge_streams, VecSink};
pub use sink::{CountingSink, RingSink, TraceSink, Tracer};
pub use triage::{render_triage, TriageCluster, TriageReport};
