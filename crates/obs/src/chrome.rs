//! chrome://tracing (Trace Event Format) JSON exporter.
//!
//! Maps the deterministic event stream onto Chrome's trace viewer model:
//!
//! * `pid` = the event's scope (tenant): `0` for single-tenant runs,
//!   `1 + deployment index` for fleet runs.
//! * `tid` lanes per process: `0` is the scheduler/control lane, `100 + m`
//!   is the gateway lane for model index `m`, `1000 + w` is worker `w`'s
//!   execution lane.
//! * Batch executions, cold starts and iterations are `"X"` complete
//!   events with microsecond `ts`/`dur` taken directly from
//!   [`SimTime::as_micros`].
//! * Each request is an async `"b"`/`"e"` pair spanning arrival →
//!   completion, so the viewer shows end-to-end latency per request.
//! * Everything else is an `"i"` instant event; control-lane instants are
//!   process-scoped (`"s":"p"`).
//!
//! Only the placement (name, category, phase, lane, `ts`/`dur`, `id`/`s`)
//! is chrome-specific. Every event's entry carries `args` equal to its
//! JSONL payload — the line [`crate::event_to_jsonl`] writes, minus the
//! `seq`/`at`/`scope`/`kind` header — written by the same derived writer,
//! so the two exports cannot drift apart.
//!
//! The exporter is a pure function of the event slice — no wall clock, no
//! map iteration over unordered containers — so the same trace always
//! serialises to the same bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use paldia_sim::SimTime;
use paldia_workloads::MlModel;

use crate::event::{TraceEvent, TraceEventKind};
use crate::jsonl::escape_into;

/// Control/scheduler lane id within each process.
const TID_CONTROL: u64 = 0;
/// Base lane id for per-model gateway lanes (`TID_GATEWAY + model.index()`).
const TID_GATEWAY: u64 = 100;
/// Base lane id for per-worker execution lanes (`TID_WORKER + worker`).
const TID_WORKER: u64 = 1000;

/// The lane an entry is drawn on.
#[derive(Clone, Copy)]
enum Lane {
    Control,
    Gateway(MlModel),
    Worker(u32),
}

impl Lane {
    fn tid(self) -> u64 {
        match self {
            Lane::Control => TID_CONTROL,
            Lane::Gateway(model) => TID_GATEWAY + model.index() as u64,
            Lane::Worker(worker) => TID_WORKER + u64::from(worker),
        }
    }

    /// The `thread_name` of a gateway or worker lane; the control lane is
    /// named once per process.
    fn name(self) -> Option<String> {
        match self {
            Lane::Control => None,
            Lane::Gateway(model) => Some(format!("gateway: {model}")),
            Lane::Worker(worker) => Some(format!("worker {worker}")),
        }
    }
}

/// The chrome-specific half of an event's entry: everything but `args`.
struct Placement {
    name: String,
    cat: &'static str,
    ph: char,
    lane: Lane,
    ts: SimTime,
    dur: Option<u64>,
    id: Option<u64>,
}

impl Placement {
    fn instant(name: String, cat: &'static str, lane: Lane, at: SimTime) -> Self {
        Placement {
            name,
            cat,
            ph: 'i',
            lane,
            ts: at,
            dur: None,
            id: None,
        }
    }

    fn span(name: String, cat: &'static str, worker: u32, from: SimTime, dur: u64) -> Self {
        Placement {
            ph: 'X',
            dur: Some(dur),
            ..Placement::instant(name, cat, Lane::Worker(worker), from)
        }
    }
}

/// Name, category, phase, lane and timing of `ev`'s entry.
fn placement(ev: &TraceEvent) -> Placement {
    use TraceEventKind as K;
    let at = ev.at;
    let instant = |name, cat, lane| Placement::instant(name, cat, lane, at);
    let control = |name| Placement::instant(name, "control", Lane::Control, at);
    match &ev.kind {
        K::RequestArrived { request, model } => Placement {
            ph: 'b',
            id: Some(*request),
            ..instant(format!("req {request}"), "request", Lane::Gateway(*model))
        },
        K::BatchFormed {
            batch, model, size, ..
        } => instant(
            format!("batch {batch} formed x{size}"),
            "batch",
            Lane::Gateway(*model),
        ),
        K::BatchDispatched {
            batch,
            model,
            worker,
            ..
        } => instant(
            format!("batch {batch} -> w{worker}"),
            "batch",
            Lane::Gateway(*model),
        ),
        K::BatchAdmitted { batch, worker, .. } => instant(
            format!("admit batch {batch}"),
            "admit",
            Lane::Worker(*worker),
        ),
        K::BatchCompleted {
            batch,
            model,
            worker,
            started,
            size,
            ..
        } => Placement::span(
            format!("{model} batch {batch} x{size}"),
            "exec",
            *worker,
            *started,
            at.as_micros().saturating_sub(started.as_micros()),
        ),
        K::ColdStartBegan {
            worker,
            container,
            ready_at,
        } => Placement::span(
            format!("cold-start c{container}"),
            "coldstart",
            *worker,
            at,
            ready_at.as_micros().saturating_sub(at.as_micros()),
        ),
        K::ColdStartFinished { worker, container } => instant(
            format!("warm c{container}"),
            "coldstart",
            Lane::Worker(*worker),
        ),
        K::WorkerProvisioned { worker, hw, .. } => control(format!("provision w{worker} ({hw})")),
        K::WorkerReleased { worker, hw } => control(format!("release w{worker} ({hw})")),
        K::TransitionBegan { worker, from, to } => {
            control(format!("transition begin {from} -> {to} (w{worker})"))
        }
        K::TransitionEnded { worker, committed } => {
            let verb = if *committed { "commit" } else { "abandon" };
            control(format!("transition {verb} (w{worker})"))
        }
        K::HwSwitched { worker, from, to } => {
            let from = from.map_or_else(|| "?".to_string(), |k| k.to_string());
            control(format!("hw switch {from} -> {to} (w{worker})"))
        }
        K::IterationStarted {
            worker,
            iteration,
            residents,
            dur_us,
            ..
        } => Placement::span(
            format!("iter {iteration} x{residents}"),
            "iter",
            *worker,
            at,
            *dur_us,
        ),
        K::BatchJoin {
            request,
            worker,
            iteration,
            ..
        } => instant(
            format!("join req {request} @{iteration}"),
            "iter",
            Lane::Worker(*worker),
        ),
        K::BatchLeave {
            request,
            worker,
            iteration,
            ..
        } => instant(
            format!("leave req {request} @{iteration}"),
            "iter",
            Lane::Worker(*worker),
        ),
        K::Decision(d) => instant(
            format!("decide: {}", d.chosen_hw),
            "decision",
            Lane::Control,
        ),
        K::Failover {
            failed,
            replacement,
            ..
        } => {
            let repl = replacement.map_or_else(|| "none".to_string(), |k| k.to_string());
            instant(
                format!("failover {failed} -> {repl}"),
                "fault",
                Lane::Control,
            )
        }
        K::FaultEdge { desc, started, .. } => {
            let edge = if *started { "start" } else { "end" };
            instant(format!("fault {edge}: {desc}"), "fault", Lane::Control)
        }
        K::RunSummary { .. } => control("run summary".to_string()),
    }
}

/// Write one entry; `args` is the event whose payload becomes `"args"`.
fn entry(p: &Placement, pid: u32, args: Option<&TraceEventKind>) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"name\":");
    escape_into(&p.name, &mut out);
    let _ = write!(
        out,
        ",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{pid},\"tid\":{}",
        p.cat,
        p.ph,
        p.ts.as_micros(),
        p.lane.tid()
    );
    if let Some(dur) = p.dur {
        let _ = write!(out, ",\"dur\":{dur}");
    }
    if let Some(id) = p.id {
        let _ = write!(out, ",\"id\":{id}");
    }
    if matches!(p.lane, Lane::Control) {
        out.push_str(",\"s\":\"p\"");
    }
    if let Some(kind) = args {
        out.push_str(",\"args\":{");
        kind.write_payload(&mut out);
        out.push('}');
    }
    out.push('}');
    out
}

/// Metadata (`"M"`) entry naming a process or thread lane.
fn metadata(kind: &str, pid: u32, tid: u64, name: &str) -> String {
    let mut out = format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
    );
    escape_into(name, &mut out);
    out.push_str("}}");
    out
}

/// Serialise `events` into a chrome://tracing JSON document.
///
/// Returns a complete `{"traceEvents":[...]}` object that loads in
/// `chrome://tracing` or Perfetto. Input order is preserved (events are
/// already in `(at, seq)` order by construction).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    // batch id -> member request ids, so request async spans can be closed
    // at batch completion even though completion events don't repeat the
    // member list.
    let mut batch_members: BTreeMap<u64, &[u64]> = BTreeMap::new();
    for ev in events {
        if let TraceEventKind::BatchFormed {
            batch, requests, ..
        } = &ev.kind
        {
            batch_members.insert(*batch, requests);
        }
    }

    // Lane names, keyed (pid, tid) for deterministic emission order.
    let mut lanes: BTreeMap<(u32, u64), String> = BTreeMap::new();
    let mut procs: BTreeSet<u32> = BTreeSet::new();
    let mut out: Vec<String> = Vec::with_capacity(events.len() + 16);
    for ev in events {
        let pid = ev.scope;
        procs.insert(pid);
        let p = placement(ev);
        if let Some(name) = p.lane.name() {
            lanes.entry((pid, p.lane.tid())).or_insert(name);
        }
        out.push(entry(&p, pid, Some(&ev.kind)));
        if let TraceEventKind::BatchCompleted { batch, model, .. } = &ev.kind {
            for req in batch_members.get(batch).copied().unwrap_or_default() {
                let end = Placement {
                    ph: 'e',
                    id: Some(*req),
                    ..Placement::instant(
                        format!("req {req}"),
                        "request",
                        Lane::Gateway(*model),
                        ev.at,
                    )
                };
                out.push(entry(&end, pid, None));
            }
        }
    }

    // Metadata entries first so the viewer labels lanes before drawing.
    let mut doc: Vec<String> = Vec::with_capacity(out.len() + lanes.len() + 2 * procs.len());
    for &pid in &procs {
        let name = match pid {
            0 => "cluster".to_string(),
            pid => format!("deployment {}", pid - 1),
        };
        doc.push(metadata("process_name", pid, 0, &name));
    }
    for ((pid, tid), name) in &lanes {
        doc.push(metadata("thread_name", *pid, *tid, name));
    }
    for &pid in &procs {
        doc.push(metadata("thread_name", pid, TID_CONTROL, "scheduler"));
    }
    doc.extend(out);

    format!("{{\"traceEvents\":[{}]}}", doc.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BatchTrigger;
    use crate::jsonl::tests::sample_events;
    use crate::jsonl::{event_to_jsonl, Json, Obj};

    fn ev(seq: u64, at_us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at: SimTime::from_micros(at_us),
            scope: 0,
            kind,
        }
    }

    #[test]
    fn non_finite_floats_stay_valid_json() {
        let json = chrome_trace_json(&[ev(
            0,
            0,
            TraceEventKind::BatchAdmitted {
                batch: 1,
                model: MlModel::Bert,
                worker: 0,
                container: 0,
                share: f64::NAN,
                concurrency: 1,
                slowdown: f64::INFINITY,
            },
        )]);
        assert!(json.contains("\"share\":\"NaN\""), "{json}");
        assert!(json.contains("\"slowdown\":\"inf\""), "{json}");
        assert!(Json::parse(&json).is_ok());
    }

    /// Every kind's `args` object is its JSONL payload, byte for byte, and
    /// reads back through the payload reader to the same kind.
    #[test]
    fn args_are_the_jsonl_payload() {
        for event in sample_events() {
            let json = chrome_trace_json(std::slice::from_ref(&event));
            let line = event_to_jsonl(&event);
            let header = format!("\"kind\":\"{}\"", event.kind.tag());
            let payload = &line[line.find(&header).expect("kind") + header.len()..];
            let args = format!("\"args\":{{{}", payload.trim_start_matches(','));
            assert!(json.contains(&args), "{json}\nlacks {args}");

            let doc = Json::parse(&json).expect("chrome export is JSON");
            let Ok(Json::Arr(entries)) = Obj::of(&doc).get("traceEvents") else {
                panic!("no traceEvents array");
            };
            let entry = entries
                .iter()
                .find(|e| !matches!(Obj::of(e).get("ph"), Ok(Json::Str(ph)) if ph == "M"))
                .expect("an event entry");
            let args = Obj::of(entry).get("args").expect("an args object");
            let back = TraceEventKind::read_payload(event.kind.tag(), &Obj::of(args));
            assert_eq!(back.as_ref(), Ok(&event.kind));
        }
    }

    #[test]
    fn exec_span_has_complete_event_fields() {
        let events = vec![
            ev(
                0,
                100,
                TraceEventKind::RequestArrived {
                    request: 7,
                    model: MlModel::ResNet50,
                },
            ),
            ev(
                1,
                200,
                TraceEventKind::BatchFormed {
                    batch: 1,
                    model: MlModel::ResNet50,
                    size: 1,
                    requests: vec![7],
                    trigger: BatchTrigger::Size,
                },
            ),
            ev(
                2,
                900,
                TraceEventKind::BatchCompleted {
                    batch: 1,
                    model: MlModel::ResNet50,
                    worker: 3,
                    hw: paldia_hw::InstanceKind::M4_xlarge,
                    started: SimTime::from_micros(300),
                    solo_ms: 0.5,
                    size: 1,
                },
            ),
        ];
        let json = chrome_trace_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":300"));
        assert!(json.contains("\"dur\":600"));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains(&format!("\"tid\":{}", TID_WORKER + 3)));
    }

    #[test]
    fn empty_trace_is_valid_document() {
        assert_eq!(chrome_trace_json(&[]), "{\"traceEvents\":[]}");
    }
}
