//! Measurement from outside the program: spans kept in memory, a wrapper
//! `Scheduler` and a wrapper `TraceSink` that time the calls the engine
//! makes into `core` and `obs`, and `/proc` accounting for a process.
//!
//! Nothing here changes what the program computes: the wrappers forward
//! every call verbatim and only read the wall clock around it.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use paldia_cluster::{Decision, Observation, Scheduler};
use paldia_hw::InstanceKind;
use paldia_obs::{DecisionEvent, TraceEvent, TraceEventKind, TraceSink};

/// Process-wide time origin for span stamps.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`].
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One timed interval. `parent` indexes the span that caused it in the
/// same [`Spans`] store (`None` for a top-level span).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store shared by the benchmark's wrappers. Spans are only
/// written out when the run ends ([`Spans::write_jsonl`]).
#[derive(Clone, Default)]
pub struct Spans {
    inner: Arc<Mutex<Vec<Span>>>,
}

impl Spans {
    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let mut v = self.inner.lock().expect("span store poisoned");
        v.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
        });
        v.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = now_ns();
        self.inner.lock().expect("span store poisoned")[id].end_ns = end;
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Append spans recorded elsewhere (a wrapper's local buffer).
    pub fn extend(&self, spans: Vec<Span>) {
        self.inner
            .lock()
            .expect("span store poisoned")
            .extend(spans);
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.inner.lock().expect("span store poisoned").clone()
    }

    /// Write every span as one JSON line: name, start, end, parent,
    /// workload.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let spans = self.snapshot();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sum of the durations of `name` spans whose parent is `parent`.
pub fn child_secs(spans: &[Span], parent: usize, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(Span::secs)
        .sum()
}

/// Self time of span `id`: its duration minus the part its children cover.
/// Children of one parent never overlap on the serial engine; on the
/// sharded engine they run on two workers at once, so their sum can
/// exceed the parent's duration and the self time goes negative.
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::secs)
        .sum();
    spans[id].secs() - children
}

/// A `Scheduler` that times every `decide()` of the scheduler it wraps.
/// Decide spans are buffered locally (no lock per call) and handed to the
/// shared store when the wrapper is dropped, which the engines do at the
/// end of a run.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    store: Spans,
    parent: Option<usize>,
    local: Vec<Span>,
}

impl TimedScheduler {
    pub fn new(inner: Box<dyn Scheduler>, store: Spans, parent: Option<usize>) -> Self {
        TimedScheduler {
            inner,
            store,
            parent,
            local: Vec::new(),
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        let start_ns = now_ns();
        let d = self.inner.decide(obs);
        self.local.push(Span {
            name: "core.decide",
            start_ns,
            end_ns: now_ns(),
            parent: self.parent,
        });
        d
    }
    fn on_transition_complete(&mut self, new_hw: InstanceKind) {
        self.inner.on_transition_complete(new_hw)
    }
    fn set_decision_recording(&mut self, enabled: bool) {
        self.inner.set_decision_recording(enabled)
    }
    fn drain_decision_events(&mut self) -> Vec<DecisionEvent> {
        self.inner.drain_decision_events()
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        self.store.extend(std::mem::take(&mut self.local));
    }
}

/// Per-kind event-count metrics, for the kinds that make up most of a
/// stream, indexed by [`kind_index`].
pub const KINDS: [&str; 9] = [
    "obs.kind.request_arrived",
    "obs.kind.batch_formed",
    "obs.kind.batch_dispatched",
    "obs.kind.batch_admitted",
    "obs.kind.batch_completed",
    "obs.kind.iteration_started",
    "obs.kind.batch_join",
    "obs.kind.batch_leave",
    "obs.kind.decision",
];

fn kind_index(kind: &TraceEventKind) -> Option<usize> {
    Some(match kind {
        TraceEventKind::RequestArrived { .. } => 0,
        TraceEventKind::BatchFormed { .. } => 1,
        TraceEventKind::BatchDispatched { .. } => 2,
        TraceEventKind::BatchAdmitted { .. } => 3,
        TraceEventKind::BatchCompleted { .. } => 4,
        TraceEventKind::IterationStarted { .. } => 5,
        TraceEventKind::BatchJoin { .. } => 6,
        TraceEventKind::BatchLeave { .. } => 7,
        TraceEventKind::Decision(_) => 8,
        _ => return None,
    })
}

/// A `TraceSink` that times every `record()` into the sink it wraps and
/// counts events by kind. One span per event would dwarf the run it
/// measures, so the time is kept as a sum and a count.
pub struct TimedSink<'a> {
    inner: &'a mut dyn TraceSink,
    pub busy_ns: u64,
    pub events: u64,
    pub by_kind: [u64; KINDS.len()],
    /// Engine events reported by the stream's `RunSummary`, if it had one.
    pub engine_events: Option<u64>,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn TraceSink) -> Self {
        TimedSink {
            inner,
            busy_ns: 0,
            events: 0,
            by_kind: [0; KINDS.len()],
            engine_events: None,
        }
    }
}

impl TraceSink for TimedSink<'_> {
    fn record(&mut self, event: TraceEvent) {
        self.events += 1;
        if let Some(i) = kind_index(&event.kind) {
            self.by_kind[i] += 1;
        }
        if let TraceEventKind::RunSummary { events, .. } = event.kind {
            self.engine_events = Some(events);
        }
        let start = Instant::now();
        self.inner.record(event);
        self.busy_ns += start.elapsed().as_nanos() as u64;
    }
}

/// CPU, fault and context-switch counters of one process, from `/proc`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: f64,
    pub vol_ctxsw: f64,
    pub invol_ctxsw: f64,
    /// Peak resident set (`VmHWM`), MiB.
    pub hwm_mb: f64,
}

/// Clock ticks per second of `/proc/<pid>/stat` times. Linux reports them
/// in `USER_HZ`, which is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

impl ProcStat {
    /// Read `/proc/<pid>/{stat,status}` (`pid` = "self" for this process).
    pub fn read(pid: &str) -> Result<ProcStat, String> {
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
            .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
        // Fields after the parenthesised command name; utime/stime are
        // fields 14/15 of the full line, minflt field 10.
        let rest = stat.rsplit_once(')').ok_or("malformed /proc stat line")?.1;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("missing /proc stat field {i}"))
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
        let field = |key: &str| -> Result<f64, String> {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next())
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("missing {key} in /proc status"))
        };
        Ok(ProcStat {
            minflt: num(7)?,
            user_s: num(11)? / USER_HZ,
            sys_s: num(12)? / USER_HZ,
            vol_ctxsw: field("voluntary_ctxt_switches:")?,
            invol_ctxsw: field("nonvoluntary_ctxt_switches:")?,
            hwm_mb: field("VmHWM:")? / 1024.0,
        })
    }

    /// Counter growth from `earlier` to `self` (`hwm_mb` is kept as read).
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minflt: self.minflt - earlier.minflt,
            vol_ctxsw: self.vol_ctxsw - earlier.vol_ctxsw,
            invol_ctxsw: self.invol_ctxsw - earlier.invol_ctxsw,
            hwm_mb: self.hwm_mb,
        }
    }
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so the next read covers only what follows. Kernels
/// without `clear_refs` keep the lifetime peak.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Peak resident set of this process since the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(ProcStat::read("self")?.hwm_mb)
}

/// Host-wide steal time so far, seconds (the `steal` column of the `cpu`
/// line of `/proc/stat`). 0 where the kernel does not report it.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}
