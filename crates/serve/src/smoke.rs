//! The differential gate: one recorded trace through both executors —
//! the wall-clock shell over loopback TCP, and the virtual-clock session
//! — with the decision streams diffed in both directions (DESIGN.md §14).
//!
//! This is the outer half of the serving shell's guarantee. The inner
//! half (virtual session ≡ batch engine, byte for byte) is proven by
//! `crates/cluster/tests/session_replay.rs`; together they pin
//! shell ≡ session ≡ simulation on every replayed trace. The CI stage
//! `serve-smoke` runs [`run_smoke`] at 20x over 200 requests of the quick
//! capture and publishes `target/serve-report.json`.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

use paldia_cluster::{run_replay_virtual, RecordedTrace, RunResult, SimConfig, SimSession};
use paldia_core::PaldiaScheduler;
use paldia_experiments::diffcap::PrimaryScenario;
use paldia_hw::Catalog;
use paldia_obs::{diff_decision_streams, DiffReport, TraceEvent, VecSink};

use crate::loadgen::{self, ReplayStats};
use crate::server::{serve_once, ServeOpts, ServeOutcome};

/// Smoke-run knobs (the CI stage's defaults).
#[derive(Clone, Debug)]
pub struct SmokeOpts {
    /// Requests to keep from the quick capture.
    pub requests: usize,
    /// Replay speedup.
    pub speed: f64,
    /// Capture seed.
    pub seed: u64,
    /// Loopback port (0 = ephemeral).
    pub port: u16,
    /// Where to write the JSON report, if anywhere.
    pub report: Option<PathBuf>,
}

impl Default for SmokeOpts {
    fn default() -> Self {
        SmokeOpts {
            requests: 200,
            speed: 20.0,
            seed: 42,
            port: 0,
            report: None,
        }
    }
}

/// Everything the differential produced, for the report and the verdict.
#[derive(Debug)]
pub struct SmokeOutcome {
    /// Arrivals in the replayed trace.
    pub trace_arrivals: usize,
    /// Trace duration, virtual microseconds.
    pub trace_duration_us: u64,
    /// The shell side (server).
    pub shell: ServeOutcome,
    /// The client side (load generator).
    pub stats: ReplayStats,
    /// The virtual-clock side.
    pub sim_result: RunResult,
    /// The virtual side's decision/span stream.
    pub sim_events: Vec<TraceEvent>,
    /// Shell-vs-sim decision diff.
    pub forward: DiffReport,
    /// Sim-vs-shell decision diff.
    pub backward: DiffReport,
    /// Stronger than the decision diff: the full event streams byte-match.
    pub events_identical: bool,
}

impl SmokeOutcome {
    /// The gate: both diff directions empty, full streams identical, no
    /// protocol errors, and every sent request accounted for.
    pub fn pass(&self) -> bool {
        self.forward.is_empty()
            && self.backward.is_empty()
            && self.events_identical
            && self.shell.protocol_errors.is_empty()
            && self.stats.errors.is_empty()
            && self.stats.done.len() == self.sim_result.completed.len()
    }
}

/// Run `trace` through the virtual-clock session executor (traced) —
/// the DES side of the differential. Executed through the bounded worker
/// pool so the smoke exercises the same scheduling substrate the
/// experiment runner uses. Errors when the session refuses an arrival
/// ([`paldia_cluster::SimSession::inject_recorded`]).
pub fn virtual_outcome(trace: &RecordedTrace) -> Result<(RunResult, Vec<TraceEvent>), String> {
    let mut out = paldia_sim::pool::run_indexed(1, |_| {
        let cfg = SimConfig::with_seed(trace.seed);
        let mut sched = PaldiaScheduler::new();
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
            run_replay_virtual(&mut session, &trace.arrivals).map(|()| session.finish())
        };
        result.map(|r| (r, sink.into_events()))
    });
    out.pop().expect("run_indexed(1) yields one result")
}

/// Replay `trace` through the shell (loopback TCP, wall clock at
/// `speed`x) *and* the virtual session, and diff the decision streams
/// both ways.
pub fn run_differential(
    trace: &RecordedTrace,
    speed: f64,
    port: u16,
) -> Result<SmokeOutcome, String> {
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("binding 127.0.0.1:{port}: {e}"))?;
    let addr: SocketAddr = listener
        .local_addr()
        .map_err(|e| format!("resolving local addr: {e}"))?;

    let serve_opts = ServeOpts { speed };
    let server = std::thread::spawn(move || serve_once(&listener, &serve_opts));
    let client_trace = trace.clone();
    let client = std::thread::spawn(move || loadgen::replay_trace(addr, &client_trace, speed));

    // The DES side runs on this thread while the shell replays on the wall.
    let sim = virtual_outcome(trace);

    let shell = server
        .join()
        .map_err(|_| "server thread panicked".to_string())??;
    let stats = client
        .join()
        .map_err(|_| "client thread panicked".to_string())??;
    let (sim_result, sim_events) = sim?;

    let forward = diff_decision_streams(&shell.events, &sim_events);
    let backward = diff_decision_streams(&sim_events, &shell.events);
    let events_identical = shell.events == sim_events;
    Ok(SmokeOutcome {
        trace_arrivals: trace.arrivals.len(),
        trace_duration_us: trace.duration.as_micros(),
        shell,
        stats,
        sim_result,
        sim_events,
        forward,
        backward,
        events_identical,
    })
}

/// The CI smoke: capture the quick trace, truncate, run the differential,
/// optionally write the report.
pub fn run_smoke(opts: &SmokeOpts) -> Result<SmokeOutcome, String> {
    let trace = PrimaryScenario::quick(opts.seed)
        .replay_trace()
        .truncated(opts.requests);
    if trace.arrivals.is_empty() {
        return Err("quick capture produced no arrivals".into());
    }
    let outcome = run_differential(&trace, opts.speed, opts.port)?;
    if let Some(path) = &opts.report {
        crate::report::write_report(path, opts, &outcome)?;
    }
    Ok(outcome)
}
