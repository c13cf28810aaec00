//! The one-connection serving loop: live requests through the exact
//! policy code path the simulation runs (DESIGN.md §14).
//!
//! A connection is one session. The client's `hello` names the mode:
//!
//! * **replay** — the client streams a recorded trace's arrivals under
//!   their original `(seq, id, at)` identities; the server rebuilds the
//!   *identical* [`SimSession`] the DES would run (same seed, same
//!   reserved seq block, same warm-start hardware) and drives it with the
//!   shared [`run_replay`] driver on a [`WallClock`]. Because pacing is
//!   the only wall-dependent act, the resulting decision stream diffs
//!   clean against the simulation's — the differential gate.
//! * **live** — the client invokes models ad hoc (`inv <model>`); each
//!   arrival is stamped with the wall-derived virtual now and injected.
//!   Live sessions are *not* replayable against a recorded trace (their
//!   arrival times are wall-dependent by definition), but they still emit
//!   the full `paldia-obs` decision taxonomy.
//!
//! A reader thread owns the socket's read half and feeds parsed
//! [`ClientLine`]s over a channel; the serving thread owns the session,
//! the clock, and the write half. Completion notifications are written as
//! the executor drains them — in replay mode that is when the clock next
//! advances (the next arrival, or end-of-trace drain).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use paldia_cluster::{
    run_replay, ArrivalSource, CompletedRequest, ReplayItem, RunResult, SimConfig, SimSession,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::Catalog;
use paldia_obs::{TraceEvent, VecSink};
use paldia_sim::SimTime;

use crate::clock::WallClock;
use crate::proto::{self, ClientLine, LiveHello, ReplayHello};
use crate::sink::{WallStamp, WallStampedSink};

/// How long the live loop waits for a client line before re-checking the
/// clock for due events.
const LIVE_POLL: Duration = Duration::from_millis(20);

/// Server knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServeOpts {
    /// Virtual-to-wall speedup (1.0 = real time, 20.0 = 20x compressed).
    pub speed: f64,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts { speed: 1.0 }
    }
}

/// Everything one served connection produced.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The finished run, identical in shape to a simulation's.
    pub result: RunResult,
    /// The decision/span stream (virtual-time only — diffable).
    pub events: Vec<TraceEvent>,
    /// Wall stamps for `events`, sidecar material.
    pub stamps: Vec<WallStamp>,
    /// Wall-clock the session took end to end.
    pub wall: Duration,
    /// Protocol violations tolerated mid-session (empty on a clean run).
    pub protocol_errors: Vec<String>,
}

/// Arrival source fed by the reader thread's channel. Replay mode only:
/// a non-`arr` line (other than `end`) is recorded as a protocol error
/// and treated as end-of-trace, so the session still drains and reports.
struct ChannelSource<'a> {
    rx: &'a Receiver<Result<ClientLine, String>>,
    errors: &'a mut Vec<String>,
}

impl ArrivalSource for ChannelSource<'_> {
    fn next(&mut self) -> ReplayItem {
        loop {
            match self.rx.recv() {
                Ok(Ok(ClientLine::Arr(sa))) => return ReplayItem::Arrival(sa),
                Ok(Ok(ClientLine::End)) => return ReplayItem::End,
                Ok(Ok(other)) => {
                    self.errors
                        .push(format!("unexpected line in replay: {other:?}"));
                }
                Ok(Err(e)) => {
                    self.errors.push(e);
                    return ReplayItem::End;
                }
                Err(_) => {
                    self.errors.push("client disconnected mid-replay".into());
                    return ReplayItem::End;
                }
            }
        }
    }
}

fn send_line(w: &mut BufWriter<TcpStream>, line: &str) -> Result<(), String> {
    writeln!(w, "{line}")
        .and_then(|_| w.flush())
        .map_err(|e| format!("writing to client: {e}"))
}

/// Accept one connection on `listener` and serve it to completion.
///
/// Blocks until the client's session ends (its `end` line, disconnect, or
/// the live horizon). Returns the run result plus the traced decision
/// stream; protocol errors are collected, not fatal, so a half-finished
/// replay still drains and reports.
pub fn serve_once(listener: &TcpListener, opts: &ServeOpts) -> Result<ServeOutcome, String> {
    let (stream, peer) = listener
        .accept()
        .map_err(|e| format!("accepting connection: {e}"))?;
    stream.set_nodelay(true).ok();
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cloning stream for {peer}: {e}"))?;
    let mut writer = BufWriter::new(stream);

    // Reader thread: socket lines → parsed ClientLine channel. Exits on
    // EOF or socket error; dropping the sender signals the serving loop.
    let (tx, rx) = mpsc::channel::<Result<ClientLine, String>>();
    let reader_thread = std::thread::spawn(move || {
        let buf = BufReader::new(reader);
        for line in buf.lines() {
            let msg = match line {
                Ok(l) if l.trim().is_empty() => continue,
                Ok(l) => proto::parse_client_line(&l),
                Err(e) => Err(format!("reading from client: {e}")),
            };
            let fatal = msg.is_err();
            if tx.send(msg).is_err() || fatal {
                break;
            }
        }
    });

    let outcome = match rx.recv() {
        Ok(Ok(ClientLine::HelloReplay(h))) => serve_replay(&h, &rx, &mut writer, opts),
        Ok(Ok(ClientLine::HelloLive(h))) => serve_live(&h, &rx, &mut writer, opts),
        Ok(Ok(other)) => {
            send_line(&mut writer, &format!("err expected hello, got {other:?}")).ok();
            Err(format!("client spoke before hello: {other:?}"))
        }
        Ok(Err(e)) => {
            send_line(&mut writer, &format!("err {e}")).ok();
            Err(format!("bad hello: {e}"))
        }
        Err(_) => Err("client disconnected before hello".into()),
    };
    send_line(&mut writer, "bye").ok();
    drop(writer);
    reader_thread.join().ok();
    outcome
}

/// Replay mode: rebuild the recorded session and drive it with the shared
/// replay driver on the wall clock.
fn serve_replay(
    h: &ReplayHello,
    rx: &Receiver<Result<ClientLine, String>>,
    writer: &mut BufWriter<TcpStream>,
    opts: &ServeOpts,
) -> Result<ServeOutcome, String> {
    let cfg = SimConfig::with_seed(h.seed);
    let trace_end = SimTime::from_micros(h.duration.as_micros());
    let mut sched = PaldiaScheduler::new();
    let mut events_sink = VecSink::new();
    let mut sink = WallStampedSink::new(&mut events_sink);
    let start = Instant::now();
    let mut protocol_errors = Vec::new();

    let (result, engine_events) = {
        let mut session = SimSession::new_traced(
            h.models.clone(),
            &mut sched,
            h.initial_hw,
            Catalog::table_ii(),
            &cfg,
            trace_end,
            h.reserve,
            &mut sink,
        );
        send_line(writer, "ready")?;
        let mut clock = WallClock::new(opts.speed);
        let mut source = ChannelSource {
            rx,
            errors: &mut protocol_errors,
        };
        let mut send_err: Option<String> = None;
        let replayed = run_replay(
            &mut session,
            &mut source,
            &mut clock,
            |c: &CompletedRequest| {
                if send_err.is_none() {
                    send_err = send_line(writer, &proto::done_line(c)).err();
                }
            },
        );
        if let Some(e) = send_err {
            protocol_errors.push(e);
        }
        // A refused arrival ends the replay; the session still drains
        // and reports.
        if let Err(e) = replayed {
            send_line(writer, &format!("err {e}"))?;
            protocol_errors.push(e);
        }
        let engine_events = session.events();
        (session.finish(), engine_events)
    };
    let stamps = sink.take_stamps();
    drop(sink);
    let events = events_sink.into_events();
    send_line(writer, &proto::summary_line(&result, engine_events))?;
    Ok(ServeOutcome {
        result,
        events,
        stamps,
        wall: start.elapsed(),
        protocol_errors,
    })
}

/// Live mode: poll the channel, stamp `inv` arrivals with the wall-derived
/// virtual now, and step the session as virtual deadlines come due.
fn serve_live(
    h: &LiveHello,
    rx: &Receiver<Result<ClientLine, String>>,
    writer: &mut BufWriter<TcpStream>,
    opts: &ServeOpts,
) -> Result<ServeOutcome, String> {
    let cfg = SimConfig::default();
    let trace_end = SimTime::from_secs(h.live_secs.max(1));
    let initial_hw = *Catalog::table_ii()
        .by_cost_ascending()
        .first()
        .ok_or("catalog has no hardware")?;
    let mut sched = PaldiaScheduler::new();
    let mut events_sink = VecSink::new();
    let mut sink = WallStampedSink::new(&mut events_sink);
    let start = Instant::now();
    let mut protocol_errors = Vec::new();

    let (result, engine_events) = {
        let mut session = SimSession::new_traced(
            h.models.clone(),
            &mut sched,
            initial_hw,
            Catalog::table_ii(),
            &cfg,
            trace_end,
            0,
            &mut sink,
        );
        send_line(writer, "ready")?;
        let clock = WallClock::new(opts.speed);
        loop {
            // Step everything the wall has made due.
            let now_v = clock.now_virtual();
            while let Some(t) = session.next_event_time() {
                if t > now_v {
                    break;
                }
                if session.step().is_none() {
                    break;
                }
                for c in session.drain_completions() {
                    send_line(writer, &proto::done_line(&c))?;
                }
            }
            if now_v >= trace_end {
                break;
            }
            // Sleep until the next virtual deadline or the next line.
            let wait = session
                .next_event_time()
                .filter(|t| *t < session.horizon())
                .and_then(|t| clock.wall_until(t))
                .map_or(LIVE_POLL, |d| d.min(LIVE_POLL));
            match rx.recv_timeout(wait) {
                Ok(Ok(ClientLine::Inv(model))) => {
                    let at = clock.now_virtual().min(trace_end);
                    let id = session.inject_arrival(at, model);
                    send_line(
                        writer,
                        &format!(
                            "acc {} {} {}",
                            id.0,
                            paldia_cluster::model_token(model),
                            at.as_micros()
                        ),
                    )?;
                }
                Ok(Ok(ClientLine::End)) => break,
                Ok(Ok(other)) => {
                    protocol_errors.push(format!("unexpected line in live mode: {other:?}"));
                }
                Ok(Err(e)) => {
                    protocol_errors.push(e);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Drain to the horizon virtually so every remaining completion is
        // notified before the summary.
        while session.step().is_some() {
            for c in session.drain_completions() {
                send_line(writer, &proto::done_line(&c))?;
            }
        }
        for c in session.drain_completions() {
            send_line(writer, &proto::done_line(&c))?;
        }
        let engine_events = session.events();
        (session.finish(), engine_events)
    };
    let stamps = sink.take_stamps();
    drop(sink);
    let events = events_sink.into_events();
    send_line(writer, &proto::summary_line(&result, engine_events))?;
    Ok(ServeOutcome {
        result,
        events,
        stamps,
        wall: start.elapsed(),
        protocol_errors,
    })
}
