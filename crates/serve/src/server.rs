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
//!   arrival is stamped with the wall-derived virtual now and injected
//!   (an `inv` for a model the hello did not declare is answered `err`).
//!   Live sessions are *not* replayable against a recorded trace (their
//!   arrival times are wall-dependent by definition), but they still emit
//!   the full `paldia-obs` decision taxonomy.
//!
//! A reader thread owns the socket's read half and feeds parsed
//! [`ClientLine`]s (at most [`MAX_LINE`] bytes each) over a channel; the
//! serving thread owns the session, the clock, and the buffered write half.
//! It never blocks while holding unflushed output: lines are only
//! buffered, and flushed just before a blocking receive on an empty
//! channel, before a pace that will sleep, and at session end. `done`
//! lines are encoded into one reused buffer ([`proto::append_done`]), so a
//! completion costs no allocation on the wire path.
//!
//! The session is traced only when the caller passes a sink to
//! [`serve_once`]: `paldia-serve --listen` passes none unless `--decisions`
//! names a file, and the differential passes a `VecSink`.

use std::cell::RefCell;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpListener;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, TryRecvError};
use std::time::{Duration, Instant};

use paldia_cluster::{
    run_replay, ArrivalSource, CompletedRequest, ReplayItem, RunResult, SimConfig, SimSession,
};
use paldia_core::PaldiaScheduler;
use paldia_hw::Catalog;
use paldia_obs::TraceSink;
use paldia_sim::{Clock, SimDuration, SimTime};

use crate::clock::WallClock;
use crate::proto::{self, ClientLine, LiveHello, ReplayHello};
use crate::sink::{WallStamp, WallStampedSink};

/// Longest client line accepted, newline included (a `hello` naming every
/// model is a few hundred bytes); longer gets `err line too long`.
pub const MAX_LINE: usize = 64 * 1024;

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

/// Everything one served connection produced. The decision/span stream
/// went to the sink the caller passed to [`serve_once`], if any.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The finished run, identical in shape to a simulation's.
    pub result: RunResult,
    /// Wall stamps for the traced events, one per event in emission order
    /// (empty for an untraced session), sidecar material.
    pub stamps: Vec<WallStamp>,
    /// Wall-clock the session took end to end.
    pub wall: Duration,
    /// Protocol violations tolerated mid-session (empty on a clean run).
    pub protocol_errors: Vec<String>,
}

/// Reader thread → serving thread: a parsed line, or the error ending it.
type Msg = Result<ClientLine, String>;
type Inbox = Receiver<Msg>;

/// The write half, shared by the arrival source, the clock and the
/// completion callback. The first write error is kept and later writes
/// are skipped, so a session whose client went away still reports.
struct Wire<W: Write> {
    w: RefCell<W>,
    err: RefCell<Option<String>>,
    /// The `done` line being encoded, reused from line to line.
    done: RefCell<String>,
}

impl<W: Write> Wire<W> {
    fn new(w: W) -> Self {
        Wire {
            w: RefCell::new(w),
            err: RefCell::default(),
            done: RefCell::default(),
        }
    }

    fn io(&self, f: impl FnOnce(&mut W) -> io::Result<()>) {
        let mut err = self.err.borrow_mut();
        if err.is_none() {
            *err = f(&mut self.w.borrow_mut())
                .err()
                .map(|e| format!("writing to client: {e}"));
        }
    }

    fn line(&self, line: &str) {
        self.io(|w| {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")
        });
    }

    /// Send the `done` line for `c`.
    fn done(&self, c: &CompletedRequest) {
        let mut line = self.done.borrow_mut();
        line.clear();
        proto::append_done(&mut line, c);
        self.io(|w| w.write_all(line.as_bytes()));
    }

    fn flush(&self) {
        self.io(W::flush);
    }

    /// The reader's next message within `wait`, flushing first if none is
    /// queued (`Duration::MAX` waits for a line or the disconnect).
    fn recv(&self, rx: &Inbox, wait: Duration) -> Result<Msg, RecvTimeoutError> {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) => self.flush(),
        }
        rx.recv_timeout(wait)
    }
}

/// [`WallClock`] pacing that flushes the wire before it sleeps.
struct FlushingClock<'a, W: Write>(WallClock, &'a Wire<W>);

impl<W: Write> Clock for FlushingClock<'_, W> {
    fn pace(&mut self, next: SimTime) {
        let wire = self.1;
        self.0.pace_then(next, || wire.flush());
    }
}

/// Arrival source fed by the reader thread's channel. Replay mode only:
/// a non-`arr` line (other than `end`) is recorded as a protocol error
/// and treated as end-of-trace, so the session still drains and reports.
struct ChannelSource<'a, W: Write> {
    rx: &'a Inbox,
    wire: &'a Wire<W>,
    errors: &'a mut Vec<String>,
}

impl<W: Write> ArrivalSource for ChannelSource<'_, W> {
    fn next(&mut self) -> ReplayItem {
        loop {
            match self.wire.recv(self.rx, Duration::MAX) {
                Ok(Ok(ClientLine::Arr(sa))) => return ReplayItem::Arrival(sa),
                Ok(Ok(ClientLine::End)) => return ReplayItem::End,
                Ok(Ok(other)) => self
                    .errors
                    .push(format!("unexpected line in replay: {other:?}")),
                Ok(Err(e)) => {
                    self.wire.line(&format!("err {e}"));
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

/// Accept one connection on `listener` and serve it to completion.
///
/// Blocks until the client's session ends (its `end` line, disconnect, or
/// the live horizon). With a `sink`, the session is traced into it (the
/// same stream a simulation of the session records) and wall-stamped on
/// the side; with `None` it runs untraced. Returns the run result;
/// protocol errors are collected, not fatal, so a half-finished replay
/// still drains and reports.
pub fn serve_once(
    listener: &TcpListener,
    opts: &ServeOpts,
    sink: Option<&mut dyn TraceSink>,
) -> Result<ServeOutcome, String> {
    let (stream, peer) = listener
        .accept()
        .map_err(|e| format!("accepting connection: {e}"))?;
    stream.set_nodelay(true).ok();
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cloning stream for {peer}: {e}"))?;
    let wire = Wire::new(BufWriter::new(stream));

    // Reader thread: socket lines → parsed ClientLine channel. Exits on EOF,
    // socket error or an over-long line, dropping the sender.
    let (tx, rx) = mpsc::channel::<Msg>();
    let reader_thread = std::thread::spawn(move || {
        let mut buf = BufReader::new(reader);
        let mut line = String::new();
        loop {
            line.clear();
            let msg = match (&mut buf).take(MAX_LINE as u64).read_line(&mut line) {
                Ok(0) => break,
                Ok(n) if n == MAX_LINE && !line.ends_with('\n') => Err("line too long".into()),
                Ok(_) if line.trim().is_empty() => continue,
                Ok(_) => proto::parse_client_line(&line),
                Err(e) => Err(format!("reading from client: {e}")),
            };
            let fatal = msg.is_err();
            if tx.send(msg).is_err() || fatal {
                break;
            }
        }
    });

    let outcome = match wire.recv(&rx, Duration::MAX) {
        Ok(Ok(ClientLine::HelloReplay(h))) => Ok(serve_replay(&h, &rx, &wire, opts.speed, sink)),
        Ok(Ok(ClientLine::HelloLive(h))) => Ok(serve_live(&h, &rx, &wire, opts.speed, sink)),
        Ok(Ok(other)) => Err(format!("expected hello, got {other:?}")),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("client disconnected before hello".into()),
    };
    if let Err(e) = &outcome {
        wire.line(&format!("err {e}"));
    }
    wire.line("bye");
    wire.flush();
    reader_thread.join().ok();
    outcome
}

/// Build the session `h` describes (traced into `sink`, wall-stamped,
/// when there is one), say `ready`, let `drive` feed it, then finish it
/// and write the summary: the frame both modes share.
fn run_session<W: Write>(
    h: &ReplayHello,
    wire: &Wire<W>,
    sink: Option<&mut dyn TraceSink>,
    drive: impl FnOnce(&mut SimSession<'_>, &mut Vec<String>),
) -> ServeOutcome {
    let cfg = SimConfig::with_seed(h.seed);
    let mut sched = PaldiaScheduler::new();
    let mut stamped = sink.map(WallStampedSink::new);
    let start = Instant::now();
    let mut protocol_errors = Vec::new();

    let (models, hw, trace_end) = (
        h.models.clone(),
        h.initial_hw,
        SimTime::from_micros(h.duration.as_micros()),
    );
    let mut session = match stamped.as_mut() {
        Some(sink) => SimSession::new_traced(
            models,
            &mut sched,
            hw,
            Catalog::table_ii(),
            &cfg,
            trace_end,
            h.reserve,
            sink,
        ),
        None => SimSession::new(
            models,
            &mut sched,
            hw,
            Catalog::table_ii(),
            &cfg,
            trace_end,
            h.reserve,
        ),
    };
    wire.line("ready");
    drive(&mut session, &mut protocol_errors);
    let engine_events = session.events();
    let result = session.finish();
    protocol_errors.extend(wire.err.borrow().clone());
    wire.line(&proto::summary_line(&result, engine_events));
    ServeOutcome {
        result,
        stamps: stamped.map_or_else(Vec::new, |mut s| s.take_stamps()),
        wall: start.elapsed(),
        protocol_errors,
    }
}

/// Replay mode: rebuild the recorded session and drive it with the shared
/// replay driver on the wall clock.
fn serve_replay<W: Write>(
    h: &ReplayHello,
    rx: &Inbox,
    wire: &Wire<W>,
    speed: f64,
    sink: Option<&mut dyn TraceSink>,
) -> ServeOutcome {
    run_session(h, wire, sink, |session, errors| {
        let mut clock = FlushingClock(WallClock::new(speed), wire);
        let mut source = ChannelSource { rx, wire, errors };
        let on_done = |c: &CompletedRequest| wire.done(c);
        // A refused arrival ends the replay; the session still drains
        // and reports.
        if let Err(e) = run_replay(session, &mut source, &mut clock, on_done) {
            wire.line(&format!("err {e}"));
            source.errors.push(e);
        }
    })
}

/// Live mode: poll the channel, stamp `inv` arrivals with the wall-derived
/// virtual now, and step the session as virtual deadlines come due. It is
/// framed as a replay with the default seed, no reserved seqs, cheapest hw.
fn serve_live<W: Write>(
    h: &LiveHello,
    rx: &Inbox,
    wire: &Wire<W>,
    speed: f64,
    sink: Option<&mut dyn TraceSink>,
) -> ServeOutcome {
    let cheapest = Catalog::table_ii().by_cost_ascending();
    let spec = ReplayHello {
        seed: SimConfig::default().seed,
        duration: SimDuration::from_secs(h.live_secs.max(1)),
        reserve: 0,
        initial_hw: *cheapest
            .first()
            .expect("invariant: Table II lists hardware"),
        models: h.models.clone(),
    };
    let trace_end = SimTime::from_micros(spec.duration.as_micros());
    run_session(&spec, wire, sink, |session, errors| {
        let mut clock = WallClock::new(speed);
        loop {
            // Step everything the wall has made due.
            let now_v = clock.now_virtual();
            while let Some(t) = session.next_event_time() {
                if t > now_v || session.step().is_none() {
                    break;
                }
                for c in session.drain_completions() {
                    wire.done(&c);
                }
            }
            if now_v >= trace_end || wire.err.borrow().is_some() {
                break;
            }
            // Sleep until the next virtual deadline or the next line; a
            // deadline the wall passed since `now_v` is due at once.
            let wait = match session.next_event_time() {
                Some(t) if t < session.horizon() => {
                    clock.wall_until(t).unwrap_or_default().min(LIVE_POLL)
                }
                _ => LIVE_POLL,
            };
            match wire.recv(rx, wait) {
                Ok(Ok(ClientLine::Inv(model))) => {
                    let at = clock.now_virtual().min(trace_end);
                    match session.inject_arrival(at, model) {
                        Ok(id) => {
                            let token = paldia_cluster::model_token(model);
                            wire.line(&format!("acc {} {token} {}", id.0, at.as_micros()));
                        }
                        // A refused invocation is answered and recorded;
                        // the session keeps serving.
                        Err(e) => {
                            wire.line(&format!("err {e}"));
                            errors.push(e);
                        }
                    }
                }
                Ok(Ok(ClientLine::End)) => break,
                Ok(Ok(other)) => errors.push(format!("unexpected line in live mode: {other:?}")),
                Ok(Err(e)) => {
                    wire.line(&format!("err {e}"));
                    errors.push(e);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        // Drain to the horizon virtually so every remaining completion is
        // notified before the summary.
        while session.step().is_some() {}
        for c in session.drain_completions() {
            wire.done(&c);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory client counting the writes and flushes that reach it.
    #[derive(Default)]
    struct Counting {
        bytes: usize,
        writes: usize,
        flushes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    /// With every `arr` already queued the channel never runs dry, and at a
    /// speed-up this high no pace sleeps, so the replay never flushes: its
    /// output reaches the client in buffer-sized chunks, not one write per
    /// `done` line.
    #[test]
    fn queued_replay_writes_in_buffer_sized_chunks() {
        let trace = paldia_experiments::diffcap::PrimaryScenario::quick(42)
            .replay_trace()
            .truncated(1000);
        let (tx, rx) = mpsc::channel();
        for sa in &trace.arrivals {
            tx.send(Ok(ClientLine::Arr(*sa))).expect("queue arr");
        }
        tx.send(Ok(ClientLine::End)).expect("queue end");
        let h = ReplayHello {
            seed: trace.seed,
            duration: trace.duration,
            reserve: trace.reserve,
            initial_hw: trace.initial_hw,
            models: trace.models.clone(),
        };
        let wire = Wire::new(BufWriter::new(Counting::default()));
        let outcome = serve_replay(&h, &rx, &wire, 1e9, None);
        assert!(outcome.protocol_errors.is_empty(), "{outcome:?}");
        let done = outcome.result.completed.len();
        assert!(done >= 500, "fixture completes enough requests: {done}");

        let c = wire
            .w
            .into_inner()
            .into_inner()
            .unwrap_or_else(|_| panic!("in-memory writes cannot fail"));
        assert!(
            c.bytes > done * "done 1 googlenet 1 1 1 x 1".len(),
            "every done line was written: {} bytes",
            c.bytes
        );
        assert!(
            c.writes + c.flushes <= c.bytes / 4096 + 2,
            "{} writes and {} flushes for {} bytes: not buffer-sized chunks",
            c.writes,
            c.flushes,
            c.bytes
        );
        assert!(c.writes + c.flushes < done / 10, "{done} done lines");
    }
}
