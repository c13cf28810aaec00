//! Closed-loop load generator: replay a recorded trace against a running
//! shell in scaled real time.
//!
//! The sender thread paces each `arr` line to its wall deadline
//! `at / speed` past the epoch (the moment `ready` was received), so the
//! shell sees the same inter-arrival gaps the trace recorded, compressed
//! by the speedup. A reader thread concurrently collects `done` lines —
//! the loop is closed: the run ends when the server has confirmed every
//! completion and said `bye`, not when the last request was sent.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use paldia_cluster::RecordedTrace;

use crate::proto::{self, DoneLine, ServerLine, SummaryLine};

/// What the generator observed.
#[derive(Clone, Debug, Default)]
pub struct ReplayStats {
    /// Arrival lines sent.
    pub sent: usize,
    /// Completion notifications received, arrival order as received.
    pub done: Vec<DoneLine>,
    /// The end-of-session summary, if the server sent one.
    pub summary: Option<SummaryLine>,
    /// `err` lines and unparseable replies.
    pub errors: Vec<String>,
    /// Wall-clock from `ready` to `bye`.
    pub wall: Duration,
}

/// Connect to `addr`, replay `trace` at `speed`x, and collect the
/// server's replies until it says `bye`.
pub fn replay_trace(
    addr: SocketAddr,
    trace: &RecordedTrace,
    speed: f64,
) -> Result<ReplayStats, String> {
    let speed = speed.max(1e-6);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cloning stream: {e}"))?;
    let mut reader = BufReader::new(reader);
    let mut writer = BufWriter::new(stream);

    // Lines are buffered and flushed only before the sender waits (for
    // `ready`, or in a pacing sleep) and after `end`.
    let send = |w: &mut BufWriter<TcpStream>, line: &str| -> Result<(), String> {
        writeln!(w, "{line}").map_err(|e| format!("sending `{line}`: {e}"))
    };
    let flush = |w: &mut BufWriter<TcpStream>| w.flush().map_err(|e| format!("sending: {e}"));

    send(&mut writer, &proto::hello_replay_line(trace))?;
    flush(&mut writer)?;
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .map_err(|e| format!("waiting for ready: {e}"))?;
    match proto::parse_server_line(first.trim()) {
        Ok(ServerLine::Ready) => {}
        Ok(ServerLine::Err(e)) => return Err(format!("server rejected hello: {e}")),
        other => return Err(format!("expected ready, got {other:?}")),
    }

    // Reader thread: collect replies until bye/EOF.
    let collector = std::thread::spawn(move || {
        let mut done = Vec::new();
        let mut summary = None;
        let mut errors = Vec::new();
        for line in reader.lines() {
            let line = match line {
                Ok(l) if l.trim().is_empty() => continue,
                Ok(l) => l,
                Err(e) => {
                    errors.push(format!("reading reply: {e}"));
                    break;
                }
            };
            match proto::parse_server_line(line.trim()) {
                Ok(ServerLine::Done(d)) => done.push(d),
                Ok(ServerLine::Summary(s)) => summary = Some(s),
                Ok(ServerLine::Bye) => break,
                Ok(ServerLine::Err(e)) => errors.push(format!("server error: {e}")),
                Ok(ServerLine::Ready) | Ok(ServerLine::Acc { .. }) => {}
                Err(e) => errors.push(format!("unparseable reply `{line}`: {e}")),
            }
        }
        (done, summary, errors)
    });

    // Sender: pace each arrival to its scaled wall deadline.
    let epoch = Instant::now();
    let mut sent = 0usize;
    let mut line = String::new();
    for sa in &trace.arrivals {
        let due = epoch + Duration::from_secs_f64(sa.at.as_micros() as f64 / (speed * 1e6));
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            if wait > Duration::ZERO {
                flush(&mut writer)?;
                std::thread::sleep(wait);
            }
        }
        line.clear();
        proto::append_arr(&mut line, sa);
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending `{}`: {e}", line.trim_end()))?;
        sent += 1;
    }
    send(&mut writer, "end")?;
    flush(&mut writer)?;

    let (done, summary, errors) = collector
        .join()
        .map_err(|_| "reply collector panicked".to_string())?;
    Ok(ReplayStats {
        sent,
        done,
        summary,
        errors,
        wall: epoch.elapsed(),
    })
}
