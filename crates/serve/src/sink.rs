//! Wall-clock-stamped trace sink — the shell-class variant of the
//! `paldia-obs` sink family (DESIGN.md §14).
//!
//! The deterministic sinks (`VecSink`, `JsonlSink`, …) carry only virtual
//! time, which is what makes two decision logs diffable. A live operator
//! also wants to know *when on the wall* each decision was emitted, but
//! stamping the events themselves would make the shell's log differ from
//! the simulation's by construction. [`WallStampedSink`] threads every
//! event through an inner deterministic sink untouched and records the
//! `(seq, wall_us)` pair on the side; [`write_stamps_jsonl`] writes that
//! sidecar next to the decision JSONL. The decision log diffs clean, the
//! stamps answer the latency questions.
//!
//! This type cannot live in `paldia-obs`: `obs` is in the
//! `deterministic-core` class and is fenced from `std::time` by lint rule
//! `d2` — which is exactly the confinement the boundary graph is for.
//!
//! [`DecisionLog`] is the decision JSONL of a listening shell: it streams
//! each session's events to its file while the session runs.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use paldia_obs::{JsonlSink, TraceEvent, TraceSink};

/// One wall stamp: trace event `seq` was recorded `wall_us` microseconds
/// after the sink was constructed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WallStamp {
    /// Sequence number of the stamped [`TraceEvent`].
    pub seq: u64,
    /// Microseconds since the sink's construction.
    pub wall_us: u64,
}

/// A [`TraceSink`] adapter that forwards events to an inner deterministic
/// sink verbatim and keeps wall stamps on the side.
pub struct WallStampedSink<'a> {
    inner: &'a mut dyn TraceSink,
    epoch: Instant,
    stamps: Vec<WallStamp>,
}

impl<'a> WallStampedSink<'a> {
    /// Wrap `inner`; the stamp epoch is *now*.
    pub fn new(inner: &'a mut dyn TraceSink) -> Self {
        WallStampedSink {
            inner,
            epoch: Instant::now(),
            stamps: Vec::new(),
        }
    }

    /// Take the stamps accumulated so far, leaving the sink empty.
    pub fn take_stamps(&mut self) -> Vec<WallStamp> {
        std::mem::take(&mut self.stamps)
    }
}

impl TraceSink for WallStampedSink<'_> {
    fn record(&mut self, event: TraceEvent) {
        self.stamps.push(WallStamp {
            seq: event.seq,
            wall_us: self.epoch.elapsed().as_micros() as u64,
        });
        self.inner.record(event);
    }
}

/// A session's decision log streamed to a JSONL file as it is recorded.
/// The file is created (truncated) at the first event, not at
/// construction, so a listener that opens the next session's log before
/// it accepts the connection leaves the previous session's file whole
/// until the new session starts tracing.
pub struct DecisionLog<'p> {
    path: &'p Path,
    out: Option<io::Result<JsonlSink<BufWriter<File>>>>,
}

impl<'p> DecisionLog<'p> {
    /// A log for `path`; nothing is created yet.
    pub fn new(path: &'p Path) -> Self {
        DecisionLog { path, out: None }
    }

    /// Flush the log and return its line count, or the first error
    /// creating or writing the file. A log that saw no event writes an
    /// empty file.
    pub fn finish(self) -> io::Result<u64> {
        let path = self.path;
        self.out
            .unwrap_or_else(|| JsonlSink::create(path))?
            .finish()
    }
}

impl TraceSink for DecisionLog<'_> {
    fn record(&mut self, event: TraceEvent) {
        let path = self.path;
        if let Ok(sink) = self.out.get_or_insert_with(|| JsonlSink::create(path)) {
            sink.record(event);
        }
    }
}

/// Write the stamp sidecar as JSONL (`{"seq":N,"wall_us":N}` per line).
pub fn write_stamps_jsonl(path: &Path, stamps: &[WallStamp]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in stamps {
        writeln!(out, "{{\"seq\":{},\"wall_us\":{}}}", s.seq, s.wall_us)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_obs::VecSink;

    #[test]
    fn events_pass_through_unmodified_and_stamps_track_seq() {
        let mut inner = VecSink::new();
        let mut sink = WallStampedSink::new(&mut inner);
        let ev = |seq| TraceEvent {
            seq,
            at: paldia_sim::SimTime::from_micros(seq * 10),
            scope: 0,
            kind: paldia_obs::TraceEventKind::RequestArrived {
                request: seq,
                model: paldia_workloads::MlModel::GoogleNet,
            },
        };
        sink.record(ev(0));
        sink.record(ev(1));
        let stamps = sink.take_stamps();
        drop(sink);
        assert_eq!(stamps.iter().map(|s| s.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(
            stamps[0].wall_us <= stamps[1].wall_us,
            "stamps are monotone"
        );
        assert_eq!(inner.into_events(), vec![ev(0), ev(1)]);
    }
}
