//! File-backed JSONL trace capture: one flat JSON object per event line,
//! plus a hand-rolled reader that round-trips the stream bit-identically.
//!
//! A line is the header (`seq`, `at`, `scope`, `kind`) followed by the
//! kind's payload. The payload codec is not written here: the kind table in
//! `event.rs` derives it, field by field, from the [`Field`] impls below,
//! and the chrome exporter writes the same payload as each entry's `args`.
//!
//! The format is wall-clock-free by construction — every field comes from
//! the [`TraceEvent`] itself (integer-microsecond times, the tracer's
//! sequence number, Display-rendered enum names). Floats are written with
//! Rust's shortest-round-trip `Display`, so `f64::to_bits` survives a
//! write/read cycle exactly; non-finite values are quoted strings
//! (`"NaN"`, `"inf"`, `"-inf"`). The tests below pin the exact line of
//! every kind, and a property test in `crates/obs/tests/attrib_props.rs`
//! holds the round-trip for generated streams.
//!
//! [`JsonlSink`] appends lines through any [`io::Write`], flushing every
//! [`DEFAULT_FLUSH_EVERY`] lines; [`read_jsonl_file`] / [`events_from_jsonl`]
//! parse a capture back into [`TraceEvent`]s for attribution and triage.
//! The reader never panics on malformed input: it returns an error, and it
//! refuses nesting deeper than the schema could produce.
//!
//! The parsed tree borrows the line it was read from: keys, numbers and
//! strings are slices of the input, and a string allocates only when it
//! contains an escape. Model and instance names are matched against their
//! `&'static str` names on both sides, so neither writing nor reading a
//! name builds a `String`.

use std::borrow::Cow;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use paldia_hw::InstanceKind;
use paldia_sim::SimTime;
use paldia_workloads::MlModel;

use crate::event::{BatchTrigger, TraceEvent, TraceEventKind};
use crate::sink::TraceSink;

/// Flush the underlying writer after this many buffered lines.
pub const DEFAULT_FLUSH_EVERY: usize = 4096;

/// Deepest nesting the reader accepts. The schema's deepest value is a
/// decision row object: line → `decision` → array → row, four levels.
const MAX_DEPTH: usize = 8;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append `s` as a quoted JSON string.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A comma, unless `out` has just opened an object or array.
fn sep(out: &mut String) {
    if !out.ends_with('{') && !out.ends_with('[') {
        out.push(',');
    }
}

/// Append `"key":` to an open object; keys are identifiers, never escaped.
fn put_key(out: &mut String, key: &str) {
    sep(out);
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
}

/// Append the member `"key":value` to an open object.
pub(crate) fn put_field<T: Field>(out: &mut String, key: &str, v: &T) {
    put_key(out, key);
    v.put(out);
}

/// Read member `key` of object `obj`.
pub(crate) fn get_field<T: Field>(obj: &Json, key: &str) -> Result<T, String> {
    T::get(obj.field(key)?).map_err(|e| format!("field {key:?}: {e}"))
}

/// The JSON shape of one payload field type: `put` writes a value, `get`
/// reads it back from the parsed tree.
pub(crate) trait Field: Sized {
    /// Append `self` as a JSON value.
    fn put(&self, out: &mut String);
    /// Read a value of this type.
    fn get(v: &Json) -> Result<Self, String>;
}

impl Field for u64 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(raw) => raw.parse().map_err(|e| format!("{e}")),
            _ => Err("expected integer".to_string()),
        }
    }
}

impl Field for u32 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn get(v: &Json) -> Result<Self, String> {
        u32::try_from(u64::get(v)?).map_err(|e| format!("{e}"))
    }
}

impl Field for f64 {
    fn put(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest-round-trip Display: parses back to the same bits.
            let _ = write!(out, "{self}");
        } else if self.is_nan() {
            out.push_str("\"NaN\"");
        } else if *self > 0.0 {
            out.push_str("\"inf\"");
        } else {
            out.push_str("\"-inf\"");
        }
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v {
            Json::Num(raw) => raw.parse().map_err(|e| format!("{e}")),
            Json::Str(s) => match &**s {
                "NaN" => Ok(f64::NAN),
                "inf" => Ok(f64::INFINITY),
                "-inf" => Ok(f64::NEG_INFINITY),
                other => Err(format!("non-numeric string {other:?}")),
            },
            _ => Err("expected number".to_string()),
        }
    }
}

impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            _ => Err("expected bool".to_string()),
        }
    }
}

impl Field for String {
    fn put(&self, out: &mut String) {
        escape_into(self, out);
    }

    fn get(v: &Json) -> Result<Self, String> {
        v.as_str().map(str::to_string)
    }
}

/// Integer microseconds.
impl Field for SimTime {
    fn put(&self, out: &mut String) {
        self.as_micros().put(out);
    }

    fn get(v: &Json) -> Result<Self, String> {
        u64::get(v).map(SimTime::from_micros)
    }
}

/// Its `Display` name, [`MlModel::name`].
impl Field for MlModel {
    fn put(&self, out: &mut String) {
        escape_into(self.name(), out);
    }

    fn get(v: &Json) -> Result<Self, String> {
        let name = v.as_str()?;
        MlModel::ALL
            .iter()
            .copied()
            .find(|m| m.name() == name)
            .ok_or_else(|| format!("unknown model {name:?}"))
    }
}

/// Its `Display` name, [`InstanceKind::aws_name`].
impl Field for InstanceKind {
    fn put(&self, out: &mut String) {
        escape_into(self.aws_name(), out);
    }

    fn get(v: &Json) -> Result<Self, String> {
        let name = v.as_str()?;
        InstanceKind::ALL
            .iter()
            .copied()
            .find(|k| k.aws_name() == name)
            .ok_or_else(|| format!("unknown instance kind {name:?}"))
    }
}

impl Field for BatchTrigger {
    fn put(&self, out: &mut String) {
        out.push_str(match self {
            BatchTrigger::Size => "\"size\"",
            BatchTrigger::Window => "\"window\"",
        });
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v.as_str()? {
            "size" => Ok(BatchTrigger::Size),
            "window" => Ok(BatchTrigger::Window),
            other => Err(format!("unknown trigger {other:?}")),
        }
    }
}

/// `null` when absent.
impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => v.put(out),
            None => out.push_str("null"),
        }
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::get(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut String) {
        out.push('[');
        for v in self {
            sep(out);
            v.put(out);
        }
        out.push(']');
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v {
            Json::Arr(items) => items.iter().map(T::get).collect(),
            _ => Err("expected array".to_string()),
        }
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, out: &mut String) {
        (**self).put(out);
    }

    fn get(v: &Json) -> Result<Self, String> {
        T::get(v).map(Box::new)
    }
}

/// Serialize one event as a single JSONL line (no trailing newline).
pub fn event_to_jsonl(ev: &TraceEvent) -> String {
    let mut s = String::with_capacity(128);
    s.push('{');
    put_field(&mut s, "seq", &ev.seq);
    put_field(&mut s, "at", &ev.at);
    put_field(&mut s, "scope", &ev.scope);
    put_key(&mut s, "kind");
    escape_into(ev.kind.tag(), &mut s);
    ev.kind.write_payload(&mut s);
    s.push('}');
    s
}

// ---------------------------------------------------------------------------
// The sink
// ---------------------------------------------------------------------------

/// A [`TraceSink`] that appends one JSONL line per event to any
/// [`io::Write`], flushing every [`DEFAULT_FLUSH_EVERY`] lines so a
/// long-running capture never buffers unboundedly.
///
/// `record` never panics: the first I/O error is stashed and surfaced by
/// [`JsonlSink::finish`]; subsequent events are dropped (and counted) once
/// the writer has failed.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    written: u64,
    since_flush: usize,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncating) `path` and return a sink writing through a
    /// buffered file handle.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            written: 0,
            since_flush: 0,
            error: None,
        }
    }

    /// Flush and consume the sink; returns the line count, or the first
    /// stashed write error.
    pub fn finish(mut self) -> io::Result<u64> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.written)
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = event_to_jsonl(&event);
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
            return;
        }
        self.written += 1;
        self.since_flush += 1;
        if self.since_flush >= DEFAULT_FLUSH_EVERY {
            self.since_flush = 0;
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A parse or I/O failure while reading a JSONL capture.
#[derive(Debug)]
pub struct JsonlError {
    /// 1-based line number the failure occurred on (0 for file-level I/O
    /// errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "jsonl: {}", self.message)
        } else {
            write!(f, "jsonl line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for JsonlError {}

/// Minimal JSON value for the reader, borrowing the text it was parsed
/// from. Numbers keep their raw text so integer and float consumers both
/// parse from the original digits; keys and strings are borrowed unless
/// they contain an escape.
pub(crate) enum Json<'a> {
    Null,
    Bool(bool),
    Num(&'a str),
    Str(Cow<'a, str>),
    Arr(Vec<Json<'a>>),
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// Parse one complete JSON document.
    pub(crate) fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value(1)?;
        p.ws();
        if p.i != text.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected string".to_string()),
        }
    }

    pub(crate) fn field(&self, key: &str) -> Result<&Json<'a>, String> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected object while reading {key:?}")),
        }
    }
}

/// A recursive-descent reader over a `&str`; `i` is always a byte offset on
/// a char boundary.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self
            .peek()
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    /// One value at nesting level `depth` (the document root is level 1).
    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth > MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            )),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json<'a>, String> {
        let start = self.i;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        Ok(Json::Num(&self.s[start..self.i]))
    }

    /// A string literal: a slice of the input unless it contains an
    /// escape. Runs without a quote or backslash are copied whole, so the
    /// scan is linear in the line length.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.eat(b'"')?;
        let mut escaped: Option<String> = None;
        loop {
            let rest: &'a str = &self.s[self.i..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\')
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(match escaped {
                    None => Cow::Borrowed(&rest[..run]),
                    Some(mut out) => {
                        out.push_str(&rest[..run]);
                        Cow::Owned(out)
                    }
                });
            }
            let out = escaped.get_or_insert_with(String::new);
            out.push_str(&rest[..run]);
            let esc = self.peek();
            self.i += 1;
            match esc {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b't') => out.push('\t'),
                Some(b'r') => out.push('\r'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .s
                        .get(self.i..self.i + 4)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| format!("bad \\u codepoint {code:#x}"))?,
                    );
                    self.i += 4;
                }
                other => return Err(format!("bad escape {other:?} at byte {}", self.i - 1)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected , or ] but found {other:?}")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let val = self.value(depth + 1)?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => {
                    self.i += 1;
                }
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected , or }} but found {other:?}")),
            }
        }
    }
}

/// Parse one JSONL line back into a [`TraceEvent`].
pub fn event_from_jsonl(line: &str) -> Result<TraceEvent, String> {
    let v = Json::parse(line)?;
    Ok(TraceEvent {
        seq: get_field(&v, "seq")?,
        at: get_field(&v, "at")?,
        scope: get_field(&v, "scope")?,
        kind: TraceEventKind::read_payload(v.field("kind")?.as_str()?, &v)?,
    })
}

/// Parse a whole JSONL document (blank lines skipped); errors carry the
/// 1-based line number.
pub fn events_from_jsonl(text: &str) -> Result<Vec<TraceEvent>, JsonlError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(event_from_jsonl(line).map_err(|message| JsonlError {
            line: idx + 1,
            message,
        })?);
    }
    Ok(events)
}

/// Read a JSONL capture file back into events.
pub fn read_jsonl_file<P: AsRef<Path>>(path: P) -> Result<Vec<TraceEvent>, JsonlError> {
    let text = std::fs::read_to_string(path).map_err(|e| JsonlError {
        line: 0,
        message: e.to_string(),
    })?;
    events_from_jsonl(&text)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{DecisionEvent, HwCandidate, LoadSummary, PlanSummary};

    pub(crate) fn sample_events() -> Vec<TraceEvent> {
        let decision = DecisionEvent {
            scheduler: "paldia".to_string(),
            current_hw: InstanceKind::M4_xlarge,
            chosen_hw: InstanceKind::G3s_xlarge,
            slo_ms: 200.0,
            distress: true,
            ramping: false,
            transitioning: false,
            loads: vec![LoadSummary {
                model: MlModel::Bert,
                pending: 17,
                rate_rps: 123.456,
            }],
            candidates: vec![HwCandidate {
                kind: InstanceKind::G3s_xlarge,
                t_max_ms: 87.25,
                price_per_hour: 0.75,
                feasible: true,
            }],
            plans: vec![PlanSummary {
                model: MlModel::Bert,
                best_y: 8,
                batch_size: 4,
                spatial_cap: 2,
                t_max_ms: 87.25,
            }],
        };
        let kinds = vec![
            TraceEventKind::RequestArrived {
                request: 1,
                model: MlModel::ResNet50,
            },
            TraceEventKind::BatchFormed {
                batch: 2,
                model: MlModel::ResNet50,
                size: 2,
                requests: vec![1, 4],
                trigger: BatchTrigger::Size,
            },
            TraceEventKind::BatchDispatched {
                batch: 2,
                model: MlModel::ResNet50,
                worker: 3,
                hw: InstanceKind::C6i_2xlarge,
            },
            TraceEventKind::BatchAdmitted {
                batch: 2,
                model: MlModel::ResNet50,
                worker: 3,
                container: 0,
                share: 0.5,
                concurrency: 2,
                slowdown: 1.0 + f64::EPSILON,
            },
            TraceEventKind::BatchCompleted {
                batch: 2,
                model: MlModel::ResNet50,
                worker: 3,
                hw: InstanceKind::C6i_2xlarge,
                started: SimTime::from_micros(977),
                solo_ms: 0.1 + 0.2,
                size: 2,
            },
            TraceEventKind::ColdStartBegan {
                worker: 3,
                container: 0,
                ready_at: SimTime::from_micros(5_000),
            },
            TraceEventKind::ColdStartFinished {
                worker: 3,
                container: 0,
            },
            TraceEventKind::WorkerProvisioned {
                worker: 3,
                hw: InstanceKind::C6i_2xlarge,
                ready_at: SimTime::from_micros(9_999),
            },
            TraceEventKind::WorkerReleased {
                worker: 3,
                hw: InstanceKind::C6i_2xlarge,
            },
            TraceEventKind::TransitionBegan {
                worker: 4,
                from: InstanceKind::M4_xlarge,
                to: InstanceKind::G3s_xlarge,
            },
            TraceEventKind::TransitionEnded {
                worker: 4,
                committed: true,
            },
            TraceEventKind::HwSwitched {
                worker: 4,
                from: None,
                to: InstanceKind::G3s_xlarge,
            },
            TraceEventKind::IterationStarted {
                worker: 5,
                iteration: 42,
                residents: 3,
                kv_used: 1_024,
                kv_capacity: 4_096,
                dur_us: 1_050,
            },
            TraceEventKind::BatchJoin {
                request: 9,
                model: MlModel::Bert,
                worker: 5,
                iteration: 42,
                kv_tokens: 264,
            },
            TraceEventKind::BatchLeave {
                request: 9,
                model: MlModel::Bert,
                worker: 5,
                iteration: 108,
                decoded: 61,
            },
            TraceEventKind::Decision(Box::new(decision)),
            TraceEventKind::Failover {
                failed: InstanceKind::G3s_xlarge,
                replacement: Some(InstanceKind::P2_xlarge),
                policy: "cheapest-more-performant".to_string(),
            },
            // A policy name no crate defines: foreign captures keep theirs.
            TraceEventKind::Failover {
                failed: InstanceKind::P2_xlarge,
                replacement: None,
                policy: "operator-pinned".to_string(),
            },
            TraceEventKind::FaultEdge {
                window: 0,
                desc: "NodeCrash { \"quoted\" }\nnewline\ttab".to_string(),
                started: true,
            },
            TraceEventKind::RunSummary {
                events: 12345,
                horizon: SimTime::from_micros(600_000_000),
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i as u64,
                at: SimTime::from_micros(1_000 * i as u64),
                scope: (i % 3) as u32,
                kind,
            })
            .collect()
    }

    #[test]
    fn every_variant_round_trips() {
        for ev in sample_events() {
            let line = event_to_jsonl(&ev);
            let back =
                event_from_jsonl(&line).unwrap_or_else(|e| panic!("parse failed on {line}: {e}"));
            assert_eq!(ev, back, "round-trip mismatch for {line}");
            // Bit-exactness: re-serialization is byte-identical.
            assert_eq!(line, event_to_jsonl(&back));
        }
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let ev = TraceEvent {
            seq: 0,
            at: SimTime::ZERO,
            scope: 0,
            kind: TraceEventKind::BatchAdmitted {
                batch: 1,
                model: MlModel::Bert,
                worker: 0,
                container: 0,
                share: f64::NAN,
                concurrency: 1,
                slowdown: f64::INFINITY,
            },
        };
        let line = event_to_jsonl(&ev);
        let back = event_from_jsonl(&line).expect("parses");
        match back.kind {
            TraceEventKind::BatchAdmitted {
                share, slowdown, ..
            } => {
                assert!(share.is_nan());
                assert!(slowdown.is_infinite() && slowdown > 0.0);
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn negative_zero_preserves_bits() {
        let ev = TraceEvent {
            seq: 0,
            at: SimTime::ZERO,
            scope: 0,
            kind: TraceEventKind::BatchCompleted {
                batch: 1,
                model: MlModel::Bert,
                worker: 0,
                hw: InstanceKind::M4_xlarge,
                started: SimTime::ZERO,
                solo_ms: -0.0,
                size: 1,
            },
        };
        let back = event_from_jsonl(&event_to_jsonl(&ev)).expect("parses");
        match back.kind {
            TraceEventKind::BatchCompleted { solo_ms, .. } => {
                assert_eq!(solo_ms.to_bits(), (-0.0f64).to_bits());
            }
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn sink_writes_and_reads_back() {
        // One more line than the flush cadence, so the periodic flush runs.
        let events: Vec<TraceEvent> = sample_events()
            .into_iter()
            .cycle()
            .take(DEFAULT_FLUSH_EVERY + 1)
            .collect();
        let mut buf: Vec<u8> = Vec::new();
        {
            let mut sink = JsonlSink::new(&mut buf);
            for ev in &events {
                sink.record(ev.clone());
            }
            assert_eq!(sink.finish().expect("no io error"), events.len() as u64);
        }
        let text = String::from_utf8(buf).expect("utf8");
        let back = events_from_jsonl(&text).expect("parses");
        assert_eq!(events, back);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = events_from_jsonl("{\"seq\":0,\"at\":0,\"scope\":0,\"kind\":\"request_arrived\",\"request\":1,\"model\":\"ResNet 50\"}\nnot json\n");
        match err {
            Err(e) => assert_eq!(e.line, 2),
            Ok(_) => panic!("expected error"),
        }
    }

    /// The exact line of every [`sample_events`] entry, in order. The
    /// writer must keep producing these bytes and the reader must keep
    /// accepting them, whatever shape the codec takes.
    const PINNED: [&str; 20] = [
        r#"{"seq":0,"at":0,"scope":0,"kind":"request_arrived","request":1,"model":"ResNet 50"}"#,
        r#"{"seq":1,"at":1000,"scope":1,"kind":"batch_formed","batch":2,"model":"ResNet 50","size":2,"requests":[1,4],"trigger":"size"}"#,
        r#"{"seq":2,"at":2000,"scope":2,"kind":"batch_dispatched","batch":2,"model":"ResNet 50","worker":3,"hw":"c6i.2xlarge"}"#,
        r#"{"seq":3,"at":3000,"scope":0,"kind":"batch_admitted","batch":2,"model":"ResNet 50","worker":3,"container":0,"share":0.5,"concurrency":2,"slowdown":1.0000000000000002}"#,
        r#"{"seq":4,"at":4000,"scope":1,"kind":"batch_completed","batch":2,"model":"ResNet 50","worker":3,"hw":"c6i.2xlarge","started":977,"solo_ms":0.30000000000000004,"size":2}"#,
        r#"{"seq":5,"at":5000,"scope":2,"kind":"cold_start_began","worker":3,"container":0,"ready_at":5000}"#,
        r#"{"seq":6,"at":6000,"scope":0,"kind":"cold_start_finished","worker":3,"container":0}"#,
        r#"{"seq":7,"at":7000,"scope":1,"kind":"worker_provisioned","worker":3,"hw":"c6i.2xlarge","ready_at":9999}"#,
        r#"{"seq":8,"at":8000,"scope":2,"kind":"worker_released","worker":3,"hw":"c6i.2xlarge"}"#,
        r#"{"seq":9,"at":9000,"scope":0,"kind":"transition_began","worker":4,"from":"m4.xlarge","to":"g3s.xlarge"}"#,
        r#"{"seq":10,"at":10000,"scope":1,"kind":"transition_ended","worker":4,"committed":true}"#,
        r#"{"seq":11,"at":11000,"scope":2,"kind":"hw_switched","worker":4,"from":null,"to":"g3s.xlarge"}"#,
        r#"{"seq":12,"at":12000,"scope":0,"kind":"iteration_started","worker":5,"iteration":42,"residents":3,"kv_used":1024,"kv_capacity":4096,"dur_us":1050}"#,
        r#"{"seq":13,"at":13000,"scope":1,"kind":"batch_join","request":9,"model":"BERT","worker":5,"iteration":42,"kv_tokens":264}"#,
        r#"{"seq":14,"at":14000,"scope":2,"kind":"batch_leave","request":9,"model":"BERT","worker":5,"iteration":108,"decoded":61}"#,
        r#"{"seq":15,"at":15000,"scope":0,"kind":"decision","decision":{"scheduler":"paldia","current_hw":"m4.xlarge","chosen_hw":"g3s.xlarge","slo_ms":200,"distress":true,"ramping":false,"transitioning":false,"loads":[{"model":"BERT","pending":17,"rate_rps":123.456}],"candidates":[{"kind":"g3s.xlarge","t_max_ms":87.25,"price_per_hour":0.75,"feasible":true}],"plans":[{"model":"BERT","best_y":8,"batch_size":4,"spatial_cap":2,"t_max_ms":87.25}]}}"#,
        r#"{"seq":16,"at":16000,"scope":1,"kind":"failover","failed":"g3s.xlarge","replacement":"p2.xlarge","policy":"cheapest-more-performant"}"#,
        r#"{"seq":17,"at":17000,"scope":2,"kind":"failover","failed":"p2.xlarge","replacement":null,"policy":"operator-pinned"}"#,
        r#"{"seq":18,"at":18000,"scope":0,"kind":"fault_edge","window":0,"desc":"NodeCrash { \"quoted\" }\nnewline\ttab","started":true}"#,
        r#"{"seq":19,"at":19000,"scope":1,"kind":"run_summary","events":12345,"horizon":600000000}"#,
    ];

    #[test]
    fn jsonl_lines_are_pinned() {
        let events = sample_events();
        assert_eq!(events.len(), PINNED.len());
        for (ev, pinned) in events.iter().zip(PINNED) {
            assert_eq!(event_to_jsonl(ev), pinned);
            assert_eq!(&event_from_jsonl(pinned).expect("pinned line parses"), ev);
        }
    }

    /// Every prefix and every single-byte mutation of every pinned line
    /// parses to `Ok` or `Err` without panicking. Embedded as the second
    /// line of a document, a failing line is reported with its 1-based
    /// line number; that check runs for the bytes the reader branches on
    /// plus one representative of each remaining class.
    #[test]
    fn corrupted_pinned_lines_never_panic() {
        const CLASSES: &[u8] = b"{}[]\":,\\/tfnrubeE.+-0123456789aA \t\r\nx\x00\x7f\x80\xff";
        let in_document = |bad: &str| {
            let doc = format!("{}\n{bad}\n", PINNED[0]);
            let first_bad = doc
                .lines()
                .position(|l| !l.trim().is_empty() && event_from_jsonl(l).is_err());
            match (events_from_jsonl(&doc), first_bad) {
                (Ok(_), None) => {}
                (Err(e), Some(idx)) => assert_eq!(e.line, idx + 1, "{bad}"),
                (got, want) => panic!("{bad}: got {got:?}, first bad line {want:?}"),
            }
        };
        for line in PINNED {
            let bytes = line.as_bytes();
            for end in 0..bytes.len() {
                in_document(&String::from_utf8_lossy(&bytes[..end]));
            }
            let mut mutated = bytes.to_vec();
            for pos in 0..bytes.len() {
                for b in 0..=u8::MAX {
                    mutated[pos] = b;
                    let bad = String::from_utf8_lossy(&mutated);
                    if CLASSES.contains(&b) {
                        in_document(&bad);
                    } else {
                        let _ = event_from_jsonl(&bad);
                    }
                }
                mutated[pos] = bytes[pos];
            }
        }
    }

    #[test]
    fn escape_handles_specials() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn megabyte_string_round_trips() {
        let desc: String = "NodeCrash \u{e9}\"\n"
            .chars()
            .cycle()
            .take(1 << 20)
            .collect();
        let ev = TraceEvent {
            seq: 0,
            at: SimTime::ZERO,
            scope: 0,
            kind: TraceEventKind::FaultEdge {
                window: 0,
                desc,
                started: true,
            },
        };
        let line = event_to_jsonl(&ev);
        assert_eq!(event_from_jsonl(&line).expect("parses"), ev);
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for unit in ["[", "{\"a\":"] {
            let line = unit.repeat(1_000_000);
            let err = event_from_jsonl(&line).expect_err("too deep");
            assert!(err.contains("nesting") && err.contains("byte"), "{err}");
        }
    }
}
