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
//! ## Writing
//!
//! Every writer appends through [`append_jsonl`]: [`JsonlSink`] into one
//! line buffer it reuses, [`event_to_jsonl`] into a fresh `String`. Integers
//! are written by a digit loop and strings are copied in runs between the
//! bytes that need an escape, so only floats go through `core::fmt`.
//! [`JsonlSink`] flushes its writer every [`DEFAULT_FLUSH_EVERY`] lines.
//!
//! ## Reading
//!
//! [`read_jsonl_file`] / [`events_from_jsonl`] parse a capture back into
//! [`TraceEvent`]s for attribution and triage. Each line is read in one
//! pass over its bytes: the top-level members go into one buffer that the
//! whole document reuses, keys, numbers and strings are slices of the
//! input, and a string allocates only when it contains an escape. Numbers
//! follow the JSON grammar, and a plain integer is read to its value in the
//! same scan. Fields are looked up in order: while lookups
//! hit members 0, 1, 2, … the member at the cursor is the first with its
//! key, because the members before it hold other, distinct schema keys;
//! the first miss falls back to a first-match scan. So a canonical line
//! reads each field in O(1), and any member order, duplicated key (the
//! first wins) or unknown key reads as it would under a plain scan.
//!
//! A document of [`MIN_CHUNK`] bytes or more is cut into whole-line chunks,
//! at most one per pool worker (`paldia_sim::pool`, sized by `--jobs` /
//! `PALDIA_JOBS`), decoded in parallel and concatenated in order; an error
//! is the one the serial loop would return, with its document line number.
//! The reader never panics on malformed input: it returns an error, and it
//! refuses nesting deeper than the schema could produce.
//!
//! Model and instance names are matched against their `&'static str` names
//! on both sides, so neither writing nor reading a name builds a `String`.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use paldia_hw::InstanceKind;
use paldia_sim::{pool, SimTime};
use paldia_workloads::MlModel;

use crate::event::{BatchTrigger, TraceEvent, TraceEventKind};
use crate::sink::TraceSink;

/// Flush the underlying writer after this many buffered lines.
pub const DEFAULT_FLUSH_EVERY: usize = 4096;

/// Smallest chunk [`events_from_jsonl`] hands a pool worker, in bytes: a
/// document shorter than two chunks decodes on the caller's thread.
pub const MIN_CHUNK: usize = 1 << 20;

/// Deepest nesting the reader accepts. The schema's deepest value is a
/// decision row object: line → `decision` → array → row, four levels.
const MAX_DEPTH: usize = 8;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Append `s` as a quoted JSON string. Runs between bytes that need an
/// escape are copied whole.
pub(crate) fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            0..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(esc);
        if esc.len() == 4 {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `n` in decimal.
fn put_u64(mut n: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[i..] {
        out.push(d as char);
    }
}

/// A comma, unless `out` has just opened an object or array.
fn sep(out: &mut String) {
    if !matches!(out.as_bytes().last(), Some(b'{' | b'[')) {
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
pub(crate) fn get_field<T: Field>(obj: &Obj, key: &str) -> Result<T, String> {
    T::get(obj.get(key)?).map_err(|e| format!("field {key:?}: {e}"))
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
        put_u64(*self, out);
    }

    fn get(v: &Json) -> Result<Self, String> {
        match v {
            Json::Int(n) => Ok(*n),
            Json::Num(raw) => raw.parse().map_err(|e| format!("{e}")),
            _ => Err("expected integer".to_string()),
        }
    }
}

impl Field for u32 {
    fn put(&self, out: &mut String) {
        put_u64(u64::from(*self), out);
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
            // Both round the same exact integer to nearest: the bits match
            // parsing its digits.
            Json::Int(n) => Ok(*n as f64),
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

/// Append one event's JSONL line, without its newline, to `out`.
pub fn append_jsonl(out: &mut String, ev: &TraceEvent) {
    out.push('{');
    put_field(out, "seq", &ev.seq);
    put_field(out, "at", &ev.at);
    put_field(out, "scope", &ev.scope);
    put_key(out, "kind");
    escape_into(ev.kind.tag(), out);
    ev.kind.write_payload(out);
    out.push('}');
}

/// Serialize one event as a single JSONL line (no trailing newline).
pub fn event_to_jsonl(ev: &TraceEvent) -> String {
    // An `iteration_started` line, most of a capture, is about 150 bytes:
    // most lines are allocated once.
    let mut s = String::with_capacity(256);
    append_jsonl(&mut s, ev);
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
    /// The line being written, reused from event to event.
    line: String,
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
            line: String::new(),
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
        self.line.clear();
        append_jsonl(&mut self.line, &event);
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
/// from. A plain integer of up to 19 digits (`[1-9][0-9]*`, which cannot
/// overflow a `u64`) is read to its value as it is scanned; any other
/// number keeps its raw text, so integer and float consumers parse the
/// original digits. Keys and strings are borrowed unless they contain an
/// escape.
pub(crate) enum Json<'a> {
    Null,
    Bool(bool),
    Int(u64),
    Num(&'a str),
    Str(Cow<'a, str>),
    Arr(Box<[Json<'a>]>),
    Obj(Box<[Member<'a>]>),
}

/// One `"key":value` member of an object, in document order.
pub(crate) type Member<'a> = (Cow<'a, str>, Json<'a>);

impl<'a> Json<'a> {
    /// Parse one complete JSON document.
    #[cfg(test)]
    pub(crate) fn parse(text: &'a str) -> Result<Json<'a>, String> {
        let mut p = Parser { s: text, i: 0 };
        let v = p.value(1)?;
        match ws(text.as_bytes(), p.i) {
            end if end == text.len() => Ok(v),
            end => Err(format!("trailing bytes at {end}")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err("expected string".to_string()),
        }
    }
}

/// The members of one parsed value, looked up by key with an in-order
/// cursor (see the module docs): while lookups hit the member at the
/// cursor, each costs one key comparison; after the first miss every
/// lookup is a first-match scan. Each key is looked up at most once per
/// object, which holds because a kind's fields and the header keys are
/// distinct names.
pub(crate) struct Obj<'j, 'a> {
    /// `None` when the value is not an object.
    members: Option<&'j [Member<'a>]>,
    /// The member the next in-order lookup tries; `usize::MAX` once a
    /// lookup has missed it.
    next: Cell<usize>,
}

impl<'j, 'a> Obj<'j, 'a> {
    fn new(members: Option<&'j [Member<'a>]>) -> Self {
        Obj {
            members,
            next: Cell::new(0),
        }
    }

    /// The members of `v`, if it is an object.
    pub(crate) fn of(v: &'j Json<'a>) -> Self {
        match v {
            Json::Obj(members) => Obj::new(Some(members)),
            _ => Obj::new(None),
        }
    }

    /// The value of the first member named `key`.
    pub(crate) fn get(&self, key: &str) -> Result<&'j Json<'a>, String> {
        let Some(members) = self.members else {
            return Err(format!("expected object while reading {key:?}"));
        };
        let next = self.next.get();
        if let Some((k, v)) = members.get(next) {
            if k == key {
                self.next.set(next + 1);
                return Ok(v);
            }
        }
        self.next.set(usize::MAX);
        members
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }
}

/// A recursive-descent reader over the bytes of a `&str`. Offsets only
/// stop next to an ASCII byte, so every slice cut is on a char boundary.
///
/// Objects and arrays read their items in a loop that keeps the offset in
/// a local: an unescaped string and a plain integer (`[1-9][0-9]*`, the
/// bulk of a capture) are read inline; any other item goes through
/// [`scalar`] or the recursion, which carries the offset in `i`.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    /// Parse `text` as one document. A root object's members go into
    /// `members`, which is cleared first; any other root is parsed and
    /// dropped. Returns whether the root is an object.
    fn document(text: &'a str, members: &mut Vec<Member<'a>>) -> Result<bool, String> {
        members.clear();
        let b = text.as_bytes();
        let mut p = Parser {
            s: text,
            i: ws(b, 0),
        };
        let is_obj = b.get(p.i) == Some(&b'{');
        if is_obj {
            p.members(1, members)?;
        } else {
            p.value(1)?;
        }
        let end = ws(b, p.i);
        if end != b.len() {
            return Err(format!("trailing bytes at {end}"));
        }
        Ok(is_obj)
    }

    /// The value at `self.i`, at nesting level `depth` (the document root
    /// is level 1).
    fn value(&mut self, depth: usize) -> Result<Json<'a>, String> {
        self.i = ws(self.s.as_bytes(), self.i);
        match self.s.as_bytes().get(self.i) {
            Some(b'{' | b'[') if depth > MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            )),
            Some(b'{') => {
                let mut members = Vec::new();
                self.members(depth, &mut members)?;
                Ok(Json::Obj(members.into()))
            }
            Some(b'[') => self.array(depth),
            _ => {
                let (v, end) = scalar(self.s, self.i)?;
                self.i = end;
                Ok(v)
            }
        }
    }

    /// The item at `*i` (past whitespace) of a container at level `depth`;
    /// moves `*i` past it.
    #[inline(always)]
    fn item(&mut self, i: &mut usize, depth: usize) -> Result<Json<'a>, String> {
        let (s, b, at) = (self.s, self.s.as_bytes(), *i);
        match b.get(at) {
            Some(b'"') => {
                if let Some(end) = plain_string_end(b, at) {
                    *i = end + 1;
                    return Ok(Json::Str(Cow::Borrowed(&s[at + 1..end])));
                }
            }
            Some(b'1'..=b'9') => {
                let (mut end, mut n) = (at, 0u64);
                while let Some(d) = b.get(end).filter(|d| d.is_ascii_digit()) {
                    n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    end += 1;
                }
                if end - at <= 19 && !is_number_byte(b.get(end)) {
                    *i = end;
                    return Ok(Json::Int(n));
                }
            }
            Some(b'{' | b'[') => {
                self.i = at;
                let v = self.value(depth + 1)?;
                *i = self.i;
                return Ok(v);
            }
            _ => {}
        }
        let (v, end) = scalar(s, at)?;
        *i = end;
        Ok(v)
    }

    /// The array at `self.i` (its `[`) at nesting level `depth`.
    fn array(&mut self, depth: usize) -> Result<Json<'a>, String> {
        let b = self.s.as_bytes();
        let mut items = Vec::new();
        let mut i = ws(b, self.i + 1);
        if b.get(i) == Some(&b']') {
            self.i = i + 1;
            return Ok(Json::Arr(items.into()));
        }
        loop {
            i = ws(b, i);
            items.push(self.item(&mut i, depth)?);
            i = ws(b, i);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b']') => {
                    self.i = i + 1;
                    return Ok(Json::Arr(items.into()));
                }
                other => return Err(format!("expected , or ] but found {:?}", other.copied())),
            }
        }
    }

    /// The object at `self.i` (its `{`) at nesting level `depth`, its
    /// members appended to `out`.
    fn members(&mut self, depth: usize, out: &mut Vec<Member<'a>>) -> Result<(), String> {
        let (s, b) = (self.s, self.s.as_bytes());
        let mut i = ws(b, self.i + 1);
        if b.get(i) == Some(&b'}') {
            self.i = i + 1;
            return Ok(());
        }
        loop {
            i = ws(b, i);
            let key = match plain_string_end(b, i) {
                Some(end) => {
                    let key = Cow::Borrowed(&s[i + 1..end]);
                    i = end + 1;
                    key
                }
                None => {
                    let (key, end) = string(s, i)?;
                    i = end;
                    key
                }
            };
            i = ws(b, i);
            if b.get(i) != Some(&b':') {
                return Err(format!("expected ':' at byte {i}"));
            }
            i = ws(b, i + 1);
            let val = self.item(&mut i, depth)?;
            out.push((key, val));
            i = ws(b, i);
            match b.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {
                    self.i = i + 1;
                    return Ok(());
                }
                other => return Err(format!("expected , or }} but found {:?}", other.copied())),
            }
        }
    }
}

/// The offset of the first non-whitespace byte at or after `i`.
#[inline(always)]
fn ws(b: &[u8], mut i: usize) -> usize {
    if b.get(i).is_some_and(|&c| c > b' ') {
        return i;
    }
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\r' | b'\n')) {
        i += 1;
    }
    i
}

/// The offset of the closing quote of the string at `i`, if it is one
/// with no escape.
#[inline(always)]
fn plain_string_end(b: &[u8], i: usize) -> Option<usize> {
    if b.get(i) != Some(&b'"') {
        return None;
    }
    let end = quote_or_backslash(b, i + 1);
    (b.get(end) == Some(&b'"')).then_some(end)
}

/// The offset past the run of ASCII digits at `i`.
#[inline(always)]
fn digits_end(b: &[u8], mut i: usize) -> usize {
    while b.get(i).is_some_and(u8::is_ascii_digit) {
        i += 1;
    }
    i
}

/// A byte that may continue a number token.
#[inline(always)]
fn is_number_byte(c: Option<&u8>) -> bool {
    matches!(c, Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
}

/// The string, number or literal at `i`; returns it and the offset past it.
fn scalar(s: &str, i: usize) -> Result<(Json<'_>, usize), String> {
    let literal = |word: &str, v| {
        if s.as_bytes()[i..].starts_with(word.as_bytes()) {
            Ok((v, i + word.len()))
        } else {
            Err(format!("bad literal at byte {i}"))
        }
    };
    match s.as_bytes().get(i) {
        Some(b'"') => string(s, i).map(|(v, end)| (Json::Str(v), end)),
        Some(b't') => literal("true", Json::Bool(true)),
        Some(b'f') => literal("false", Json::Bool(false)),
        Some(b'n') => literal("null", Json::Null),
        Some(&c) if c == b'-' || c.is_ascii_digit() => number(s, i),
        other => Err(format!("unexpected {:?} at byte {i}", other.copied())),
    }
}

/// A number by the JSON grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
/// ([eE] [+-]? [0-9]+)?`. A number byte right after it (`007`, `1.5.`,
/// `2-1`) makes the whole token an error rather than a shorter number.
fn number(s: &str, start: usize) -> Result<(Json<'_>, usize), String> {
    let b = s.as_bytes();
    let mut i = start;
    if b.get(i) == Some(&b'-') {
        i += 1;
    }
    i = if b.get(i) == Some(&b'0') {
        i + 1
    } else {
        digits(b, i)?
    };
    if b.get(i) == Some(&b'.') {
        i = digits(b, i + 1)?;
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(b.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        i = digits(b, i)?;
    }
    if is_number_byte(b.get(i)) {
        return Err(format!("malformed number at byte {start}"));
    }
    Ok((Json::Num(&s[start..i]), i))
}

/// The offset past one or more ASCII digits at `start`.
fn digits(b: &[u8], start: usize) -> Result<usize, String> {
    let end = digits_end(b, start);
    if end == start {
        return Err(format!("expected a digit at byte {start}"));
    }
    Ok(end)
}

/// The string literal at `i`: a slice of the input unless it contains an
/// escape. Runs without a quote or backslash are copied whole, so the scan
/// is linear in the line length. Returns it and the offset past it.
fn string(s: &str, i: usize) -> Result<(Cow<'_, str>, usize), String> {
    let b = s.as_bytes();
    if b.get(i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    let mut i = i + 1;
    let mut escaped: Option<String> = None;
    loop {
        let start = i;
        i = quote_or_backslash(b, i);
        let run = &s[start..i];
        match b.get(i) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                let v = match escaped {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                };
                return Ok((v, i + 1));
            }
            Some(_) => {}
        }
        let out = escaped.get_or_insert_with(String::new);
        out.push_str(run);
        let esc = b.get(i + 1).copied();
        i += 2;
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
                let (c, end) = unicode_escape(b, i - 2)?;
                out.push(c);
                i = end;
            }
            other => return Err(format!("bad escape {other:?} at byte {}", i - 1)),
        }
    }
}

/// The `\uXXXX` escape whose backslash sits at `at`: exactly four ASCII
/// hex digits, with a high surrogate joined to the `\uDC00`–`\uDFFF` that
/// must follow it. Returns the char and the offset past the escape.
fn unicode_escape(b: &[u8], at: usize) -> Result<(char, usize), String> {
    let hex4 = |i: usize| {
        b.get(i..i + 4)?
            .iter()
            .try_fold(0u32, |acc, &d| Some(acc << 4 | char::from(d).to_digit(16)?))
    };
    let unpaired = |code: u32| format!("unpaired surrogate \\u{code:04x} at byte {at}");
    let hi = hex4(at + 2).ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
    let (code, end) = match hi {
        0xd800..=0xdbff => {
            let lo = (b.get(at + 6..at + 8) == Some(b"\\u"))
                .then(|| hex4(at + 8))
                .flatten()
                .filter(|lo| (0xdc00..=0xdfff).contains(lo))
                .ok_or_else(|| unpaired(hi))?;
            (0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00), at + 12)
        }
        0xdc00..=0xdfff => return Err(unpaired(hi)),
        code => (code, at + 6),
    };
    let c = char::from_u32(code).ok_or_else(|| format!("bad \\u escape at byte {at}"))?;
    Ok((c, end))
}

/// The offset of the first `"` or `\` in `b` at or after `i`, else
/// `b.len()`. Eight bytes are tested per step: a byte equal to `c` is a
/// zero byte of `word ^ (c * ONES)`, and `(x - ONES) & !x & HIGH` flags the
/// first zero byte of `x` exactly (a borrow only runs upward from it).
fn quote_or_backslash(b: &[u8], mut i: usize) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    const QUOTES: u64 = ONES * b'"' as u64;
    const BACKSLASHES: u64 = ONES * b'\\' as u64;
    let zero_byte = |x: u64| x.wrapping_sub(ONES) & !x & HIGH;
    while let Some(word) = b.get(i..i + 8) {
        let word = u64::from_le_bytes(word.try_into().expect("invariant: an 8-byte slice"));
        let hits = zero_byte(word ^ QUOTES) | zero_byte(word ^ BACKSLASHES);
        if hits != 0 {
            return i + hits.trailing_zeros() as usize / 8;
        }
        i += 8;
    }
    i + b[i..]
        .iter()
        .position(|&c| c == b'"' || c == b'\\')
        .unwrap_or(b.len() - i)
}

/// Decode one line, reading its top-level members into `members`.
fn decode_line<'a>(line: &'a str, members: &mut Vec<Member<'a>>) -> Result<TraceEvent, String> {
    let is_obj = Parser::document(line, members)?;
    let obj = Obj::new(is_obj.then_some(&members[..]));
    Ok(TraceEvent {
        seq: get_field(&obj, "seq")?,
        at: get_field(&obj, "at")?,
        scope: get_field(&obj, "scope")?,
        kind: TraceEventKind::read_payload(obj.get("kind")?.as_str()?, &obj)?,
    })
}

/// Parse one JSONL line back into a [`TraceEvent`].
// lint:allow(u1) the one-line decode oracle of obs/tests/jsonl_codec.rs
pub fn event_from_jsonl(line: &str) -> Result<TraceEvent, String> {
    decode_line(line, &mut Vec::new())
}

/// Decode the lines of `text`, blank ones skipped, through one member
/// buffer. Returns the events and the line count, or the first error with
/// its 1-based line number within `text`.
fn decode_lines(text: &str) -> Result<(Vec<TraceEvent>, usize), JsonlError> {
    let mut events = Vec::new();
    let mut members = Vec::new();
    let mut lines = 0;
    for (idx, line) in text.lines().enumerate() {
        lines = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            decode_line(line, &mut members).map_err(|message| JsonlError {
                line: lines,
                message,
            })?,
        );
    }
    Ok((events, lines))
}

/// `text` cut into `n` runs of whole lines: each cut is right after a
/// newline or at the end of the text, so a run may be empty when one line
/// spans several cuts.
fn line_chunks(text: &str, n: usize) -> Vec<&str> {
    let n = n.max(1);
    let mut chunks = Vec::with_capacity(n);
    let mut start = 0;
    for k in 1..n {
        let cut = (text.len() / n * k).max(start);
        let end = text.as_bytes()[cut..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |p| cut + p + 1);
        chunks.push(&text[start..end]);
        start = end;
    }
    chunks.push(&text[start..]);
    chunks
}

/// Parse a whole JSONL document (blank lines skipped); errors carry the
/// 1-based line number. A document of two or more [`MIN_CHUNK`]s is
/// decoded in whole-line chunks on the worker pool, with the same events
/// and the same first error as a serial read.
pub fn events_from_jsonl(text: &str) -> Result<Vec<TraceEvent>, JsonlError> {
    let chunks = line_chunks(text, pool::max_jobs().min(text.len() / MIN_CHUNK));
    let parts = pool::run_indexed(chunks.len(), |i| decode_lines(chunks[i]));
    let mut events = Vec::new();
    let mut lines = 0;
    for part in parts {
        let (mut chunk, n) = part.map_err(|e| JsonlError {
            line: lines + e.line,
            ..e
        })?;
        if events.is_empty() {
            events = chunk;
        } else {
            events.append(&mut chunk);
        }
        lines += n;
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

    /// `\u` escapes: exactly four hex digits, surrogate pairs joined into
    /// one char, lone or reversed surrogates refused with the offset of
    /// their backslash.
    #[test]
    fn unicode_escapes_follow_the_json_grammar() {
        let read = |lit: &str| string(lit, 0).map(|(v, end)| (v.into_owned(), end));
        assert_eq!(read(r#""\u0041""#), Ok(("A".to_string(), 8)));
        assert_eq!(read(r#""\u00E9x""#), Ok(("\u{e9}x".to_string(), 9)));
        assert_eq!(
            read(r#""a\ud83d\ude00b""#),
            Ok(("a\u{1f600}b".to_string(), 16))
        );
        for (bad, at) in [
            (r#""\u+041""#, 1),
            (r#""\u-041""#, 1),
            (r#""\u 041""#, 1),
            (r#""\u041""#, 1),
            (r#""x\u00\u00e9""#, 2),
            (r#""\ud83d""#, 1),
            (r#""\ud83dx""#, 1),
            (r#""\ud83d\u0041""#, 1),
            (r#""\ud83d\ud83d""#, 1),
            (r#""\ude00\ud83d""#, 1),
            (r#""ab\udfff""#, 3),
        ] {
            let err = read(bad).expect_err(bad);
            assert!(err.ends_with(&format!("at byte {at}")), "{bad}: {err}");
        }
        // The writer's control-character escapes read back.
        for c in (0u8..0x20).map(char::from) {
            let mut out = String::new();
            escape_into(&c.to_string(), &mut out);
            assert_eq!(read(&out), Ok((c.to_string(), out.len())), "{out}");
        }
    }

    #[test]
    fn escape_handles_specials() {
        let mut out = String::new();
        escape_into("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    /// [`escape_into`] against a char-by-char reference, for every ASCII
    /// char and a few multi-byte ones, alone and between plain runs.
    #[test]
    fn escape_matches_the_char_by_char_reference() {
        fn reference(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    '\r' => out.push_str("\\r"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        let chars = (0u8..0x80)
            .map(char::from)
            .chain(['\u{e9}', '\u{20ac}', '\u{1f600}']);
        for c in chars {
            for s in [c.to_string(), format!("ab{c}cd{c}{c}e")] {
                let mut out = String::new();
                escape_into(&s, &mut out);
                assert_eq!(out, reference(&s), "{s:?}");
            }
        }
    }

    #[test]
    fn integers_are_written_as_display_writes_them() {
        let mut values = vec![0, 1, 9, u64::from(u32::MAX), u64::MAX - 1, u64::MAX];
        for p in 1..20 {
            let ten = 10u64.pow(p);
            values.extend([ten - 1, ten, ten + 1]);
        }
        for n in values {
            let mut out = String::new();
            put_u64(n, &mut out);
            assert_eq!(out, n.to_string());
        }
    }

    /// The eight-byte scan finds the first quote or backslash wherever it
    /// sits, next to bytes one off from either and to non-ASCII bytes.
    #[test]
    fn quote_scan_matches_a_byte_loop() {
        for len in 0..24 {
            for fill in [b'a', b'!', b'#', b'[', b']', 0x00, 0x01, 0x80, 0xff] {
                for hit in [b'"', b'\\'] {
                    for at in 0..=len {
                        let mut b = vec![fill; len];
                        if at < len {
                            b[at] = hit;
                        }
                        for from in 0..=len {
                            let want = (from..len)
                                .find(|&i| b[i] == b'"' || b[i] == b'\\')
                                .unwrap_or(len);
                            assert_eq!(quote_or_backslash(&b, from), want, "{b:?} from {from}");
                        }
                    }
                }
            }
        }
    }

    /// Numbers follow the JSON grammar; a token that Rust's `parse` would
    /// take but JSON forbids is refused with its byte offset.
    #[test]
    fn numbers_follow_the_json_grammar() {
        let line = PINNED[3];
        let share = line.find("\"share\":").expect("a share field") + "\"share\":".len();
        let seq = "{\"seq\":".len();
        let with = |at: usize, old: &str, new: &str| {
            assert!(line[at..].starts_with(old));
            format!("{}{new}{}", &line[..at], &line[at + old.len()..])
        };
        for (bad, at) in [
            (with(seq, "3", "+5"), seq),
            (with(seq, "3", "007"), seq),
            (with(seq, "3", "-"), seq + 1),
            (with(seq, "3", "3e"), seq + 2),
            (with(seq, "3", "3-1"), seq),
            (with(share, "0.5", "1."), share + 2),
            (with(share, "0.5", ".5"), share),
            (with(share, "0.5", "-.5"), share + 1),
            (with(share, "0.5", "00.5"), share),
            (with(share, "0.5", "0.5.5"), share),
            (with(share, "0.5", "1e+"), share + 3),
            (with(share, "0.5", "1.e5"), share + 2),
        ] {
            let err = event_from_jsonl(&bad).expect_err(&bad);
            assert!(err.ends_with(&format!("at byte {at}")), "{bad}: {err}");
        }
        for (good, bits) in [
            ("0", 0.0f64),
            ("-0", -0.0),
            ("1E+2", 100.0),
            ("-2.5e-1", -0.25),
        ] {
            let ev = event_from_jsonl(&with(share, "0.5", good)).expect(good);
            let TraceEventKind::BatchAdmitted { share, .. } = ev.kind else {
                panic!("wrong variant");
            };
            assert_eq!(share.to_bits(), bits.to_bits(), "{good}");
        }
    }

    /// An integer token reads as its digits parse, whether the scanner
    /// took its value (up to 19 digits) or kept its text: as a `u64`, and
    /// as an `f64` rounded to the same bits.
    #[test]
    fn integers_read_as_their_digits_parse() {
        let line = PINNED[3];
        for digits in [
            "1",
            "0",
            "10",
            "9007199254740993",
            "1000000000000000001",
            "9999999999999999999",
            "10000000000000000000",
            "18446744073709551615",
            "18446744073709551616",
        ] {
            let at = line.replace("\"batch\":2", &format!("\"batch\":{digits}"));
            let share = line.replace("\"share\":0.5", &format!("\"share\":{digits}"));
            let (batch_read, share_read) = (event_from_jsonl(&at), event_from_jsonl(&share));
            match digits.parse::<u64>() {
                Ok(n) => {
                    let Ok(TraceEvent {
                        kind: TraceEventKind::BatchAdmitted { batch, .. },
                        ..
                    }) = batch_read
                    else {
                        panic!("{digits}: {batch_read:?}");
                    };
                    assert_eq!(batch, n, "{digits}");
                }
                Err(e) => assert!(batch_read.expect_err(digits).ends_with(&e.to_string())),
            }
            let Ok(TraceEvent {
                kind: TraceEventKind::BatchAdmitted { share, .. },
                ..
            }) = share_read
            else {
                panic!("{digits}: {share_read:?}");
            };
            let want: f64 = digits.parse().expect("an f64");
            assert_eq!(share.to_bits(), want.to_bits(), "{digits}");
        }
    }

    /// On a canonical line every field lookup hits the cursor, so no
    /// lookup scans; this needs the header and payload keys to be
    /// distinct, which the pinned lines also show.
    #[test]
    fn canonical_lines_are_read_in_order() {
        for line in PINNED {
            let mut members = Vec::new();
            assert!(Parser::document(line, &mut members).expect("parses"));
            let mut keys: Vec<&str> = members.iter().map(|(k, _)| &**k).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), members.len(), "{line}");
            let obj = Obj::new(Some(&members));
            for key in ["seq", "at", "scope"] {
                obj.get(key).expect("a header field");
            }
            let tag = obj.get("kind").and_then(Json::as_str).expect("a kind");
            TraceEventKind::read_payload(tag, &obj).expect("a payload");
            assert_eq!(obj.next.get(), members.len(), "{line}");
        }
    }

    #[test]
    fn chunks_are_whole_lines() {
        let text = "a\nbb\r\n\nccc\ndddd";
        for n in 1..=12 {
            let chunks = line_chunks(text, n);
            assert_eq!(chunks.len(), n);
            assert_eq!(chunks.concat(), text);
            // Every cut is right after a newline or at an end of the text.
            let mut cut = 0;
            for c in &chunks {
                cut += c.len();
                assert!(
                    cut == text.len() || text[..cut].ends_with('\n'),
                    "{n}: {chunks:?}"
                );
            }
        }
        assert_eq!(line_chunks("", 3), ["", "", ""]);
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
