//! Properties of the JSONL capture codec against inputs it did not write:
//!
//! * the three committed golden decision logs parse and re-serialise byte
//!   for byte;
//! * the reader looks members up by key: any member order decodes to the
//!   same event, the first of duplicated keys wins, and unknown keys are
//!   ignored;
//! * arbitrary bytes and JSON-shaped token soup parse to `Ok` or `Err`,
//!   never a panic.

use paldia_obs::{event_from_jsonl, event_to_jsonl, events_from_jsonl};
use proptest::prelude::*;

fn golden(name: &str) -> String {
    let path = format!(
        "{}/../../tests/golden/decision_log_{name}.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn golden_logs_reserialise_byte_for_byte() {
    for (name, lines) in [("quick", 179), ("llm", 179), ("fleet", 537)] {
        let text = golden(name);
        let events = events_from_jsonl(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(events.len(), lines, "{name}");
        let mut again = String::with_capacity(text.len());
        for ev in &events {
            again.push_str(&event_to_jsonl(ev));
            again.push('\n');
        }
        assert!(again == text, "{name}: re-serialised log differs");
    }
}

/// Canonical lines of kinds the golden logs do not hold, one with an
/// escaped string and one with a nested array.
const CANONICAL: [&str; 4] = [
    r#"{"seq":1,"at":1000,"scope":1,"kind":"batch_formed","batch":2,"model":"ResNet 50","size":2,"requests":[1,4],"trigger":"size"}"#,
    r#"{"seq":3,"at":3000,"scope":0,"kind":"batch_admitted","batch":2,"model":"ResNet 50","worker":3,"container":0,"share":0.5,"concurrency":2,"slowdown":1.0000000000000002}"#,
    r#"{"seq":12,"at":12000,"scope":0,"kind":"iteration_started","worker":5,"iteration":42,"residents":3,"kv_used":1024,"kv_capacity":4096,"dur_us":1050}"#,
    r#"{"seq":18,"at":18000,"scope":0,"kind":"fault_edge","window":0,"desc":"NodeCrash { \"quoted\" }\nnewline\ttab","started":true}"#,
];

/// Every canonical line the key-semantics tests rewrite: [`CANONICAL`]
/// plus every line of the three golden logs.
fn canonical_lines() -> Vec<String> {
    let mut lines: Vec<String> = CANONICAL.iter().map(|l| l.to_string()).collect();
    for name in ["quick", "llm", "fleet"] {
        lines.extend(golden(name).lines().map(str::to_string));
    }
    lines
}

/// The members of the object or items of the array `v` (brackets
/// included), split at its top-level commas.
fn split_top(v: &str) -> Vec<&str> {
    let body = &v[1..v.len() - 1];
    let (mut depth, mut in_str, mut esc, mut start) = (0usize, false, false, 0);
    let mut parts = Vec::new();
    for (i, b) in body.bytes().enumerate() {
        if in_str {
            match b {
                _ if esc => esc = false,
                b'\\' => esc = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth -= 1,
            b',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if !body.is_empty() {
        parts.push(&body[start..]);
    }
    parts
}

/// `v` with the members of every object in it reversed, at every depth.
fn reverse_objects(v: &str) -> String {
    match v.as_bytes().first() {
        Some(b'{') => {
            let members: Vec<String> = split_top(v)
                .into_iter()
                .rev()
                .map(|m| {
                    let colon = m.find("\":").expect("member has a key") + 2;
                    format!("{}{}", &m[..colon], reverse_objects(&m[colon..]))
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
        Some(b'[') => {
            let items: Vec<String> = split_top(v).into_iter().map(reverse_objects).collect();
            format!("[{}]", items.join(","))
        }
        _ => v.to_string(),
    }
}

fn decode(line: &str) -> paldia_obs::TraceEvent {
    event_from_jsonl(line).unwrap_or_else(|e| panic!("{line}: {e}"))
}

#[test]
fn member_order_does_not_matter() {
    for line in canonical_lines() {
        let want = decode(&line);
        // Payload before header, `kind` last.
        let members = split_top(&line);
        let (header, payload) = members.split_at(4);
        let mut moved: Vec<&str> = payload.to_vec();
        moved.extend([header[0], header[1], header[2], header[3]]);
        assert!(header[3].starts_with("\"kind\":"), "{line}");
        let moved = format!("{{{}}}", moved.join(","));
        assert_eq!(decode(&moved), want, "{moved}");
        // Every object reversed, nested decision rows included.
        let reversed = reverse_objects(&line);
        assert_ne!(reversed, line);
        assert_eq!(decode(&reversed), want, "{reversed}");
    }
}

#[test]
fn first_of_duplicated_keys_wins() {
    let lines = canonical_lines();
    for pair in lines.windows(2) {
        let (first, second) = (&pair[0], &pair[1]);
        // Every key of `second` repeats one of `first`'s or is unknown to
        // `first`'s kind; `first`'s values win either way.
        let doubled = format!("{},{}", &first[..first.len() - 1], &second[1..]);
        assert_eq!(decode(&doubled), decode(first), "{doubled}");
    }
    // Adjacent and scattered duplicates, header, payload and nested.
    let dispatched = r#"{"seq":7,"seq":8,"at":1000,"scope":1,"kind":"batch_dispatched","batch":2,"model":"ResNet 50","worker":3,"hw":"c6i.2xlarge","worker":9,"kind":"request_arrived","at":5}"#;
    let ev = decode(dispatched);
    assert_eq!((ev.seq, ev.at.as_micros()), (7, 1000));
    assert_eq!(
        event_to_jsonl(&ev),
        r#"{"seq":7,"at":1000,"scope":1,"kind":"batch_dispatched","batch":2,"model":"ResNet 50","worker":3,"hw":"c6i.2xlarge"}"#
    );
    let golden_line = golden("quick").lines().next().expect("a line").to_string();
    let nested = golden_line.replacen(
        "\"decision\":{",
        "\"decision\":{\"scheduler\":\"first\",\"slo_ms\":1,",
        1,
    );
    let ev = event_to_jsonl(&decode(&nested));
    assert!(ev.contains("\"scheduler\":\"first\""), "{ev}");
    assert!(ev.contains("\"slo_ms\":1,"), "{ev}");
}

#[test]
fn unknown_keys_are_ignored() {
    const EXTRA: &str = r#""extra":{"nested":[1,-2.5e3,{"x":null}],"s":"é"}"#;
    for line in canonical_lines() {
        let want = decode(&line);
        let body = &line[1..line.len() - 1];
        let first_comma = body.find(',').expect("several members");
        for with_extra in [
            format!("{{{EXTRA},{body}}}"),
            format!(
                "{{{},{EXTRA},{}}}",
                &body[..first_comma],
                &body[first_comma + 1..]
            ),
            format!("{{{body},{EXTRA}}}"),
        ] {
            assert_eq!(decode(&with_extra), want, "{with_extra}");
        }
    }
}

/// Fragments that steer a random line into the reader's deeper paths.
/// The last three are number tokens Rust's `parse` takes but JSON forbids.
const TOKENS: [&str; 27] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "00e9",
    "\"seq\":0",
    "\"at\":1",
    "\"scope\":2",
    "\"kind\":",
    "\"decision\"",
    "\"failover\"",
    "\"model\"",
    "-",
    "1e999",
    "0.5",
    "18446744073709551616",
    "true",
    "null",
    "\u{e9}",
    "+5",
    "007",
    "1.",
];

proptest! {
    /// Lossy-decoded random bytes never panic the reader.
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let line = String::from_utf8_lossy(&bytes);
        let _ = event_from_jsonl(&line);
        let _ = events_from_jsonl(&line);
    }

    /// JSON-shaped token soup never panics the reader.
    fn token_soup_never_panics(picks in prop::collection::vec(0usize..TOKENS.len(), 0..64)) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = event_from_jsonl(&line);
    }
}
