//! Properties of the JSONL capture codec against inputs it did not write:
//!
//! * the three committed golden decision logs parse and re-serialise byte
//!   for byte;
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

/// Fragments that steer a random line into the reader's deeper paths.
const TOKENS: [&str; 24] = [
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
