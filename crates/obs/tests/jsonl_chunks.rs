//! `events_from_jsonl` cuts a long document into whole-line chunks, one per
//! pool worker. The pool width must not show: the same events, and the
//! same first error with the same line number, at every width.
//!
//! A binary of its own, because `set_jobs` is process-wide.

use paldia_obs::{events_from_jsonl, JsonlError, MIN_CHUNK};
use paldia_sim::pool::set_jobs;

fn golden(name: &str) -> String {
    let path = format!(
        "{}/../../tests/golden/decision_log_{name}.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Byte offsets where the widths below cut a document of `len` bytes
/// before moving on to the next line end.
fn cut_targets(len: usize) -> Vec<usize> {
    (2..=3)
        .flat_map(|n| (1..n).map(move |k| len / n * k))
        .collect()
}

/// The three golden logs repeated past three chunks. Lines within 4 KiB of
/// a cut end in `\r\n` and are each followed by a blank line, alternately
/// empty and whitespace, so every cut lands on a `\r\n` line or a blank one.
fn document() -> String {
    let logs = ["quick", "llm", "fleet"].map(golden).concat();
    let plain = logs.repeat(3 * MIN_CHUNK / logs.len() + 1);
    // The marks add a few hundred bytes at most, far less than the window.
    let near_cut = |at: usize| {
        cut_targets(plain.len())
            .iter()
            .any(|&t| at.abs_diff(t) < 4096)
    };
    let mut doc = String::with_capacity(plain.len() + 4096);
    let mut at = 0;
    for (i, line) in plain.lines().enumerate() {
        doc.push_str(line);
        if near_cut(at) {
            doc.push_str(if i % 2 == 0 { "\r\n\n" } else { "\r\n \t \r\n" });
        } else {
            doc.push('\n');
        }
        at += line.len() + 1;
    }
    assert!(doc.len() > 3 * MIN_CHUNK);
    for t in cut_targets(doc.len()) {
        let end = t + doc[t..].find('\n').expect("a line end after the cut");
        let line = doc[..end].rsplit('\n').next().expect("the cut line");
        assert!(
            line.ends_with('\r') || line.trim().is_empty(),
            "the cut at {t} ends a plain line"
        );
    }
    doc
}

/// `doc` decoded at pool widths 1, 2 and 3; all three must agree.
fn decode_at_every_width(doc: &str) -> Result<Vec<paldia_obs::TraceEvent>, JsonlError> {
    let mut results = [1, 2, 3].map(|jobs| {
        set_jobs(jobs);
        events_from_jsonl(doc)
    });
    set_jobs(0);
    for (jobs, r) in [2, 3].iter().zip(&results[1..]) {
        assert!(*r == results[0], "width {jobs} disagrees with width 1");
    }
    std::mem::replace(&mut results[0], Ok(Vec::new()))
}

#[test]
fn pool_width_does_not_change_what_is_read() {
    let doc = document();
    let events = decode_at_every_width(&doc).expect("the document parses");
    let lines = doc.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(events.len(), lines);

    // A malformed line in the last chunk: the same error, the same line.
    let lines: Vec<&str> = doc.split_inclusive('\n').collect();
    let bad_line = lines.len() - 10;
    let planted = |at: usize, bad: &str| -> String {
        let mut lines = lines.clone();
        lines[at] = bad;
        lines.concat()
    };
    let late = planted(bad_line, "{\"seq\":1,\"at\":007}\n");
    let err = decode_at_every_width(&late).expect_err("a malformed line");
    assert_eq!(err.line, bad_line + 1, "{err}");
    assert!(err.message.contains("byte"), "{err}");

    // A second one in the first chunk comes first at every width.
    let mut two = planted(bad_line, "not json\n");
    two.replace_range(..lines[0].len(), "{\"seq\":1}\n");
    let err = decode_at_every_width(&two).expect_err("two malformed lines");
    assert_eq!(
        err,
        JsonlError {
            line: 1,
            message: "missing field \"at\"".to_string()
        }
    );
}
