//! Self-test corpus: runs the analyzer over `crates/lint/fixtures/token/`
//! (a mini workspace with seeded violations) and asserts the EXACT
//! diagnostic set — every positive case fires on its pinned line, and no
//! negative case (hatched, `#[cfg(test)]`, exempt path, masked byte/raw
//! string, sanctioned idiom) leaks through.

use std::path::Path;

fn fixture_diags() -> Vec<(String, usize, &'static str)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/token");
    paldia_lint::run(&root)
        .expect("fixtures directory is readable")
        .into_iter()
        .map(|d| (d.path, d.line, d.rule))
        .collect()
}

#[test]
fn corpus_produces_exactly_the_seeded_violations() {
    let expected: Vec<(String, usize, &'static str)> = vec![
        // d3: float equality + partial_cmp().unwrap()/expect(). Lives in
        // `baselines` (sim-facing, not a library crate) so r1 stays quiet.
        ("crates/baselines/src/d3_cases.rs".into(), 3, "d3"),
        ("crates/baselines/src/d3_cases.rs".into(), 7, "d3"),
        ("crates/baselines/src/d3_cases.rs".into(), 11, "d3"),
        ("crates/baselines/src/d3_cases.rs".into(), 15, "d3"),
        // d1: HashMap/HashSet in a sim-facing crate.
        ("crates/cluster/src/d1_cases.rs".into(), 2, "d1"),
        ("crates/cluster/src/d1_cases.rs".into(), 3, "d1"),
        ("crates/cluster/src/d1_cases.rs".into(), 6, "d1"),
        // Lexer edge cases: the escaped-quote char literals and byte/raw
        // strings above this line are masked; the two live `HashMap`
        // mentions on the declaration line both fire (a desynced masker
        // would swallow them).
        ("crates/cluster/src/lexer_edge_cases.rs".into(), 14, "d1"),
        ("crates/cluster/src/lexer_edge_cases.rs".into(), 14, "d1"),
        // stale-allow: a hatch that suppresses nothing, and one naming an
        // unknown rule. The live hatch on the HashMap alias below them is
        // used, so it must NOT appear here.
        ("crates/cluster/src/stale_cases.rs".into(), 5, "stale-allow"),
        (
            "crates/cluster/src/stale_cases.rs".into(),
            11,
            "stale-allow",
        ),
        // d2: Instant / SystemTime / env::var in a deterministic crate.
        ("crates/core/src/d2_cases.rs".into(), 2, "d2"),
        ("crates/core/src/d2_cases.rs".into(), 4, "d2"),
        ("crates/core/src/d2_cases.rs".into(), 5, "d2"),
        ("crates/core/src/d2_cases.rs".into(), 9, "d2"),
        // r1: panicking shortcuts in a library crate.
        ("crates/core/src/r1_cases.rs".into(), 3, "r1"),
        ("crates/core/src/r1_cases.rs".into(), 7, "r1"),
        ("crates/core/src/r1_cases.rs".into(), 11, "r1"),
        ("crates/core/src/r1_cases.rs".into(), 15, "r1"),
        ("crates/core/src/r1_cases.rs".into(), 19, "r1"),
        // u1: an uncalled pub fn; a type named only by its own impls and a
        // `pub use`; items named only in `#[cfg(test)]` or under `/tests/`;
        // and a u1 hatch on an item the bin target calls, which is stale.
        // Items called from `bin/`, `benches/`, `examples/`, `perfbench/`
        // or a format string, the trait-impl method and the hatched dead
        // item stay quiet.
        ("crates/core/src/u1_cases.rs".into(), 3, "u1"),
        ("crates/core/src/u1_cases.rs".into(), 8, "u1"),
        ("crates/core/src/u1_cases.rs".into(), 23, "u1"),
        ("crates/core/src/u1_cases.rs".into(), 27, "u1"),
        ("crates/core/src/u1_cases.rs".into(), 69, "stale-allow"),
        // r2: narrowing cast in the event-key file.
        ("crates/sim/src/event.rs".into(), 5, "r2"),
    ];
    assert_eq!(fixture_diags(), expected);
}

#[test]
fn every_rule_has_a_positive_and_a_negative_case() {
    let fired: std::collections::BTreeSet<&'static str> =
        fixture_diags().into_iter().map(|(_, _, r)| r).collect();
    for rule in paldia_lint::rules::ALL_RULES {
        assert!(fired.contains(rule), "no positive fixture case for {rule}");
    }
    assert!(
        fired.contains("stale-allow"),
        "no positive fixture case for the stale-hatch audit"
    );
    assert!(fired.contains("u1"), "no positive fixture case for u1");
    // Negatives: each fixture file contains sanctioned idioms and hatched
    // sites beyond the pinned lines; the exact-set assertion above proves
    // none of them fire. The exempt-path fixture is the per-rule blanket
    // negative: it packs a violation of every rule into a /tests/ path.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/token");
    let exempt = root.join("crates/sim/tests/exempt.rs");
    assert!(exempt.is_file(), "exempt fixture must exist");
    assert!(
        !fixture_diags()
            .iter()
            .any(|(p, _, _)| p.contains("tests/exempt.rs")),
        "exempt paths must produce no diagnostics"
    );
}

#[test]
fn unknown_rule_hatches_name_the_problem() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/token");
    let diags = paldia_lint::run(&root).expect("fixtures readable");
    let unknown = diags
        .iter()
        .find(|d| d.path.ends_with("stale_cases.rs") && d.line == 11)
        .expect("the d9 hatch is audited");
    assert!(
        unknown.message.contains("unknown rule"),
        "{}",
        unknown.message
    );
}

#[test]
fn render_formats_are_stable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/token");
    let diags = paldia_lint::run(&root).expect("fixtures readable");
    let text = paldia_lint::render_text(&diags);
    assert!(text.contains("crates/cluster/src/d1_cases.rs:2:d1:"));
    let json = paldia_lint::render_json(&diags);
    assert!(json.contains("\"file\": \"crates/cluster/src/d1_cases.rs\""));
    assert!(json.contains("\"rule\": \"d1\""));
    assert!(json.trim_start().starts_with('['));
}
