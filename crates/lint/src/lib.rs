//! paldia-lint: determinism & robustness static analysis for the Paldia
//! workspace.
//!
//! The simulation's credibility rests on bit-identical replay (see
//! DESIGN.md, "Determinism contract"): every experiment must produce the
//! same `BENCH_repro.json` on every run, machine, and thread count. This
//! crate makes that contract machine-checked, with zero external
//! dependencies — the same vendored-shim style as `crates/proptest` and
//! `crates/criterion` — so it runs in the offline build container and
//! never drifts with external lint frameworks.
//!
//! Four layers (DESIGN.md §13; full rule table in `crates/lint/README.md`):
//!
//! 1. **Token rules** over each file's masked token stream:
//!
//!    | id | binds to            | forbids                                   |
//!    |----|---------------------|-------------------------------------------|
//!    | d1 | sim-facing crates   | `HashMap`/`HashSet` (iteration order)      |
//!    | d2 | deterministic crates| `Instant`/`SystemTime`/`env::var`          |
//!    | d3 | sim-facing crates   | float `==`/`!=`, `partial_cmp().unwrap()`  |
//!    | r1 | library crates      | bare `unwrap()`, weak `expect`, `panic!`   |
//!    | r2 | event/time files    | narrowing `as` casts                       |
//!    | u1 | program crates      | uncalled `pub` items (workspace pass 4)    |
//!
//! 2. **Crate-graph rules** over every workspace `Cargo.toml` plus the
//!    committed classification manifest (`crates/lint/classification.toml`):
//!    `b1` forbids dependency edges that violate the class matrix (direct
//!    or transitive), `b2` forbids `pub use` re-exports that leak fenced
//!    symbols (`Instant`, `SystemTime`, `HashMap`, `HashSet`, `std::env`,
//!    `std::thread::spawn`) out of deterministic-core/sim-facing crates.
//!
//! 3. **Reachability** (`reach`): an approximate interprocedural call graph
//!    seeded at the free fn `run` in `paldia-cluster`,
//!    `run_simulation*`/`run_fleet*`/`run_replay*` and `PaldiaScheduler`
//!    methods; any path to a fenced symbol is reported as a call-chain
//!    narrative.
//!
//! 4. **Unused surface** (`u1`, `src/unused.rs`): a `pub` item of a
//!    deterministic-core, sim-facing or shell crate that no non-test token
//!    names outside its own definition, `use` declarations and (for a type)
//!    its own `impl` blocks. Callers count from every walked file —
//!    `bin/`, `benches/`, `examples/`, the root facade and `perfbench/` —
//!    but never from `/tests/` paths or `#[cfg(test)]` regions.
//!
//! Escape hatches: a `// lint:allow(<rule>)` comment on the offending line
//! (or the line above) suppresses one site; `src/allowlist.rs` holds the
//! reviewed per-file table. Hatches and entries that suppress nothing are
//! themselves flagged (`stale-allow`). `#[cfg(test)]` items, `/tests/`,
//! `/benches/`, `/examples/`, `/bin/` paths, and the CLI facade are out of
//! token-rule scope; the graph passes still see every crate's manifest, and
//! `u1` reads every non-test file as a caller.

pub mod allowlist;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod rules;
pub mod unused;

pub use rules::Diagnostic;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of a full workspace analysis.
#[derive(Debug)]
pub struct Report {
    /// All surviving diagnostics, sorted by (path, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of non-test `.rs` files lexed and parsed (token-rule-exempt
    /// files included: they are read for `u1` callers).
    pub files_scanned: usize,
    /// Every discovered workspace crate with its declared class
    /// (`"unclassified"` when the manifest misses it), sorted by dir.
    pub crates: Vec<(String, String)>,
}

/// One scanned file: lexed tokens, parsed items, raw token diagnostics.
struct Scanned {
    rel: String,
    lexed: lexer::Lexed,
    ast: Option<parse::FileAst>,
    raw: Vec<Diagnostic>,
    /// False for token-rule-exempt files, which only `u1` reads.
    in_scope: bool,
}

/// Lint every `.rs` file under `root`, returning diagnostics not covered by
/// a hatch or the shipped allowlist, sorted by (path, line, rule).
/// Equivalent to [`analyze`] without the summary fields.
pub fn run(root: &Path) -> io::Result<Vec<Diagnostic>> {
    analyze(root).map(|r| r.diagnostics)
}

/// Parse every non-exempt `.rs` file under `root` into its item-level
/// structure, with no rule checks. The workspace-clean self-test uses this
/// to probe the call graph directly.
pub fn parse_workspace(root: &Path) -> io::Result<Vec<parse::FileAst>> {
    let rels = scannable_files(root)?;
    let asts: Vec<io::Result<parse::FileAst>> = paldia_core::pool::run_indexed(rels.len(), |i| {
        let src = fs::read_to_string(root.join(&rels[i]))?;
        Ok(parse::parse(&rels[i], &lexer::lex(&src)))
    });
    asts.into_iter().collect()
}

/// Sorted relative paths of every `.rs` file in token-rule scope.
fn scannable_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = non_test_files(root)?;
    files.retain(|rel| !rules::exempt_path(rel));
    Ok(files)
}

/// Sorted relative paths of every `.rs` file outside `/tests/` paths.
fn non_test_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    Ok(files
        .iter()
        .map(|rel| {
            rel.to_str()
                .expect("invariant: collected paths are valid UTF-8")
                .replace('\\', "/")
        })
        .filter(|rel| !rel.contains("/tests/") && !rel.starts_with("tests/"))
        .collect())
}

/// Run the full four-layer analysis over the workspace at `root`.
pub fn analyze(root: &Path) -> io::Result<Report> {
    let rels = non_test_files(root)?;

    // Per-file work (read + lex + parse + token rules) is independent; fan
    // it out on the bounded worker pool. Results come back in index order,
    // so the scan stays deterministic at any PALDIA_JOBS setting.
    let scanned: Vec<io::Result<Scanned>> = paldia_core::pool::run_indexed(rels.len(), |i| {
        let rel = &rels[i];
        let src = fs::read_to_string(root.join(rel))?;
        let lexed = lexer::lex(&src);
        let raw = rules::check_file(rel, &lexed);
        let ast = parse::parse(rel, &lexed);
        Ok(Scanned {
            rel: rel.clone(),
            lexed,
            ast: Some(ast),
            raw,
            in_scope: !rules::exempt_path(rel),
        })
    });
    let mut scanned: Vec<Scanned> = scanned.into_iter().collect::<io::Result<_>>()?;
    let files_scanned = scanned.len();

    // Pass 2: crate graph — manifest coverage, b1 edges, b2 re-exports.
    let (crate_graph, mut diags) = graph::load(root)?;
    diags.extend(graph::check_b1(&crate_graph));

    // Pass 4 (before the ASTs move out): unused public surface. Its raw
    // diagnostics join each file's token diagnostics for hatch filtering.
    {
        let files: Vec<(&parse::FileAst, &lexer::Lexed)> = scanned
            .iter()
            .filter_map(|s| Some((s.ast.as_ref()?, &s.lexed)))
            .collect();
        let u1 = unused::check_u1(&crate_graph, &files);
        for d in u1 {
            if let Some(s) = scanned.iter_mut().find(|s| s.rel == d.path) {
                s.raw.push(d);
            }
        }
    }

    let asts: Vec<parse::FileAst> = scanned
        .iter_mut()
        .filter(|s| s.in_scope)
        .filter_map(|s| s.ast.take())
        .collect();
    diags.extend(graph::check_b2(&crate_graph, &asts));

    // Token diagnostics, with every suppression that fires recorded so the
    // stale-allow audit can see which hatches/entries still pull weight.
    let mut used_hatches: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut used_entries: BTreeSet<usize> = BTreeSet::new();
    for s in &mut scanned {
        let raw = std::mem::take(&mut s.raw);
        let (kept, used) = filter_hatched(&s.lexed, raw);
        for (line, rule) in used {
            used_hatches.insert((s.rel.clone(), line, rule));
        }
        for d in kept {
            match allowlist::entry_index(d.rule, &d.path) {
                Some(idx) => {
                    used_entries.insert(idx);
                }
                None => diags.push(d),
            }
        }
    }

    // Pass 3: reachability. A fenced call site covered by its governing
    // rule's hatch/allowlist (or an explicit `reach` hatch) is a reviewed
    // exemption, and that usage keeps the suppression alive in the audit.
    {
        let lex_by_path: BTreeMap<&str, &lexer::Lexed> =
            scanned.iter().map(|s| (s.rel.as_str(), &s.lexed)).collect();
        let mut suppress = |path: &str, line: usize, rules_: &[&str]| -> bool {
            for rule in rules_ {
                if let Some(lexed) = lex_by_path.get(path) {
                    let hatch = lexed
                        .allows
                        .iter()
                        .find(|(l, r)| r == rule && (*l == line || *l + 1 == line));
                    if let Some((hl, hr)) = hatch {
                        used_hatches.insert((path.to_string(), *hl, hr.clone()));
                        return true;
                    }
                }
                if let Some(idx) = allowlist::entry_index(rule, path) {
                    used_entries.insert(idx);
                    return true;
                }
            }
            false
        };
        diags.extend(reach::check_reach(&crate_graph, &asts, &mut suppress));
    }

    // Stale-hatch audit: every recorded hatch and allowlist entry must have
    // suppressed at least one diagnostic this run.
    for s in &scanned {
        let test_lines: Vec<(usize, usize)> = s
            .lexed
            .test_ranges
            .iter()
            .filter_map(|&(a, b)| {
                let toks = &s.lexed.tokens;
                Some((toks.get(a)?.line, toks.get(b.saturating_sub(1))?.line))
            })
            .collect();
        for (line, rule) in &s.lexed.allows {
            if used_hatches.contains(&(s.rel.clone(), *line, rule.clone())) {
                continue;
            }
            if test_lines.iter().any(|&(a, b)| a <= *line && *line <= b) {
                continue; // test code is out of scope, its hatches are inert
            }
            let known = rules::ALL_RULES.contains(&rule.as_str())
                || rules::BOUNDARY_RULES.contains(&rule.as_str());
            let message = if known {
                format!("`lint:allow({rule})` suppresses no diagnostic; remove the stale hatch")
            } else {
                format!(
                    "`lint:allow({rule})` names an unknown rule (known: d1 d2 d3 r1 r2 b1 b2 \
                     reach u1); fix or remove the hatch"
                )
            };
            diags.push(Diagnostic {
                path: s.rel.clone(),
                line: *line,
                rule: "stale-allow",
                message,
            });
        }
    }
    for (idx, a) in allowlist::ALLOWLIST.iter().enumerate() {
        if used_entries.contains(&idx) {
            continue;
        }
        // Only audit entries whose path exists in this scan — fixture
        // corpora must not flag the real tree's entries as stale.
        if scanned.iter().any(|s| s.rel.ends_with(a.path_suffix)) {
            diags.push(Diagnostic {
                path: "crates/lint/src/allowlist.rs".to_string(),
                line: 1,
                rule: "stale-allow",
                message: format!(
                    "allowlist entry `{}:{}` suppresses no diagnostic; remove the stale entry",
                    a.rule, a.path_suffix
                ),
            });
        }
    }

    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    let crates = crate_graph
        .crates
        .values()
        .map(|c| {
            let class = c.class.map_or("unclassified", |cl| cl.name());
            (c.dir.clone(), class.to_string())
        })
        .collect();
    Ok(Report {
        diagnostics: diags,
        files_scanned,
        crates,
    })
}

/// Apply `// lint:allow(…)` hatches to raw diagnostics. Returns the
/// surviving diagnostics plus the `(hatch line, rule)` pairs that fired.
pub fn filter_hatched(
    lexed: &lexer::Lexed,
    raw: Vec<Diagnostic>,
) -> (Vec<Diagnostic>, Vec<(usize, String)>) {
    let mut kept = Vec::new();
    let mut used = Vec::new();
    for d in raw {
        let hatch = lexed
            .allows
            .iter()
            .find(|(l, r)| r == d.rule && (*l == d.line || *l + 1 == d.line));
        match hatch {
            Some((l, r)) => {
                if !used.contains(&(*l, r.clone())) {
                    used.push((*l, r.clone()));
                }
            }
            None => kept.push(d),
        }
    }
    (kept, used)
}

/// Recursively gather `.rs` files as paths relative to `root`, skipping
/// build output, VCS metadata, and the lint crate's own fixture corpus.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("invariant: walked paths live under root")
                .to_path_buf();
            out.push(rel);
        }
    }
    Ok(())
}

/// Render diagnostics as plain text, one `file:line:rule: message` per line.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut s = String::new();
    for d in diags {
        s.push_str(&d.render());
        s.push('\n');
    }
    s
}

/// Render diagnostics as a JSON array (hand-rolled; no serde in this crate).
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut s = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.path),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// Render a full report as one JSON object — the CI artifact shape.
pub fn render_json_report(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"files_scanned\": {},\n  \"crates\": {{",
        report.files_scanned
    ));
    for (i, (dir, class)) in report.crates.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n    \"{}\": \"{}\"",
            json_escape(dir),
            json_escape(class)
        ));
    }
    if !report.crates.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("},\n  \"diagnostics\": ");
    let diags = render_json(&report.diagnostics);
    // Indent the array body two spaces to sit inside the object.
    s.push_str(diags.trim_end().replace('\n', "\n  ").as_str());
    s.push_str("\n}\n");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_shape() {
        let diags = vec![Diagnostic {
            path: "crates/x/src/a.rs".into(),
            line: 3,
            rule: "d1",
            message: "msg".into(),
        }];
        let j = render_json(&diags);
        assert!(j.contains("\"file\": \"crates/x/src/a.rs\""));
        assert!(j.contains("\"line\": 3"));
        assert!(j.starts_with('[') && j.ends_with("]\n"));
        assert_eq!(render_json(&[]), "[]\n");
    }

    #[test]
    fn json_report_shape() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                path: "crates/x/src/a.rs".into(),
                line: 3,
                rule: "b1",
                message: "msg".into(),
            }],
            files_scanned: 7,
            crates: vec![
                ("sim".to_string(), "deterministic-core".to_string()),
                ("zeta".to_string(), "unclassified".to_string()),
            ],
        };
        let j = render_json_report(&report);
        assert!(j.starts_with("{\n"), "{j}");
        assert!(j.ends_with("}\n"), "{j}");
        assert!(j.contains("\"files_scanned\": 7"));
        assert!(j.contains("\"sim\": \"deterministic-core\""));
        assert!(j.contains("\"zeta\": \"unclassified\""));
        assert!(j.contains("\"rule\": \"b1\""));
    }

    #[test]
    fn filter_hatched_reports_usage_once() {
        let lexed = lexer::lex("let a = 1; // lint:allow(d2)\nlet b = 2;\n");
        let mk = |line: usize| Diagnostic {
            path: "crates/sim/src/x.rs".into(),
            line,
            rule: "d2",
            message: "m".into(),
        };
        // Two diagnostics covered by the same hatch (own line + next line).
        let (kept, used) = filter_hatched(&lexed, vec![mk(1), mk(2)]);
        assert!(kept.is_empty());
        assert_eq!(used, vec![(1, "d2".to_string())]);
        // A diagnostic out of hatch range survives.
        let (kept, used) = filter_hatched(&lexed, vec![mk(5)]);
        assert_eq!(kept.len(), 1);
        assert!(used.is_empty());
    }
}
