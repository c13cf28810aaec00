//! The rule set: which patterns are violations, and where each rule binds.
//!
//! Rules operate on the token stream produced by [`crate::lexer`], so
//! comments and string contents never trip them. Scoping is by path:
//! vendored shims (`proptest`, `criterion`), the CLI layer (any `/bin/`
//! path, the root `src/` facade), and test
//! code (`/tests/`, `/benches/`, `/examples/`, `#[cfg(test)]` items) are
//! exempt — the determinism contract binds the production simulation path,
//! and test-side determinism is enforced dynamically by
//! `tests/determinism_replay.rs`.

use crate::lexer::{Lexed, Tok};

/// One diagnostic: `file:line:rule: message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the scanned root, with `/` separators.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule id: a token rule (`d1`, `d2`, `d3`, `r1`, `r2`) or an analyzer
    /// rule (`b1`, `b2`, `reach`, `u1`, `stale-allow`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Crates whose simulation output must replay bit-identically: any
/// iteration-order or float-order nondeterminism here corrupts experiments.
pub const SIM_FACING: &[&str] = &["sim", "cluster", "core", "baselines", "experiments", "obs"];

/// Crates that must be free of wall-clock and entropy sources (everything
/// the simulations and their inputs/outputs flow through).
pub const DETERMINISTIC: &[&str] = &[
    "sim",
    "cluster",
    "core",
    "baselines",
    "experiments",
    "hw",
    "workloads",
    "traces",
    "metrics",
    "obs",
];

/// Library crates where panicking shortcuts are banned (rule R1).
pub const LIBRARY: &[&str] = &["cluster", "core", "sim", "hw", "workloads", "obs"];

/// Files whose integer casts feed event keys or time arithmetic (rule R2).
pub const R2_FILES: &[&str] = &["crates/sim/src/event.rs", "crates/sim/src/time.rs"];

/// Integer types an `as` cast can truncate into.
const NARROWING: &[&str] = &[
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize",
];

/// All token-level rule ids, for `--rule` validation and docs.
pub const ALL_RULES: &[&str] = &["d1", "d2", "d3", "r1", "r2"];

/// Workspace-analyzer rule ids (crate graph, re-export fence, reachability,
/// unused public surface, and the stale-hatch audit).
pub const BOUNDARY_RULES: &[&str] = &["b1", "b2", "reach", "u1", "stale-allow"];

/// True when `path` (relative, `/`-separated) is exempt from every
/// token-level rule. The analyzer passes still see exempt crates through
/// their manifests; `crates/lint` itself is scanned so the stale-hatch
/// audit covers the analyzer's own sources.
pub fn exempt_path(path: &str) -> bool {
    let skip_crates = ["crates/proptest/", "crates/criterion/"];
    if skip_crates.iter().any(|p| path.starts_with(p)) {
        return true;
    }
    // Test/bench/example code and the CLI layer.
    if path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.contains("/bin/")
        || path.starts_with("tests/")
        || path.starts_with("examples/")
        || path.starts_with("benches/")
    {
        return true;
    }
    // The root `src/` facade + CLI entry points.
    if path.starts_with("src/") {
        return true;
    }
    false
}

/// The crate name a path belongs to (`crates/<name>/…`), if any.
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn in_scope(path: &str, scope: &[&str]) -> bool {
    crate_of(path).is_some_and(|c| scope.contains(&c))
}

/// Run every applicable token rule over one lexed file. Diagnostics come
/// back **raw** — `// lint:allow(…)` hatches and the allowlist are applied
/// by the driver ([`crate::filter_hatched`] and the allowlist filter in
/// `analyze`), which records which suppressions actually fired so the
/// stale-hatch audit can flag the ones that no longer do.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if exempt_path(path) {
        return out;
    }
    let toks = &lexed.tokens;

    let mut push = |i: usize, rule: &'static str, message: String| {
        let line = toks[i].line;
        out.push(Diagnostic {
            path: path.to_string(),
            line,
            rule,
            message,
        });
    };

    let d1 = in_scope(path, SIM_FACING);
    let d2 = in_scope(path, DETERMINISTIC);
    let d3 = in_scope(path, SIM_FACING);
    let r1 = in_scope(path, LIBRARY);
    let r2 = R2_FILES.iter().any(|f| path.ends_with(f));

    for i in 0..toks.len() {
        if lexed.in_test_code(i) {
            continue;
        }
        let ident = match &toks[i].tok {
            Tok::Ident(s) => Some(s.as_str()),
            _ => None,
        };

        // D1 — hash-based collections in sim-facing crates. Conservative by
        // design: *any* mention is flagged, because a map that is only ever
        // probed today is one `for (k, v) in` away from nondeterminism.
        if d1 {
            if let Some(name @ ("HashMap" | "HashSet")) = ident {
                push(
                    i,
                    "d1",
                    format!(
                        "`{name}` in a sim-facing crate: iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or an \
                         explicit sorted collect"
                    ),
                );
            }
        }

        // D2 — wall-clock / entropy sources in deterministic crates.
        if d2 {
            match ident {
                Some(name @ ("Instant" | "SystemTime")) => push(
                    i,
                    "d2",
                    format!(
                        "`{name}` in a deterministic crate: wall-clock reads \
                         diverge between runs; use SimTime"
                    ),
                ),
                Some("env")
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op(':')))
                        && matches!(toks.get(i + 2).map(|t| &t.tok), Some(Tok::Op(':')))
                        && matches!(
                            toks.get(i + 3).map(|t| &t.tok),
                            Some(Tok::Ident(s)) if s == "var" || s == "var_os"
                        ) =>
                {
                    push(
                        i,
                        "d2",
                        "`env::var` in a deterministic crate: environment \
                         reads belong in the CLI/bench layer"
                            .to_string(),
                    )
                }
                _ => {}
            }
        }

        // D3 — float (in)equality and partial_cmp().unwrap() ordering.
        if d3 {
            // `==` / `!=` with a float-literal operand. The lexer yields
            // `==` as two '=' ops and `!=` as '!' '='.
            if let Tok::Op('=') = toks[i].tok {
                let prev = i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok);
                let next_is_eq = matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op('=')));
                // `a == b`: this is the FIRST `=` of the pair; operands sit
                // at i-1 / i+2. `a != b`: this is the lone `=` after `!`;
                // operands sit at i-2 / i+1.
                let is_eq = next_is_eq && !matches!(prev, Some(Tok::Op('=' | '!' | '<' | '>')));
                let is_ne = matches!(prev, Some(Tok::Op('!'))) && !next_is_eq;
                if is_eq || is_ne {
                    let lhs_float = matches!(
                        i.checked_sub(if is_ne { 2 } else { 1 })
                            .and_then(|p| toks.get(p))
                            .map(|t| &t.tok),
                        Some(Tok::Float)
                    );
                    let rhs_float = matches!(
                        toks.get(i + if is_eq { 2 } else { 1 }).map(|t| &t.tok),
                        Some(Tok::Float)
                    );
                    if lhs_float || rhs_float {
                        push(
                            i,
                            "d3",
                            "float equality comparison: exact f64 compares are \
                             not a stable ordering key; compare integers, bits, \
                             or a clamped range"
                                .to_string(),
                        );
                    }
                }
            }
            // `partial_cmp(…).unwrap()` / `.expect(…)`.
            if ident == Some("partial_cmp") {
                if let Some(end) = matching_close(toks, i + 1) {
                    let chained_unwrap =
                        matches!(toks.get(end + 1).map(|t| &t.tok), Some(Tok::Op('.')))
                            && matches!(
                                toks.get(end + 2).map(|t| &t.tok),
                                Some(Tok::Ident(s)) if s == "unwrap" || s == "expect"
                            );
                    if chained_unwrap {
                        push(
                            i,
                            "d3",
                            "`partial_cmp().unwrap()` is not a total order over \
                             floats (NaN panics, -0.0/0.0 ties); use total_cmp \
                             or an integer key"
                                .to_string(),
                        );
                    }
                }
            }
        }

        // R1 — panicking shortcuts in library crates.
        if r1 {
            match ident {
                Some("unwrap")
                    if matches!(
                        i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok),
                        Some(Tok::Op('.'))
                    ) && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op('('))) =>
                {
                    push(
                        i,
                        "r1",
                        "bare `unwrap()` in a library crate: return a typed \
                         error or use expect(\"invariant: …\")"
                            .to_string(),
                    )
                }
                Some("expect")
                    if matches!(
                        i.checked_sub(1).and_then(|p| toks.get(p)).map(|t| &t.tok),
                        Some(Tok::Op('.'))
                    ) && matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op('('))) =>
                {
                    let ok = matches!(
                        toks.get(i + 2).map(|t| &t.tok),
                        Some(Tok::Str(s)) if s.starts_with("invariant: ")
                    );
                    if !ok {
                        push(
                            i,
                            "r1",
                            "`expect` in a library crate must state its \
                             invariant: expect(\"invariant: …\")"
                                .to_string(),
                        )
                    }
                }
                Some(name @ ("panic" | "todo" | "unimplemented"))
                    if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Op('!'))) =>
                {
                    push(
                        i,
                        "r1",
                        format!(
                            "`{name}!` in a library crate: return a typed error \
                             (assert!/debug_assert! stay allowed for invariants)"
                        ),
                    )
                }
                _ => {}
            }
        }

        // R2 — narrowing `as` casts in event-key/time arithmetic.
        if r2 && ident == Some("as") {
            if let Some(Tok::Ident(ty)) = toks.get(i + 1).map(|t| &t.tok) {
                if NARROWING.contains(&ty.as_str()) {
                    push(
                        i,
                        "r2",
                        format!(
                            "`as {ty}` in event-key/time arithmetic can \
                             truncate silently; use try_from or the u128 key \
                             helpers"
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Given the index of an opening `(`, return the index of its matching `)`.
fn matching_close(toks: &[crate::lexer::Token], open: usize) -> Option<usize> {
    if !matches!(toks.get(open).map(|t| &t.tok), Some(Tok::Op('('))) {
        return None;
    }
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Op('(') => depth += 1,
            Tok::Op(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diags(path: &str, src: &str) -> Vec<(usize, &'static str)> {
        check_file(path, &lex(src))
            .into_iter()
            .map(|d| (d.line, d.rule))
            .collect()
    }

    #[test]
    fn d1_flags_hash_collections_only_in_scope() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(diags("crates/cluster/src/x.rs", src), vec![(1, "d1")]);
        assert_eq!(diags("crates/metrics/src/x.rs", src), vec![]);
    }

    #[test]
    fn d2_flags_clock_and_env() {
        let src = "let t = Instant::now();\nlet v = std::env::var(\"X\");\n";
        assert_eq!(
            diags("crates/traces/src/x.rs", src),
            vec![(1, "d2"), (2, "d2")]
        );
    }

    #[test]
    fn d3_flags_float_eq_and_partial_cmp_unwrap() {
        let src = "if x == 1.0 {}\nlet o = a.partial_cmp(&b).unwrap();\nif n == 3 {}\n";
        // sim is both sim-facing and a library crate, so the bare unwrap
        // also trips r1 — rules compose.
        assert_eq!(
            diags("crates/sim/src/x.rs", src),
            vec![(1, "d3"), (2, "d3"), (2, "r1")]
        );
    }

    #[test]
    fn d3_flags_float_not_equal() {
        let src = "if x != 0.5 {}\nif 2.0 != y {}\nif a != b {}\nlet z = !flag;\n";
        assert_eq!(
            diags("crates/sim/src/x.rs", src),
            vec![(1, "d3"), (2, "d3")]
        );
    }

    #[test]
    fn d3_ignores_comparison_operators_near_floats() {
        let src = "if x <= 1.0 {}\nif x >= 0.5 {}\nif x < 2.0 {}\n";
        assert_eq!(diags("crates/sim/src/x.rs", src), vec![]);
    }

    #[test]
    fn r1_flags_unwrap_weak_expect_and_panic() {
        let src = "let a = x.unwrap();\nlet b = y.expect(\"\");\nlet c = z.expect(\"short\");\npanic!(\"boom\");\nlet ok = w.expect(\"invariant: held\");\n";
        assert_eq!(
            diags("crates/core/src/x.rs", src),
            vec![(1, "r1"), (2, "r1"), (3, "r1"), (4, "r1")]
        );
    }

    #[test]
    fn r1_ignores_unwrap_or_family() {
        let src = "let a = x.unwrap_or(3);\nlet b = y.unwrap_or_default();\nlet c = z.unwrap_or_else(|| 4);\n";
        assert_eq!(diags("crates/core/src/x.rs", src), vec![]);
    }

    #[test]
    fn r2_scoped_to_key_and_time_files() {
        let src = "let x = (k >> 64) as u64;\nlet y = v as u128;\n";
        assert_eq!(diags("crates/sim/src/event.rs", src), vec![(1, "r2")]);
        assert_eq!(diags("crates/sim/src/engine.rs", src), vec![]);
    }

    #[test]
    fn hatches_are_left_to_the_driver_but_test_code_is_skipped() {
        let src = "use std::collections::HashMap; // lint:allow(d1)\n#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n";
        let lexed = lex(src);
        let raw = check_file("crates/cluster/src/x.rs", &lexed);
        assert_eq!(
            raw.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>(),
            vec![(1, "d1")],
            "check_file reports raw diagnostics; the unwrap in test code stays skipped"
        );
        let (kept, used) = crate::filter_hatched(&lexed, raw);
        assert!(kept.is_empty(), "the driver applies the hatch: {kept:?}");
        assert_eq!(used, vec![(1, "d1".to_string())]);
    }

    #[test]
    fn exemptions() {
        assert!(exempt_path("crates/proptest/src/lib.rs"));
        assert!(exempt_path("crates/experiments/src/bin/repro.rs"));
        assert!(exempt_path("crates/sim/tests/properties.rs"));
        assert!(exempt_path("src/bin/paldia-run.rs"));
        assert!(exempt_path("tests/headline_shapes.rs"));
        assert!(!exempt_path("crates/sim/src/event.rs"));
        assert!(
            !exempt_path("crates/lint/src/lib.rs"),
            "the analyzer scans its own sources"
        );
    }

    #[test]
    fn rule_id_sets_are_disjoint() {
        for b in BOUNDARY_RULES {
            assert!(!ALL_RULES.contains(b), "{b} is in both rule sets");
        }
    }
}
