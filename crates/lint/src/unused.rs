//! Rule `u1`: the unused public surface.
//!
//! A `pub` item of a program crate (deterministic-core, sim-facing or
//! shell) is live when some non-test token names it outside the item
//! itself. Callers are looked for in every walked non-test file: library
//! sources, `bin/`, `benches/`, `examples/`, the root facade and
//! `perfbench/`. Three kinds of mention do not count:
//!
//! * the item's own definition (including recursion inside its body);
//! * any `use` / `pub use` declaration — a re-export alone keeps nothing
//!   alive (an aliased leaf, `use a::Foo as Bar`, still counts for `Foo`,
//!   because later code names the alias instead);
//! * for a type, its own `impl` blocks (inherent or trait impls in the
//!   same crate).
//!
//! Matching is by name, so a dead item that shares its name with a live
//! one is missed; a live item is never flagged. Methods of
//! `impl Trait for X` are never candidates: they are not `pub`, and callers
//! reach them through the trait.

use std::collections::BTreeMap;

use crate::graph::{Class, CrateGraph};
use crate::lexer::{Lexed, Tok};
use crate::parse::FileAst;
use crate::rules::Diagnostic;

/// Keywords whose next identifier is a definition, never a mention.
const DEF_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// Per-file mention index: name → token indices of the counted mentions.
type Mentions<'a> = BTreeMap<&'a str, Vec<usize>>;

/// True when `path` holds library source whose `pub` items are candidates:
/// `crates/<c>/src/**` or the root `src/`, minus `bin/` targets and a
/// crate-root `main.rs` (a binary's `pub` items are rustc's business).
fn candidate_path(path: &str) -> bool {
    let src = match path.strip_prefix("crates/") {
        Some(rest) => rest.split_once('/').map(|(_, r)| r),
        None => Some(path),
    };
    match src.and_then(|s| s.strip_prefix("src/")) {
        Some(rel) => !rel.starts_with("bin/") && rel != "main.rs",
        None => false,
    }
}

/// Counted mentions in one file: identifiers (and `{name}` captures in
/// string literals, for inline format arguments) outside test code, `use`
/// declarations and definition names. An aliased `use` leaf counts once
/// for the original name.
fn mentions<'a>(ast: &'a FileAst, lexed: &'a Lexed) -> Mentions<'a> {
    let toks = &lexed.tokens;
    let mut skip = vec![false; toks.len()];
    for &(a, b) in lexed.test_ranges.iter().chain(&ast.use_spans) {
        for s in &mut skip[a.min(toks.len())..b.min(toks.len())] {
            *s = true;
        }
    }
    let mut out: Mentions<'a> = BTreeMap::new();
    for (i, t) in toks.iter().enumerate() {
        if skip[i] {
            continue;
        }
        match &t.tok {
            Tok::Ident(name) => {
                let def = i.checked_sub(1).is_some_and(|p| {
                    matches!(&toks[p].tok, Tok::Ident(k) if DEF_KEYWORDS.contains(&k.as_str()))
                        // `*const T` is a pointer type, not a definition.
                        && !(p > 0 && toks[p - 1].tok == Tok::Op('*'))
                });
                if !def {
                    out.entry(name.as_str()).or_default().push(i);
                }
            }
            Tok::Str(text) => {
                for name in format_captures(text) {
                    out.entry(name).or_default().push(i);
                }
            }
            _ => {}
        }
    }
    for u in &ast.uses {
        if u.alias.is_some() {
            if let Some(orig) = u.path.last() {
                out.entry(orig.as_str()).or_default().push(usize::MAX);
            }
        }
    }
    out
}

/// Identifiers captured by `{name}` / `{name:…}` in a string literal.
fn format_captures(text: &str) -> impl Iterator<Item = &str> {
    text.split('{').skip(1).filter_map(|rest| {
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..end];
        let starts_ident = name.starts_with(|c: char| c.is_alphabetic() || c == '_');
        (starts_ident && matches!(rest[end..].chars().next(), Some('}' | ':'))).then_some(name)
    })
}

/// Mentions of `name` inside the token span `[a, b)`.
fn count_in(m: &Mentions, name: &str, (a, b): (usize, usize)) -> usize {
    m.get(name).map_or(0, |v| {
        v.partition_point(|&i| i < b) - v.partition_point(|&i| i < a)
    })
}

/// Run `u1` over every walked non-test file. Diagnostics come back raw;
/// the driver applies `lint:allow(u1)` hatches.
pub fn check_u1(graph: &CrateGraph, files: &[(&FileAst, &Lexed)]) -> Vec<Diagnostic> {
    let per_file: Vec<Mentions> = files.iter().map(|(a, l)| mentions(a, l)).collect();
    let mut total: BTreeMap<&str, usize> = BTreeMap::new();
    for m in &per_file {
        for (name, v) in m {
            *total.entry(name).or_default() += v.len();
        }
    }

    let mut out = Vec::new();
    for (fi, (ast, _)) in files.iter().enumerate() {
        let in_scope = matches!(
            graph.class_of(&ast.krate),
            Some(Class::DeterministicCore | Class::SimFacing | Class::Shell)
        );
        if !in_scope || !candidate_path(&ast.path) {
            continue;
        }
        for item in &ast.items {
            let name = item.name.as_str();
            let mut own = count_in(&per_file[fi], name, item.span);
            if matches!(item.kind, "struct" | "enum" | "type" | "trait") {
                for (gi, (other, _)) in files.iter().enumerate() {
                    if other.krate != ast.krate || !candidate_path(&other.path) {
                        continue;
                    }
                    for imp in other.impls.iter().filter(|s| s.ty == name) {
                        own += count_in(&per_file[gi], name, (imp.start, imp.end));
                    }
                }
            }
            if total.get(name).copied().unwrap_or(0) > own {
                continue;
            }
            let mut qual = vec![ast.krate.as_str()];
            qual.extend(ast.module.iter().map(String::as_str));
            qual.extend(item.self_ty.as_deref());
            qual.push(name);
            out.push(Diagnostic {
                path: ast.path.clone(),
                line: item.line,
                rule: "u1",
                message: format!(
                    "pub {} `{}` has no caller outside tests; delete it, or keep it with \
                     `// lint:allow(u1) <reason>`",
                    item.kind,
                    qual.join("::")
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_paths_are_library_sources() {
        assert!(candidate_path("crates/sim/src/engine.rs"));
        assert!(candidate_path("crates/cluster/src/fleet/shard.rs"));
        assert!(candidate_path("src/lib.rs"));
        assert!(!candidate_path("crates/experiments/src/bin/repro.rs"));
        assert!(!candidate_path("crates/serve/src/main.rs"));
        assert!(!candidate_path("crates/core/benches/ysearch_latency.rs"));
        assert!(!candidate_path("perfbench/src/sim.rs"));
        assert!(!candidate_path("examples/quickstart.rs"));
    }

    #[test]
    fn format_captures_find_inline_arguments() {
        let got: Vec<&str> =
            format_captures("{BOUND} and {x:>4} but not {{ or {0} or {}").collect();
        assert_eq!(got, vec!["BOUND", "x"]);
    }
}
