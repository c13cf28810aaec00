//! Pass 3 of the boundary-graph analyzer: interprocedural reachability.
//!
//! Builds an approximate call graph over every classified non-tooling
//! crate's parsed fns and walks it from the simulation entry points — the
//! free fn `run` in `paldia-cluster`, fn names starting
//! `run_simulation`/`run_fleet`/`run_replay`, and `PaldiaScheduler`
//! methods — looking for paths to **fenced symbols**: `Instant`,
//! `SystemTime`, `HashMap`, `HashSet` constructors/associated fns,
//! `std::env::var`/`var_os`, and `std::thread::spawn`. A hit is reported as
//! a full call-chain narrative so the reader can see *how* the entry point
//! reaches the wall clock, not just that it does.
//!
//! Approximations, chosen to fail safe for this workspace's idioms:
//!
//! * Edges are name-matched. A qualified call (`helper::phase()`) only
//!   binds to fns whose crate, module, or impl type matches the qualifier;
//!   a bare call binds within its own crate; a `.method()` call binds to
//!   any same-closure fn of that name. All edges are further restricted to
//!   the caller crate's `[dependencies]` closure, so a crate can never
//!   acquire an edge into a crate it cannot link against.
//! * Only path-form sinks count (`Instant::now()`, `std::thread::spawn`).
//!   The method-form `scope.spawn(..)` of `std::thread::scope` is
//!   deliberately not fenced: scoped pools join before the tick advances
//!   and are already covered by the pool's determinism tests.
//! * A fenced call site suppressed by its governing token rule's hatch or
//!   allowlist entry (`d1` for hash containers, `d2` for clocks/env), or by
//!   an explicit `reach` hatch, is a reviewed exemption and not a sink.
//!
//! BFS from all seeds with sorted adjacency gives deterministic shortest
//! chains; one narrative is emitted per distinct sink site.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::graph::{fenced_target, Class, CrateGraph};
use crate::parse::FileAst;
use crate::rules::Diagnostic;

/// Seed predicate: simulation entry points in crate `krate`. The free fn
/// `run` in `cluster` is the one batch entry point; `run_replay` is the
/// serving shell's shared replay driver (DESIGN.md §14) — seeding it
/// proves the session executor path a live `paldia-serve` session runs is
/// as fenced from the wall clock as the batch engines.
fn is_seed(krate: &str, f: &crate::parse::FnItem) -> bool {
    if f.self_ty.is_none() && f.name == "run" && krate == "cluster" {
        return true;
    }
    if f.name.starts_with("run_simulation")
        || f.name.starts_with("run_fleet")
        || f.name.starts_with("run_replay")
    {
        return true;
    }
    f.self_ty.as_deref() == Some("PaldiaScheduler")
}

/// The token rule that governs a fenced symbol, when one does: its hatch
/// or allowlist entry doubles as a reviewed reach exemption.
fn governing_rule(canon: &str) -> Option<&'static str> {
    if canon.starts_with("std::collections::") {
        Some("d1")
    } else if canon.starts_with("std::time::") || canon.starts_with("std::env") {
        Some("d2")
    } else {
        None
    }
}

struct FnNode {
    ast_idx: usize,
    fn_idx: usize,
    display: String,
    krate: String,
    class: Class,
    is_seed: bool,
    /// Resolved call-graph edges (node indices), sorted.
    edges: Vec<usize>,
    /// Unsuppressed fenced call sites: (line, canonical symbol).
    sinks: Vec<(usize, String)>,
}

/// Run the reachability pass. `suppress(path, line, rules)` must return
/// true when any of `rules` has a hatch or allowlist entry covering the
/// site — and record that usage for the stale-allow audit.
pub fn check_reach(
    graph: &CrateGraph,
    asts: &[FileAst],
    suppress: &mut dyn FnMut(&str, usize, &[&str]) -> bool,
) -> Vec<Diagnostic> {
    // Per-file import map: bound name → full path as written.
    let aliases: Vec<BTreeMap<&str, &[String]>> = asts
        .iter()
        .map(|ast| {
            let mut m = BTreeMap::new();
            for u in &ast.uses {
                if u.glob || u.alias.is_none() && u.path.len() < 2 {
                    continue;
                }
                if let Some(b) = u.binding() {
                    m.entry(b).or_insert(&u.path[..]);
                }
            }
            m
        })
        .collect();

    // Nodes: every fn of a classified, non-tooling crate, in file order
    // (asts arrive path-sorted, fns in token order) — a stable id space.
    let mut nodes: Vec<FnNode> = Vec::new();
    for (ai, ast) in asts.iter().enumerate() {
        let Some(class) = graph.class_of(&ast.krate) else {
            continue;
        };
        if class == Class::Tooling {
            continue;
        }
        for (fi, f) in ast.fns.iter().enumerate() {
            nodes.push(FnNode {
                ast_idx: ai,
                fn_idx: fi,
                display: ast.qualify(f),
                krate: ast.krate.clone(),
                class,
                is_seed: matches!(class, Class::DeterministicCore | Class::SimFacing)
                    && is_seed(&ast.krate, f),
                edges: Vec::new(),
                sinks: Vec::new(),
            });
        }
    }

    // Name index for edge candidates.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, n) in nodes.iter().enumerate() {
        let f = &asts[n.ast_idx].fns[n.fn_idx];
        by_name.entry(&f.name).or_default().push(i);
    }
    let closures: BTreeMap<&str, Vec<String>> = nodes
        .iter()
        .map(|n| (&n.krate[..], graph.dep_closure(&n.krate)))
        .collect();

    // Resolve each call site to sinks and edges: per node, the outgoing
    // edge targets plus the (line, canonical path) fenced sinks.
    type Resolved = (Vec<usize>, Vec<(usize, String)>);
    let mut resolved: Vec<Resolved> = Vec::new();
    for n in &nodes {
        let ast = &asts[n.ast_idx];
        let f = &ast.fns[n.fn_idx];
        let alias = &aliases[n.ast_idx];
        let closure = &closures[&n.krate[..]];
        let mut edges = Vec::new();
        let mut sinks = Vec::new();
        for call in &f.calls {
            // Splice the file's imports into the call path.
            let path: Vec<String> = match call.path.first().map(String::as_str) {
                Some(first) if !call.method => match alias.get(first) {
                    Some(target) => {
                        let mut p = target.to_vec();
                        p.extend(call.path.iter().skip(1).cloned());
                        p
                    }
                    None => call.path.clone(),
                },
                _ => call.path.clone(),
            };
            if !call.method {
                if let Some(canon) = fenced_target(&path) {
                    let mut rules: Vec<&str> = Vec::with_capacity(2);
                    if let Some(r) = governing_rule(&canon) {
                        rules.push(r);
                    }
                    rules.push("reach");
                    if !suppress(&ast.path, call.line, &rules) {
                        sinks.push((call.line, canon));
                    }
                    continue;
                }
            }
            let Some(leaf) = path.last() else { continue };
            let Some(cands) = by_name.get(leaf.as_str()) else {
                continue;
            };
            for &c in cands {
                let t = &nodes[c];
                if !closure.iter().any(|d| d == &t.krate) {
                    continue;
                }
                if call.method {
                    edges.push(c);
                    continue;
                }
                if path.len() == 1 {
                    if t.krate == n.krate {
                        edges.push(c);
                    }
                    continue;
                }
                let qual = &path[path.len() - 2];
                if qualifier_matches(qual, t, asts, &n.krate) {
                    edges.push(c);
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        resolved.push((edges, sinks));
    }
    for (n, (edges, sinks)) in nodes.iter_mut().zip(resolved) {
        n.edges = edges;
        n.sinks = sinks;
    }

    // Multi-source BFS from the seeds, parents giving shortest chains.
    let mut parent: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut visited: Vec<bool> = vec![false; nodes.len()];
    let mut queue = VecDeque::new();
    for (i, n) in nodes.iter().enumerate() {
        if n.is_seed {
            visited[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(cur) = queue.pop_front() {
        for &next in &nodes[cur].edges {
            if !visited[next] {
                visited[next] = true;
                parent[next] = Some(cur);
                queue.push_back(next);
            }
        }
    }

    // One narrative per distinct sink site, in node order.
    let mut diags = Vec::new();
    let mut reported: Vec<(usize, usize)> = Vec::new();
    for (i, n) in nodes.iter().enumerate() {
        if !visited[i] || n.sinks.is_empty() {
            continue;
        }
        let mut chain = vec![i];
        while let Some(p) = parent[*chain.last().expect("chain is non-empty")] {
            chain.push(p);
        }
        chain.reverse();
        for (line, canon) in &n.sinks {
            if reported.contains(&(n.ast_idx, *line)) {
                continue;
            }
            reported.push((n.ast_idx, *line));
            let names = chain
                .iter()
                .map(|&k| format!("`{}`", nodes[k].display))
                .collect::<Vec<_>>()
                .join(" \u{2192} ");
            let crossing = chain
                .windows(2)
                .find(|w| nodes[w[0]].class != nodes[w[1]].class)
                .map(|w| {
                    format!(
                        ", crossing {}\u{2192}{} at `{}`",
                        nodes[w[0]].class.name(),
                        nodes[w[1]].class.name(),
                        nodes[w[1]].display,
                    )
                })
                .unwrap_or_default();
            diags.push(Diagnostic {
                path: asts[n.ast_idx].path.clone(),
                line: *line,
                rule: "reach",
                message: format!("call chain {names} reaches fenced `{canon}`{crossing}"),
            });
        }
    }
    diags
}

/// Does `qual` plausibly name the crate, module, or impl type of `t`?
fn qualifier_matches(qual: &str, t: &FnNode, asts: &[FileAst], caller_krate: &str) -> bool {
    if qual == "crate" || qual == "self" || qual == "super" || qual == "Self" {
        return t.krate == caller_krate;
    }
    let ast = &asts[t.ast_idx];
    let f = &ast.fns[t.fn_idx];
    if t.krate == qual || t.krate.replace('-', "_") == qual {
        return true;
    }
    if ast.module.last().is_some_and(|m| m == qual) {
        return true;
    }
    f.self_ty.as_deref() == Some(qual)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn governing_rules_map_to_token_rules() {
        assert_eq!(governing_rule("std::collections::HashMap::new"), Some("d1"));
        assert_eq!(governing_rule("std::time::Instant::now"), Some("d2"));
        assert_eq!(governing_rule("std::env::var"), Some("d2"));
        assert_eq!(governing_rule("std::thread::spawn"), None);
    }

    #[test]
    fn seed_patterns() {
        use crate::lexer::lex;
        use crate::parse::parse;
        let src = "
pub fn run_simulation_sharded() {}
pub fn run_fleet_traced() {}
pub fn run_replay_virtual() {}
pub fn helper() {}
pub struct PaldiaScheduler;
impl PaldiaScheduler { pub fn submit(&self) {} }
pub struct Other;
impl Other { pub fn submit(&self) {} }
";
        let ast = parse("crates/demo/src/lib.rs", &lex(src));
        let seeded: Vec<(&str, bool)> = ast
            .fns
            .iter()
            .map(|f| (f.name.as_str(), is_seed(&ast.krate, f)))
            .collect();
        assert_eq!(
            seeded,
            vec![
                ("run_simulation_sharded", true),
                ("run_fleet_traced", true),
                ("run_replay_virtual", true),
                ("helper", false),
                ("submit", true),
                ("submit", false),
            ]
        );
        // The free fn `run` seeds in `cluster` only; `run_to` and a `run`
        // method never do.
        let src = "pub fn run() {}\npub fn run_to() {}\nimpl Partition { pub fn run(&self) {} }\n";
        for (path, free_run) in [
            ("crates/cluster/src/harness.rs", true),
            ("crates/demo/src/lib.rs", false),
        ] {
            let ast = parse(path, &lex(src));
            let seeded: Vec<bool> = ast.fns.iter().map(|f| is_seed(&ast.krate, f)).collect();
            assert_eq!(seeded, [free_run, false, false], "{path}");
        }
    }
}
