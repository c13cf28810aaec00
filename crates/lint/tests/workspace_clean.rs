//! The workspace itself must be violation-free under the shipped allowlist
//! — including the boundary-graph passes (b1/b2/reach/stale-allow) and
//! with every crate classified. This is the same check `scripts/ci.sh`
//! runs via the binary; keeping it as a test means `cargo test --workspace`
//! alone catches regressions.

use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("lint crate lives at <workspace>/crates/lint")
}

#[test]
fn workspace_is_violation_free() {
    let report = paldia_lint::analyze(workspace_root()).expect("workspace is readable");
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint violations:\n{}",
        paldia_lint::render_text(&report.diagnostics)
    );
}

#[test]
fn every_workspace_crate_is_classified() {
    let report = paldia_lint::analyze(workspace_root()).expect("workspace is readable");
    let unclassified: Vec<&str> = report
        .crates
        .iter()
        .filter(|(_, c)| c == "unclassified")
        .map(|(d, _)| d.as_str())
        .collect();
    assert!(
        unclassified.is_empty(),
        "crates missing from classification.toml: {unclassified:?}"
    );
    // The manifest pins the architecture: the simulation path is
    // deterministic-core, the experiment drivers sim-facing, the CLI
    // layer shell, and the vendored shims + this analyzer tooling.
    let class = |dir: &str| -> &str {
        report
            .crates
            .iter()
            .find(|(d, _)| d == dir)
            .map(|(_, c)| c.as_str())
            .unwrap_or_else(|| panic!("crate {dir} not discovered"))
    };
    for dc in [
        "sim",
        "hw",
        "workloads",
        "traces",
        "metrics",
        "obs",
        "cluster",
        "core",
    ] {
        assert_eq!(class(dc), "deterministic-core", "{dc}");
    }
    for sf in ["baselines", "experiments"] {
        assert_eq!(class(sf), "sim-facing", "{sf}");
    }
    for sh in ["serve", "root"] {
        assert_eq!(class(sh), "shell", "{sh}");
    }
    for tl in ["lint", "proptest", "criterion"] {
        assert_eq!(class(tl), "tooling", "{tl}");
    }
    assert_eq!(report.crates.len(), 15, "{:?}", report.crates);
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// The workspace being clean must mean "the call graph reached the fenced
/// sinks and every one was a reviewed exemption", not "the graph was
/// silently empty". Re-run the reachability pass with suppression disabled:
/// the PALDIA_JOBS read inside the worker pool must then surface, with a
/// chain rooted at a simulation entry point.
#[test]
fn reach_pass_actually_walks_the_real_call_graph() {
    let root = workspace_root();
    let (graph, manifest_diags) = paldia_lint::graph::load(root).expect("workspace readable");
    assert!(
        manifest_diags.is_empty(),
        "{}",
        paldia_lint::render_text(&manifest_diags)
    );
    let asts = paldia_lint::parse_workspace(root).expect("workspace readable");
    assert!(asts.iter().any(|a| a.krate == "cluster"), "cluster parsed");

    let mut consulted = 0usize;
    let mut deny_all = |_: &str, _: usize, _: &[&str]| {
        consulted += 1;
        false
    };
    let diags = paldia_lint::reach::check_reach(&graph, &asts, &mut deny_all);
    assert!(
        consulted >= 2,
        "expected the env::var sinks in pool.rs and experiments/common.rs to be probed"
    );
    let pool_hit = diags
        .iter()
        .find(|d| d.path == "crates/sim/src/pool.rs" && d.message.contains("std::env::var"))
        .unwrap_or_else(|| {
            panic!(
                "the PALDIA_JOBS read must be reachable from a simulation seed; got:\n{}",
                paldia_lint::render_text(&diags)
            )
        });
    assert!(
        pool_hit.message.starts_with("call chain `"),
        "{}",
        pool_hit.message
    );
}
