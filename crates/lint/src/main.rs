//! CLI entry point:
//! `paldia-lint [ROOT] [--format text|json] [--json-artifact FILE] [--deny-all]`.
//!
//! Exits 0 when the tree is clean, 1 when violations are found, 2 on usage
//! or I/O errors. `--deny-all` is the CI mode: it is the default behaviour
//! today (every rule already denies), but pinning the flag in `scripts/
//! ci.sh` keeps the invocation stable if warn-only rules are ever added.
//! `--json-artifact FILE` additionally writes the full report object
//! (crate classification, file count, diagnostics) for CI to archive.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut format = "text".to_string();
    let mut artifact: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                _ => {
                    eprintln!("paldia-lint: --format takes `text` or `json`");
                    return ExitCode::from(2);
                }
            },
            "--json-artifact" => match args.next() {
                Some(f) => artifact = Some(PathBuf::from(f)),
                None => {
                    eprintln!("paldia-lint: --json-artifact takes a file path");
                    return ExitCode::from(2);
                }
            },
            "--deny-all" => {} // all rules deny by default; accepted for CI stability
            "--help" | "-h" => {
                println!(
                    "usage: paldia-lint [ROOT] [--format text|json] [--json-artifact FILE] \
                     [--deny-all]\n\
                     \n\
                     Statically checks the workspace against the determinism &\n\
                     robustness token rules d1/d2/d3/r1/r2, the crate-boundary\n\
                     rules b1/b2, the fenced-symbol reachability gate, the\n\
                     unused-pub-surface rule u1, and the stale-hatch audit\n\
                     (see crates/lint/README.md and\n\
                     DESIGN.md \u{a7}13). Exits 1 if any violation is found.\n\
                     --json-artifact writes the full report object (crate\n\
                     classes, file count, diagnostics) to FILE for CI."
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("paldia-lint: unknown flag `{flag}` (try --help)");
                return ExitCode::from(2);
            }
            path => root = PathBuf::from(path),
        }
    }

    let started = Instant::now();
    let report = match paldia_lint::analyze(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("paldia-lint: error walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed_ms = started.elapsed().as_millis();
    let diags = &report.diagnostics;

    if let Some(path) = &artifact {
        if let Err(e) = std::fs::write(path, paldia_lint::render_json_report(&report)) {
            eprintln!("paldia-lint: error writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if format == "json" {
        print!("{}", paldia_lint::render_json(diags));
    } else {
        print!("{}", paldia_lint::render_text(diags));
        let unclassified = report
            .crates
            .iter()
            .filter(|(_, c)| c == "unclassified")
            .count();
        let classified = report.crates.len() - unclassified;
        if diags.is_empty() {
            println!(
                "paldia-lint: clean — {} files, {classified} crates classified, {elapsed_ms} ms",
                report.files_scanned
            );
        } else {
            println!(
                "paldia-lint: {} violation(s) — {} files, {classified} crates classified, \
                 {elapsed_ms} ms",
                diags.len(),
                report.files_scanned
            );
        }
    }

    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
