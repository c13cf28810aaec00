//! The shipped allowlist: per-rule exemptions for whole files, each with a
//! recorded justification. Policy (see `crates/lint/README.md`):
//!
//! - `d1` and `d3` MUST stay empty — iteration-order and float-ordering
//!   nondeterminism have no acceptable production exemptions; fix the code.
//! - `b1`, `b2`, and `reach` MUST stay empty too — a boundary violation is
//!   fixed in the dependency graph or the re-export, never waved through
//!   (an individual fenced *call site* may carry an inline `reach` hatch
//!   after review; whole files may not).
//! - `d2`, `r1`, `r2` entries are allowed but each must carry a concrete
//!   justification explaining why the site cannot affect replay or safety.
//! - Prefer the inline `// lint:allow(<rule>)` hatch for single sites; a
//!   table entry is for files where the pattern is pervasive and reviewed.
//! - Entries that stop suppressing anything are flagged by the
//!   `stale-allow` audit and must be pruned.

/// One allowlist entry: rule id, path suffix it applies to, justification.
pub struct Allow {
    pub rule: &'static str,
    /// Matched against the end of the relative path (`/`-separated).
    pub path_suffix: &'static str,
    pub why: &'static str,
}

/// The shipped allowlist. Keep this SHORT; every entry is review surface.
pub const ALLOWLIST: &[Allow] = &[Allow {
    rule: "d2",
    path_suffix: "crates/sim/src/pool.rs",
    why: "PALDIA_JOBS env read only caps the worker-thread count; results \
          are bit-identical at any job count (crates/experiments/tests/\
          parallel_determinism.rs proves it), so the read cannot affect \
          replay.",
}];

/// True when `path` is exempt from `rule` via the shipped table.
pub fn allowed(rule: &str, path: &str) -> bool {
    entry_index(rule, path).is_some()
}

/// Index of the entry exempting `path` from `rule`, if one does. The driver
/// records fired indices so the stale-allow audit can flag dead entries.
pub fn entry_index(rule: &str, path: &str) -> Option<usize> {
    ALLOWLIST
        .iter()
        .position(|a| a.rule == rule && path.ends_with(a.path_suffix))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d1_and_d3_allowlists_are_empty() {
        assert!(
            !ALLOWLIST.iter().any(|a| a.rule == "d1" || a.rule == "d3"),
            "d1/d3 must ship with an empty allowlist"
        );
    }

    #[test]
    fn boundary_allowlists_are_empty() {
        for a in ALLOWLIST {
            assert!(
                !crate::rules::BOUNDARY_RULES.contains(&a.rule),
                "{}: boundary rules (b1/b2/reach/u1/stale-allow) must ship with an \
                 empty allowlist; fix the graph instead",
                a.rule
            );
        }
    }

    #[test]
    fn every_entry_has_a_justification() {
        for a in ALLOWLIST {
            assert!(
                a.why.len() > 20,
                "entry {}:{} needs a real why",
                a.rule,
                a.path_suffix
            );
        }
    }

    #[test]
    fn suffix_matching() {
        assert!(allowed("d2", "crates/sim/src/pool.rs"));
        assert!(!allowed("d2", "crates/core/src/framework.rs"));
        assert!(!allowed("r1", "crates/sim/src/pool.rs"));
    }
}
