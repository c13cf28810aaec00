//! The parallel experiment executor.
//!
//! Every figure/table decomposes into independent `(scheme × seed-rep)`
//! cells: one full simulation each, no shared mutable state. [`run_grid`]
//! flattens a figure's cells into `(cell, rep)` subcells, executes them on
//! the bounded worker pool in `paldia_core::pool` (cap =
//! `available_parallelism`, overridable via `repro --jobs N` or
//! `PALDIA_JOBS`), and merges results back **in cell order**.
//!
//! Determinism: each subcell owns its scheduler, its plan cache, and its
//! RNG (`seed_base + rep`), and results are merged by index rather than by
//! completion — so the merged output is bit-identical to a serial run,
//! regardless of worker count or scheduling. The regression test
//! `tests/parallel_determinism.rs` pins this down with `f64::to_bits`
//! comparisons.

use crate::common::{run_once, RunOpts, SchemeKind};
use paldia_cluster::{RunResult, SimConfig, WorkloadSpec};
use paldia_core::pool;
use paldia_hw::Catalog;

/// One independent experiment cell: a scheme over fixed workloads/config.
/// Repetition seeds are applied by the runner.
pub struct GridCell {
    /// The policy to instantiate.
    pub scheme: SchemeKind,
    /// The workload mix this cell simulates.
    pub workloads: Vec<WorkloadSpec>,
    /// Simulation config; `seed` is overwritten per repetition with
    /// `opts.seed_base + rep`.
    pub cfg: SimConfig,
}

impl GridCell {
    pub fn new(scheme: SchemeKind, workloads: Vec<WorkloadSpec>, cfg: SimConfig) -> Self {
        GridCell {
            scheme,
            workloads,
            cfg,
        }
    }
}

/// Execute every `(cell, rep)` subcell across the bounded pool and return
/// per-cell repetition vectors, in the order the cells were given.
pub fn run_grid(cells: Vec<GridCell>, catalog: &Catalog, opts: &RunOpts) -> Vec<Vec<RunResult>> {
    let reps = opts.reps.max(1) as usize;
    let flat = pool::run_indexed(cells.len() * reps, |i| {
        let cell = &cells[i / reps];
        let mut cfg = cell.cfg.clone();
        cfg.seed = opts.seed_base + (i % reps) as u64;
        // Grid-level fault schedule: cells that carry their own plan
        // (Fig. 13b builds per-cell configs) keep it; everything else
        // inherits the opts-level one.
        if let Some(plan) = &opts.faults {
            if cfg.faults.is_empty() {
                cfg.faults = plan.clone();
                cfg.failover = opts.failover;
            }
        }
        run_once(&cell.scheme, &cell.workloads, catalog, &cfg)
    });
    // `flat` is cell-major ((cell 0, rep 0), (cell 0, rep 1), …), so
    // regrouping is a plain chunk.
    let mut out = Vec::with_capacity(cells.len());
    let mut it = flat.into_iter();
    for _ in 0..cells.len() {
        out.push(it.by_ref().take(reps).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_sim::SimDuration;
    use paldia_traces::RateTrace;
    use paldia_workloads::MlModel;

    fn tiny_cell(rps: f64) -> GridCell {
        GridCell::new(
            SchemeKind::Paldia,
            vec![WorkloadSpec::new(
                MlModel::ResNet50,
                RateTrace::constant(rps, SimDuration::from_secs(10), SimDuration::from_secs(1)),
            )],
            SimConfig::default(),
        )
    }

    #[test]
    fn grid_shape_is_cell_major() {
        let catalog = Catalog::table_ii();
        let opts = RunOpts {
            reps: 3,
            seed_base: 11,
            ..RunOpts::quick()
        };
        let grid = run_grid(vec![tiny_cell(20.0), tiny_cell(60.0)], &catalog, &opts);
        assert_eq!(grid.len(), 2);
        assert!(grid.iter().all(|reps| reps.len() == 3));
        // Higher-rate cell completes more requests in every repetition.
        for (lo, hi) in grid[0].iter().zip(grid[1].iter()) {
            assert!(hi.completed.len() > lo.completed.len());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let catalog = Catalog::table_ii();
        let opts = RunOpts {
            reps: 2,
            seed_base: 1,
            ..RunOpts::quick()
        };
        assert!(run_grid(Vec::new(), &catalog, &opts).is_empty());
    }
}
