//! # paldia-core
//!
//! The paper's primary contribution: the Paldia scheduling framework.
//!
//! * [`tmax`] — Equation (1): the queueing/interference overhead model and
//!   its optimal range over `y` (requests to queue vs. run via MPS).
//! * [`ysearch`] — evaluation of hardware candidates on the deciding
//!   thread: Eq. (1) y-probing on GPUs, M/D/1 sojourn estimation for the
//!   batched CPU mode.
//! * [`hwselect`] — `choose_best_HW` (cheapest-that-fits-the-SLO-slack with
//!   a within-50 ms-of-best distress fallback) and the `wait_ctr`
//!   reconfiguration hysteresis of Algorithm 1.
//! * [`jobdist`] — Job Distribution: plans → per-model spatial caps and
//!   batch sizes.
//! * [`framework`] — [`PaldiaScheduler`]: the pieces wired into a cluster
//!   `Scheduler`, including the clairvoyant Oracle variant of §VI-B.
//! * [`pool`] — the bounded worker pool behind the experiment runner,
//!   fleet shards and lint (`--jobs N` / `PALDIA_JOBS` override).

pub mod framework;
pub mod hwselect;
pub mod jobdist;
/// The bounded worker pool (moved to `paldia-sim` so the cluster's
/// sharded fleet coordinator can use it; re-exported here for callers).
pub use paldia_sim::pool;
pub mod tmax;
pub mod ysearch;

pub use framework::{PaldiaConfig, PaldiaScheduler};
pub use hwselect::{choose_best_hw, Hysteresis, SelectionConfig};
pub use tmax::TmaxInputs;
pub use ysearch::{evaluate_kind, evaluate_pool, HwEvaluation, ModelLoad, ModelPlan, PlanCache};
