//! # Paldia — SLO-compliant, cost-effective serverless scheduling on heterogeneous hardware
//!
//! A from-scratch Rust reproduction of *"Paldia: Enabling SLO-Compliant and
//! Cost-Effective Serverless Computing on Heterogeneous Hardware"*
//! (Bhasi et al., IPDPS 2024): the scheduling framework itself plus every
//! substrate its evaluation depends on, rebuilt as a deterministic
//! discrete-event simulation.
//!
//! ## Crate map
//!
//! | Facade module | Crate | What lives there |
//! |---|---|---|
//! | [`sim`] | `paldia-sim` | deterministic DES engine, RNG, time types |
//! | [`hw`] | `paldia-hw` | Table II catalog, GPU/CPU/power models, MPS interference |
//! | [`workloads`] | `paldia-workloads` | the 16 ML model profiles + SeBS workloads |
//! | [`traces`] | `paldia-traces` | Azure/Wikipedia/Twitter/Poisson traces, predictors, CSV I/O |
//! | [`cluster`] | `paldia-cluster` | the serverless substrate: batching, containers, autoscaling, devices |
//! | [`core`] | `paldia-core` | Eq. (1), Algorithm 1, the Paldia scheduler and Oracle |
//! | [`baselines`] | `paldia-baselines` | INFless/Llama, Molecule (beta), Fig. 1 schemes, rate limiting |
//! | [`metrics`] | `paldia-metrics` | SLO/latency/cost/power/utilization metrics, tables, sparklines |
//! | [`obs`] | `paldia-obs` | request spans, scheduler decision logs, chrome-trace export |
//! | [`experiments`] | `paldia-experiments` | one module per paper figure/table + ablations, run by `repro` |
//! | — (binary crate) | `paldia-serve` | wall-clock serving shell: TCP front end, load generator, differential gate (DESIGN.md §14, OPERATIONS.md) |
//!
//! ## Five-minute tour
//!
//! ```
//! use paldia::prelude::*;
//!
//! // A workload: SENet-18 under a short constant-rate trace.
//! let trace = RateTrace::constant(120.0, SimDuration::from_secs(60), SimDuration::from_secs(1));
//! let workload = WorkloadSpec::new(MlModel::SeNet18, trace);
//!
//! // Serve it with Paldia on the Table II cluster.
//! let mut scheduler = PaldiaScheduler::new();
//! let cfg = SimConfig::with_seed(7);
//! let result = run(RunSpec::lone(
//!     &[workload],
//!     &mut scheduler,
//!     InstanceKind::G3s_xlarge, // start warm on the cheap GPU node
//!     Catalog::table_ii(),
//!     &cfg,
//! ))
//! .into_lone();
//!
//! assert!(result.slo_compliance(cfg.slo_ms) > 0.95);
//! assert!(result.total_cost() > 0.0);
//! ```
//!
//! Reproduce the paper: `cargo run --release -p paldia-experiments --bin repro`.

pub use paldia_baselines as baselines;
pub use paldia_cluster as cluster;
pub use paldia_core as core;
pub use paldia_experiments as experiments;
pub use paldia_hw as hw;
pub use paldia_metrics as metrics;
pub use paldia_obs as obs;
pub use paldia_sim as sim;
pub use paldia_traces as traces;
pub use paldia_workloads as workloads;

/// The names most programs need, in one `use`.
pub mod prelude {
    pub use paldia_baselines::{InflessLlama, Molecule, RateLimited, Variant};
    pub use paldia_cluster::{
        run, Decision, ModelDecision, Observation, RunResult, RunSpec, Scheduler, SimConfig,
        WorkloadSpec,
    };
    pub use paldia_core::{PaldiaConfig, PaldiaScheduler};
    pub use paldia_hw::{Catalog, CostMeter, GpuModel, InstanceKind};
    pub use paldia_metrics::{LatencyStats, TailBreakdown, TextTable, TimeSeries};
    pub use paldia_sim::{SimDuration, SimRng, SimTime};
    pub use paldia_traces::{PredictorKind, RateTrace};
    pub use paldia_workloads::{MlModel, Profile};
}
