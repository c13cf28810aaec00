//! # paldia-hw
//!
//! The hardware substrate of the Paldia reproduction: the worker-node catalog
//! from Table II of the paper, GPU and CPU performance models, the
//! MPS-style spatial-sharing interference model (derived, as in the paper,
//! from Prophet's bandwidth-contention formulation), per-instance pricing,
//! and node power models.
//!
//! The paper runs on real AWS instances; this crate replaces them with
//! analytic models that expose exactly the quantities the schedulers consume:
//!
//! * `Solo_M` — isolated batch execution latency of model `M` on a device,
//! * `FBR_M` — fractional (global-memory) bandwidth requirement of one batch,
//! * instance price ($/h) and node power (W) for the cost/power accounting.
//!
//! Calibration targets the *relative* behaviour the paper reports (which GPU
//! wins, where interference sets in, cost ratios), not the absolute
//! microsecond timings of the authors' testbed.

pub mod catalog;
pub mod cpu;
pub mod gpu;
pub mod mps;
pub mod node;
pub mod power;
pub mod pricing;

pub use catalog::Catalog;
pub use cpu::{CpuConfig, CpuModel};
pub use gpu::GpuModel;
pub use mps::{client_overhead_factor, mps_slowdown, mps_slowdown_uniform};
pub use node::{ComputeKind, InstanceKind, InstanceSpec};
pub use power::PowerModel;
pub use pricing::CostMeter;
