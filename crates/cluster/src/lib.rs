//! # paldia-cluster
//!
//! The serverless substrate of the Paldia reproduction: a deterministic
//! discrete-event simulation of the 6-worker-node heterogeneous cluster —
//! gateway, per-model batching, autoscaled containers with cold starts and
//! keep-alive, hardware leasing/transitions, induced node failures, and a
//! shared compute device implementing both GPU sharing mechanisms (MPS-style
//! spatial sharing with bandwidth-contention interference, and serial time
//! sharing).
//!
//! Scheduling policies (Paldia itself in `paldia-core`, every baseline in
//! `paldia-baselines`) plug in through the [`Scheduler`] trait; the engine
//! is policy-agnostic and returns a [`RunResult`] with every served
//! request's latency breakdown plus cost/energy/utilization accounting.
//!
//! There is one cluster engine ([`fleet`]): a set of deployments over a
//! node inventory, and one batch entry point, [`run`]. A [`RunSpec`] names
//! the deployments — one [`Tenants::Lone`] deployment, or a
//! [`Tenants::Fleet`] co-scheduled over a shared (possibly finite)
//! inventory — plus an optional shard count, which runs each tenant of an
//! elastic fleet on its own event loop, and an optional trace sink, which records
//! the `paldia-obs` observability stream — per-request spans and scheduler
//! decision logs — without perturbing metrics (bit-identical to the
//! untraced run).
//!
//! Beyond the batch entry point, the [`session`] module exposes the same
//! engine as an open system — step events, inject arrivals — which is how
//! the `paldia-serve` wall-clock shell drives the identical policy code
//! path live; [`replay`] records sampled arrival traces so both executors
//! can be compared decision-for-decision (DESIGN.md §14).

pub mod batcher;
pub mod config;
pub mod container;
pub mod device;
pub mod faults;
pub mod fleet;
pub mod harness;
pub mod policy;
pub mod replay;
pub mod request;
pub mod result;
pub mod session;
pub mod worker;

pub use config::SimConfig;
pub use device::{DeviceMode, IterSeq, IterativeEngine, RetiredSeq};
pub use faults::{
    CompiledFaults, FailoverPolicy, FailoverPolicyKind, FaultEdge, FaultEvent, FaultKind,
    FaultPlan, FaultWindow,
};
pub use fleet::FleetDeployment;
pub use harness::{
    run, run_fleet_sharded_stats, run_simulation, run_simulation_traced, sample_arrivals,
    RunOutput, RunSpec, SampledArrival, Tenants, WorkloadSpec,
};
pub use policy::{Decision, ModelDecision, ModelObs, Observation, Scheduler};
pub use replay::{instance_from_token, model_from_token, model_token, ParseError, RecordedTrace};
pub use request::{Batch, BatchId, CompletedRequest, Request, RequestId};
pub use result::{NodeStat, RunResult};
pub use session::{
    run_replay, run_replay_virtual, ArrivalSource, ReplayItem, SimSession, SliceSource,
};
pub use worker::{Worker, WorkerId, WorkerState};
