//! The single-deployment entry points: one scheme against one
//! (multi-model) workload over one trace, returning the [`RunResult`] the
//! metrics layer consumes.
//!
//! A single deployment is a one-tenant fleet on elastic inventory: both
//! entry points run the one cluster engine in [`crate::fleet`] (see its
//! module docs for the Fig. 2 event flow). This module also owns the
//! arrival sampler every executor shares, so a recorded trace
//! ([`crate::replay`]) can never drift from what the simulator samples.

use crate::config::SimConfig;
use crate::fleet::{run_serial, Tenant};
use crate::policy::Scheduler;
use crate::request::RequestId;
use crate::result::RunResult;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceSink, Tracer};
use paldia_sim::{SimRng, SimTime};
use paldia_traces::{generate_arrivals, RateTrace};
use paldia_workloads::MlModel;

/// One workload: a model plus its (already scaled) arrival-rate trace.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// The model served.
    pub model: MlModel,
    /// Arrival-rate trace, already scaled to the intended peak/mean.
    pub trace: RateTrace,
}

impl WorkloadSpec {
    /// Convenience constructor.
    pub fn new(model: MlModel, trace: RateTrace) -> Self {
        WorkloadSpec { model, trace }
    }
}

/// One pre-sampled arrival, in generation (model-major) order.
///
/// `seq` is the calendar sequence number the arrival owns in the batch
/// engines (arrivals are scheduled before anything else, so generation
/// index == seq); `id` is the request id the harness assigns it. Recording
/// both lets a replayed trace reproduce the batch run's `(time, seq)`
/// total order — and therefore its every tie-break — bit-for-bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampledArrival {
    /// Calendar sequence number (generation index) of this arrival.
    pub seq: u64,
    /// Request id the harness assigns (1-based, generation order).
    pub id: RequestId,
    /// Absolute arrival time.
    pub at: SimTime,
    /// Model invoked.
    pub model: MlModel,
}

/// Sample every arrival for `workloads` under `seed`, exactly as the batch
/// entry points do: one fork of the root RNG per workload keyed by model
/// index, arrivals concatenated in workload (model-major) order. This is
/// the single copy of the sampling discipline — [`run_simulation`] consumes
/// it directly and `crate::replay` records it to disk — so a recorded trace
/// can never drift from what the simulator would have sampled.
///
/// Returns the arrivals and the trace end (max workload duration).
pub fn sample_arrivals(workloads: &[WorkloadSpec], seed: u64) -> (Vec<SampledArrival>, SimTime) {
    sample_tenant(workloads, 0, &mut SimRng::new(seed), &mut 0)
}

/// Sample one tenant's arrivals from the run's root stream `rng`. Tenant
/// `dep`'s workload for model `m` forks the stream under key
/// `(dep << 8) | (m + 1)`; `sampled` counts the run's arrivals so far and
/// numbers these (seq from 0, request id from 1, run-global). A lone
/// deployment is tenant 0 of a fresh stream, which is
/// [`sample_arrivals`].
pub(crate) fn sample_tenant(
    workloads: &[WorkloadSpec],
    dep: usize,
    rng: &mut SimRng,
    sampled: &mut u64,
) -> (Vec<SampledArrival>, SimTime) {
    let mut out = Vec::new();
    let mut trace_end = SimTime::ZERO;
    for spec in workloads {
        let mut model_rng = rng.fork(((dep as u64) << 8) | (spec.model.index() as u64 + 1));
        for at in generate_arrivals(&spec.trace, &mut model_rng) {
            out.push(SampledArrival {
                seq: *sampled,
                id: RequestId(*sampled + 1),
                at,
                model: spec.model,
            });
            *sampled += 1;
        }
        trace_end = trace_end.max(SimTime::ZERO + spec.trace.duration());
    }
    (out, trace_end)
}

/// Run one scheme over the given workloads. `initial_hw` is the node the
/// deployment starts on (warm).
pub fn run_simulation(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
) -> RunResult {
    run_one(
        workloads,
        scheduler,
        initial_hw,
        catalog,
        cfg,
        Tracer::disabled(),
    )
}

/// Like [`run_simulation`], but records the full observability stream into
/// `sink`: per-request spans, batch/device annotations, and the scheduler's
/// structured decision events. Tracing is observation-only — the returned
/// metrics are bit-identical to an untraced run with the same inputs
/// (enforced by `tests/trace_observability.rs`).
pub fn run_simulation_traced(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
) -> RunResult {
    run_one(
        workloads,
        scheduler,
        initial_hw,
        catalog,
        cfg,
        Tracer::new(sink),
    )
}

/// One tenant (scope 0, bare scheduler label, retarget rule) on elastic
/// inventory, on the serial partitioned engine.
fn run_one<'a>(
    workloads: &[WorkloadSpec],
    scheduler: &'a mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &'a SimConfig,
    tracer: Tracer<'a>,
) -> RunResult {
    let (arrivals, trace_end) = sample_arrivals(workloads, cfg.seed);
    let models = workloads.iter().map(|s| s.model).collect();
    let tenant = Tenant::new(scheduler, models, initial_hw, cfg, None, 0);
    let (mut results, _) = run_serial(
        vec![tenant],
        vec![arrivals],
        catalog,
        u32::MAX,
        cfg,
        trace_end,
        tracer,
    );
    results
        .pop()
        .expect("invariant: one tenant in, one result out")
}
