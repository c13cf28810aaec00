//! The batch entry point: [`run`] takes a [`RunSpec`] — a lone deployment
//! or a fleet of them, an inventory, a config, an optional shard count and
//! an optional trace sink — and returns one [`RunResult`] per deployment
//! plus the engine event count.
//!
//! Every spec runs on the one cluster engine in [`crate::fleet`] (see its
//! module docs for the Fig. 2 event flow): a lone deployment is a
//! one-tenant fleet. This module also owns the arrival sampler every
//! executor shares, so a recorded trace ([`crate::replay`]) can never
//! drift from what the simulator samples.

use crate::config::SimConfig;
use crate::fleet::shard::{chunk_count, drive};
use crate::fleet::{run_serial, FleetDeployment, Tenant};
use crate::policy::Scheduler;
use crate::request::RequestId;
use crate::result::RunResult;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{merge_streams, TraceSink, Tracer, VecSink};
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
/// entry point does: one fork of the root RNG per workload keyed by model
/// index, arrivals concatenated in workload (model-major) order. This is
/// the single copy of the sampling discipline — [`run`] samples every
/// tenant the same way and `crate::replay` records it to disk — so a recorded trace
/// can never drift from what the simulator would have sampled.
///
/// Returns the arrivals and the trace end (max workload duration).
pub fn sample_arrivals(workloads: &[WorkloadSpec], seed: u64) -> (Vec<SampledArrival>, SimTime) {
    let (mut arrivals, trace_end) = sample_tenants([workloads], seed);
    (arrivals.swap_remove(0), trace_end)
}

/// Sample every tenant's arrivals, tenant-major, from one root stream.
/// Tenant `dep`'s workload for model `m` forks the stream under key
/// `(dep << 8) | (m + 1)`; seqs (from 0) and request ids (from 1) count
/// across the run. Forks consume entropy from the parent stream, so
/// sampling is serial and precedes the choice of engine. A lone
/// deployment is tenant 0, which is [`sample_arrivals`].
fn sample_tenants<'w>(
    tenants: impl IntoIterator<Item = &'w [WorkloadSpec]>,
    seed: u64,
) -> (Vec<Vec<SampledArrival>>, SimTime) {
    let mut rng = SimRng::new(seed);
    let mut seq = 0;
    let mut trace_end = SimTime::ZERO;
    let arrivals = tenants.into_iter().enumerate().map(|(dep, workloads)| {
        // The count is Poisson with this mean; four standard deviations of
        // headroom keep the vector from growing (and copying) mid-sample.
        let expected: f64 = workloads.iter().map(|s| s.trace.expected_requests()).sum();
        let mut out = Vec::with_capacity((expected + 4.0 * expected.sqrt()) as usize + 16);
        for spec in workloads {
            let mut model_rng = rng.fork(((dep as u64) << 8) | (spec.model.index() as u64 + 1));
            for at in generate_arrivals(&spec.trace, &mut model_rng) {
                let (id, model) = (RequestId(seq + 1), spec.model);
                out.push(SampledArrival { seq, id, at, model });
                seq += 1;
            }
            trace_end = trace_end.max(SimTime::ZERO + spec.trace.duration());
        }
        out
    });
    (arrivals.collect(), trace_end)
}

/// The deployments one run schedules. The variant fixes three per-tenant
/// settings — trace scope, result label, retarget rule — as described in
/// [`crate::fleet`].
pub enum Tenants<'a> {
    /// One deployment, as the paper evaluates Paldia: scope 0, the bare
    /// scheduler name, and the retarget rule (a decision that upgrades past
    /// the in-flight transition abandons the pending node).
    Lone {
        /// The deployment's workloads.
        workloads: &'a [WorkloadSpec],
        /// Its scheduling policy.
        scheduler: &'a mut dyn Scheduler,
        /// The node it starts warm on.
        initial_hw: InstanceKind,
    },
    /// Deployments co-scheduled over one inventory: deployment `i` traces
    /// under scope `1 + i`, and its result label carries its name.
    Fleet(Vec<FleetDeployment>),
}

/// One batch run: who runs, on what inventory, under which config, on
/// which engine, and where its trace goes.
pub struct RunSpec<'a> {
    /// The deployments.
    pub tenants: Tenants<'a>,
    /// The instance kinds on offer.
    pub catalog: Catalog,
    /// Copies of each catalog kind in the shared inventory: 1 mirrors the
    /// paper's physical cluster, `u32::MAX` is elastic.
    pub units_per_kind: u32,
    /// Seed, timing, fault plan and failover policy.
    pub cfg: &'a SimConfig,
    /// `None` runs the serial engine; `Some(k)` partitions the tenants
    /// across up to `k` event loops when the inventory is elastic and there
    /// is more than one tenant, and runs serially otherwise. The engines
    /// differ only in same-instant ordering around fault edges (see
    /// [`crate::fleet::shard`]); clean elastic runs are bit-identical.
    pub shards: Option<u32>,
    /// Where the observability stream goes; `None` runs untraced. Results
    /// and the event count do not depend on it.
    pub sink: Option<&'a mut dyn TraceSink>,
}

impl<'a> RunSpec<'a> {
    /// A lone deployment on elastic inventory: serial, untraced.
    pub fn lone(
        workloads: &'a [WorkloadSpec],
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
    ) -> Self {
        RunSpec {
            tenants: Tenants::Lone {
                workloads,
                scheduler,
                initial_hw,
            },
            catalog,
            units_per_kind: u32::MAX,
            cfg,
            shards: None,
            sink: None,
        }
    }

    /// A fleet over `units_per_kind` copies of each catalog kind: serial,
    /// untraced.
    pub fn fleet(
        deployments: Vec<FleetDeployment>,
        catalog: Catalog,
        units_per_kind: u32,
        cfg: &'a SimConfig,
    ) -> Self {
        RunSpec {
            tenants: Tenants::Fleet(deployments),
            catalog,
            units_per_kind,
            cfg,
            shards: None,
            sink: None,
        }
    }
}

/// What a batch run returns.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// One result per deployment, in input order.
    pub results: Vec<RunResult>,
    /// Engine events dispatched, summed over shards; equal to the traced
    /// stream's `RunSummary` count. On the partitioned engine it depends
    /// on the shard count (each shard runs its own keep-alive chain).
    pub events: u64,
}

impl RunOutput {
    /// The one result of a [`Tenants::Lone`] run.
    pub fn into_lone(mut self) -> RunResult {
        assert_eq!(self.results.len(), 1, "into_lone needs a one-tenant run");
        self.results.swap_remove(0)
    }
}

/// Run `spec` to its horizon, `trace_end + DRAIN_GRACE`.
pub fn run(spec: RunSpec<'_>) -> RunOutput {
    let cfg = spec.cfg;
    let mut fleet: Vec<FleetDeployment>;
    let (tenants, (arrivals, trace_end)) = match spec.tenants {
        Tenants::Lone {
            workloads,
            scheduler,
            initial_hw,
        } => {
            let models = workloads.iter().map(|s| s.model).collect();
            let tenant = Tenant::new(scheduler, models, initial_hw, cfg, None, 0);
            (vec![tenant], sample_tenants([workloads], cfg.seed))
        }
        Tenants::Fleet(deployments) => {
            fleet = deployments;
            let sampled = sample_tenants(fleet.iter().map(|d| &d.workloads[..]), cfg.seed);
            let tenants = fleet.iter_mut().enumerate().map(|(dep, d)| {
                let models = d.workloads.iter().map(|s| s.model).collect();
                let (label, scope) = (Some(d.name.clone()), dep as u32 + 1);
                Tenant::new(&mut *d.scheduler, models, d.initial_hw, cfg, label, scope)
            });
            (tenants.collect(), sampled)
        }
    };
    let (catalog, units) = (spec.catalog, spec.units_per_kind);
    // Finite inventory couples tenants at every lease, and a lone tenant
    // has nothing to partition: both run on the serial engine.
    let k = match spec.shards {
        Some(k) if units == u32::MAX && tenants.len() > 1 => chunk_count(tenants.len(), k),
        _ => {
            let tracer = match spec.sink {
                Some(sink) => Tracer::new(sink),
                None => Tracer::disabled(),
            };
            return run_serial(tenants, arrivals, catalog, units, cfg, trace_end, tracer);
        }
    };
    // Traced, each shard records its own stream and the coordinator
    // (stream 0) owns scope 0; `merge_streams` folds them in `(at, scope)`
    // order, so the merged stream does not depend on `k` (bar the
    // `RunSummary` count). Untraced, every tracer is disabled.
    let streams = if spec.sink.is_some() { k + 1 } else { 0 };
    let mut sinks: Vec<VecSink> = (0..streams).map(|_| VecSink::new()).collect();
    let mut tracers: Vec<Tracer<'_>> = sinks.iter_mut().map(|s| Tracer::new(s)).collect();
    tracers.resize_with(k + 1, Tracer::disabled);
    let coord = tracers.remove(0);
    let out = drive(tenants, arrivals, trace_end, catalog, cfg, tracers, coord);
    if let Some(sink) = spec.sink {
        merge_streams(sinks.into_iter().map(VecSink::into_events).collect(), sink);
    }
    out
}

/// A lone run's result. Pinned because perfbench calls it by name; it goes
/// in the next benchmark change.
pub fn run_simulation(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
) -> RunResult {
    run(RunSpec::lone(
        workloads, scheduler, initial_hw, catalog, cfg,
    ))
    .into_lone()
}

/// A traced lone run's result. Pinned because perfbench calls it by name;
/// it goes in the next benchmark change.
pub fn run_simulation_traced(
    workloads: &[WorkloadSpec],
    scheduler: &mut dyn Scheduler,
    initial_hw: InstanceKind,
    catalog: Catalog,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
) -> RunResult {
    run(RunSpec {
        sink: Some(sink),
        ..RunSpec::lone(workloads, scheduler, initial_hw, catalog, cfg)
    })
    .into_lone()
}

/// A sharded fleet run's results and event count. Pinned because
/// perfbench calls it by name; it goes in the next benchmark change.
pub fn run_fleet_sharded_stats(
    deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    shards: u32,
) -> (Vec<RunResult>, u64) {
    let out = run(RunSpec {
        shards: Some(shards),
        ..RunSpec::fleet(deployments, catalog, units_per_kind, cfg)
    });
    (out.results, out.events)
}
