//! Sharded fleet execution: partition the tenants across independent
//! event loops and synchronize only at cross-partition events.
//!
//! Between fault edges, an **elastic** fleet (`units_per_kind ==
//! u32::MAX`) has no cross-tenant coupling at all: a lease never finds
//! its kind's units used up, worker state is tenant-owned, and the only
//! shared mutable state — the `unavailable` kind list — changes exclusively
//! at compiled fault-edge instants. That makes the fault edges a complete
//! set of synchronization points, so the run decomposes into *epochs*:
//!
//! 1. chunk the deployments contiguously into `shards` groups, each its
//!    own `Partition`: a `FleetHarness`, a `PartitionCalendar` and an
//!    arrival `Rail`;
//! 2. run every shard up to the next edge's [`EventKey`] bound (exclusive
//!    at `(edge.at, 0)`, i.e. *before* anything else at that instant) on
//!    the `paldia_core::pool` worker pool;
//! 3. apply the edge centrally: node crashes walk the tenants in global
//!    deployment order with the canonical `unavailable` list threaded
//!    through each shard (bit-reproducing the serial engine's progressive
//!    updates), degradation/straggler/storm windows fan out per shard;
//! 4. repeat until the horizon, then fold per-tenant results back in
//!    global deployment order.
//!
//! Determinism does not depend on the pool: shard interiors are
//! independent, barriers are total, and every merge below walks shards in
//! index order. The shard count therefore never changes results —
//! enforced by `tests/fleet_sharded.rs` and the shard-invariance
//! proptests — and `PALDIA_JOBS`/`--jobs` only changes wall-clock.
//!
//! Two id namespaces keep shard-local allocation globally stable: worker
//! ids become `(global dep << 20) | ordinal` and batch ids `(global dep
//! << 48) | ordinal` (see `FleetHarness::namespace`), so a tenant's ids
//! are identical no matter which shard it lands in. Request ids are
//! assigned by `sample_fleet` before sharding (RNG forks are impure, so
//! arrival generation stays serial).
//!
//! Non-elastic fleets (finite inventory) couple tenants at *every*
//! lease/release, so [`run_fleet_sharded`] falls back to the serial engine
//! for them; likewise for single-tenant fleets, where there is nothing to
//! partition. Shards and the serial engine are the same `Partition`; the
//! serial one simply keeps the fault edges in its own calendar.

use std::collections::BTreeMap;
use std::sync::Mutex;

use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{merge_streams, TraceEventKind, TraceSink, Tracer, VecSink};
use paldia_sim::{pool, EventKey};

use super::{
    fleet_tenants, run_fleet_impl, sample_fleet, FleetDeployment, FleetHarness, Partition,
};
use crate::config::SimConfig;
use crate::faults::{FaultEdge, FaultKind};
use crate::result::RunResult;

/// [`super::run_fleet`] with an explicit shard count.
///
/// `shards >= 1` selects the partitioned engine whenever it is legal —
/// elastic inventory (`units_per_kind == u32::MAX`) and more than one
/// deployment — and falls back to the serial engine otherwise. On the
/// partitioned path the results are **invariant across shard counts**
/// (including 1), and for clean elastic runs bit-identical to
/// [`super::run_fleet`]; under faults the partitioned path orders fault
/// edges before other same-instant events, so compare it against itself,
/// not the serial engine.
pub fn run_fleet_sharded(
    deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    shards: u32,
) -> Vec<RunResult> {
    run_fleet_sharded_stats(deployments, catalog, units_per_kind, cfg, shards).0
}

/// [`run_fleet_sharded`] plus the number of engine events dispatched
/// across all shards — the throughput denominator for stress reporting.
pub fn run_fleet_sharded_stats(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    shards: u32,
) -> (Vec<RunResult>, u64) {
    if units_per_kind != u32::MAX || deployments.len() <= 1 {
        return run_fleet_impl(
            &mut deployments,
            catalog,
            units_per_kind,
            cfg,
            Tracer::disabled(),
        );
    }
    let k = chunk_count(deployments.len(), shards);
    let mut tracers = Vec::new();
    tracers.resize_with(k, Tracer::disabled);
    drive(&mut deployments, catalog, cfg, tracers, Tracer::disabled())
}

/// [`super::run_fleet_traced`] with an explicit shard count. Each shard
/// records into its own stream; the streams are folded into `sink` by
/// [`merge_streams`] — ordered by `(at, scope)`, so the merged stream is
/// invariant across shard counts apart from the `RunSummary` dispatched-
/// event count (each shard runs its own keep-alive chain).
pub fn run_fleet_traced_sharded(
    mut deployments: Vec<FleetDeployment>,
    catalog: Catalog,
    units_per_kind: u32,
    cfg: &SimConfig,
    sink: &mut dyn TraceSink,
    shards: u32,
) -> Vec<RunResult> {
    if units_per_kind != u32::MAX || deployments.len() <= 1 {
        return super::run_fleet_traced(deployments, catalog, units_per_kind, cfg, sink);
    }
    let k = chunk_count(deployments.len(), shards);
    let mut shard_sinks: Vec<VecSink> = Vec::new();
    shard_sinks.resize_with(k, VecSink::new);
    let mut coord_sink = VecSink::new();
    let (results, _events) = {
        let tracers: Vec<Tracer<'_>> = shard_sinks.iter_mut().map(|s| Tracer::new(s)).collect();
        let coord = Tracer::new(&mut coord_sink);
        drive(&mut deployments, catalog, cfg, tracers, coord)
    };
    let mut streams = vec![coord_sink.into_events()];
    streams.extend(shard_sinks.into_iter().map(VecSink::into_events));
    merge_streams(streams, sink);
    results
}

/// Number of chunks: never more than one per tenant, never zero.
fn chunk_count(tenants: usize, shards: u32) -> usize {
    (shards.max(1) as usize).min(tenants).max(1)
}

/// Contiguous chunk boundaries: `n` tenants into `k` chunks, sizes
/// differing by at most one, earlier chunks larger.
fn chunk_bounds(n: usize, k: usize) -> Vec<(usize, usize)> {
    let (base, rem) = (n / k, n % k);
    let mut bounds = Vec::with_capacity(k);
    let mut lo = 0;
    for i in 0..k {
        let size = base + usize::from(i < rem);
        bounds.push((lo, lo + size));
        lo += size;
    }
    bounds
}

/// The coordinator: build shards, run epochs between fault edges, apply
/// edges centrally, and assemble results in global deployment order.
fn drive<'a>(
    deployments: &'a mut [FleetDeployment],
    catalog: Catalog,
    cfg: &'a SimConfig,
    tracers: Vec<Tracer<'a>>,
    mut coord: Tracer<'a>,
) -> (Vec<RunResult>, u64) {
    let sampled = sample_fleet(deployments, cfg.seed);
    let trace_end = sampled.trace_end;
    let horizon = trace_end + cfg.drain_grace;
    let faults = cfg.faults.compile(horizon);
    let n = deployments.len();
    let k = tracers.len();
    let bounds = chunk_bounds(n, k);

    // Each shard: a harness over its contiguous tenant chunk (local
    // indices, global scopes and id namespaces) seeded exactly like the
    // serial engine, minus the fault edges — the coordinator owns them.
    let mut tenants = fleet_tenants(deployments, cfg).into_iter();
    let mut arrivals = sampled.arrivals.into_iter();
    let shards: Vec<Mutex<Partition<'a>>> = bounds
        .iter()
        .zip(tracers)
        .map(|(&(lo, hi), tracer)| {
            let harness = FleetHarness::new(
                cfg,
                catalog.clone(),
                u32::MAX,
                tenants.by_ref().take(hi - lo).collect(),
                trace_end,
                tracer,
                Some(lo),
            );
            Mutex::new(Partition::new(
                harness,
                arrivals.by_ref().take(hi - lo).collect(),
                false,
            ))
        })
        .collect();

    // Epoch loop: run to each edge instant, then apply the edges there.
    let run_all_to = |bound: EventKey| -> u64 {
        let shards = &shards;
        let per_shard = pool::run_indexed(k, |i| lock(&shards[i]).run_to(bound));
        per_shard.iter().sum()
    };

    let mut engine_events: u64 = 0;
    // Canonical crash bookkeeping lives here; shards only see snapshots.
    let mut unavailable: Vec<InstanceKind> = Vec::new();
    let mut crash_restore: BTreeMap<usize, Vec<InstanceKind>> = BTreeMap::new();

    let mut cursor = 0;
    while cursor < faults.events.len() {
        let at = faults.events[cursor].at;
        if at >= horizon {
            break;
        }
        engine_events += run_all_to(EventKey::new(at, 0));
        while cursor < faults.events.len() && faults.events[cursor].at == at {
            let fe = faults.events[cursor];
            cursor += 1;
            let fault = faults.windows[fe.window].fault;
            let win = fe.window as u32;
            let started = fe.edge == FaultEdge::Start;
            coord.set_scope(0);
            coord.emit(at, || TraceEventKind::FaultEdge {
                window: win,
                desc: format!("{fault:?}"),
                started,
            });
            match (fault, fe.edge) {
                (FaultKind::NodeCrash, FaultEdge::Start) => {
                    // Walk tenants in global order, threading the canonical
                    // `unavailable` list through each shard so every
                    // failover sees exactly what the serial engine would.
                    let mut taken = Vec::new();
                    for (si, &(lo, hi)) in bounds.iter().enumerate() {
                        let mut s = lock(&shards[si]);
                        let s = &mut *s;
                        for dep in 0..hi - lo {
                            s.harness.unavailable = unavailable.clone();
                            s.harness.fail_tenant(dep, at, &mut s.cal, &mut taken);
                            unavailable = s.harness.unavailable.clone();
                        }
                    }
                    crash_restore.insert(fe.window, taken);
                    broadcast_unavailable(&shards, &unavailable);
                }
                (FaultKind::NodeCrash, FaultEdge::End) => {
                    for kind in crash_restore.remove(&fe.window).unwrap_or_default() {
                        if let Some(pos) = unavailable.iter().position(|&u| u == kind) {
                            unavailable.remove(pos);
                        }
                    }
                    broadcast_unavailable(&shards, &unavailable);
                }
                _ => {
                    for shard in &shards {
                        let mut s = lock(shard);
                        let s = &mut *s;
                        s.harness.apply_shared_edge(fe, at, &mut s.cal);
                    }
                }
            }
        }
    }
    engine_events += run_all_to(EventKey::new(horizon, 0));

    coord.set_scope(0);
    coord.emit(horizon, || TraceEventKind::RunSummary {
        events: engine_events,
        horizon,
    });

    let mut results = Vec::with_capacity(n);
    for shard in shards {
        let part = shard
            .into_inner()
            .expect("invariant: shard mutexes are never poisoned (pool jobs catch panics)");
        results.extend(part.harness.into_results(horizon));
    }
    (results, engine_events)
}

fn lock<'m, 'a>(shard: &'m Mutex<Partition<'a>>) -> std::sync::MutexGuard<'m, Partition<'a>> {
    shard
        .lock()
        .expect("invariant: shard mutexes are never poisoned (pool jobs catch panics)")
}

fn broadcast_unavailable(shards: &[Mutex<Partition<'_>>], unavailable: &[InstanceKind]) {
    for shard in shards {
        lock(shard).harness.unavailable = unavailable.to_vec();
    }
}
