//! Sharded fleet execution: run each tenant on its own event loop and
//! synchronize only at cross-tenant events.
//!
//! Between fault edges, an **elastic** fleet (`units_per_kind ==
//! u32::MAX`) has no cross-tenant coupling at all: a lease never finds
//! its kind's units used up, worker state is tenant-owned, and the only
//! shared mutable state — the `unavailable` kind list — changes exclusively
//! at compiled fault-edge instants. That makes the fault edges a complete
//! set of synchronization points, so the run decomposes into *epochs*:
//!
//! 1. give every tenant its own `Partition`: a one-tenant `FleetHarness`
//!    and a `PartitionCalendar` with that tenant's sampled arrivals moved
//!    onto its rail as they are;
//! 2. run every partition up to the next edge's [`EventKey`] bound
//!    (exclusive at `(edge.at, 0)`, i.e. *before* anything else at that
//!    instant): the partitions are chunked contiguously into `shards`
//!    jobs on the `paldia_core::pool` worker pool, and each job steps its
//!    chunk's partitions to the bound in order;
//! 3. apply the edge centrally: node crashes walk the partitions in global
//!    deployment order with the canonical `unavailable` list threaded
//!    through each (bit-reproducing the serial engine's progressive
//!    updates), degradation/straggler/storm windows fan out per partition;
//! 4. repeat until the horizon, then fold per-tenant results back in
//!    global deployment order.
//!
//! Determinism does not depend on the pool or on `shards`: partition
//! interiors are independent, barriers are total, and every merge below
//! walks partitions in index order. The shard count only groups the same
//! partitions into jobs, so it changes neither results nor the event
//! count — enforced by `tests/fleet_sharded.rs` and the shard-invariance
//! proptests — and `shards` and `PALDIA_JOBS`/`--jobs` only change
//! wall-clock.
//!
//! Two id namespaces keep partition-local allocation globally stable:
//! worker ids become `(global dep << 20) | ordinal` and batch ids `(global
//! dep << 48) | ordinal` (see `FleetHarness::namespace`). Request ids are
//! assigned when arrivals are sampled, before an engine is chosen (RNG
//! forks are impure, so arrival generation stays serial).
//!
//! Non-elastic fleets (finite inventory) couple tenants at *every*
//! lease/release, so [`crate::run`] keeps them on the serial engine even
//! when a shard count is given; likewise for single-tenant runs, where
//! there is nothing to partition. The partitions and the serial engine
//! are the same `Partition`; the serial one holds every tenant under one
//! calendar and keeps the fault edges in it. That is the one behavioural
//! difference between the two: here an edge runs before every other event
//! at its instant, while the serial calendar orders it among them by
//! sequence number. The serial engine also runs one keep-alive chain for
//! the whole fleet where this runs one per tenant, so the two dispatch
//! different event counts.

use std::collections::BTreeMap;
use std::sync::Mutex;

use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceEventKind, Tracer};
use paldia_sim::{pool, EventKey, SimTime};

use super::{FleetHarness, Partition, Tenant};
use crate::config::{SimConfig, DRAIN_GRACE};
use crate::faults::{FaultEdge, FaultKind};
use crate::harness::{RunOutput, SampledArrival};

/// Contiguous chunk boundaries: `n` partitions into at most `shards`
/// chunks (never more than `n`, never zero), sizes differing by at most
/// one, earlier chunks larger.
fn chunk_bounds(n: usize, shards: u32) -> Vec<(usize, usize)> {
    let k = (shards.max(1) as usize).min(n).max(1);
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

/// The coordinator: build one partition per tenant, run epochs between
/// fault edges as `shards` pool jobs, apply edges centrally, and assemble
/// results in global tenant order. `tracers` holds one tracer per tenant;
/// `coord` records the fleet-global events (scope 0). Panics if a
/// partition dispatches `budget` events within one epoch
/// ([`Partition::dispatched`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<'a>(
    tenants: Vec<Tenant<'a>>,
    arrivals: Vec<Vec<SampledArrival>>,
    trace_end: SimTime,
    catalog: Catalog,
    cfg: &'a SimConfig,
    shards: u32,
    tracers: Vec<Tracer<'a>>,
    mut coord: Tracer<'a>,
    budget: u64,
) -> RunOutput {
    let horizon = trace_end + DRAIN_GRACE;
    let faults = cfg.faults.compile(horizon);
    let n = tenants.len();
    let bounds = chunk_bounds(n, shards);

    // Each partition: a one-tenant harness (global scope and id
    // namespace) seeded exactly like the serial engine, minus the fault
    // edges — the coordinator owns them.
    let parts: Vec<Mutex<Partition<'a>>> = tenants
        .into_iter()
        .zip(arrivals)
        .zip(tracers)
        .enumerate()
        .map(|(dep, ((tenant, arrivals), tracer))| {
            let harness = FleetHarness::new(
                cfg,
                catalog.clone(),
                u32::MAX,
                vec![tenant],
                trace_end,
                tracer,
                Some(dep),
            );
            Mutex::new(Partition::new(harness, vec![arrivals], 0, false))
        })
        .collect();

    // Epoch loop: run to each edge instant, then apply the edges there.
    let run_all_to = |bound: EventKey| -> u64 {
        let per_job = pool::run_indexed(bounds.len(), |job| {
            let (lo, hi) = bounds[job];
            parts[lo..hi]
                .iter()
                .map(|part| {
                    let mut p = lock(part);
                    let outcome = p.run_to(bound, budget);
                    p.dispatched(outcome)
                })
                .sum::<u64>()
        });
        per_job.iter().sum()
    };

    let mut engine_events: u64 = 0;
    // Canonical crash bookkeeping lives here; partitions only see snapshots.
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
                    // `unavailable` list through each partition so every
                    // failover sees exactly what the serial engine would.
                    let mut taken = Vec::new();
                    for part in &parts {
                        let mut p = lock(part);
                        let p = &mut *p;
                        p.harness.unavailable.clone_from(&unavailable);
                        p.harness.fail_tenant(0, at, &mut p.cal, &mut taken);
                        unavailable.clone_from(&p.harness.unavailable);
                    }
                    crash_restore.insert(fe.window, taken);
                    broadcast_unavailable(&parts, &unavailable);
                }
                (FaultKind::NodeCrash, FaultEdge::End) => {
                    for kind in crash_restore.remove(&fe.window).unwrap_or_default() {
                        if let Some(pos) = unavailable.iter().position(|&u| u == kind) {
                            unavailable.remove(pos);
                        }
                    }
                    broadcast_unavailable(&parts, &unavailable);
                }
                _ => {
                    for part in &parts {
                        let mut p = lock(part);
                        let p = &mut *p;
                        p.harness.apply_shared_edge(fe, at, &mut p.cal);
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
    for part in parts {
        let part = part
            .into_inner()
            .expect("invariant: partition mutexes are never poisoned (pool jobs catch panics)");
        results.extend(part.harness.into_results(horizon));
    }
    RunOutput {
        results,
        events: engine_events,
    }
}

fn lock<'m, 'a>(part: &'m Mutex<Partition<'a>>) -> std::sync::MutexGuard<'m, Partition<'a>> {
    part.lock()
        .expect("invariant: partition mutexes are never poisoned (pool jobs catch panics)")
}

fn broadcast_unavailable(parts: &[Mutex<Partition<'_>>], unavailable: &[InstanceKind]) {
    for part in parts {
        lock(part).harness.unavailable = unavailable.to_vec();
    }
}
