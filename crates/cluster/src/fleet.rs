//! The cluster simulation: gateway → batching → dispatch → autoscaled
//! containers → shared device, for one or more deployments (each with its
//! own [`Scheduler`]) over a node inventory.
//!
//! The event flow mirrors Fig. 2 of the paper:
//!
//! * request **arrivals** (pre-sampled from the rate traces) enter the
//!   deployment's per-model batchers (④);
//! * closed batches are dispatched to the worker selected by the Hardware
//!   Selection module (②/③) and admitted under the Job Distribution caps
//!   (⑥) — spatial (MPS) up to the cap, queued (time-shared) beyond it; in
//!   [`DeviceMode::IterativeBatch`] each request instead becomes a sequence
//!   that joins and leaves the running batch at iteration boundaries;
//! * the **autoscaler** (⑤) reacts to container shortage, pre-warms on the
//!   EWMA prediction, and reaps idle containers after the keep-alive;
//! * every monitor interval each policy observes backlogs/rates and may
//!   request a hardware transition, which is performed in the background
//!   and switched to only when the new node's containers are warm;
//! * injected faults ([`crate::faults`]) fire as ordinary events: a
//!   node-crash window fails *every* tenant's routing worker, evicting and
//!   requeueing its work on the [`crate::faults::FailoverPolicy`]
//!   replacement (Fig. 13b); MPS degradation slows every device,
//!   stragglers stretch cold starts, and storms purge warm containers.
//!
//! The paper evaluates one deployment at a time against an elastic menu of
//! instance kinds: that is a one-tenant fleet on elastic inventory
//! ([`crate::Tenants::Lone`], [`crate::SimSession`]). A provider runs many
//! functions over the *same* six physical nodes (§I): a
//! [`crate::Tenants::Fleet`] co-schedules several deployments whose node
//! leases draw from a shared per-kind inventory — when another tenant
//! holds the last V100, it simply is not in your catalog this interval.
//!
//! A lone deployment differs from a fleet tenant in three per-tenant
//! settings, fixed by the [`crate::Tenants`] variant: its trace scope is 0
//! (fleet tenants use `1 + index`), its result carries the bare scheduler
//! name (fleet tenants add `[name]`), and it follows the retarget rule: a
//! decision that upgrades past its in-flight transition abandons the
//! pending node (fleet tenants keep the pending lease). The retarget rule
//! is the one the single-deployment results were calibrated with; neither
//! side can take the other's without moving results.

use crate::batcher::Batcher;
use crate::config::{
    SimConfig, COLD_START, DRAIN_GRACE, FAILOVER_DELAY, INITIAL_CONTAINERS, KEEP_ALIVE,
    MONITOR_INTERVAL, PREDICTIVE_INTERVAL, PROVISION_DELAY,
};
use crate::container::ContainerId;
use crate::device::{DeviceMode, IterSeq};
use crate::faults::{CompiledFaults, FailoverPolicy, FaultEdge, FaultEvent, FaultKind};
use crate::harness::{RunOutput, SampledArrival, WorkloadSpec};
use crate::policy::{Decision, ModelObs, Observation, Scheduler};
use crate::request::{Batch, BatchId, CompletedRequest, Request};
use crate::result::{NodeStat, RunResult};
use crate::worker::{Worker, WorkerId, WorkerState};
use paldia_hw::{Catalog, CostMeter, InstanceKind};
use paldia_obs::{BatchTrigger, TraceEventKind, Tracer};
use paldia_sim::{
    run_partition, Calendar, EventKey, PartitionCalendar, SimDuration, SimTime, WakeEvent, World,
};
use paldia_traces::{Predictor, RateWindow};
use paldia_workloads::tokens::{iteration_ms, TokenCard};
use paldia_workloads::{MlModel, Profile};
use std::collections::BTreeMap;

pub mod shard;

/// One tenant of the fleet.
pub struct FleetDeployment {
    /// Display name (prefixes the result's scheme label).
    pub name: String,
    /// The tenant's workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// The tenant's scheduling policy.
    pub scheduler: Box<dyn Scheduler>,
    /// Node the tenant starts warm on (leased from the inventory).
    pub initial_hw: InstanceKind,
}

/// Per-tenant live state.
pub(crate) struct Tenant<'a> {
    scheduler: &'a mut dyn Scheduler,
    /// Fleet label (`name [label]` in the result); `None` for a lone
    /// deployment, whose result carries the bare scheduler name.
    label: Option<String>,
    /// Trace scope of this tenant's events.
    scope: u32,
    /// Abandon a pending transition when a decision upgrades past it.
    retarget: bool,
    routing: WorkerId,
    pending_worker: Option<WorkerId>,
    batchers: BTreeMap<MlModel, Batcher>,
    deadline_at: BTreeMap<MlModel, Option<SimTime>>,
    windows: BTreeMap<MlModel, RateWindow>,
    predictors: BTreeMap<MlModel, Box<dyn Predictor>>,
    models: Vec<MlModel>,
    last_decision: Decision,
    completed: Vec<CompletedRequest>,
    arrived: BTreeMap<MlModel, u64>,
    completed_count: BTreeMap<MlModel, u64>,
    cost: CostMeter,
    nodes: Vec<NodeStat>,
    cold_starts: u64,
    transitions: u64,
    hw_timeline: Vec<(f64, InstanceKind)>,
    /// Next worker ordinal under per-tenant id namespacing (sharded runs).
    next_worker_local: u32,
    /// Next batch ordinal under per-tenant id namespacing (sharded runs).
    next_batch_local: u64,
}

impl<'a> Tenant<'a> {
    /// A tenant serving `models`, starting on `initial_hw`. A lone
    /// deployment passes `label: None` (scope 0, retarget rule on); a fleet
    /// tenant passes its name and scope `1 + global index`.
    pub(crate) fn new(
        scheduler: &'a mut dyn Scheduler,
        models: Vec<MlModel>,
        initial_hw: InstanceKind,
        cfg: &SimConfig,
        label: Option<String>,
        scope: u32,
    ) -> Self {
        let window = PROVISION_DELAY.max(SimDuration::from_secs(2));
        Tenant {
            scheduler,
            retarget: label.is_none(),
            label,
            scope,
            routing: WorkerId(0),
            pending_worker: None,
            batchers: models
                .iter()
                .map(|&m| {
                    (
                        m,
                        Batcher::new(m, Profile::default_batch(m), cfg.batch_window),
                    )
                })
                .collect(),
            deadline_at: BTreeMap::new(),
            windows: models
                .iter()
                .map(|&m| (m, RateWindow::new(window)))
                .collect(),
            predictors: models.iter().map(|&m| (m, cfg.predictor.build())).collect(),
            models,
            last_decision: Decision::stay(initial_hw),
            completed: Vec::new(),
            arrived: BTreeMap::new(),
            completed_count: BTreeMap::new(),
            cost: CostMeter::new(),
            nodes: Vec::new(),
            cold_starts: 0,
            transitions: 0,
            hw_timeline: vec![(0.0, initial_hw)],
            next_worker_local: 0,
            next_batch_local: 0,
        }
    }

    /// Fold the tenant's terminal state into its [`RunResult`].
    fn into_result(self, trace_end: SimTime) -> RunResult {
        let total_arrived: u64 = self.arrived.values().sum();
        let total_completed: u64 = self.completed_count.values().sum();
        let mut arrived: Vec<(MlModel, u64)> = self.arrived.iter().map(|(&m, &n)| (m, n)).collect();
        arrived.sort_by_key(|&(m, _)| m.index());
        let name = self.scheduler.name();
        RunResult {
            scheme: match &self.label {
                None => name.to_string(),
                Some(label) => format!("{name} [{label}]"),
            },
            completed: self.completed,
            unserved: total_arrived.saturating_sub(total_completed),
            arrived_per_model: arrived,
            cost: self.cost,
            nodes: self.nodes,
            cold_starts: self.cold_starts,
            transitions: self.transitions,
            hw_timeline: self.hw_timeline,
            trace_duration: trace_end - SimTime::ZERO,
        }
    }
}

/// Build the iteration-level sequence for a request on the given hardware.
/// Token lengths are a pure hash of `(seed, request id)`
/// ([`TokenCard::sample`]), so every layer — the gateway's service hints,
/// the worker engine, a failover re-make after KV state is lost — derives
/// identical lengths without any shared sampling state. The bandwidth share
/// is the model's per-item slice of its default batch; `solo_ms` is the
/// sequence running alone (batch-size-1 iterations), the baseline the
/// slowdown metrics normalize against.
fn make_seq(seed: u64, r: &Request, closed_at: SimTime, kind: InstanceKind) -> IterSeq {
    let lens = TokenCard::for_model(r.model).sample(seed, r.id.0);
    let share =
        Profile::effective_share(r.model, kind) / Profile::default_batch(r.model).max(1) as f64;
    let solo_ms = lens.total_iters() as f64 * iteration_ms(r.model, kind, 1);
    IterSeq {
        request: r.id,
        model: r.model,
        arrival: r.arrival,
        closed_at,
        prefill_left: lens.prefill_iters(),
        decode_left: lens.decode,
        decode_total: lens.decode,
        kv_tokens: lens.kv_tokens(),
        share,
        solo_ms,
    }
}

/// Re-make a moved or evicted sequence for new hardware (full restart: the
/// pure-hash token lengths come back identical, the KV footprint is
/// re-reserved, prefill begins again).
fn remake_seq(seed: u64, s: &IterSeq, kind: InstanceKind) -> IterSeq {
    let r = Request {
        id: s.request,
        model: s.model,
        arrival: s.arrival,
    };
    make_seq(seed, &r, s.closed_at, kind)
}

/// Cluster events, tagged with the owning tenant (index into the harness's
/// local tenant vector) where relevant.
pub(crate) enum FEv {
    Arrival(usize, Request),
    BatchDeadline(usize, MlModel),
    DeviceWake {
        worker: WorkerId,
        version: u64,
    },
    ContainerReady {
        worker: WorkerId,
        container: ContainerId,
    },
    WorkerReady(usize, WorkerId),
    MonitorTick(usize),
    PredictTick(usize),
    KeepAliveTick,
    /// A compiled fault edge; index into [`CompiledFaults::events`].
    Fault(usize),
    /// Iteration boundary on an iteration-level worker: residents advance
    /// one step, finished sequences leave, waiters may join. `version`
    /// guards against ticks armed before an eviction.
    IterTick {
        worker: WorkerId,
        version: u64,
    },
}

impl WakeEvent for FEv {
    fn make_wake(worker: u32, version: u64) -> Self {
        FEv::DeviceWake {
            worker: WorkerId(worker),
            version,
        }
    }
}

pub(crate) struct FleetHarness<'a> {
    cfg: &'a SimConfig,
    catalog: Catalog,
    /// Units available per kind (the paper's cluster owns 1 of each;
    /// `u32::MAX` is elastic).
    inventory: u32,
    pub(crate) tenants: Vec<Tenant<'a>>,
    /// All live workers, with their owning tenant.
    pub(crate) workers: BTreeMap<WorkerId, (usize, Worker)>,
    next_worker_id: u32,
    next_batch_id: u64,
    trace_end: SimTime,

    /// Compiled fault schedule for this run.
    faults: CompiledFaults,
    /// Failover rule applied on node crashes (shared by all tenants).
    failover: Box<dyn FailoverPolicy>,
    /// Kinds taken out by open crash windows, one entry per window that
    /// took the kind down — a kind stays out until its last window ends.
    pub(crate) unavailable: Vec<InstanceKind>,
    /// Kinds each open crash window took down, for its End to restore.
    crash_restore: BTreeMap<usize, Vec<InstanceKind>>,
    /// Open degradation windows: (window index, severity).
    active_degrades: Vec<(usize, f64)>,
    /// Open straggler windows: (window index, multiplier).
    active_straggles: Vec<(usize, f64)>,

    /// Observability hook; each tenant's events carry its scope (scope 0
    /// is also used for run-global events like fault edges).
    tracer: Tracer<'a>,

    /// Per-tenant id namespacing, with the global index of this harness's
    /// first tenant: worker ids become `(global dep << 20) | ordinal` and
    /// batch ids `(global dep << 48) | ordinal`, so every tenant's ids are
    /// independent of how tenants are grouped into shards (each shard holds
    /// a contiguous chunk). `None`: the serial engine's run-global counters.
    namespace: Option<usize>,
}

impl<'a> FleetHarness<'a> {
    /// A harness over `tenants` with nothing scheduled yet. The fault
    /// schedule is compiled against the run horizon
    /// `trace_end + DRAIN_GRACE`.
    pub(crate) fn new(
        cfg: &'a SimConfig,
        catalog: Catalog,
        inventory: u32,
        mut tenants: Vec<Tenant<'a>>,
        trace_end: SimTime,
        tracer: Tracer<'a>,
        namespace: Option<usize>,
    ) -> Self {
        assert!(inventory >= 1, "inventory must be positive");
        if tracer.enabled() {
            for t in &mut tenants {
                t.scheduler.set_decision_recording(true);
            }
        }
        FleetHarness {
            cfg,
            catalog,
            inventory,
            tenants,
            workers: BTreeMap::new(),
            next_worker_id: 0,
            next_batch_id: 0,
            trace_end,
            faults: cfg.faults.compile(trace_end + DRAIN_GRACE),
            failover: cfg.failover.build(),
            unavailable: Vec::new(),
            crash_restore: BTreeMap::new(),
            active_degrades: Vec::new(),
            active_straggles: Vec::new(),
            tracer,
            namespace,
        }
    }

    /// Seed the calendar with everything that isn't an arrival, in the
    /// call order every engine shares (and therefore with the same sequence
    /// numbers): per tenant its warm initial worker and monitor/predict
    /// ticks, then the keep-alive chain, then — unless a coordinator owns
    /// them — the compiled fault edges.
    pub(crate) fn seed<C: Calendar<FEv>>(&mut self, q: &mut C, fault_edges: bool) {
        for dep in 0..self.tenants.len() {
            // Initial placement respects the inventory too: if the
            // requested kind is already fully leased by earlier tenants,
            // fall back to the cheapest kind with a free unit (oversubscribe
            // the requested kind only when literally nothing is free).
            let requested = self.tenants[dep].hw_timeline[0].1;
            let initial = if self.leased_units(requested) < self.inventory {
                requested
            } else {
                self.catalog
                    .by_cost_ascending()
                    .into_iter()
                    .find(|&k| self.leased_units(k) < self.inventory)
                    .unwrap_or(requested)
            };
            self.tenants[dep].hw_timeline[0].1 = initial;
            let id = self.provision_worker(dep, initial, SimTime::ZERO, SimDuration::ZERO, q);
            self.tenants[dep].routing = id;
            q.schedule(SimTime::ZERO + MONITOR_INTERVAL, FEv::MonitorTick(dep));
            q.schedule(SimTime::ZERO + PREDICTIVE_INTERVAL, FEv::PredictTick(dep));
        }
        q.schedule(SimTime::from_secs(60), FEv::KeepAliveTick);
        if fault_edges {
            for (i, fe) in self.faults.events.iter().enumerate() {
                q.schedule(fe.at, FEv::Fault(i));
            }
        }
    }

    /// Point the tracer at a tenant's scope before emitting its events.
    fn trace_scope(&mut self, dep: usize) {
        self.tracer.set_scope(self.tenants[dep].scope);
    }

    fn leased_units(&self, kind: InstanceKind) -> u32 {
        self.workers
            .values()
            .filter(|(_, w)| w.kind == kind)
            .count() as u32
    }

    /// Whether a new unit of `kind` can be leased right now: in the
    /// catalog, not taken out by an open crash window, a unit free.
    fn procurable(&self, kind: InstanceKind) -> bool {
        self.catalog.contains(kind)
            && !self.unavailable.contains(&kind)
            && self.leased_units(kind) < self.inventory
    }

    /// The catalog a tenant can draw from right now: every procurable kind.
    fn available(&self) -> Catalog {
        let free: Vec<InstanceKind> = self
            .catalog
            .kinds()
            .iter()
            .copied()
            .filter(|&k| self.procurable(k))
            .collect();
        Catalog::of(&free)
    }

    /// Spawn a worker lease for a tenant and schedule its readiness.
    fn provision_worker<C: Calendar<FEv>>(
        &mut self,
        dep: usize,
        kind: InstanceKind,
        now: SimTime,
        delay: SimDuration,
        q: &mut C,
    ) -> WorkerId {
        let id = if let Some(base) = self.namespace {
            let gdep = (base + dep) as u32;
            let t = &mut self.tenants[dep];
            let local = t.next_worker_local;
            t.next_worker_local += 1;
            WorkerId((gdep << 20) | local)
        } else {
            let id = WorkerId(self.next_worker_id);
            self.next_worker_id += 1;
            id
        };
        // Co-located CPU-bound workloads steal host cycles. On CPU-only
        // nodes the contention hits inference directly; on GPU nodes only
        // the host-side staging/batching slows, so the effect is dampened —
        // the Table III asymmetry ("especially pronounced … on CPU-only
        // nodes", with the (P) schemes nearly untouched).
        let raw = self.cfg.sebs_mix.contention_factor(kind.host_vcpus());
        let host_contention = if kind.is_gpu() { raw * 0.3 } else { raw };
        let mut w = Worker::provision(
            id,
            kind,
            now,
            delay,
            INITIAL_CONTAINERS,
            COLD_START,
            KEEP_ALIVE,
            host_contention,
        );
        // Faults already in progress apply to the newcomer too.
        let sev = self.degrade_severity();
        if sev > 0.0 {
            w.set_degradation(now, sev);
        }
        let mult = self.straggle_multiplier();
        if mult > 1.0 {
            w.set_cold_start_multiplier(mult);
        }
        if self.cfg.device_mode == DeviceMode::IterativeBatch {
            w.set_iterative(host_contention);
        }
        self.workers.insert(id, (dep, w));
        q.schedule(now + delay, FEv::WorkerReady(dep, id));
        let ready_at = now + delay;
        self.trace_scope(dep);
        self.tracer.emit(now, || TraceEventKind::WorkerProvisioned {
            worker: id.0,
            hw: kind,
            ready_at,
        });
        id
    }

    /// Release a worker: record its node stats and cost on its tenant.
    fn release_worker(&mut self, id: WorkerId, now: SimTime) {
        if let Some((dep, mut w)) = self.workers.remove(&id) {
            let kind = w.kind;
            self.trace_scope(dep);
            self.tracer.emit(now, || TraceEventKind::WorkerReleased {
                worker: id.0,
                hw: kind,
            });
            w.device.advance(now);
            let lease_s = now.saturating_since(w.lease_start).as_secs_f64();
            let t = &mut self.tenants[dep];
            t.cost.add_usage_hours(w.kind, lease_s / 3_600.0);
            t.cold_starts += w.pool.cold_starts();
            t.nodes.push(NodeStat {
                kind: w.kind,
                lease_start_s: w.lease_start.as_secs_f64(),
                lease_s,
                busy_s: w.device.busy_seconds() + w.iter_busy_seconds(),
            });
        }
    }

    /// Admit ready work on a worker, run the reactive autoscaler on
    /// container shortage, and arm the next device wake-up or iteration
    /// boundary. Joins and leaves of iteration-level workers only ever
    /// happen here and in the [`FEv::IterTick`] handler, never
    /// mid-iteration. A draining worker that went idle is released.
    fn sync_worker<C: Calendar<FEv>>(&mut self, id: WorkerId, now: SimTime, q: &mut C) {
        let Some(&(dep, _)) = self.workers.get(&id) else {
            return;
        };
        self.trace_scope(dep);
        let t = &self.tenants[dep];
        let (_, w) = self
            .workers
            .get_mut(&id)
            .expect("invariant: worker id taken from the live set");
        let iterative = w.is_iterative();
        let container_short = if iterative {
            w.iter_try_joins(now, &mut self.tracer)
        } else {
            w.admit_ready(now, &mut self.tracer).1
        };
        if container_short && w.is_active() {
            // Reactive scale-up: one container per waiting-but-unhosted
            // batch (or sequence: each resident sequence holds one).
            let waiting = if iterative {
                w.iter_waiting()
            } else {
                t.models.iter().map(|&m| w.queued(m) as u32).sum()
            };
            let free = w.pool.warm_free();
            let busy = w.pool.busy();
            let booting = (w.pool.len() as u32).saturating_sub(free + busy);
            let deficit = waiting.saturating_sub(free + booting);
            for _ in 0..deficit {
                let (cid, ready) = w.pool.spawn(now);
                self.tracer.emit(now, || TraceEventKind::ColdStartBegan {
                    worker: id.0,
                    container: cid.0,
                    ready_at: ready,
                });
                q.schedule(
                    ready,
                    FEv::ContainerReady {
                        worker: id,
                        container: cid,
                    },
                );
            }
        }
        if iterative {
            if let Some((dur, version)) = w.iter_begin(now, &mut self.tracer) {
                q.schedule(
                    now + dur,
                    FEv::IterTick {
                        worker: id,
                        version,
                    },
                );
            }
        } else if let Some(done_at) = w.device.next_completion() {
            // Guarantee forward progress even under µs rounding.
            let at = if done_at <= now {
                now + SimDuration::from_micros(1)
            } else {
                done_at
            };
            q.arm_wake(id.0, at, w.device.version());
        }
        if w.state == WorkerState::Draining && w.is_idle() {
            self.release_worker(id, now);
        }
    }

    /// Route a closed batch to the tenant's current routing target.
    fn dispatch<C: Calendar<FEv>>(&mut self, dep: usize, batch: Batch, now: SimTime, q: &mut C) {
        let target = self.tenants[dep].routing;
        let seed = self.cfg.seed;
        if let Some((_, w)) = self.workers.get_mut(&target) {
            let (batch_id, model, hw) = (batch.id.0, batch.model, w.kind);
            self.tracer.set_scope(self.tenants[dep].scope);
            self.tracer.emit(now, || TraceEventKind::BatchDispatched {
                batch: batch_id,
                model,
                worker: target.0,
                hw,
            });
            if w.is_iterative() {
                // The batch dissolves at the worker: each request becomes a
                // sequence that joins and leaves the running batch on its
                // own schedule (iteration-level execution).
                for r in &batch.requests {
                    w.enqueue_seq(make_seq(seed, r, batch.closed_at, hw));
                }
            } else {
                w.enqueue(batch);
            }
        }
        self.sync_worker(target, now, q);
    }

    /// Feed a tenant's batcher — an arrival (with its service hint, if
    /// any), or `None` when the model's window deadline fires — then
    /// dispatch whatever batch closes and refresh the deadline.
    fn batch_step<C: Calendar<FEv>>(
        &mut self,
        dep: usize,
        model: MlModel,
        arrival: Option<(Request, Option<f64>)>,
        now: SimTime,
        q: &mut C,
    ) {
        let namespaced = self.namespace.is_some();
        let gbase = ((self.namespace.unwrap_or(0) + dep) as u64) << 48;
        let mut next_id = if namespaced {
            self.tenants[dep].next_batch_local
        } else {
            self.next_batch_id
        };
        let b = self.tenants[dep]
            .batchers
            .get_mut(&model)
            .expect("invariant: batchers are registered for every model at construction");
        let mut alloc = || {
            next_id += 1;
            BatchId(if namespaced { gbase | next_id } else { next_id })
        };
        let (batch, trigger) = match arrival {
            Some((req, Some(h))) => (
                b.push_with_hint(req, h, now, &mut alloc),
                BatchTrigger::Size,
            ),
            Some((req, None)) => (b.push(req, now, &mut alloc), BatchTrigger::Size),
            None => (b.flush_if_due(now, &mut alloc), BatchTrigger::Window),
        };
        if namespaced {
            self.tenants[dep].next_batch_local = next_id;
        } else {
            self.next_batch_id = next_id;
        }
        if let Some(batch) = batch {
            self.trace_scope(dep);
            self.tracer.emit(now, || TraceEventKind::BatchFormed {
                batch: batch.id.0,
                model: batch.model,
                size: batch.size(),
                requests: batch.requests.iter().map(|r| r.id.0).collect(),
                trigger,
            });
            self.dispatch(dep, batch, now, q);
        }
        self.ensure_deadline(dep, model, now, q);
    }

    /// Schedule (or refresh) the batch-window deadline for a model. The
    /// deadline is clamped to `now`: a held-back partial batch (SLO-aware
    /// batching) can have an oldest request whose window expired in the
    /// past.
    fn ensure_deadline<C: Calendar<FEv>>(
        &mut self,
        dep: usize,
        model: MlModel,
        now: SimTime,
        q: &mut C,
    ) {
        let t = &mut self.tenants[dep];
        let next = t.batchers.get(&model).and_then(|b| b.next_deadline());
        let slot = t.deadline_at.entry(model).or_insert(None);
        match next {
            Some(d) => {
                let at = d.max(now);
                if *slot != Some(at) {
                    *slot = Some(at);
                    q.schedule(at, FEv::BatchDeadline(dep, model));
                }
            }
            None => *slot = None,
        }
    }

    fn observation(&mut self, dep: usize, now: SimTime) -> Observation {
        let lookahead = PROVISION_DELAY.as_secs_f64() / MONITOR_INTERVAL.as_secs_f64();
        // Kinds this tenant could procure: free units, plus whatever it
        // already holds (its current node is always "available" to it).
        let mut kinds = self.available().kinds().to_vec();
        for (_, w) in self.workers.values().filter(|(d, _)| *d == dep) {
            if !kinds.contains(&w.kind) {
                kinds.push(w.kind);
            }
        }
        let routing = self.workers.get(&self.tenants[dep].routing).map(|(_, w)| w);
        let mut model_obs = Vec::with_capacity(self.tenants[dep].models.len());
        for i in 0..self.tenants[dep].models.len() {
            let t = &mut self.tenants[dep];
            let m = t.models[i];
            let observed = t.windows.get_mut(&m).map_or(0.0, |w| w.estimate(now));
            let predictor = t
                .predictors
                .get_mut(&m)
                .expect("invariant: predictors are registered for every model at construction");
            predictor.observe(observed);
            let predicted = predictor.predict(lookahead);
            let pending_batcher = t.batchers.get(&m).map_or(0, |b| b.pending() as u64);
            let pending_queued: u64 = self
                .workers
                .values()
                .filter(|(d, _)| *d == dep)
                .map(|(_, w)| w.queued_requests(m))
                .sum();
            model_obs.push(ModelObs {
                model: m,
                pending_requests: pending_batcher + pending_queued,
                executing_batches: routing.map_or(0, |w| w.executing_of(m)),
                observed_rps: observed,
                predicted_rps: predicted,
                kv_demand_tokens: routing.map_or(0, |w| w.iter_kv_demand(m)),
            });
        }
        let t = &self.tenants[dep];
        Observation {
            now,
            slo_ms: self.cfg.slo_ms,
            current_hw: self.workers[&t.routing].1.kind,
            transitioning: t.pending_worker.is_some(),
            pending_hw: t
                .pending_worker
                .and_then(|id| self.workers.get(&id))
                .map(|(_, w)| w.kind),
            available: Catalog::of(&kinds),
            models: model_obs,
        }
    }

    /// Apply a scheduling decision: batch sizes and caps now, hardware
    /// transition in the background.
    fn apply_decision<C: Calendar<FEv>>(
        &mut self,
        dep: usize,
        decision: Decision,
        now: SimTime,
        q: &mut C,
    ) {
        let routing = self.tenants[dep].routing;
        let have = self.workers[&routing].1.kind;
        // 1. Batch sizes at the gateway: the policy's ask, clamped to what
        // the node can execute within the SLO (the CPU batched mode adapts
        // batch sizes, §IV-D).
        let budget = 0.8 * self.cfg.slo_ms;
        for &(model, md) in &decision.per_model {
            let cap = Profile::max_batch_within(model, have, budget).unwrap_or(1);
            if let Some(b) = self.tenants[dep].batchers.get_mut(&model) {
                b.set_batch_size(md.batch_size.clamp(1, cap.max(1)));
            }
        }
        // 2. Sharing caps on the live worker(s).
        let per_model: Vec<(MlModel, u32)> = decision
            .per_model
            .iter()
            .map(|&(m, md)| (m, md.spatial_cap))
            .collect();
        for id in [Some(routing), self.tenants[dep].pending_worker]
            .into_iter()
            .flatten()
        {
            if let Some((_, w)) = self.workers.get_mut(&id) {
                w.set_caps(decision.total_cap, &per_model);
            }
            self.sync_worker(id, now, q);
        }
        // 3. Hardware transition. With the retarget rule, a request to
        // upgrade *past* an in-flight transition target abandons the pending
        // node (a surge outgrew the rung committed to moments ago) and
        // provisions the new one; the abandoned lease is still billed for
        // its short life. Without it, an in-flight transition runs out.
        let want = decision.hw;
        if want != have && self.procurable(want) {
            let go = match self.tenants[dep].pending_worker {
                None => true,
                Some(pid) => {
                    let upgrade_past_pending = self.workers.get(&pid).is_some_and(|(_, w)| {
                        want != w.kind && want.performance_index() > w.kind.performance_index()
                    });
                    if self.tenants[dep].retarget && upgrade_past_pending {
                        self.trace_scope(dep);
                        self.tracer.emit(now, || TraceEventKind::TransitionEnded {
                            worker: pid.0,
                            committed: false,
                        });
                        self.release_worker(pid, now);
                        self.tenants[dep].pending_worker = None;
                        true
                    } else {
                        false
                    }
                }
            };
            if go {
                let id = self.provision_worker(dep, want, now, PROVISION_DELAY, q);
                self.tracer.emit(now, || TraceEventKind::TransitionBegan {
                    worker: id.0,
                    from: have,
                    to: want,
                });
                if let Some((_, w)) = self.workers.get_mut(&id) {
                    w.set_caps(decision.total_cap, &per_model);
                }
                self.tenants[dep].pending_worker = Some(id);
            }
        }
        self.tenants[dep].last_decision = decision;
    }

    /// Combined severity of every open degradation window.
    fn degrade_severity(&self) -> f64 {
        self.active_degrades.iter().map(|&(_, s)| s).sum()
    }

    /// Strongest multiplier among open straggler windows (1 = healthy).
    fn straggle_multiplier(&self) -> f64 {
        self.active_straggles
            .iter()
            .map(|&(_, m)| m)
            .fold(1.0, f64::max)
    }

    /// Worker ids in deterministic (provisioning) order — fault effects
    /// touch every worker. `BTreeMap` keys already iterate sorted; this
    /// keeps the explicit contract at the call sites.
    fn worker_ids_sorted(&self) -> Vec<WorkerId> {
        self.workers.keys().copied().collect()
    }

    /// Crash one tenant's routing worker: evict and requeue its work on the
    /// failover replacement, leased under the shared (post-crash) inventory.
    /// `taken` lists the kinds the current crash window has already taken
    /// down; a kind enters `unavailable` once per window. Returns the
    /// failed kind, if the tenant had a live routing worker.
    pub(crate) fn fail_tenant<C: Calendar<FEv>>(
        &mut self,
        dep: usize,
        now: SimTime,
        q: &mut C,
        taken: &mut Vec<InstanceKind>,
    ) -> Option<InstanceKind> {
        let failed_id = self.tenants[dep].routing;
        let (_, w) = self.workers.get_mut(&failed_id)?;
        let failed_kind = w.kind;
        // Evicted sequences lose their KV state — they restart from
        // scratch on the replacement.
        let lost_seqs = w.drain_iter();
        let rescued = w.fail(now);
        self.release_worker(failed_id, now);
        if !taken.contains(&failed_kind) {
            taken.push(failed_kind);
            self.unavailable.push(failed_kind);
        }
        // Abort any in-flight transition targeting the failed kind.
        if let Some(pid) = self.tenants[dep].pending_worker {
            if self.workers.get(&pid).map(|(_, w)| w.kind) == Some(failed_kind) {
                self.trace_scope(dep);
                self.tracer.emit(now, || TraceEventKind::TransitionEnded {
                    worker: pid.0,
                    committed: false,
                });
                self.release_worker(pid, now);
                self.tenants[dep].pending_worker = None;
            }
        }
        let chosen = self.failover.replacement(failed_kind, &self.available());
        let replacement = chosen.unwrap_or(failed_kind);
        let policy = self.failover.name();
        self.trace_scope(dep);
        self.tracer.emit(now, || TraceEventKind::Failover {
            failed: failed_kind,
            replacement: chosen,
            policy: policy.to_string(),
        });
        let id = self.provision_worker(dep, replacement, now, FAILOVER_DELAY, q);
        // Re-apply the last sharing decision to the replacement.
        let t = &self.tenants[dep];
        let per_model: Vec<(MlModel, u32)> = t
            .last_decision
            .per_model
            .iter()
            .map(|&(m, md)| (m, md.spatial_cap))
            .collect();
        let total_cap = t.last_decision.total_cap;
        // Re-make evicted sequences for the replacement hardware, in a
        // deterministic order: arrival, then request id.
        let mut lost = lost_seqs;
        lost.sort_by_key(|s| (s.arrival, s.request.0));
        let seed = self.cfg.seed;
        if let Some((_, w)) = self.workers.get_mut(&id) {
            w.set_caps(total_cap, &per_model);
            for b in rescued {
                w.enqueue_front(b);
            }
            for s in &lost {
                w.enqueue_seq(remake_seq(seed, s, replacement));
            }
        }
        let t = &mut self.tenants[dep];
        t.routing = id;
        t.transitions += 1;
        t.hw_timeline.push((now.as_secs_f64(), replacement));
        Some(failed_kind)
    }

    /// Apply a fault edge that touches every live worker alike — MPS
    /// degradation, straggler, cold-start storm. Node crashes need the
    /// tenant walk of [`Self::fail_tenant`] and are handled by the caller.
    pub(crate) fn apply_shared_edge<C: Calendar<FEv>>(
        &mut self,
        fe: FaultEvent,
        now: SimTime,
        q: &mut C,
    ) {
        match (self.faults.windows[fe.window].fault, fe.edge) {
            (FaultKind::NodeCrash, _) => {}
            (FaultKind::MpsDegrade { severity }, FaultEdge::Start) => {
                self.active_degrades.push((fe.window, severity));
                self.apply_degradation(now, q);
            }
            (FaultKind::MpsDegrade { .. }, FaultEdge::End) => {
                self.active_degrades.retain(|&(i, _)| i != fe.window);
                self.apply_degradation(now, q);
            }
            (FaultKind::Straggler { multiplier }, FaultEdge::Start) => {
                self.active_straggles.push((fe.window, multiplier));
                self.apply_straggle();
            }
            (FaultKind::Straggler { .. }, FaultEdge::End) => {
                self.active_straggles.retain(|&(i, _)| i != fe.window);
                self.apply_straggle();
            }
            (FaultKind::ColdStartStorm, FaultEdge::Start) => {
                for id in self.worker_ids_sorted() {
                    if let Some((_, w)) = self.workers.get_mut(&id) {
                        w.purge_warm_containers();
                    }
                }
            }
            (FaultKind::ColdStartStorm, FaultEdge::End) => {}
        }
    }

    /// Push the current degradation severity to every device and refresh
    /// completion wake-ups (the slowdown changed mid-flight).
    fn apply_degradation<C: Calendar<FEv>>(&mut self, now: SimTime, q: &mut C) {
        let sev = self.degrade_severity();
        for id in self.worker_ids_sorted() {
            if let Some((_, w)) = self.workers.get_mut(&id) {
                w.set_degradation(now, sev);
            }
            self.sync_worker(id, now, q);
        }
    }

    /// Push the current straggler multiplier to every pool (affects only
    /// cold starts begun from now on — no events to refresh).
    fn apply_straggle(&mut self) {
        let mult = self.straggle_multiplier();
        for (_, w) in self.workers.values_mut() {
            w.set_cold_start_multiplier(mult);
        }
    }

    /// Record completed requests on their tenant.
    fn record_completion(&mut self, dep: usize, c: CompletedRequest) {
        let t = &mut self.tenants[dep];
        *t.completed_count.entry(c.model).or_insert(0) += 1;
        t.completed.push(c);
    }

    /// Process one event — the single copy of the domain logic, generic
    /// over the calendar so the partitioned batch engine, the sharded
    /// coordinator and the incremental session executor
    /// ([`crate::session::SimSession`]) drive identical behaviour.
    pub(crate) fn on_event<C: Calendar<FEv>>(&mut self, now: SimTime, ev: FEv, q: &mut C) {
        match ev {
            FEv::Arrival(dep, req) => {
                let model = req.model;
                let t = &mut self.tenants[dep];
                *t.arrived.entry(model).or_insert(0) += 1;
                if let Some(w) = t.windows.get_mut(&model) {
                    w.record(now);
                }
                let rid = req.id.0;
                self.trace_scope(dep);
                self.tracer.emit(now, || TraceEventKind::RequestArrived {
                    request: rid,
                    model,
                });
                // Iteration-level mode knows each request's token lengths up
                // front (pure hash of the request id), so the gateway hints
                // the batcher with the real service time; request-level mode
                // keeps the hint-free path.
                let hint_ms = (self.cfg.device_mode == DeviceMode::IterativeBatch).then(|| {
                    TokenCard::for_model(model)
                        .sample(self.cfg.seed, rid)
                        .service_hint_ms(model)
                });
                self.batch_step(dep, model, Some((req, hint_ms)), now, q);
            }
            FEv::BatchDeadline(dep, model) => {
                let t = &mut self.tenants[dep];
                if t.deadline_at.get(&model).copied().flatten() != Some(now) {
                    return; // stale deadline
                }
                t.deadline_at.insert(model, None);
                // SLO-aware batching: while the serving worker still has
                // batches queued, dispatching another *partial* batch only
                // adds per-batch overhead — hold the window open and let the
                // batch fill (the size trigger still fires). Without this,
                // overload degenerates into thousands of tiny batches and
                // the device's effective capacity collapses.
                let backlogged = self
                    .workers
                    .get(&t.routing)
                    .is_some_and(|(_, w)| w.queued(model) > 0);
                if backlogged {
                    let next = now + self.cfg.batch_window;
                    t.deadline_at.insert(model, Some(next));
                    q.schedule(next, FEv::BatchDeadline(dep, model));
                    return;
                }
                self.batch_step(dep, model, None, now, q);
            }
            FEv::DeviceWake { worker, version } => {
                let Some((dep, w)) = self.workers.get_mut(&worker) else {
                    return;
                };
                if w.device.version() != version {
                    return; // occupancy changed since this wake was armed
                }
                let dep = *dep;
                let kind = w.kind;
                let done = w.collect_completions(now);
                self.trace_scope(dep);
                for (batch, started, solo_ms) in done {
                    let size = batch.size();
                    let (batch_id, model) = (batch.id.0, batch.model);
                    self.tracer.emit(now, || TraceEventKind::BatchCompleted {
                        batch: batch_id,
                        model,
                        worker: worker.0,
                        hw: kind,
                        started,
                        solo_ms,
                        size,
                    });
                    for r in &batch.requests {
                        self.record_completion(
                            dep,
                            CompletedRequest {
                                id: r.id,
                                model: r.model,
                                arrival: r.arrival,
                                batch_closed: batch.closed_at,
                                exec_start: started,
                                completed: now,
                                solo_ms,
                                hw: kind,
                                batch_size: size,
                            },
                        );
                    }
                }
                self.sync_worker(worker, now, q);
            }
            FEv::IterTick { worker, version } => {
                let Some((dep, w)) = self.workers.get_mut(&worker) else {
                    return;
                };
                let dep = *dep;
                let kind = w.kind;
                self.tracer.set_scope(self.tenants[dep].scope);
                let Some(retired) = w.iter_end(now, version, &mut self.tracer) else {
                    return; // stale boundary (eviction since the tick armed)
                };
                for r in retired {
                    self.record_completion(
                        dep,
                        CompletedRequest {
                            id: r.seq.request,
                            model: r.seq.model,
                            arrival: r.seq.arrival,
                            batch_closed: r.seq.closed_at,
                            exec_start: r.joined_at,
                            completed: now,
                            solo_ms: r.seq.solo_ms,
                            hw: kind,
                            batch_size: r.residents_at_join,
                        },
                    );
                }
                self.sync_worker(worker, now, q);
            }
            FEv::ContainerReady { worker, container } => {
                if let Some((dep, w)) = self.workers.get_mut(&worker) {
                    let dep = *dep;
                    w.pool.mark_warm(container, now);
                    self.trace_scope(dep);
                    self.tracer.emit(now, || TraceEventKind::ColdStartFinished {
                        worker: worker.0,
                        container: container.0,
                    });
                }
                self.sync_worker(worker, now, q);
            }
            FEv::WorkerReady(dep, id) => {
                let Some((_, w)) = self.workers.get_mut(&id) else {
                    return;
                };
                if w.state != WorkerState::Failed {
                    w.state = WorkerState::Active;
                }
                let kind = w.kind;
                if self.tenants[dep].pending_worker == Some(id) {
                    // Switch routing; move queued work over; drain the old.
                    let t = &mut self.tenants[dep];
                    t.pending_worker = None;
                    let old = t.routing;
                    t.routing = id;
                    t.transitions += 1;
                    t.hw_timeline.push((now.as_secs_f64(), kind));
                    let from = self.workers.get(&old).map(|(_, w)| w.kind);
                    self.trace_scope(dep);
                    self.tracer.emit(now, || TraceEventKind::TransitionEnded {
                        worker: id.0,
                        committed: true,
                    });
                    self.tracer.emit(now, || TraceEventKind::HwSwitched {
                        worker: id.0,
                        from,
                        to: kind,
                    });
                    let (moved, moved_seqs) = self
                        .workers
                        .get_mut(&old)
                        .map(|(_, w)| {
                            w.state = WorkerState::Draining;
                            // Waiting sequences move; residents keep
                            // decoding on the draining worker until they
                            // retire (their KV state is there).
                            (w.take_queued(), w.take_waiting_seqs())
                        })
                        .unwrap_or_default();
                    let seed = self.cfg.seed;
                    if let Some((_, new_w)) = self.workers.get_mut(&id) {
                        for b in moved {
                            new_w.enqueue(b);
                        }
                        for s in &moved_seqs {
                            new_w.enqueue_seq(remake_seq(seed, s, kind));
                        }
                    }
                    self.tenants[dep].scheduler.on_transition_complete(kind);
                    self.sync_worker(old, now, q);
                }
                self.sync_worker(id, now, q);
            }
            FEv::MonitorTick(dep) => {
                let obs = self.observation(dep, now);
                let decision = self.tenants[dep].scheduler.decide(&obs);
                if self.tracer.enabled() {
                    self.trace_scope(dep);
                    for ev in self.tenants[dep].scheduler.drain_decision_events() {
                        self.tracer
                            .emit(now, move || TraceEventKind::Decision(Box::new(ev)));
                    }
                }
                self.apply_decision(dep, decision, now, q);
                let next = now + MONITOR_INTERVAL;
                if next < self.trace_end {
                    q.schedule(next, FEv::MonitorTick(dep));
                }
            }
            FEv::PredictTick(dep) => {
                // Predictive scale-up on the routing worker: pre-warm enough
                // containers for the predicted concurrent batches.
                let t = &self.tenants[dep];
                let routing = t.routing;
                let kind = self.workers[&routing].1.kind;
                let mut target = 1u32;
                for m in &t.models {
                    let pred = t.predictors.get(m).map_or(0.0, |p| p.predict(1.0));
                    let bs = t.batchers.get(m).map_or(1, |b| b.batch_size()).max(1);
                    let solo_s = Profile::solo_ms(*m, kind, bs) / 1_000.0;
                    target += (pred * solo_s / bs as f64).ceil() as u32;
                }
                let scope = t.scope;
                if let Some((_, w)) = self.workers.get_mut(&routing) {
                    if w.is_active() {
                        for (cid, ready) in w.pool.prewarm_to(target, now) {
                            self.tracer.set_scope(scope);
                            self.tracer.emit(now, || TraceEventKind::ColdStartBegan {
                                worker: routing.0,
                                container: cid.0,
                                ready_at: ready,
                            });
                            q.schedule(
                                ready,
                                FEv::ContainerReady {
                                    worker: routing,
                                    container: cid,
                                },
                            );
                        }
                    }
                }
                let next = now + PREDICTIVE_INTERVAL;
                if next < self.trace_end {
                    q.schedule(next, FEv::PredictTick(dep));
                }
            }
            FEv::KeepAliveTick => {
                for (_, w) in self.workers.values_mut() {
                    w.pool.reap_idle(now);
                }
                let next = now + SimDuration::from_secs(60);
                if next < self.trace_end {
                    q.schedule(next, FEv::KeepAliveTick);
                }
            }
            FEv::Fault(idx) => {
                let fe = self.faults.events[idx];
                let fault = self.faults.windows[fe.window].fault;
                let win = fe.window as u32;
                let started = fe.edge == FaultEdge::Start;
                self.tracer.set_scope(0);
                self.tracer.emit(now, || TraceEventKind::FaultEdge {
                    window: win,
                    desc: format!("{fault:?}"),
                    started,
                });
                match (fault, fe.edge) {
                    (FaultKind::NodeCrash, FaultEdge::Start) => {
                        let mut taken = Vec::new();
                        for dep in 0..self.tenants.len() {
                            self.fail_tenant(dep, now, q, &mut taken);
                        }
                        self.crash_restore.insert(fe.window, taken);
                    }
                    (FaultKind::NodeCrash, FaultEdge::End) => {
                        // The failed kinds come back (unless another open
                        // window also took them); policies may switch back
                        // at the next monitor tick.
                        for kind in self.crash_restore.remove(&fe.window).unwrap_or_default() {
                            if let Some(pos) = self.unavailable.iter().position(|&k| k == kind) {
                                self.unavailable.remove(pos);
                            }
                        }
                    }
                    _ => self.apply_shared_edge(fe, now, q),
                }
            }
        }
    }

    /// Completed requests of tenant `dep` recorded at or after index
    /// `from`, in completion order. The session executor drains
    /// completions incrementally through this window to answer live
    /// callers.
    pub(crate) fn completed_from(&self, dep: usize, from: usize) -> &[CompletedRequest] {
        let done = &self.tenants[dep].completed;
        &done[from.min(done.len())..]
    }

    /// Emit the run summary (scope 0) with the engine's event count.
    pub(crate) fn emit_summary(&mut self, horizon: SimTime, engine_events: u64) {
        self.tracer.set_scope(0);
        self.tracer.emit(horizon, || TraceEventKind::RunSummary {
            events: engine_events,
            horizon,
        });
    }

    /// Release every outstanding worker at `horizon`, stop decision
    /// recording, and fold each tenant into its [`RunResult`], in tenant
    /// order. The tail of every executor's run.
    pub(crate) fn into_results(mut self, horizon: SimTime) -> Vec<RunResult> {
        for id in self.worker_ids_sorted() {
            self.release_worker(id, horizon);
        }
        let traced = self.tracer.enabled();
        let trace_end = self.trace_end;
        self.tenants
            .into_iter()
            .map(|t| {
                if traced {
                    t.scheduler.set_decision_recording(false);
                }
                t.into_result(trace_end)
            })
            .collect()
    }
}

impl<'a> World for FleetHarness<'a> {
    type Event = FEv;

    fn handle(&mut self, now: SimTime, ev: FEv, cal: &mut PartitionCalendar<FEv>) {
        self.on_event(now, ev, cal);
    }
}

/// One event loop: a harness and its calendar. The serial batch engine,
/// every fleet shard and the incremental [`crate::SimSession`] each hold
/// one, built by [`Partition::new`].
///
/// Arrivals ride the calendar's rail instead of its heap and device wakes
/// live in per-worker registers, with virtual sequence numbers keeping the
/// `(time, seq)` total order — and therefore every tie-break and every
/// output byte — identical to a plain heap calendar fed the same schedule
/// (`tests::heap_reference_*`).
pub(crate) struct Partition<'a> {
    pub(crate) harness: FleetHarness<'a>,
    pub(crate) cal: PartitionCalendar<FEv>,
}

impl<'a> Partition<'a> {
    /// Put `arrivals` (per local tenant, in schedule order) on the rail,
    /// which owns the run's first sequence numbers, reserve the next
    /// `reserved` for arrivals injected later, then seed the calendar
    /// ([`FleetHarness::seed`]).
    pub(crate) fn new(
        mut harness: FleetHarness<'a>,
        arrivals: Vec<Vec<SampledArrival>>,
        reserved: u64,
        fault_edges: bool,
    ) -> Self {
        let items: Vec<(SimTime, FEv)> = arrivals
            .into_iter()
            .enumerate()
            .flat_map(|(dep, reqs)| {
                reqs.into_iter().map(move |sa| {
                    let req = Request {
                        id: sa.id,
                        model: sa.model,
                        arrival: sa.at,
                    };
                    (sa.at, FEv::Arrival(dep, req))
                })
            })
            .collect();
        let mut cal = PartitionCalendar::new(items, reserved);
        harness.seed(&mut cal, fault_edges);
        Partition { harness, cal }
    }

    /// Run every event ordered before `bound`; returns how many ran.
    pub(crate) fn run_to(&mut self, bound: EventKey) -> u64 {
        run_partition(
            &mut self.harness,
            &mut self.cal,
            bound,
            paldia_sim::engine::DEFAULT_EVENT_BUDGET,
        )
        .events()
    }
}

/// The serial engine: every tenant with its `arrivals` in one
/// [`Partition`], fault edges in its calendar, run to the horizon
/// `trace_end + DRAIN_GRACE`.
pub(crate) fn run_serial<'a>(
    tenants: Vec<Tenant<'a>>,
    arrivals: Vec<Vec<SampledArrival>>,
    catalog: Catalog,
    inventory: u32,
    cfg: &'a SimConfig,
    trace_end: SimTime,
    tracer: Tracer<'a>,
) -> RunOutput {
    let horizon = trace_end + DRAIN_GRACE;
    let harness = FleetHarness::new(cfg, catalog, inventory, tenants, trace_end, tracer, None);
    let mut part = Partition::new(harness, arrivals, 0, true);
    let events = part.run_to(EventKey::new(horizon, 0));
    let mut harness = part.harness;
    harness.emit_summary(horizon, events);
    RunOutput {
        results: harness.into_results(horizon),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FailoverPolicyKind, FaultPlan, FaultWindow};
    use crate::harness::sample_arrivals;
    use crate::policy::ModelDecision;
    use paldia_obs::{TraceEvent, VecSink};
    use paldia_sim::EventQueue;
    use paldia_traces::RateTrace;
    use std::sync::{Arc, Mutex};

    /// Wants one kind; logs whether that kind was offered to it.
    struct Wants(InstanceKind, Arc<Mutex<Vec<(SimTime, bool)>>>);

    impl Scheduler for Wants {
        fn name(&self) -> &str {
            "wants"
        }
        fn decide(&mut self, obs: &Observation) -> Decision {
            let offered = obs.available.contains(self.0);
            self.1.lock().expect("log lock").push((obs.now, offered));
            Decision {
                hw: self.0,
                total_cap: None,
                per_model: vec![],
            }
        }
    }

    /// Two open crash windows that take down the same kinds: a kind stays
    /// out of `Observation::available` until the *last* of them ends.
    /// `FaultPlan` normalization merges overlapping crash windows, so the
    /// compiled schedule is injected directly. Tenant 1's pending lease on
    /// A (begun at 0.5 s) survives the first crash, which it suffers on B,
    /// lands at 4.5 s, and the second window crashes A again.
    #[test]
    fn a_kind_stays_out_until_its_last_crash_window_ends() {
        let (a, b) = (InstanceKind::C6i_2xlarge, InstanceKind::G3s_xlarge);
        let mut cfg = SimConfig::with_seed(9);
        cfg.failover = FailoverPolicyKind::CheapestMorePerformant;
        let log = Arc::new(Mutex::new(Vec::new()));
        let (mut s0, mut s1) = (Wants(a, Arc::clone(&log)), Wants(a, Arc::default()));
        let tenants = vec![
            Tenant::new(
                &mut s0,
                vec![MlModel::MobileNet],
                a,
                &cfg,
                Some("t0".into()),
                1,
            ),
            Tenant::new(
                &mut s1,
                vec![MlModel::MobileNet],
                b,
                &cfg,
                Some("t1".into()),
                2,
            ),
        ];
        let end = SimTime::from_secs(60);
        let mut harness = FleetHarness::new(
            &cfg,
            Catalog::of(&[a, b]),
            u32::MAX,
            tenants,
            end,
            Tracer::disabled(),
            None,
        );
        let window = |start, dur| FaultWindow {
            start: SimTime::from_secs(start),
            dur: SimDuration::from_secs(dur),
            fault: FaultKind::NodeCrash,
        };
        let edge = |at, window, edge| FaultEvent {
            at: SimTime::from_secs(at),
            window,
            edge,
        };
        harness.faults = CompiledFaults {
            windows: vec![window(2, 20), window(8, 25)],
            events: vec![
                edge(2, 0, FaultEdge::Start),
                edge(8, 1, FaultEdge::Start),
                edge(22, 0, FaultEdge::End),
                edge(33, 1, FaultEdge::End),
            ],
        };
        let mut part = Partition::new(harness, vec![vec![], vec![]], 0, true);
        part.run_to(EventKey::new(end, 0));
        let t1 = &part.harness.tenants[1].hw_timeline;
        assert!(t1.iter().any(|&(t, k)| k == a && t < 8.0), "{t1:?}");
        let log = log.lock().expect("log lock");
        let offered = |from: u64, to: u64| -> Vec<bool> {
            log.iter()
                .filter(|(t, _)| (SimTime::from_secs(from)..SimTime::from_secs(to)).contains(t))
                .map(|&(_, on)| on)
                .collect()
        };
        assert!(
            offered(22, 33).iter().all(|&on| !on),
            "A back while a window is open"
        );
        assert!(!offered(22, 33).is_empty());
        assert!(
            offered(33, 60).iter().any(|&on| on),
            "A back after the last window"
        );
    }

    /// Fixed hardware (switching to `then` after `switch_after` decisions),
    /// default batching, optional spatial cap.
    struct Fixed {
        hw: InstanceKind,
        then: InstanceKind,
        switch_after: u32,
        total_cap: Option<u32>,
        decisions: u32,
    }

    impl Fixed {
        fn on(hw: InstanceKind) -> Self {
            Fixed {
                hw,
                then: hw,
                switch_after: 0,
                total_cap: None,
                decisions: 0,
            }
        }
    }

    impl Scheduler for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn decide(&mut self, obs: &Observation) -> Decision {
            self.decisions += 1;
            let hw = if self.decisions > self.switch_after {
                self.then
            } else {
                self.hw
            };
            let per_model = obs.models.iter().map(|m| {
                let batch_size = Profile::default_batch(m.model);
                let spatial_cap = u32::MAX;
                (
                    m.model,
                    ModelDecision {
                        batch_size,
                        spatial_cap,
                    },
                )
            });
            Decision {
                hw,
                total_cap: self.total_cap,
                per_model: per_model.collect(),
            }
        }
    }

    fn steady(model: MlModel, rps: f64, secs: u64) -> WorkloadSpec {
        let (dur, step) = (SimDuration::from_secs(secs), SimDuration::from_secs(1));
        WorkloadSpec::new(model, RateTrace::constant(rps, dur, step))
    }

    /// The `RunSummary` event count of a traced stream, zeroed in place.
    fn take_summary_count(events: &mut [TraceEvent]) -> u64 {
        let mut count = None;
        for e in events {
            if let TraceEventKind::RunSummary { events, .. } = &mut e.kind {
                assert!(count.is_none(), "one summary per stream");
                count = Some(std::mem::take(events));
            }
        }
        count.expect("traced stream ends in a summary")
    }

    /// Run a lone deployment twice, traced: through [`run_serial`] on the
    /// calendar, and on the reference heap — every arrival scheduled
    /// first, every wake pushed as an ordinary event, popped until the
    /// horizon. Results and streams must match byte for byte, except the
    /// `RunSummary` count: the heap also pops superseded wakes as no-ops.
    fn assert_heap_reference(
        sched: impl Fn() -> Fixed,
        specs: &[WorkloadSpec],
        cfg: &SimConfig,
    ) -> RunResult {
        let (arrivals, trace_end) = sample_arrivals(specs, cfg.seed);
        let models: Vec<MlModel> = specs.iter().map(|s| s.model).collect();
        let horizon = trace_end + DRAIN_GRACE;
        let (mut cal_sched, mut heap_sched) = (sched(), sched());
        let hw = cal_sched.hw;

        let mut cal_sink = VecSink::new();
        let tenant = Tenant::new(&mut cal_sched, models.clone(), hw, cfg, None, 0);
        let cal = run_serial(
            vec![tenant],
            vec![arrivals.clone()],
            Catalog::table_ii(),
            u32::MAX,
            cfg,
            trace_end,
            Tracer::new(&mut cal_sink),
        );

        let mut heap_sink = VecSink::new();
        let tenant = Tenant::new(&mut heap_sched, models, hw, cfg, None, 0);
        let mut harness = FleetHarness::new(
            cfg,
            Catalog::table_ii(),
            u32::MAX,
            vec![tenant],
            trace_end,
            Tracer::new(&mut heap_sink),
            None,
        );
        let mut q = EventQueue::new();
        for sa in &arrivals {
            let req = Request {
                id: sa.id,
                model: sa.model,
                arrival: sa.at,
            };
            q.schedule(sa.at, FEv::Arrival(0, req));
        }
        harness.seed(&mut q, true);
        let mut events = 0;
        while let Some((now, ev)) = q.pop().filter(|&(t, _)| t < horizon) {
            events += 1;
            harness.on_event(now, ev, &mut q);
        }
        harness.emit_summary(horizon, events);
        let heap = harness.into_results(horizon);

        assert_eq!(format!("{:?}", cal.results), format!("{heap:?}"));
        assert!(
            events >= cal.events,
            "heap {events} < calendar {}",
            cal.events
        );
        let (mut a, mut b) = (cal_sink.into_events(), heap_sink.into_events());
        assert_eq!(take_summary_count(&mut a), cal.events);
        assert_eq!(take_summary_count(&mut b), events);
        assert!(a.len() > 1, "traced run emits events");
        assert_eq!(a, b, "traced streams diverged");
        cal.results.into_iter().next().expect("one tenant")
    }

    #[test]
    fn heap_reference_overload_with_transitions() {
        // A one-at-a-time cap under overload keeps the batch-deadline and
        // hold-back paths hot; the switch exercises a transition.
        let sched = || Fixed {
            then: InstanceKind::P3_2xlarge,
            switch_after: 10,
            total_cap: Some(1),
            ..Fixed::on(InstanceKind::G3s_xlarge)
        };
        let specs = [steady(MlModel::ResNet50, 700.0, 45)];
        let result = assert_heap_reference(sched, &specs, &SimConfig::with_seed(12));
        assert!(result.transitions >= 1, "scenario must exercise a switch");
    }

    #[test]
    fn heap_reference_every_fault_kind() {
        let mut cfg = SimConfig::with_seed(15);
        cfg.faults = FaultPlan::new()
            .crash(SimTime::from_secs(20), SimDuration::from_secs(25))
            .degrade(SimTime::from_secs(10), SimDuration::from_secs(30), 0.4)
            .straggler(SimTime::from_secs(35), SimDuration::from_secs(20), 3.0)
            .cold_start_storm(SimTime::from_secs(60));
        cfg.failover = FailoverPolicyKind::CheapestMorePerformant;
        let sched = || Fixed::on(InstanceKind::G3s_xlarge);
        let specs = [steady(MlModel::ResNet50, 50.0, 90)];
        assert_heap_reference(sched, &specs, &cfg);
    }

    #[test]
    fn heap_reference_iterative_llm_mode() {
        let cfg = SimConfig::with_seed(16).with_iterative_batching();
        let sched = || Fixed::on(InstanceKind::P3_2xlarge);
        let specs = [
            steady(MlModel::Bert, 20.0, 30),
            steady(MlModel::FunnelTransformer, 20.0, 30),
        ];
        let result = assert_heap_reference(sched, &specs, &cfg);
        assert!(!result.completed.is_empty());
    }
}
