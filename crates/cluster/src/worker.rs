//! A worker node: one leased instance with its device, container pool, and
//! per-model dispatch queues under the admission caps set by the scheduler.
//!
//! The worker realizes the Job Distribution layer (§IV-D): closed batches
//! queue per model; admission lets a batch start executing when
//!
//! 1. the device-wide concurrency cap allows it (`Some(1)` = pure time
//!    sharing, `None` = unbounded MPS, Paldia sets per-model caps instead),
//! 2. the model's spatial cap allows it (Paldia's `(N−y)/BS` concurrent
//!    batches),
//! 3. the GPU has memory for another resident batch, and
//! 4. a warm container is free to host it (otherwise the reactive
//!    autoscaler pays a cold start).

use crate::container::ContainerPool;
use crate::device::{DeviceJob, IterSeq, IterativeEngine, RetiredSeq, SharedDevice};
use crate::request::{Batch, BatchId};
use paldia_hw::{GpuModel, InstanceKind};
use paldia_obs::{TraceEventKind, Tracer};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::{MlModel, Profile};
use std::collections::{BTreeMap, VecDeque};

/// Identifier of a worker within a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

/// Worker lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// VM launching + initial containers warming; usable at `ready_at`.
    Provisioning {
        /// When the worker becomes routable.
        ready_at: SimTime,
    },
    /// Serving traffic.
    Active,
    /// No longer routed to; finishing in-flight work before release.
    Draining,
    /// Failed (node-failure study); unusable.
    Failed,
}

/// A leased worker node.
#[derive(Clone, Debug)]
pub struct Worker {
    /// Identifier.
    pub id: WorkerId,
    /// Instance kind this worker runs on.
    pub kind: InstanceKind,
    /// Lifecycle state.
    pub state: WorkerState,
    /// The shared compute device.
    pub device: SharedDevice,
    /// Container pool.
    pub pool: ContainerPool,
    /// When the lease (and billing) started.
    pub lease_start: SimTime,
    queues: BTreeMap<MlModel, VecDeque<Batch>>,
    caps: BTreeMap<MlModel, u32>,
    total_cap: Option<u32>,
    /// Batches on the device, found by id: only a handful ever execute.
    executing: Vec<Batch>,
    model_order: Vec<MlModel>,
    /// Device jobs popped by [`Worker::collect_completions`], reused.
    popped: Vec<DeviceJob>,
    iter: Option<IterState>,
}

/// Iteration-level execution state, present when the run's
/// [`crate::device::DeviceMode`] is `IterativeBatch`. The [`SharedDevice`]
/// then stays empty; sequences wait here and execute on the engine.
#[derive(Clone, Debug)]
struct IterState {
    engine: IterativeEngine,
    /// Sequences waiting to join, FIFO. Admission is strictly
    /// head-of-line (no skipping): a blocked long sequence is never
    /// starved by short ones slipping past it, and the join order is
    /// trivially deterministic.
    wait: VecDeque<IterSeq>,
    /// True between an `IterationStarted` emission and its boundary tick —
    /// joins are refused while an iteration is in flight.
    running: bool,
}

impl Worker {
    /// Lease a new worker. `provision_delay` covers VM launch plus warming
    /// the `initial_warm` containers; the worker is routable afterwards.
    #[allow(clippy::too_many_arguments)]
    pub fn provision(
        id: WorkerId,
        kind: InstanceKind,
        now: SimTime,
        provision_delay: SimDuration,
        initial_warm: u32,
        cold_start: SimDuration,
        keep_alive: SimDuration,
        host_contention: f64,
    ) -> Self {
        let ready_at = now + provision_delay;
        let total_cap = if kind.is_gpu() { None } else { Some(1) };
        Worker {
            id,
            kind,
            state: WorkerState::Provisioning { ready_at },
            device: SharedDevice::new(now, host_contention),
            pool: ContainerPool::new(ready_at, initial_warm.max(1), cold_start, keep_alive),
            lease_start: now,
            queues: BTreeMap::new(),
            caps: BTreeMap::new(),
            total_cap,
            executing: Vec::new(),
            model_order: Vec::new(),
            popped: Vec::new(),
            iter: None,
        }
    }

    /// Switch this worker to iteration-level continuous batching. The KV
    /// budget comes from the hardware catalog; `host_contention` mirrors
    /// the factor the [`SharedDevice`] was provisioned with.
    pub fn set_iterative(&mut self, host_contention: f64) {
        self.iter = Some(IterState {
            engine: IterativeEngine::new(self.kind.kv_capacity_tokens(), host_contention),
            wait: VecDeque::new(),
            running: false,
        });
    }

    /// True when this worker executes iteration-level batches.
    pub fn is_iterative(&self) -> bool {
        self.iter.is_some()
    }

    /// True once the worker is routable.
    pub fn is_active(&self) -> bool {
        self.state == WorkerState::Active
    }

    /// Apply the scheduler's sharing decision. CPU nodes are always serial
    /// (the framework's batched CPU mode), regardless of the decision.
    pub fn set_caps(&mut self, total_cap: Option<u32>, per_model: &[(MlModel, u32)]) {
        self.total_cap = if self.kind.is_gpu() {
            total_cap
        } else {
            Some(1)
        };
        for &(m, cap) in per_model {
            self.caps.insert(m, cap);
        }
    }

    /// Enqueue a closed batch for execution.
    pub fn enqueue(&mut self, batch: Batch) {
        let model = batch.model;
        if !self.model_order.contains(&model) {
            self.model_order.push(model);
        }
        self.queues.entry(model).or_default().push_back(batch);
    }

    /// Enqueue at the front (requeued work after a failure keeps priority).
    pub fn enqueue_front(&mut self, batch: Batch) {
        let model = batch.model;
        if !self.model_order.contains(&model) {
            self.model_order.push(model);
        }
        self.queues.entry(model).or_default().push_front(batch);
    }

    /// Batches queued for a model (not yet executing). Under
    /// iteration-level execution each waiting sequence counts as one unit.
    pub fn queued(&self, model: MlModel) -> usize {
        let batches = self.queues.get(&model).map_or(0, |q| q.len());
        let waiting = self
            .iter
            .as_ref()
            .map_or(0, |it| it.wait.iter().filter(|s| s.model == model).count());
        batches + waiting
    }

    /// Requests queued across all models (dispatch queues only; waiting
    /// sequences under iteration-level execution).
    pub fn queued_requests(&self, model: MlModel) -> u64 {
        let batched = self
            .queues
            .get(&model)
            .map_or(0, |q| q.iter().map(|b| b.size() as u64).sum());
        let waiting = self
            .iter
            .as_ref()
            .map_or(0, |it| it.wait.iter().filter(|s| s.model == model).count())
            as u64;
        batched + waiting
    }

    /// Batches currently executing for a model (resident sequences under
    /// iteration-level execution).
    pub fn executing_of(&self, model: MlModel) -> u32 {
        self.device.active_count_of(model) as u32
            + self
                .iter
                .as_ref()
                .map_or(0, |it| it.engine.resident_count_of(model))
    }

    fn gpu(&self) -> Option<GpuModel> {
        self.kind.gpu()
    }

    fn resident_mem_gib(&self) -> f64 {
        self.device
            .active_jobs()
            .iter()
            .map(|j| Profile::batch_mem_gib(j.model))
            .sum()
    }

    fn can_admit(&self, model: MlModel) -> bool {
        if let Some(cap) = self.total_cap {
            if self.device.active_count() as u32 >= cap {
                return false;
            }
        }
        let model_cap = self.caps.get(&model).copied().unwrap_or(u32::MAX);
        if self.device.active_count_of(model) as u32 >= model_cap {
            return false;
        }
        if let Some(gpu) = self.gpu() {
            if self.resident_mem_gib() + Profile::batch_mem_gib(model) > gpu.memory_gib() {
                return false;
            }
        }
        true
    }

    /// Admit as many queued batches as caps/memory/containers allow, round
    /// robin across models. Returns how many were admitted (the caller
    /// re-arms the completion wake) and whether a container shortage
    /// blocked further admission (reactive scale-up trigger). Each
    /// admission is traced with its container, share, and the device
    /// contention state it landed in.
    pub fn admit_ready(&mut self, now: SimTime, tracer: &mut Tracer<'_>) -> (usize, bool) {
        if self.state != WorkerState::Active && self.state != WorkerState::Draining {
            return (0, false);
        }
        let mut admitted = 0;
        let mut container_short = false;
        loop {
            let mut progressed = false;
            for i in 0..self.model_order.len() {
                let model = self.model_order[i];
                let Some(front_id) = self
                    .queues
                    .get(&model)
                    .and_then(|q| q.front())
                    .map(|b| b.id)
                else {
                    continue;
                };
                if !self.can_admit(model) {
                    continue;
                }
                // Claim a container for the peeked batch before dequeueing.
                let Some(container) = self.pool.claim(front_id) else {
                    container_short = true;
                    continue;
                };
                let batch = self
                    .queues
                    .get_mut(&model)
                    .and_then(|q| q.pop_front())
                    .expect("invariant: front_id was just peeked from this queue");
                let solo_ms = Profile::solo_ms(batch.model, self.kind, batch.size());
                let fbr = Profile::effective_share_for_batch(batch.model, self.kind, batch.size());
                self.device
                    .admit(now, batch.id, batch.model, fbr, solo_ms / 1_000.0);
                let (batch_id, worker_id) = (batch.id.0, self.id.0);
                tracer.emit(now, || TraceEventKind::BatchAdmitted {
                    batch: batch_id,
                    model,
                    worker: worker_id,
                    container: container.0,
                    share: fbr,
                    concurrency: self.device.active_count() as u32,
                    slowdown: self.device.slowdown(),
                });
                admitted += 1;
                self.executing.push(batch);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        (admitted, container_short)
    }

    /// Take the executing batch `id` off the worker.
    fn take_executing(&mut self, id: BatchId) -> Option<Batch> {
        let i = self.executing.iter().position(|b| b.id == id)?;
        Some(self.executing.swap_remove(i))
    }

    /// Pop device completions, release their containers, and append the
    /// finished batches to `out`, in admission order, each with its
    /// execution start and solo time (ms).
    pub fn collect_completions(&mut self, now: SimTime, out: &mut Vec<(Batch, SimTime, f64)>) {
        let mut popped = std::mem::take(&mut self.popped);
        self.device.pop_completed(now, &mut popped);
        for job in popped.drain(..) {
            self.pool.release(job.batch, now);
            if let Some(batch) = self.take_executing(job.batch) {
                out.push((batch, job.started, job.solo_s * 1_000.0));
            }
        }
        self.popped = popped;
    }

    /// Enqueue a sequence on the iteration-level wait queue. No-op on
    /// request-level workers (callers only dispatch sequences in LLM mode).
    pub fn enqueue_seq(&mut self, seq: IterSeq) {
        if let Some(it) = self.iter.as_mut() {
            it.wait.push_back(seq);
        }
    }

    /// Sequences waiting to join.
    pub fn iter_waiting(&self) -> u32 {
        self.iter.as_ref().map_or(0, |it| it.wait.len() as u32)
    }

    /// KV tokens demanded by this model's live sequences (resident plus
    /// waiting) — the scheduler's second capacity dimension.
    pub fn iter_kv_demand(&self, model: MlModel) -> u64 {
        self.iter.as_ref().map_or(0, |it| {
            it.engine.resident_kv_of(model)
                + it.wait
                    .iter()
                    .filter(|s| s.model == model)
                    .map(|s| s.kv_tokens)
                    .sum::<u64>()
        })
    }

    /// Accumulated engine busy seconds (0 on request-level workers).
    pub fn iter_busy_seconds(&self) -> f64 {
        self.iter
            .as_ref()
            .map_or(0.0, |it| it.engine.busy_seconds())
    }

    /// Admit waiting sequences at the current iteration boundary:
    /// head-of-line sequences join while KV budget, bandwidth share, and a
    /// warm container allow. Returns whether a container shortage blocked a
    /// join (reactive scale-up trigger). Refuses mid-iteration.
    pub fn iter_try_joins(&mut self, now: SimTime, tracer: &mut Tracer<'_>) -> bool {
        if self.state != WorkerState::Active && self.state != WorkerState::Draining {
            return false;
        }
        let worker_id = self.id.0;
        let Some(it) = self.iter.as_mut() else {
            return false;
        };
        if it.running {
            return false;
        }
        let mut short = false;
        while let Some(front) = it.wait.front() {
            if !it.engine.can_admit(front) {
                break;
            }
            if self.pool.claim(BatchId(front.request.0)).is_none() {
                short = true;
                break;
            }
            let seq = it
                .wait
                .pop_front()
                .expect("invariant: front was just peeked from the wait queue");
            let (req, model, kv, iteration) = (
                seq.request.0,
                seq.model,
                seq.kv_tokens,
                it.engine.iteration(),
            );
            tracer.emit(now, || TraceEventKind::BatchJoin {
                request: req,
                model,
                worker: worker_id,
                iteration,
                kv_tokens: kv,
            });
            it.engine.join(now, seq);
        }
        short
    }

    /// Begin the next iteration if sequences are resident and none is in
    /// flight: commits the duration, emits `IterationStarted`, and returns
    /// `(duration, engine version)` for the caller to schedule the
    /// boundary tick.
    pub fn iter_begin(
        &mut self,
        now: SimTime,
        tracer: &mut Tracer<'_>,
    ) -> Option<(SimDuration, u64)> {
        let kind = self.kind;
        let worker_id = self.id.0;
        let it = self.iter.as_mut()?;
        if it.running || !it.engine.is_busy() {
            return None;
        }
        let dur = it.engine.begin_iteration(kind);
        it.running = true;
        let (iteration, residents, kv_used, kv_capacity, dur_us) = (
            it.engine.iteration(),
            it.engine.residents(),
            it.engine.kv_used(),
            it.engine.kv_capacity(),
            dur.as_micros(),
        );
        tracer.emit(now, || TraceEventKind::IterationStarted {
            worker: worker_id,
            iteration,
            residents,
            kv_used,
            kv_capacity,
            dur_us,
        });
        Some((dur, it.engine.version()))
    }

    /// Process an iteration-boundary tick: every resident advances one
    /// step, finished sequences leave (their containers released, a
    /// `BatchLeave` span emitted each). Returns `None` for stale ticks
    /// (version mismatch after an eviction).
    pub fn iter_end(
        &mut self,
        now: SimTime,
        version: u64,
        tracer: &mut Tracer<'_>,
    ) -> Option<Vec<RetiredSeq>> {
        let worker_id = self.id.0;
        let retired = {
            let it = self.iter.as_mut()?;
            if !it.running || it.engine.version() != version {
                return None;
            }
            it.running = false;
            it.engine.step()
        };
        for r in &retired {
            self.pool.release(BatchId(r.seq.request.0), now);
            let (req, model, iteration, decoded) =
                (r.seq.request.0, r.seq.model, r.last_iteration, r.decoded);
            tracer.emit(now, || TraceEventKind::BatchLeave {
                request: req,
                model,
                worker: worker_id,
                iteration,
                decoded,
            });
        }
        Some(retired)
    }

    /// Drain for transition: take every *waiting* sequence (residents keep
    /// decoding here until they retire, exactly like executing batches).
    pub fn take_waiting_seqs(&mut self) -> Vec<IterSeq> {
        self.iter
            .as_mut()
            .map_or_else(Vec::new, |it| it.wait.drain(..).collect())
    }

    /// Drain for failure: evict residents (their KV state is lost — the
    /// caller restarts them from scratch) and take every waiting sequence.
    pub fn drain_iter(&mut self) -> Vec<IterSeq> {
        let Some(it) = self.iter.as_mut() else {
            return Vec::new();
        };
        it.running = false;
        let mut out = it.engine.evict_all();
        out.extend(it.wait.drain(..));
        out
    }

    /// Fail the node: evict all executing work and return it (with queued
    /// batches) for requeueing elsewhere. Containers are lost.
    pub fn fail(&mut self, now: SimTime) -> Vec<Batch> {
        self.state = WorkerState::Failed;
        let mut rescued = Vec::new();
        for job in self.device.evict_all(now) {
            if let Some(b) = self.take_executing(job.batch) {
                rescued.push(b);
            }
        }
        for (_, q) in self.queues.iter_mut() {
            rescued.extend(q.drain(..));
        }
        rescued.sort_by_key(|b| b.oldest_arrival());
        rescued
    }

    /// Apply an MPS-degradation fault to this worker's device (fault layer).
    /// Severity 0 clears it. Under iteration-level execution the severity
    /// applies to iterations *begun* after the change.
    pub fn set_degradation(&mut self, now: SimTime, severity: f64) {
        self.device.set_degradation(now, severity);
        if let Some(it) = self.iter.as_mut() {
            it.engine.set_degradation(severity);
        }
    }

    /// Apply a container-straggler fault to this worker's pool (fault
    /// layer). Multiplier 1 clears it.
    pub fn set_cold_start_multiplier(&mut self, multiplier: f64) {
        self.pool.set_cold_start_multiplier(multiplier);
    }

    /// Cold-start storm (fault layer): purge every warm idle container.
    /// Returns how many were killed.
    pub fn purge_warm_containers(&mut self) -> u32 {
        self.pool.purge_warm()
    }

    /// Drain for release: take every *queued* batch (executing work keeps
    /// running here until it completes). Used during hardware transitions.
    pub fn take_queued(&mut self) -> Vec<Batch> {
        let mut out = Vec::new();
        for (_, q) in self.queues.iter_mut() {
            out.extend(q.drain(..));
        }
        out.sort_by_key(|b| b.oldest_arrival());
        out
    }

    /// True when nothing is executing or queued (safe to release).
    pub fn is_idle(&self) -> bool {
        !self.device.is_busy()
            && self.queues.values().all(|q| q.is_empty())
            && self
                .iter
                .as_ref()
                .is_none_or(|it| !it.engine.is_busy() && it.wait.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Request, RequestId};

    fn batch(id: u64, model: MlModel, n: u32, at: SimTime) -> Batch {
        Batch {
            id: BatchId(id),
            model,
            requests: (0..n)
                .map(|i| Request {
                    id: RequestId(id * 1_000 + i as u64),
                    model,
                    arrival: at,
                })
                .collect(),
            closed_at: at,
        }
    }

    fn gpu_worker(kind: InstanceKind, warm: u32) -> Worker {
        let mut w = Worker::provision(
            WorkerId(0),
            kind,
            SimTime::ZERO,
            SimDuration::ZERO,
            warm,
            SimDuration::from_millis(1_500),
            SimDuration::from_secs(600),
            0.0,
        );
        w.state = WorkerState::Active;
        w
    }

    #[test]
    fn admits_up_to_total_cap() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 8);
        w.set_caps(Some(1), &[]);
        for i in 0..3 {
            w.enqueue(batch(i, MlModel::ResNet50, 64, SimTime::ZERO));
        }
        let (adm, short) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 1, "time sharing admits exactly one");
        assert!(!short);
        assert_eq!(w.queued(MlModel::ResNet50), 2);
    }

    #[test]
    fn unbounded_mps_admits_all_with_containers() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 8);
        w.set_caps(None, &[]);
        for i in 0..5 {
            w.enqueue(batch(i, MlModel::ResNet50, 64, SimTime::ZERO));
        }
        let (adm, _) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 5);
        assert_eq!(w.executing_of(MlModel::ResNet50), 5);
    }

    #[test]
    fn container_shortage_triggers_reactive_signal() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 2);
        w.set_caps(None, &[]);
        for i in 0..5 {
            w.enqueue(batch(i, MlModel::ResNet50, 64, SimTime::ZERO));
        }
        let (adm, short) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 2);
        assert!(short, "should ask for reactive scale-up");
    }

    #[test]
    fn per_model_caps_respected() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 8);
        w.set_caps(None, &[(MlModel::ResNet50, 2), (MlModel::SeNet18, 1)]);
        for i in 0..4 {
            w.enqueue(batch(i, MlModel::ResNet50, 64, SimTime::ZERO));
        }
        for i in 4..6 {
            w.enqueue(batch(i, MlModel::SeNet18, 128, SimTime::ZERO));
        }
        let (adm, _) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 3);
        assert_eq!(w.executing_of(MlModel::ResNet50), 2);
        assert_eq!(w.executing_of(MlModel::SeNet18), 1);
    }

    #[test]
    fn cpu_worker_always_serial() {
        let mut w = gpu_worker(InstanceKind::C6i_4xlarge, 4);
        w.set_caps(None, &[]); // scheduler asks for unbounded...
        for i in 0..3 {
            w.enqueue(batch(i, MlModel::MobileNet, 16, SimTime::ZERO));
        }
        let (adm, _) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 1, "...but CPU batched mode is serial");
    }

    #[test]
    fn gpu_memory_bounds_residency() {
        // Funnel-Transformer batches are 4 GiB; an 8 GiB M60 fits two.
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 8);
        w.set_caps(None, &[]);
        for i in 0..4 {
            w.enqueue(batch(i, MlModel::FunnelTransformer, 8, SimTime::ZERO));
        }
        let (adm, _) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 2);
    }

    #[test]
    fn completions_release_containers_and_admit_next() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 1);
        w.set_caps(Some(1), &[]);
        w.enqueue(batch(1, MlModel::ResNet50, 64, SimTime::ZERO));
        w.enqueue(batch(2, MlModel::ResNet50, 64, SimTime::ZERO));
        let (adm, _) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 1);
        let t_done = w.device.next_completion().unwrap();
        let mut done = Vec::new();
        w.collect_completions(t_done, &mut done);
        assert_eq!(done.len(), 1);
        let (b, started, solo_ms) = &done[0];
        assert_eq!(b.id, BatchId(1));
        assert_eq!(*started, SimTime::ZERO);
        assert!(*solo_ms > 0.0);
        let (adm2, _) = w.admit_ready(t_done, &mut Tracer::disabled());
        assert_eq!(adm2, 1);
    }

    #[test]
    fn fail_rescues_everything() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 4);
        w.set_caps(None, &[]);
        for i in 0..2 {
            w.enqueue(batch(i, MlModel::ResNet50, 64, SimTime::ZERO));
        }
        w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        w.enqueue(batch(9, MlModel::ResNet50, 64, SimTime::from_millis(1)));
        let rescued = w.fail(SimTime::from_millis(10));
        assert_eq!(rescued.len(), 3);
        assert_eq!(w.state, WorkerState::Failed);
        assert!(w.device.active_jobs().is_empty());
        // A failed worker admits nothing.
        w.enqueue(batch(10, MlModel::ResNet50, 64, SimTime::from_millis(11)));
        let (adm, _) = w.admit_ready(SimTime::from_millis(11), &mut Tracer::disabled());
        assert_eq!(adm, 0);
    }

    #[test]
    fn take_queued_leaves_executing() {
        let mut w = gpu_worker(InstanceKind::G3s_xlarge, 4);
        w.set_caps(Some(1), &[]);
        w.enqueue(batch(1, MlModel::ResNet50, 64, SimTime::ZERO));
        w.enqueue(batch(2, MlModel::ResNet50, 64, SimTime::ZERO));
        w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        let moved = w.take_queued();
        assert_eq!(moved.len(), 1);
        assert!(!w.is_idle(), "one batch still executing");
        let t = w.device.next_completion().unwrap();
        w.collect_completions(t, &mut Vec::new());
        assert!(w.is_idle());
    }

    #[test]
    fn provisioning_worker_admits_nothing() {
        let mut w = Worker::provision(
            WorkerId(1),
            InstanceKind::P3_2xlarge,
            SimTime::ZERO,
            SimDuration::from_secs(4),
            2,
            SimDuration::from_millis(1_500),
            SimDuration::from_secs(600),
            0.0,
        );
        w.enqueue(batch(1, MlModel::ResNet50, 64, SimTime::ZERO));
        let (adm, _) = w.admit_ready(SimTime::ZERO, &mut Tracer::disabled());
        assert_eq!(adm, 0);
        assert!(matches!(w.state, WorkerState::Provisioning { .. }));
    }
}
