//! The shared compute device: a dynamic processor-sharing executor
//! implementing both GPU sharing mechanisms.
//!
//! * **Spatial sharing (MPS):** every admitted batch executes concurrently.
//!   All concurrent batches progress at rate `1 / slowdown`, where
//!   `slowdown = max(1, Σ FBR) × (1 + host_contention)` — the Prophet-style
//!   bandwidth-contention model of §III made dynamic. A batch admitted with
//!   `remaining = Solo` therefore completes after exactly `Solo` if it ran
//!   alone, and after `Solo × k·FBR` if `k` equal batches oversubscribe the
//!   memory system — Eq. (1)'s interference term.
//! * **Time sharing:** is simply the degenerate case where the admission
//!   layer (in [`crate::worker`]) never lets more than one batch in at a
//!   time; the lone batch runs at solo speed.
//!
//! Occupancy changes (admissions, completions) rescale the remaining work of
//! in-flight jobs, so a batch that started alone and was later joined by
//! nine noisy neighbours stretches mid-flight — the behaviour that produces
//! the paper's interference-dominated tails for INFless/Llama ($).
//!
//! A `version` counter invalidates stale completion events: the worker
//! schedules a wake-up for the predicted earliest completion and ignores
//! wake-ups whose version no longer matches.
//!
//! ## Iteration-level execution ([`IterativeEngine`])
//!
//! LLM serving does not fit the run-to-completion model above: a decode
//! sequence produces one token per model iteration, and a batch that only
//! admits/retires at whole-batch boundaries wastes the slots of short
//! sequences while long ones finish. [`DeviceMode::IterativeBatch`] swaps
//! the run-to-completion [`SharedDevice`] for an [`IterativeEngine`]: the
//! running batch advances in discrete iteration ticks, waiting sequences
//! *join* at iteration boundaries (chunked prefill), and finished
//! sequences *leave* per-token the moment their last decode step
//! completes. Admission is two-dimensional — the classic fractional
//! bandwidth share **and** a KV-cache token budget
//! ([`paldia_hw::InstanceKind::kv_capacity_tokens`]) — with conservative
//! full reservation so `Σ kv ≤ capacity` holds at every tick by
//! construction.

use crate::request::{BatchId, RequestId};
use paldia_hw::InstanceKind;
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::tokens::iteration_ms;
use paldia_workloads::MlModel;

/// Work remaining below this is "complete" (guards f64 drift), seconds.
const EPS_S: f64 = 1e-9;

/// Slack on the Σshare ≤ 1 admission test (guards f64 drift).
const EPS_SHARE: f64 = 1e-9;

/// One executing batch.
#[derive(Clone, Debug)]
pub struct DeviceJob {
    /// The batch being executed.
    pub batch: BatchId,
    /// Model of the batch.
    pub model: MlModel,
    /// Fractional bandwidth requirement of this batch on this device.
    pub fbr: f64,
    /// Isolated execution time of the batch, seconds (for metrics).
    pub solo_s: f64,
    /// Remaining work, measured in solo-execution seconds.
    pub remaining_s: f64,
    /// When the job was admitted (for metrics).
    pub started: SimTime,
}

/// A processor-sharing device executing a set of concurrent batches.
#[derive(Clone, Debug)]
pub struct SharedDevice {
    active: Vec<DeviceJob>,
    last_update: SimTime,
    version: u64,
    /// Extra slowdown from co-resident host workloads (Table III study).
    host_contention: f64,
    /// Extra slowdown from an injected MPS-degradation fault
    /// ([`crate::faults::FaultKind::MpsDegrade`]); 0 when healthy.
    degradation: f64,
    /// Integral of non-idle time, seconds ("utilization" in Fig. 8).
    busy_s: f64,
}

impl SharedDevice {
    /// New idle device.
    pub fn new(created: SimTime, host_contention: f64) -> Self {
        SharedDevice {
            active: Vec::new(),
            last_update: created,
            version: 0,
            host_contention: host_contention.max(0.0),
            degradation: 0.0,
            busy_s: 0.0,
        }
    }

    /// Current multiplicative slowdown applied to every active job:
    /// resource contention × per-client MPS overhead × host contention.
    pub fn slowdown(&self) -> f64 {
        // [`paldia_hw::mps_slowdown`] over the active shares, without
        // collecting them: the same operation sequence — sum in admission
        // order, max, then the client factor — so the result is
        // bit-identical, minus a `Vec` allocation per call on this hot path.
        let demand: f64 = self.active.iter().map(|j| j.fbr).sum();
        let mut s = demand.max(1.0)
            * paldia_hw::client_overhead_factor(self.active.len() as f64)
            * (1.0 + self.host_contention);
        // Guarded so no-fault runs stay bit-identical to pre-fault builds.
        if self.degradation > 0.0 {
            s *= 1.0 + self.degradation;
        }
        s
    }

    /// Advance internal progress to `now`.
    pub fn advance(&mut self, now: SimTime) {
        let elapsed = (now - self.last_update).as_secs_f64();
        if elapsed > 0.0 && !self.active.is_empty() {
            let progress = elapsed / self.slowdown();
            for j in &mut self.active {
                j.remaining_s -= progress;
            }
            self.busy_s += elapsed;
        }
        self.last_update = now;
    }

    /// Admit a batch; returns the new version for completion scheduling.
    pub fn admit(
        &mut self,
        now: SimTime,
        batch: BatchId,
        model: MlModel,
        fbr: f64,
        solo_s: f64,
    ) -> u64 {
        self.advance(now);
        self.active.push(DeviceJob {
            batch,
            model,
            fbr: fbr.max(0.0),
            solo_s,
            remaining_s: solo_s.max(0.0),
            started: now,
        });
        self.version += 1;
        self.version
    }

    /// Remove every job (node failure); returns them.
    pub fn evict_all(&mut self, now: SimTime) -> Vec<DeviceJob> {
        self.advance(now);
        self.version += 1;
        std::mem::take(&mut self.active)
    }

    /// Predicted time of the earliest completion under current occupancy.
    pub fn next_completion(&self) -> Option<SimTime> {
        let min_remaining = self
            .active
            .iter()
            .map(|j| j.remaining_s)
            .fold(f64::INFINITY, f64::min);
        if !min_remaining.is_finite() {
            return None;
        }
        let wait_s = (min_remaining.max(0.0)) * self.slowdown();
        Some(self.last_update + paldia_sim::SimDuration::from_millis_f64(wait_s * 1_000.0))
    }

    /// Advance to `now` and append every job whose work is done to `done`,
    /// in admission order; the jobs still running keep theirs. Bumps the
    /// version if anything popped.
    pub fn pop_completed(&mut self, now: SimTime, done: &mut Vec<DeviceJob>) {
        self.advance(now);
        let before = done.len();
        done.extend(self.active.extract_if(.., |j| j.remaining_s <= EPS_S));
        if done.len() > before {
            self.version += 1;
        }
    }

    /// Number of active jobs.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of active jobs of a given model.
    pub fn active_count_of(&self, model: MlModel) -> usize {
        self.active.iter().filter(|j| j.model == model).count()
    }

    /// Sum of GiB footprints is tracked by the worker; the device only
    /// exposes its active set for inspection.
    pub fn active_jobs(&self) -> &[DeviceJob] {
        &self.active
    }

    /// Current version (changes whenever occupancy changes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True if any job is executing.
    pub fn is_busy(&self) -> bool {
        !self.active.is_empty()
    }

    /// Accumulated non-idle seconds.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_s
    }

    /// Set the injected MPS-degradation severity (fault layer). Advances
    /// progress first so only work *after* the change runs at the new rate.
    pub fn set_degradation(&mut self, now: SimTime, severity: f64) {
        self.advance(now);
        self.degradation = severity.max(0.0);
        self.version += 1;
    }

    /// Current injected degradation severity.
    pub fn degradation(&self) -> f64 {
        self.degradation
    }
}

/// How a worker's device executes admitted work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DeviceMode {
    /// Request-level batches run to completion on the [`SharedDevice`]
    /// (the paper's shipped model; the default).
    #[default]
    RequestLevel,
    /// Iteration-level continuous batching on the [`IterativeEngine`]:
    /// prefill joins at iteration boundaries, per-token decode leaves,
    /// KV-token admission alongside the bandwidth share.
    IterativeBatch,
}

/// One LLM sequence, either waiting to join or resident in the running
/// batch. Token lengths are drawn by the harness from the model's
/// [`paldia_workloads::TokenCard`] (a pure hash of `(seed, request id)`),
/// so a sequence re-built after a node failure or hardware transition gets
/// identical lengths.
#[derive(Clone, Copy, Debug)]
pub struct IterSeq {
    /// The request this sequence serves.
    pub request: RequestId,
    /// Model of the sequence.
    pub model: MlModel,
    /// Gateway arrival time (for metrics).
    pub arrival: SimTime,
    /// When the gateway batch carrying the request closed (for metrics).
    pub closed_at: SimTime,
    /// Chunked-prefill iterations still to run.
    pub prefill_left: u32,
    /// Decode tokens still to produce.
    pub decode_left: u32,
    /// Total decode tokens of the sequence.
    pub decode_total: u32,
    /// KV-cache tokens reserved for the whole residency.
    pub kv_tokens: u64,
    /// Per-sequence fractional bandwidth share on this hardware.
    pub share: f64,
    /// Isolated full-residency service time on this hardware, ms.
    pub solo_ms: f64,
}

/// A resident sequence plus its join bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Resident {
    seq: IterSeq,
    joined_at: SimTime,
    join_iteration: u64,
    residents_at_join: u32,
}

/// A sequence that finished its last decode step and left the batch.
#[derive(Clone, Copy, Debug)]
pub struct RetiredSeq {
    /// The sequence (with `prefill_left == 0 && decode_left == 0`).
    pub seq: IterSeq,
    /// When it joined the running batch.
    pub joined_at: SimTime,
    /// Iteration index of its first resident iteration.
    pub join_iteration: u64,
    /// Iteration index of its last resident iteration.
    pub last_iteration: u64,
    /// Residents in the batch the moment it joined (for metrics).
    pub residents_at_join: u32,
    /// Tokens decoded over the residency.
    pub decoded: u32,
}

/// Iteration-level continuous-batching executor.
///
/// Unlike [`SharedDevice`], progress is not continuous: the engine only
/// changes state at iteration boundaries. The worker drives it with a
/// begin/step cycle — [`IterativeEngine::begin_iteration`] commits the
/// next iteration's duration (a function of the resident set and fault
/// factors *at the boundary*; mid-iteration fault edges apply from the
/// next boundary), and [`IterativeEngine::step`] consumes the elapsed
/// iteration, retiring sequences whose last decode step it was. Joins and
/// leaves therefore never happen mid-iteration, which the proptest battery
/// (`tests/iterbatch_props.rs`) pins as an invariant.
#[derive(Clone, Debug)]
pub struct IterativeEngine {
    kv_capacity: u64,
    host_contention: f64,
    degradation: f64,
    residents: Vec<Resident>,
    iteration: u64,
    version: u64,
    busy_s: f64,
}

impl IterativeEngine {
    /// New idle engine with the hardware's KV-token budget.
    pub fn new(kv_capacity: u64, host_contention: f64) -> Self {
        IterativeEngine {
            kv_capacity: kv_capacity.max(1),
            host_contention: host_contention.max(0.0),
            degradation: 0.0,
            residents: Vec::new(),
            iteration: 0,
            version: 0,
            busy_s: 0.0,
        }
    }

    /// KV-token capacity of the device.
    pub fn kv_capacity(&self) -> u64 {
        self.kv_capacity
    }

    /// KV tokens reserved by the resident set.
    pub fn kv_used(&self) -> u64 {
        self.residents.iter().map(|r| r.seq.kv_tokens).sum()
    }

    /// Sum of resident bandwidth shares.
    pub fn share_used(&self) -> f64 {
        self.residents.iter().map(|r| r.seq.share).sum()
    }

    /// Number of resident sequences.
    pub fn residents(&self) -> u32 {
        self.residents.len() as u32
    }

    /// Resident sequences of a given model.
    pub fn resident_count_of(&self, model: MlModel) -> u32 {
        self.residents
            .iter()
            .filter(|r| r.seq.model == model)
            .count() as u32
    }

    /// KV tokens reserved by residents of a given model.
    pub fn resident_kv_of(&self, model: MlModel) -> u64 {
        self.residents
            .iter()
            .filter(|r| r.seq.model == model)
            .map(|r| r.seq.kv_tokens)
            .sum()
    }

    /// Index of the iteration that would start at the next
    /// [`IterativeEngine::begin_iteration`].
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Current version (changes whenever the resident set changes).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// True if any sequence is resident.
    pub fn is_busy(&self) -> bool {
        !self.residents.is_empty()
    }

    /// Accumulated non-idle seconds (iterations begun).
    pub fn busy_seconds(&self) -> f64 {
        self.busy_s
    }

    /// Set the injected MPS-degradation severity; applies to iterations
    /// *begun* after the change (iteration-granularity fault application).
    pub fn set_degradation(&mut self, severity: f64) {
        self.degradation = severity.max(0.0);
    }

    /// Whether `seq` fits the running batch: KV budget **and** bandwidth
    /// share must both hold. An empty device always admits — a sequence
    /// larger than the whole KV budget runs alone rather than starving
    /// (mirrors the request-level path, where an oversized batch still
    /// executes).
    pub fn can_admit(&self, seq: &IterSeq) -> bool {
        if self.residents.is_empty() {
            return true;
        }
        self.kv_used() + seq.kv_tokens <= self.kv_capacity
            && self.share_used() + seq.share <= 1.0 + EPS_SHARE
    }

    /// Admit a sequence at the current iteration boundary. The caller must
    /// have checked [`IterativeEngine::can_admit`] and only call this when
    /// no iteration is in flight.
    pub fn join(&mut self, now: SimTime, seq: IterSeq) {
        let residents_at_join = self.residents.len() as u32 + 1;
        self.residents.push(Resident {
            seq,
            joined_at: now,
            join_iteration: self.iteration,
            residents_at_join,
        });
        self.version += 1;
    }

    /// Commit the next iteration: its duration is the slowest resident's
    /// token step under the current resident count, stretched by host
    /// contention and any open degradation fault. Returns the committed
    /// duration (≥ 1 µs so the tick always makes progress); the caller
    /// schedules the boundary tick. Must not be called while empty.
    pub fn begin_iteration(&mut self, kind: InstanceKind) -> SimDuration {
        let n = self.residents.len() as u32;
        let base_ms = self
            .residents
            .iter()
            .map(|r| iteration_ms(r.seq.model, kind, n))
            .fold(0.0f64, f64::max);
        let mut ms = base_ms * (1.0 + self.host_contention);
        // Guarded so no-fault runs stay bit-identical to pre-fault builds.
        if self.degradation > 0.0 {
            ms *= 1.0 + self.degradation;
        }
        let dur = SimDuration::from_millis_f64(ms);
        let dur = SimDuration::from_micros(dur.as_micros().max(1));
        self.busy_s += dur.as_secs_f64();
        dur
    }

    /// Consume the iteration that just elapsed: every resident advances one
    /// step (a chunked-prefill slice, or one decode token), and sequences
    /// whose last decode step it was retire in admission order.
    pub fn step(&mut self) -> Vec<RetiredSeq> {
        let ending = self.iteration;
        for r in &mut self.residents {
            if r.seq.prefill_left > 0 {
                r.seq.prefill_left -= 1;
            } else if r.seq.decode_left > 0 {
                r.seq.decode_left -= 1;
            }
        }
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.residents.len() {
            let r = &self.residents[i];
            if r.seq.prefill_left == 0 && r.seq.decode_left == 0 {
                let r = self.residents.remove(i);
                done.push(RetiredSeq {
                    seq: r.seq,
                    joined_at: r.joined_at,
                    join_iteration: r.join_iteration,
                    last_iteration: ending,
                    residents_at_join: r.residents_at_join,
                    decoded: r.seq.decode_total,
                });
            } else {
                i += 1;
            }
        }
        self.iteration += 1;
        self.version += 1;
        done
    }

    /// Remove every resident (node failure); KV state is lost, so the
    /// caller restarts rescued sequences from scratch.
    pub fn evict_all(&mut self) -> Vec<IterSeq> {
        self.version += 1;
        std::mem::take(&mut self.residents)
            .into_iter()
            .map(|r| r.seq)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_sim::SimDuration;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// The jobs `pop_completed` hands back at `now`.
    fn popped(d: &mut SharedDevice, now: SimTime) -> Vec<DeviceJob> {
        let mut done = Vec::new();
        d.pop_completed(now, &mut done);
        done
    }

    #[test]
    fn solo_job_runs_at_solo_speed() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.5, 0.100);
        assert_eq!(d.next_completion(), Some(ms(100)));
        let done = popped(&mut d, ms(100));
        assert_eq!(done.len(), 1);
        assert!(!d.is_busy());
        assert!((d.busy_seconds() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn unsaturated_concurrency_no_interference() {
        // Two batches with ΣFBR = 0.8 < 1: both run at solo speed.
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.4, 0.100);
        d.admit(SimTime::ZERO, BatchId(2), MlModel::ResNet50, 0.4, 0.100);
        // Below bandwidth saturation only the per-client MPS overhead (4%)
        // applies.
        assert!((d.slowdown() - 1.04).abs() < 1e-12);
        assert_eq!(d.next_completion(), Some(ms(104)));
        assert_eq!(popped(&mut d, ms(104)).len(), 2);
    }

    #[test]
    fn oversubscription_stretches_equally() {
        // Four batches × FBR 0.5 = 2.0: everything takes 2× solo.
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        for i in 0..4 {
            d.admit(SimTime::ZERO, BatchId(i), MlModel::GoogleNet, 0.5, 0.100);
        }
        // Σshare = 2.0, client factor 1.12: everything takes 224 ms.
        assert!((d.slowdown() - 2.24).abs() < 1e-12);
        assert_eq!(d.next_completion(), Some(ms(224)));
        assert_eq!(popped(&mut d, ms(224)).len(), 4);
    }

    #[test]
    fn late_joiner_stretches_in_flight_work() {
        // Job A starts alone; at t=50ms three co-runners join (Σfbr = 2.4
        // with A). A had 50 ms of work left; it now progresses at 1/2.4 —
        // exactly the INFless/Llama ($) consolidation failure mode.
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(0), MlModel::GoogleNet, 0.6, 0.100);
        for i in 1..4 {
            d.admit(ms(50), BatchId(i), MlModel::GoogleNet, 0.6, 0.100);
        }
        // A finishes its remaining 0.05 solo-seconds at the joint slowdown
        // Σ = 2.4 times the 4-client factor 1.12 → 2.688: 50 + 134.4 ms.
        let s4 = paldia_hw::mps_slowdown(&[0.6, 0.6, 0.6, 0.6]);
        assert!((s4 - 2.688).abs() < 1e-12);
        let t1 = 50.0 + 0.05 * s4 * 1_000.0;
        assert_eq!(
            d.next_completion(),
            Some(SimTime::from_micros((t1 * 1_000.0).round() as u64))
        );
        let t = d.next_completion().unwrap();
        let done = popped(&mut d, t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].batch, BatchId(0));
        // The three joiners re-scale after A leaves (Σ = 1.8, 3 clients).
        assert!(d.next_completion().unwrap() > SimTime::from_millis(t1 as u64));
    }

    #[test]
    fn pop_completed_appends_in_admission_order() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        for (id, solo_s) in [(1, 0.050), (2, 0.200), (3, 0.040), (4, 0.300), (5, 0.010)] {
            d.admit(SimTime::ZERO, BatchId(id), MlModel::ResNet50, 0.1, solo_s);
        }
        let mut done = popped(&mut d, ms(1));
        assert!(done.is_empty());
        let v = d.version();
        // Everything at or under 50 ms of solo work is done by 60 ms.
        d.pop_completed(ms(60), &mut done);
        let ids = |jobs: &[DeviceJob]| jobs.iter().map(|j| j.batch.0).collect::<Vec<_>>();
        assert_eq!(ids(&done), [1, 3, 5]);
        assert_eq!(ids(d.active_jobs()), [2, 4]);
        assert!(d.version() > v);
        // A second pop appends after what the buffer already holds, and
        // an empty pop leaves the version alone.
        d.pop_completed(ms(300), &mut done);
        assert_eq!(ids(&done), [1, 3, 5, 2]);
        let v = d.version();
        d.pop_completed(ms(300), &mut done);
        assert_eq!((done.len(), d.version()), (4, v));
    }

    #[test]
    fn work_conservation() {
        // Total device-busy time equals total work divided by aggregate
        // processing rate at each instant; with saturation the device
        // delivers exactly 1/ΣFBR batches' worth of progress per second.
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::Vgg19, 1.0, 0.100);
        d.admit(SimTime::ZERO, BatchId(2), MlModel::Vgg19, 1.0, 0.100);
        // Σ = 2.0 × client factor 1.04: both complete at 208 ms; the device
        // was busy the whole time.
        popped(&mut d, ms(208));
        assert!((d.busy_seconds() - 0.208).abs() < 1e-9);
        assert!(!d.is_busy());
    }

    #[test]
    fn host_contention_slows_even_solo_jobs() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.25);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.4, 0.100);
        assert_eq!(d.next_completion(), Some(ms(125)));
    }

    #[test]
    fn version_bumps_on_every_occupancy_change() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        let v1 = d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.3, 0.1);
        let v2 = d.admit(SimTime::ZERO, BatchId(2), MlModel::ResNet50, 0.3, 0.1);
        assert!(v2 > v1);
        popped(&mut d, ms(104)); // 100 ms of work at the 2-client 1.04×
        assert!(d.version() > v2);
    }

    #[test]
    fn evict_all_for_node_failure() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.3, 0.1);
        d.admit(SimTime::ZERO, BatchId(2), MlModel::ResNet50, 0.3, 0.1);
        let evicted = d.evict_all(ms(10));
        assert_eq!(evicted.len(), 2);
        assert_eq!(d.next_completion(), None);
    }

    #[test]
    fn idle_device_accrues_no_busy_time() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.advance(ms(500));
        assert_eq!(d.busy_seconds(), 0.0);
        assert_eq!(d.next_completion(), None);
    }

    #[test]
    fn mixed_model_fbr_sum() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::SeNet18, 0.4, 0.100);
        d.admit(SimTime::ZERO, BatchId(2), MlModel::DenseNet121, 0.8, 0.150);
        assert!((d.slowdown() - 1.2 * 1.04).abs() < 1e-12);
        assert_eq!(d.active_count_of(MlModel::SeNet18), 1);
        assert_eq!(d.active_count_of(MlModel::DenseNet121), 1);
        assert_eq!(d.active_count(), 2);
    }

    #[test]
    fn zero_solo_completes_immediately() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.3, 0.0);
        assert_eq!(d.next_completion(), Some(SimTime::ZERO));
        assert_eq!(popped(&mut d, SimTime::ZERO).len(), 1);
    }

    #[test]
    fn degradation_slows_mid_flight_and_clears() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.3, 0.100);
        // Fault opens at 50 ms with severity 1.0: the remaining 50 ms of
        // work runs at half speed until the fault clears at 100 ms...
        d.set_degradation(ms(50), 1.0);
        assert_eq!(d.next_completion(), Some(ms(150)));
        // ...then the last 25 ms of work finishes at solo speed.
        d.set_degradation(ms(100), 0.0);
        assert_eq!(d.next_completion(), Some(ms(125)));
        assert_eq!(popped(&mut d, ms(125)).len(), 1);
    }

    #[test]
    fn busy_time_excludes_idle_gaps() {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        d.admit(SimTime::ZERO, BatchId(1), MlModel::ResNet50, 0.3, 0.050);
        popped(&mut d, ms(50));
        // Idle gap.
        d.admit(ms(150), BatchId(2), MlModel::ResNet50, 0.3, 0.050);
        popped(&mut d, ms(200));
        assert!((d.busy_seconds() - 0.1).abs() < 1e-9);
        let _ = SimDuration::ZERO;
    }

    fn seq(id: u64, prefill_iters: u32, decode: u32, kv: u64, share: f64) -> IterSeq {
        IterSeq {
            request: RequestId(id),
            model: MlModel::Bert,
            arrival: SimTime::ZERO,
            closed_at: SimTime::ZERO,
            prefill_left: prefill_iters,
            decode_left: decode,
            decode_total: decode,
            kv_tokens: kv,
            share,
            solo_ms: 0.0,
        }
    }

    #[test]
    fn iter_empty_device_always_admits_even_oversized() {
        let e = IterativeEngine::new(100, 0.0);
        assert!(e.can_admit(&seq(1, 1, 4, 10_000, 5.0)));
    }

    #[test]
    fn iter_kv_budget_bounds_admission() {
        let mut e = IterativeEngine::new(100, 0.0);
        e.join(SimTime::ZERO, seq(1, 1, 4, 60, 0.1));
        assert!(e.can_admit(&seq(2, 1, 4, 40, 0.1)));
        assert!(!e.can_admit(&seq(3, 1, 4, 41, 0.1)));
        assert_eq!(e.kv_used(), 60);
        assert_eq!(e.kv_capacity(), 100);
    }

    #[test]
    fn iter_share_bounds_admission() {
        let mut e = IterativeEngine::new(1_000_000, 0.0);
        e.join(SimTime::ZERO, seq(1, 1, 4, 10, 0.7));
        assert!(e.can_admit(&seq(2, 1, 4, 10, 0.3)));
        assert!(!e.can_admit(&seq(3, 1, 4, 10, 0.31)));
    }

    #[test]
    fn iter_token_conservation_and_fifo_retirement() {
        // Two sequences: (2 prefill iters, 3 decodes) and (1, 1). The
        // second retires after iteration 1, the first after iteration 4;
        // each is resident exactly prefill_iters + decode iterations.
        let mut e = IterativeEngine::new(1_000, 0.0);
        e.join(SimTime::ZERO, seq(1, 2, 3, 10, 0.1));
        e.join(SimTime::ZERO, seq(2, 1, 1, 10, 0.1));
        let mut retired = Vec::new();
        for _ in 0..5 {
            retired.extend(e.step());
        }
        assert_eq!(retired.len(), 2);
        assert_eq!(retired[0].seq.request, RequestId(2));
        assert_eq!(retired[0].join_iteration, 0);
        assert_eq!(retired[0].last_iteration, 1);
        assert_eq!(retired[0].decoded, 1);
        assert_eq!(retired[1].seq.request, RequestId(1));
        assert_eq!(retired[1].last_iteration, 4);
        assert_eq!(
            retired[1].last_iteration - retired[1].join_iteration + 1,
            5,
            "residency spans exactly prefill_iters + decode iterations"
        );
        assert!(!e.is_busy());
        assert_eq!(e.kv_used(), 0);
    }

    #[test]
    fn iter_duration_stretches_with_residents_and_faults() {
        let kind = paldia_hw::InstanceKind::P3_2xlarge;
        let mut e = IterativeEngine::new(10_000, 0.0);
        e.join(SimTime::ZERO, seq(1, 1, 4, 10, 0.1));
        let solo = e.begin_iteration(kind);
        e.join(SimTime::ZERO, seq(2, 1, 4, 10, 0.1));
        let pair = e.begin_iteration(kind);
        assert!(pair > solo, "resident penalty must stretch the iteration");
        e.set_degradation(1.0);
        let degraded = e.begin_iteration(kind);
        assert_eq!(degraded.as_micros(), pair.as_micros() * 2);
        assert!(e.busy_seconds() > 0.0);
    }

    #[test]
    fn iter_version_bumps_on_joins_steps_and_evictions() {
        let mut e = IterativeEngine::new(1_000, 0.0);
        let v0 = e.version();
        e.join(SimTime::ZERO, seq(1, 1, 1, 10, 0.1));
        let v1 = e.version();
        assert!(v1 > v0);
        let _ = e.step();
        assert!(e.version() > v1);
        e.join(SimTime::ZERO, seq(2, 1, 1, 10, 0.1));
        let v2 = e.version();
        let evicted = e.evict_all();
        assert_eq!(evicted.len(), 2);
        assert!(e.version() > v2);
        assert_eq!(e.residents(), 0);
    }
}
