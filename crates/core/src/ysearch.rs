//! Evaluation of hardware candidates (§III, Algorithm 1's `par_for`
//! loops).
//!
//! For every candidate instance kind we compute the least achievable
//! `T_max`: on GPUs by probing candidate `y` values of Eq. (1); on CPU
//! nodes by an M/D/1-style sojourn estimate over the framework's batched
//! CPU mode, optimizing the batch size.
//!
//! The paper obtains the best `y` "with minimal overhead (< 3 ms) through
//! multi-threading". Here the candidates are evaluated in order on the
//! thread that calls `decide`: one plan costs a few microseconds, far less
//! than spawning and joining a thread to compute it, so the whole Table II
//! sweep stays well inside the paper's budget without a fan-out
//! (DESIGN.md §8, item 4).
//!
//! A [`PlanCache`] memoizes per-`(model, kind, load)` plans across monitor
//! rounds: steady traffic re-evaluates an unchanged load every interval,
//! and the cheapest-first selection re-probes the same candidates. Cached
//! evaluation quantizes the predicted rate to [`RATE_QUANTUM`] buckets
//! (backlog stays exact), so a cache hit returns bit-for-bit the plan the
//! uncached computation would produce for the same quantized load.
//!
//! The cache is a flat open-addressing table. Plans live in a dense
//! `Vec<(PlanKey, ModelPlan)>` in insertion order; the index is a
//! power-of-two `Vec<u32>` of slots, each 0 (empty) or one plus a position
//! in that vector, probed linearly from a fixed integer mix of the key and
//! kept at most half full. A slot costs 4 bytes, so the index stays small
//! beside the plans it points at (a long Fig. 12b run holds about 40 k).
//! Nothing is evicted and the table is never iterated: a lookup hits
//! exactly when an equal key was inserted before, whatever the hash.

use crate::tmax::TmaxInputs;
use paldia_hw::InstanceKind;
use paldia_workloads::{MlModel, Profile};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-model load description for an evaluation round.
#[derive(Clone, Copy, Debug)]
pub struct ModelLoad {
    /// The model.
    pub model: MlModel,
    /// Requests outstanding *now* (backlog).
    pub pending: u64,
    /// Predicted arrival rate, requests/s.
    pub rate_rps: f64,
}

impl ModelLoad {
    /// `N_M` for Eq. (1): the backlog plus the requests that will overlap
    /// with it inside one SLO window (requests arriving within `SLO` of
    /// each other contend for the same device time).
    pub fn n_requests(&self, slo_ms: f64) -> u64 {
        self.pending + (self.rate_rps * slo_ms / 1_000.0).ceil() as u64
    }
}

/// Evaluation result for one candidate kind.
#[derive(Clone, Debug)]
pub struct HwEvaluation {
    /// The candidate.
    pub kind: InstanceKind,
    /// Worst per-model least-achievable `T_max`, ms.
    pub t_max_ms: f64,
    /// Per-model plan: (model, best y, batch size to use, spatial cap).
    pub plans: Vec<ModelPlan>,
}

/// Per-model execution plan on a candidate kind.
#[derive(Clone, Copy, Debug)]
pub struct ModelPlan {
    /// The model.
    pub model: MlModel,
    /// Chosen `y` (requests to queue); 0 when not applicable.
    pub best_y: u64,
    /// Batch size to run with.
    pub batch_size: u32,
    /// Concurrent-batch cap realizing the `(N − y)/BS` spatial share.
    pub spatial_cap: u32,
    /// This model's least `T_max` on the kind, ms.
    pub t_max_ms: f64,
}

/// Evaluate one GPU candidate for one model. `contention` inflates the solo
/// time by the host-side slowdown co-located CPU workloads impose (the
/// host-aware extension; 0.0 in the paper's shipped model).
fn eval_gpu_model(kind: InstanceKind, load: &ModelLoad, slo_ms: f64, contention: f64) -> ModelPlan {
    let bs = Profile::default_batch(load.model);
    let solo = Profile::solo_ms(load.model, kind, bs) * (1.0 + contention.max(0.0));
    let share = Profile::effective_share(load.model, kind);
    let inputs = TmaxInputs {
        solo_ms: solo,
        batch_size: bs,
        fbr: share,
        n_requests: load.n_requests(slo_ms),
    };
    let (y, t) = inputs.best_y();
    let n = inputs.n_requests;
    let spatial_requests = n.saturating_sub(y);
    let mut spatial_cap = (spatial_requests as f64 / bs as f64).ceil().max(1.0) as u32;
    // Occupancy management: never let the concurrent set's mutual
    // interference alone blow the SLO — co-locate at most the batches that
    // still finish in time and queue the rest ("appropriately manages GPU
    // occupancy so as to prudently trade off job interference and queueing
    // delays", §VI-B). Without this bound a deep backlog degenerates into
    // INFless-style consolidation.
    if share > 0.0 && solo > 0.0 {
        let mut k_slo = 1u32;
        while k_slo < 512 {
            let k = (k_slo + 1) as f64;
            let slow = (k * share).max(1.0) * paldia_hw::mps::client_overhead_factor(k);
            if slow * solo <= slo_ms {
                k_slo += 1;
            } else {
                break;
            }
        }
        spatial_cap = spatial_cap.min(k_slo);
    }
    ModelPlan {
        model: load.model,
        best_y: y,
        batch_size: bs,
        spatial_cap,
        t_max_ms: if n == 0 { solo } else { t },
    }
}

/// Evaluate one CPU candidate for one model: pick the batch size minimizing
/// an M/D/1 sojourn estimate `solo(bs) · (1 + ρ/(2(1−ρ)))` plus backlog
/// drain time. Infinite when the node cannot keep up (ρ ≥ 0.9).
fn eval_cpu_model(kind: InstanceKind, load: &ModelLoad, slo_ms: f64, contention: f64) -> ModelPlan {
    let stretch = 1.0 + contention.max(0.0);
    let max_bs = Profile::max_batch_within(load.model, kind, 0.8 * slo_ms / stretch).unwrap_or(0);
    let mut best = ModelPlan {
        model: load.model,
        best_y: 0,
        batch_size: 1,
        spatial_cap: 1,
        t_max_ms: f64::INFINITY,
    };
    let mut bs = 1u32;
    while bs <= max_bs {
        let solo = Profile::solo_ms(load.model, kind, bs) * stretch;
        let capacity_rps = bs as f64 / (solo / 1_000.0);
        let rho = load.rate_rps / capacity_rps;
        if rho < 0.9 {
            // Waiting is the worse of the steady-state M/D/1 wait and the
            // time to drain the live backlog (not their sum — the backlog
            // *is* the queue the steady-state term models).
            let wait_steady = solo * rho / (2.0 * (1.0 - rho));
            let drain = load.pending as f64 / capacity_rps * 1_000.0;
            let t = solo + wait_steady.max(drain);
            if t < best.t_max_ms {
                best.batch_size = bs;
                best.t_max_ms = t;
            }
        }
        bs *= 2;
    }
    best
}

/// One model's plan on one candidate kind.
fn eval_model(kind: InstanceKind, load: &ModelLoad, slo_ms: f64, contention: f64) -> ModelPlan {
    if kind.is_gpu() {
        eval_gpu_model(kind, load, slo_ms, contention)
    } else {
        eval_cpu_model(kind, load, slo_ms, contention)
    }
}

impl HwEvaluation {
    /// A candidate's evaluation from its per-model plans: the kind is as
    /// good as its worst model.
    fn from_plans(kind: InstanceKind, plans: Vec<ModelPlan>) -> Self {
        let t_max_ms = plans.iter().map(|p| p.t_max_ms).fold(0.0f64, f64::max);
        HwEvaluation {
            kind,
            t_max_ms,
            plans,
        }
    }
}

/// Evaluate a single candidate kind against every model's load.
pub fn evaluate_kind(kind: InstanceKind, loads: &[ModelLoad], slo_ms: f64) -> HwEvaluation {
    evaluate_kind_with(kind, loads, slo_ms, 0.0)
}

/// Host-aware evaluation (the paper's stated future work, implemented):
/// `contention` is the fraction of this node's host capacity stolen by
/// co-resident CPU-bound serverless workloads; every latency estimate is
/// inflated accordingly, so selection routes around contended nodes.
pub fn evaluate_kind_with(
    kind: InstanceKind,
    loads: &[ModelLoad],
    slo_ms: f64,
    contention: f64,
) -> HwEvaluation {
    let plans = loads
        .iter()
        .map(|l| eval_model(kind, l, slo_ms, contention))
        .collect();
    HwEvaluation::from_plans(kind, plans)
}

/// Evaluate every candidate (Algorithm 1's outer `par_for`). Results come
/// back in the input order, so the caller's cost-ascending sort is
/// preserved.
pub fn evaluate_pool(
    kinds: &[InstanceKind],
    loads: &[ModelLoad],
    slo_ms: f64,
) -> Vec<HwEvaluation> {
    evaluate_pool_with(kinds, loads, slo_ms, &|_| 0.0)
}

/// [`evaluate_pool`] with a per-kind host-contention estimate (the
/// host-aware extension).
pub fn evaluate_pool_with(
    kinds: &[InstanceKind],
    loads: &[ModelLoad],
    slo_ms: f64,
    contention_of: &dyn Fn(InstanceKind) -> f64,
) -> Vec<HwEvaluation> {
    kinds
        .iter()
        .map(|&kind| evaluate_kind_with(kind, loads, slo_ms, contention_of(kind)))
        .collect()
}

/// Rate quantum for plan-cache keys, rps. Cached evaluation rounds the
/// predicted rate to this grid before planning, so nearby rates share one
/// plan; 0.05 rps moves `N_M` by at most 0.01 requests per 200 ms SLO
/// window — far below the model's own prediction error.
pub const RATE_QUANTUM: f64 = 0.05;

fn quantize_rate(rate_rps: f64) -> u64 {
    (rate_rps.max(0.0) / RATE_QUANTUM).round() as u64
}

/// Everything a per-model plan depends on, quantized where continuous.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PlanKey {
    model: MlModel,
    kind: InstanceKind,
    pending: u64,
    rate_q: u64,
    contention_q: u64,
    slo_us: u64,
}

impl PlanKey {
    fn new(kind: InstanceKind, load: &ModelLoad, slo_ms: f64, contention: f64) -> Self {
        PlanKey {
            model: load.model,
            kind,
            pending: load.pending,
            rate_q: quantize_rate(load.rate_rps),
            contention_q: (contention.max(0.0) * 1_000.0).round() as u64,
            slo_us: (slo_ms * 1_000.0).round() as u64,
        }
    }

    /// The load the cached plan was (or will be) computed from.
    fn quantized_load(&self) -> ModelLoad {
        ModelLoad {
            model: self.model,
            pending: self.pending,
            rate_rps: self.rate_q as f64 * RATE_QUANTUM,
        }
    }

    /// A fixed 64-bit mix of every field (multiply-rotate per word, then a
    /// final avalanche), so probe sequences do not depend on the process.
    fn hash(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let head = ((self.model.index() as u64) << 8) | self.kind as u64;
        let words = [
            head,
            self.pending,
            self.rate_q,
            self.contention_q,
            self.slo_us,
        ];
        let h = words
            .iter()
            .fold(0u64, |h, &w| (h ^ w).wrapping_mul(K).rotate_left(27));
        let h = (h ^ (h >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 29)
    }
}

/// Process-wide hit/miss tallies across every cache instance, surfaced by
/// `repro --timings`.
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` accumulated process-wide since start (or last reset).
pub fn cache_counters() -> (u64, u64) {
    (
        CACHE_HITS.load(Ordering::Relaxed),
        CACHE_MISSES.load(Ordering::Relaxed),
    )
}

/// Zero the process-wide cache counters.
pub fn reset_cache_counters() {
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
}

/// Slots in a table's first index; it doubles whenever it would pass half
/// full.
const MIN_SLOTS: usize = 64;

/// Memoized per-model plans, owned by one scheduler instance (one cache per
/// simulated cluster keeps parallel experiment cells fully independent).
/// See the module docs for the table layout.
#[derive(Default)]
pub struct PlanCache {
    /// Open-addressing index: 0 is empty, `i + 1` points at `plans[i]`.
    /// Empty or a power of two long, never more than half full.
    slots: Vec<u32>,
    /// Every plan computed, in insertion order.
    plans: Vec<(PlanKey, ModelPlan)>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache with zeroed hit/miss counters.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Hits recorded by this instance.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by this instance.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    /// `slots` must be non-empty and have an empty slot.
    fn probe(&self, key: &PlanKey) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = key.hash() as usize & mask;
        loop {
            match self.slots[i] {
                0 => return i,
                s if self.plans[s as usize - 1].0 == *key => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the index (or make the first one) and re-point every plan.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(MIN_SLOTS);
        self.slots = vec![0; len];
        for n in 1..=self.plans.len() {
            let i = self.probe(&self.plans[n - 1].0);
            self.slots[i] = n as u32;
        }
    }

    fn plan_for(
        &mut self,
        kind: InstanceKind,
        load: &ModelLoad,
        slo_ms: f64,
        contention: f64,
    ) -> ModelPlan {
        let key = PlanKey::new(kind, load, slo_ms, contention);
        if 2 * (self.plans.len() + 1) > self.slots.len() {
            self.grow();
        }
        let i = self.probe(&key);
        if let Some(n) = self.slots[i].checked_sub(1) {
            self.hits += 1;
            CACHE_HITS.fetch_add(1, Ordering::Relaxed);
            return self.plans[n as usize].1;
        }
        self.misses += 1;
        CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
        let plan = eval_model(kind, &key.quantized_load(), slo_ms, contention);
        self.plans.push((key, plan));
        self.slots[i] = self.plans.len() as u32;
        plan
    }
}

/// Cached single-kind evaluation: per-model plans come from `cache`,
/// computed on miss from the quantized load.
pub fn evaluate_kind_cached(
    kind: InstanceKind,
    loads: &[ModelLoad],
    slo_ms: f64,
    contention: f64,
    cache: &mut PlanCache,
) -> HwEvaluation {
    let plans = loads
        .iter()
        .map(|l| cache.plan_for(kind, l, slo_ms, contention))
        .collect();
    HwEvaluation::from_plans(kind, plans)
}

/// Cached evaluation of every candidate, in input order: each kind's plans
/// are looked up, computed on a miss and inserted before the next kind is
/// evaluated, all on the calling thread.
pub fn evaluate_pool_cached(
    kinds: &[InstanceKind],
    loads: &[ModelLoad],
    slo_ms: f64,
    contention_of: &dyn Fn(InstanceKind) -> f64,
    cache: &mut PlanCache,
) -> Vec<HwEvaluation> {
    kinds
        .iter()
        .map(|&kind| evaluate_kind_cached(kind, loads, slo_ms, contention_of(kind), cache))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(model: MlModel, pending: u64, rate: f64) -> ModelLoad {
        ModelLoad {
            model,
            pending,
            rate_rps: rate,
        }
    }

    #[test]
    fn n_requests_combines_backlog_and_slo_window() {
        let l = load(MlModel::ResNet50, 100, 250.0);
        // 100 + 250 × 0.2 = 150.
        assert_eq!(l.n_requests(200.0), 150);
    }

    #[test]
    fn v100_beats_m60_under_heavy_backlog() {
        let loads = [load(MlModel::GoogleNet, 400, 225.0)];
        let m60 = evaluate_kind(InstanceKind::G3s_xlarge, &loads, 200.0);
        let v100 = evaluate_kind(InstanceKind::P3_2xlarge, &loads, 200.0);
        assert!(v100.t_max_ms < m60.t_max_ms);
        assert!(
            m60.t_max_ms > 200.0,
            "heavy backlog should blow the SLO on the M60: {}",
            m60.t_max_ms
        );
        assert!(
            v100.t_max_ms < 200.0,
            "the V100 should absorb it: {}",
            v100.t_max_ms
        );
    }

    #[test]
    fn light_load_feasible_on_cheap_gpu() {
        let loads = [load(MlModel::GoogleNet, 0, 50.0)];
        let m60 = evaluate_kind(InstanceKind::G3s_xlarge, &loads, 200.0);
        assert!(m60.t_max_ms <= 200.0, "t {}", m60.t_max_ms);
        assert!(m60.plans[0].spatial_cap >= 1);
    }

    #[test]
    fn cpu_feasible_at_trickle_infeasible_at_speed() {
        let slow = evaluate_kind(
            InstanceKind::C6i_4xlarge,
            &[load(MlModel::GoogleNet, 0, 15.0)],
            200.0,
        );
        assert!(
            slow.t_max_ms < 200.0,
            "15 rps on c6i.4xlarge: {}",
            slow.t_max_ms
        );
        let fast = evaluate_kind(
            InstanceKind::C6i_4xlarge,
            &[load(MlModel::GoogleNet, 0, 225.0)],
            200.0,
        );
        assert!(
            fast.t_max_ms.is_infinite(),
            "225 rps must overwhelm the CPU"
        );
    }

    #[test]
    fn weakest_cpu_cannot_serve_heavy_models() {
        let e = evaluate_kind(
            InstanceKind::M4_xlarge,
            &[load(MlModel::Dpn92, 0, 5.0)],
            200.0,
        );
        assert!(e.t_max_ms.is_infinite());
    }

    #[test]
    fn backlog_disqualifies_cpu() {
        // Even a feasible rate becomes infeasible with a big backlog to
        // drain — the reason surges escalate to GPUs.
        let e = evaluate_kind(
            InstanceKind::C6i_4xlarge,
            &[load(MlModel::MobileNet, 2_000, 20.0)],
            200.0,
        );
        assert!(e.t_max_ms > 200.0);
    }

    #[test]
    fn multi_model_takes_worst_case() {
        let loads = [
            load(MlModel::SeNet18, 0, 100.0),
            load(MlModel::DenseNet121, 800, 160.0),
        ];
        let e = evaluate_kind(InstanceKind::G3s_xlarge, &loads, 200.0);
        let worst = e.plans.iter().map(|p| p.t_max_ms).fold(0.0, f64::max);
        assert_eq!(e.t_max_ms, worst);
        assert_eq!(e.plans.len(), 2);
    }

    #[test]
    fn evaluate_pool_equals_evaluate_kind_bit_for_bit() {
        let loads = [
            load(MlModel::ResNet50, 500, 225.0),
            load(MlModel::SeNet18, 3, 41.0),
        ];
        let kinds = [
            InstanceKind::M4_xlarge,
            InstanceKind::C6i_2xlarge,
            InstanceKind::C6i_4xlarge,
            InstanceKind::G3s_xlarge,
            InstanceKind::P2_xlarge,
            InstanceKind::P3_2xlarge,
        ];
        let pool = evaluate_pool(&kinds, &loads, 200.0);
        assert_eq!(pool.len(), kinds.len());
        for (e, &k) in pool.iter().zip(kinds.iter()) {
            let one = evaluate_kind(k, &loads, 200.0);
            assert_eq!(e.kind, k);
            assert_eq!(e.t_max_ms.to_bits(), one.t_max_ms.to_bits());
            for (a, b) in e.plans.iter().zip(one.plans.iter()) {
                assert_eq!(a.model, b.model);
                assert_eq!(a.best_y, b.best_y);
                assert_eq!(a.batch_size, b.batch_size);
                assert_eq!(a.spatial_cap, b.spatial_cap);
                assert_eq!(a.t_max_ms.to_bits(), b.t_max_ms.to_bits());
            }
        }
    }

    #[test]
    fn cached_pool_runs_on_the_calling_thread() {
        // A wide worker pool must not pull y-search off the deciding
        // thread: every per-kind contention query (and so every plan
        // computed for that kind) happens here.
        crate::pool::set_jobs(4);
        let seen = std::cell::RefCell::new(Vec::new());
        let contention_of = |_: InstanceKind| {
            seen.borrow_mut().push(std::thread::current().id());
            0.0
        };
        let loads = [
            load(MlModel::GoogleNet, 700, 300.0),
            load(MlModel::ResNet50, 90, 120.0),
        ];
        let mut cache = PlanCache::new();
        let evals = evaluate_pool_cached(
            &InstanceKind::ALL,
            &loads,
            200.0,
            &contention_of,
            &mut cache,
        );
        crate::pool::set_jobs(0);
        assert_eq!(evals.len(), InstanceKind::ALL.len());
        assert_eq!(
            cache.misses(),
            (InstanceKind::ALL.len() * loads.len()) as u64
        );
        let seen = seen.into_inner();
        assert_eq!(seen.len(), InstanceKind::ALL.len());
        let me = std::thread::current().id();
        assert!(seen.iter().all(|&id| id == me), "{seen:?}");
    }

    #[test]
    fn cache_hit_returns_exact_uncached_plan() {
        // Acceptance criterion: a cache hit must return bit-for-bit the
        // ModelPlan an uncached evaluation of the same (quantized) load
        // produces.
        let loads = [
            load(MlModel::ResNet50, 37, 123.4),
            load(MlModel::SeNet18, 0, 61.7),
        ];
        let kinds = [InstanceKind::G3s_xlarge, InstanceKind::C6i_4xlarge];
        let mut cache = PlanCache::new();
        for &kind in &kinds {
            let first = evaluate_kind_cached(kind, &loads, 200.0, 0.0, &mut cache);
            let hits_before = cache.hits();
            let second = evaluate_kind_cached(kind, &loads, 200.0, 0.0, &mut cache);
            assert_eq!(
                cache.hits(),
                hits_before + loads.len() as u64,
                "second evaluation must be all hits"
            );
            // The uncached reference: evaluate the quantized loads directly.
            let qloads: Vec<ModelLoad> = loads
                .iter()
                .map(|l| ModelLoad {
                    rate_rps: quantize_rate(l.rate_rps) as f64 * RATE_QUANTUM,
                    ..*l
                })
                .collect();
            let uncached = evaluate_kind_with(kind, &qloads, 200.0, 0.0);
            for ((a, b), c) in first
                .plans
                .iter()
                .zip(second.plans.iter())
                .zip(uncached.plans.iter())
            {
                assert_eq!(a.model, c.model);
                assert_eq!(a.best_y, c.best_y);
                assert_eq!(a.batch_size, c.batch_size);
                assert_eq!(a.spatial_cap, c.spatial_cap);
                assert_eq!(a.t_max_ms.to_bits(), c.t_max_ms.to_bits());
                assert_eq!(b.t_max_ms.to_bits(), c.t_max_ms.to_bits());
            }
        }
    }

    #[test]
    fn cached_pool_matches_cached_kind_and_counts() {
        let loads = [load(MlModel::GoogleNet, 12, 88.8)];
        let kinds = [
            InstanceKind::M4_xlarge,
            InstanceKind::C6i_4xlarge,
            InstanceKind::G3s_xlarge,
            InstanceKind::P3_2xlarge,
        ];
        let mut cache = PlanCache::new();
        let cold = evaluate_pool_cached(&kinds, &loads, 200.0, &|_| 0.0, &mut cache);
        assert_eq!(cache.misses(), kinds.len() as u64);
        assert_eq!(cache.hits(), 0);
        let warm = evaluate_pool_cached(&kinds, &loads, 200.0, &|_| 0.0, &mut cache);
        assert_eq!(cache.hits(), kinds.len() as u64);
        for (a, b) in cold.iter().zip(warm.iter()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.t_max_ms.to_bits(), b.t_max_ms.to_bits());
        }
        // A different backlog is a different key, not a stale hit.
        let other = [load(MlModel::GoogleNet, 13, 88.8)];
        let _ = evaluate_pool_cached(&kinds, &other, 200.0, &|_| 0.0, &mut cache);
        assert_eq!(cache.misses(), 2 * kinds.len() as u64);
    }

    /// Every field of a plan, floats as bits.
    fn plan_bits(p: &ModelPlan) -> (MlModel, u64, u32, u32, u64) {
        (
            p.model,
            p.best_y,
            p.batch_size,
            p.spatial_cap,
            p.t_max_ms.to_bits(),
        )
    }

    proptest::proptest! {
        /// The flat table against a `BTreeMap` memo fed the same lookups:
        /// models × kinds × backlogs × rates × contention, a quarter of
        /// them repeating an earlier lookup, and enough distinct keys to
        /// grow the index several times. Each lookup must hit exactly when
        /// the memo does, and every plan must be `eval_model` on the
        /// quantized load, bit for bit.
        fn plan_cache_matches_a_btreemap_memo(
            steps in proptest::collection::vec(
                (0u64..4, 0usize..16, 0usize..6, 0u64..6, 0u64..80, 0u64..3),
                400..1200,
            ),
        ) {
            let mut cache = PlanCache::new();
            let mut memo: std::collections::BTreeMap<PlanKey, ModelPlan> = Default::default();
            let mut seen: Vec<(InstanceKind, ModelLoad, f64)> = Vec::new();
            for (i, &(repeat, m, k, pending, rate, c)) in steps.iter().enumerate() {
                let (kind, load, contention) = if repeat == 0 && !seen.is_empty() {
                    seen[(m * 31 + rate as usize) % seen.len()]
                } else {
                    let load = ModelLoad {
                        model: MlModel::ALL[m],
                        pending: pending * 7,
                        rate_rps: rate as f64 * 0.37,
                    };
                    (InstanceKind::ALL[k], load, c as f64 * 0.15)
                };
                seen.push((kind, load, contention));
                let slo_ms = if i % 5 == 0 { 150.0 } else { 200.0 };
                let key = PlanKey::new(kind, &load, slo_ms, contention);
                let hits = cache.hits();
                let plan = cache.plan_for(kind, &load, slo_ms, contention);
                let reference = eval_model(kind, &key.quantized_load(), slo_ms, contention);
                let memo_hit = memo.contains_key(&key);
                let memo_plan = *memo.entry(key).or_insert(reference);
                proptest::prop_assert_eq!(cache.hits() > hits, memo_hit, "lookup {}", i);
                proptest::prop_assert_eq!(plan_bits(&plan), plan_bits(&reference));
                proptest::prop_assert_eq!(plan_bits(&plan), plan_bits(&memo_plan));
            }
            proptest::prop_assert_eq!(cache.misses(), memo.len() as u64);
            proptest::prop_assert_eq!(cache.hits() + cache.misses(), steps.len() as u64);
            // More than twice the first index's slots: it grew at least twice.
            proptest::prop_assert!(memo.len() > 2 * MIN_SLOTS, "{} keys", memo.len());
        }
    }

    #[test]
    fn spatial_cap_reflects_best_y_bounded_by_slo() {
        let loads = [load(MlModel::GoogleNet, 640, 0.0)];
        let e = evaluate_kind(InstanceKind::P3_2xlarge, &loads, 200.0);
        let p = &e.plans[0];
        // On the V100 the effective share is small: everything goes spatial
        // (y = 0) — but the concurrent set is still bounded to the number
        // of batches whose mutual interference (share + MPS client
        // overhead) fits the SLO: 7 × 0.3 × 1.24 × 68 ms ≈ 177 ≤ 200 while
        // 8 batches would take ~209 ms.
        assert_eq!(p.best_y, 0);
        assert_eq!(p.spatial_cap, 7);
    }

    #[test]
    fn occupancy_bound_prevents_consolidation() {
        // A huge backlog must not open the floodgates: the spatial cap
        // stays at the SLO-fitting set regardless of backlog size.
        let small = evaluate_kind(
            InstanceKind::P3_2xlarge,
            &[load(MlModel::GoogleNet, 1_000, 0.0)],
            200.0,
        );
        let huge = evaluate_kind(
            InstanceKind::P3_2xlarge,
            &[load(MlModel::GoogleNet, 100_000, 0.0)],
            200.0,
        );
        assert_eq!(small.plans[0].spatial_cap, huge.plans[0].spatial_cap);
    }
}
