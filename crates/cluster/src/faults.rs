//! Deterministic fault injection: declarative [`FaultPlan`]s compiled into
//! ordinary simulation events, plus pluggable [`FailoverPolicy`] rules.
//!
//! The paper's adverse-scenario study (Fig. 13b) injects node failures as a
//! fixed list of `(start, duration)` windows and hard-codes the failover
//! rule ("switch to the cheapest more performant node"). This module
//! generalizes both so *any* experiment can run under faults:
//!
//! * A [`FaultPlan`] is a declarative set of [`FaultWindow`]s — node
//!   crash/recover windows, per-device MPS degradation (FBR capacity loss),
//!   container straggler multipliers, and cold-start storms. Plans
//!   normalize (merge overlapping same-fault windows, clamp to the run
//!   horizon) and compile into a time-sorted event list the harnesses
//!   schedule like any other event, so replay is bit-identical for a given
//!   seed + plan.
//! * A [`FailoverPolicy`] decides where evicted work lands after a crash.
//!   [`FailoverPolicyKind::CheapestMorePerformant`] is the paper's Fig. 13b
//!   rule; [`FailoverPolicyKind::SameTierSpread`] re-lands on the cheapest
//!   surviving node of the same hardware tier (GPU→GPU, CPU→CPU);
//!   [`FailoverPolicyKind::MostPerformant`] always jumps to the brawniest
//!   survivor.
//!
//! Plans can also be *sampled* deterministically from a seed
//! ([`FaultPlan::sampled_crashes`]) for randomized robustness sweeps that
//! still replay exactly.

use paldia_hw::{Catalog, InstanceKind};
use paldia_sim::{SimDuration, SimRng, SimTime};

/// What a fault window does while it is open.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The serving node crashes at window start: executing and queued work
    /// is evicted and requeued on the [`FailoverPolicy`]'s replacement, and
    /// the crashed instance kind is unavailable until the window closes.
    NodeCrash,
    /// MPS capacity degradation: the device loses effective bandwidth, so
    /// every resident batch slows by `1 + severity` for the duration (an
    /// FBR capacity loss of `severity / (1 + severity)`).
    MpsDegrade {
        /// Extra multiplicative slowdown while the window is open (0.5 ⇒
        /// every batch takes 1.5× as long).
        severity: f64,
    },
    /// Container stragglers: cold starts begun while the window is open
    /// take `multiplier` × the configured cold-start delay.
    Straggler {
        /// Cold-start stretch factor (≥ 1).
        multiplier: f64,
    },
    /// Cold-start storm: at window start every warm idle container on every
    /// live worker is killed, so the next wave of batches pays cold starts.
    ColdStartStorm,
}

impl FaultKind {
    /// Stable ordering rank for deterministic normalization output.
    fn rank(&self) -> u64 {
        match self {
            FaultKind::NodeCrash => 0,
            FaultKind::MpsDegrade { .. } => 1,
            FaultKind::Straggler { .. } => 2,
            FaultKind::ColdStartStorm => 3,
        }
    }

    /// Fault parameter as raw bits (0 for parameterless kinds) — the
    /// tiebreaker that makes sorting total.
    fn param_bits(&self) -> u64 {
        match self {
            FaultKind::MpsDegrade { severity } => severity.to_bits(),
            FaultKind::Straggler { multiplier } => multiplier.to_bits(),
            _ => 0,
        }
    }

    /// Two windows merge only when they inject the *same* fault with the
    /// same parameters.
    fn same_fault(&self, other: &FaultKind) -> bool {
        self.rank() == other.rank() && self.param_bits() == other.param_bits()
    }
}

/// One fault active over `[start, start + dur)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// When the fault begins.
    pub start: SimTime,
    /// How long it lasts (cold-start storms may be instantaneous).
    pub dur: SimDuration,
    /// What happens.
    pub fault: FaultKind,
}

impl FaultWindow {
    /// Exclusive end of the window (saturating).
    pub fn end(&self) -> SimTime {
        self.start.checked_add(self.dur).unwrap_or(SimTime::MAX)
    }

    fn sort_key(&self) -> (u64, u64, u64, u64) {
        (
            self.start.as_micros(),
            self.end().as_micros(),
            self.fault.rank(),
            self.fault.param_bits(),
        )
    }
}

/// A declarative, seed-deterministic fault schedule.
///
/// Build one with the fluent constructors, normalize/compile it against a
/// run horizon, and hand it to [`SimConfig`](crate::SimConfig)`::faults` —
/// every harness (single-tenant and fleet) injects it.
///
/// ```
/// use paldia_cluster::faults::{FaultPlan, FaultKind};
/// use paldia_sim::{SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .crash(SimTime::from_secs(60), SimDuration::from_secs(30))
///     .degrade(SimTime::from_secs(10), SimDuration::from_secs(20), 0.5)
///     .cold_start_storm(SimTime::from_secs(5));
/// let norm = plan.normalized(SimTime::from_secs(300));
/// assert_eq!(norm.windows().len(), 3);
/// assert!(norm.windows().iter().all(|w| w.end() <= SimTime::from_secs(300)));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// Empty plan (no faults — the default for every config).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The raw (not yet normalized) windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Add an arbitrary window.
    pub fn with_window(mut self, w: FaultWindow) -> Self {
        self.windows.push(w);
        self
    }

    /// Add a node-crash window.
    pub fn crash(self, start: SimTime, dur: SimDuration) -> Self {
        self.with_window(FaultWindow {
            start,
            dur,
            fault: FaultKind::NodeCrash,
        })
    }

    /// Add an MPS-degradation window.
    // lint:allow(u1) builds fault plans in cluster/tests/partitioned_parity.rs
    pub fn degrade(self, start: SimTime, dur: SimDuration, severity: f64) -> Self {
        self.with_window(FaultWindow {
            start,
            dur,
            fault: FaultKind::MpsDegrade {
                severity: severity.max(0.0),
            },
        })
    }

    /// Add a container-straggler window.
    // lint:allow(u1) builds fault plans in cluster/tests and tests/shard_invariance.rs
    pub fn straggler(self, start: SimTime, dur: SimDuration, multiplier: f64) -> Self {
        self.with_window(FaultWindow {
            start,
            dur,
            fault: FaultKind::Straggler {
                multiplier: multiplier.max(1.0),
            },
        })
    }

    /// Add an instantaneous cold-start storm.
    pub fn cold_start_storm(self, at: SimTime) -> Self {
        self.with_window(FaultWindow {
            start: at,
            dur: SimDuration::ZERO,
            fault: FaultKind::ColdStartStorm,
        })
    }

    /// The Fig. 13b pattern: the active node fails for one minute out of
    /// every two, starting at `first`, for `count` cycles.
    pub fn minute_crashes(first: SimTime, count: u32) -> Self {
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let start = first + SimDuration::from_secs(120 * i as u64);
            plan = plan.crash(start, SimDuration::from_secs(60));
        }
        plan
    }

    /// `count` crash windows of `dur` each, with starts sampled uniformly
    /// over `[0, horizon)` from `seed`. Same seed ⇒ same plan, bit for bit.
    pub fn sampled_crashes(seed: u64, horizon: SimTime, count: u32, dur: SimDuration) -> Self {
        let mut rng = SimRng::new(seed ^ 0xfa17_5000);
        let span = horizon.as_micros().max(1);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let at = SimTime::from_micros(rng.next_below(span));
            plan = plan.crash(at, dur);
        }
        plan
    }

    /// Normalize against a run horizon:
    ///
    /// * windows starting at/after the horizon are dropped;
    /// * windows are truncated so `end ≤ horizon`;
    /// * zero-duration windows are dropped, except cold-start storms
    ///   (which act at their start instant);
    /// * overlapping or touching windows of the *same* fault merge;
    /// * output is sorted by `(start, end, fault)`.
    ///
    /// Normalization is idempotent and independent of the order windows
    /// were added in (`fault_plan_props.rs` pins both down).
    pub fn normalized(&self, horizon: SimTime) -> FaultPlan {
        let mut clamped: Vec<FaultWindow> = self
            .windows
            .iter()
            .filter(|w| w.start < horizon)
            .map(|w| {
                let end = w.end().min(horizon);
                FaultWindow {
                    start: w.start,
                    dur: end.saturating_since(w.start),
                    fault: w.fault,
                }
            })
            .filter(|w| !w.dur.is_zero() || matches!(w.fault, FaultKind::ColdStartStorm))
            .collect();
        // Group same-fault windows together, then sweep-merge each group.
        clamped.sort_by_key(|w| {
            (
                w.fault.rank(),
                w.fault.param_bits(),
                w.start.as_micros(),
                w.end().as_micros(),
            )
        });
        let mut merged: Vec<FaultWindow> = Vec::with_capacity(clamped.len());
        for w in clamped {
            match merged.last_mut() {
                Some(prev) if prev.fault.same_fault(&w.fault) && w.start <= prev.end() => {
                    let end = prev.end().max(w.end());
                    prev.dur = end.saturating_since(prev.start);
                }
                _ => merged.push(w),
            }
        }
        merged.sort_by_key(|w| w.sort_key());
        FaultPlan { windows: merged }
    }

    /// Compile into the time-sorted event list the harnesses schedule.
    /// Compilation normalizes first, so it shares normalization's
    /// order-independence and idempotence.
    pub fn compile(&self, horizon: SimTime) -> CompiledFaults {
        let windows = self.normalized(horizon).windows;
        let mut events = Vec::with_capacity(windows.len() * 2);
        for (i, w) in windows.iter().enumerate() {
            events.push(FaultEvent {
                at: w.start,
                window: i,
                edge: FaultEdge::Start,
            });
            events.push(FaultEvent {
                at: w.end(),
                window: i,
                edge: FaultEdge::End,
            });
        }
        // Stable by time: a window's Start precedes its End even at zero
        // duration, and simultaneous windows fire in normalized order.
        events.sort_by_key(|e| e.at.as_micros());
        CompiledFaults { windows, events }
    }
}

/// Which edge of a fault window an event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEdge {
    /// The fault begins.
    Start,
    /// The fault clears.
    End,
}

/// One scheduled fault edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When to fire.
    pub at: SimTime,
    /// Index into [`CompiledFaults::windows`].
    pub window: usize,
    /// Start or end.
    pub edge: FaultEdge,
}

/// A compiled plan: normalized windows plus their time-sorted edge events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompiledFaults {
    /// Normalized windows, indexable by [`FaultEvent::window`].
    pub windows: Vec<FaultWindow>,
    /// All Start/End edges, sorted by time.
    pub events: Vec<FaultEvent>,
}

impl CompiledFaults {
    /// True when no fault will ever fire.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Where evicted work lands after a node crash.
///
/// Implementations must be deterministic pure functions of
/// `(failed, available)` — the harness replays them on every crash.
/// `Send` so sharded fleet runs can share the rule across pool threads.
pub trait FailoverPolicy: Send {
    /// Display name.
    fn name(&self) -> &'static str;
    /// Pick the replacement kind, or `None` when nothing acceptable
    /// survives (the harness then re-provisions the failed kind).
    fn replacement(&self, failed: InstanceKind, available: &Catalog) -> Option<InstanceKind>;
}

/// The paper's Fig. 13b rule: "switch to the more performant hardware with
/// the least cost", falling back to the most performant survivor when
/// nothing brawnier exists (failing the V100 itself).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheapestMorePerformant;

impl FailoverPolicy for CheapestMorePerformant {
    fn name(&self) -> &'static str {
        "cheapest-more-performant"
    }
    fn replacement(&self, failed: InstanceKind, available: &Catalog) -> Option<InstanceKind> {
        available
            .cheapest_more_performant(failed)
            .or_else(|| available.most_performant())
    }
}

/// Spread within the failed node's own tier: the cheapest surviving GPU
/// node for a GPU failure (CPU node for a CPU failure), before considering
/// an upgrade across tiers. Keeps cost flat at the price of performance
/// headroom — the natural contrast to the paper's upgrade rule.
#[derive(Clone, Copy, Debug, Default)]
pub struct SameTierSpread;

impl FailoverPolicy for SameTierSpread {
    fn name(&self) -> &'static str {
        "same-tier-spread"
    }
    fn replacement(&self, failed: InstanceKind, available: &Catalog) -> Option<InstanceKind> {
        available
            .by_cost_ascending()
            .into_iter()
            .find(|k| k.is_gpu() == failed.is_gpu())
            .or_else(|| available.cheapest_more_performant(failed))
            .or_else(|| available.most_performant())
    }
}

/// Always jump to the most performant survivor, whatever it costs — the
/// pre-refactor behaviour when the upgrade rule was disabled.
#[derive(Clone, Copy, Debug, Default)]
pub struct MostPerformant;

impl FailoverPolicy for MostPerformant {
    fn name(&self) -> &'static str {
        "most-performant"
    }
    fn replacement(&self, _failed: InstanceKind, available: &Catalog) -> Option<InstanceKind> {
        available.most_performant()
    }
}

/// Config-friendly selector for the built-in policies (custom policies plug
/// straight into the harness entry points that take `&dyn FailoverPolicy`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FailoverPolicyKind {
    /// [`CheapestMorePerformant`] — the paper's Fig. 13b rule.
    CheapestMorePerformant,
    /// [`SameTierSpread`].
    SameTierSpread,
    /// [`MostPerformant`] (default, matching the pre-fault-layer harness).
    #[default]
    MostPerformant,
}

impl FailoverPolicyKind {
    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn FailoverPolicy> {
        match self {
            FailoverPolicyKind::CheapestMorePerformant => Box::new(CheapestMorePerformant),
            FailoverPolicyKind::SameTierSpread => Box::new(SameTierSpread),
            FailoverPolicyKind::MostPerformant => Box::new(MostPerformant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn minute_crashes_matches_fig13b_pattern() {
        let p = FaultPlan::minute_crashes(secs(60), 3);
        let w = p.windows();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0].start, secs(60));
        assert_eq!(w[1].start, secs(180));
        assert_eq!(w[2].start, secs(300));
        assert!(w
            .iter()
            .all(|w| w.dur == d(60) && w.fault == FaultKind::NodeCrash));
    }

    #[test]
    fn normalization_merges_overlapping_crashes() {
        let p = FaultPlan::new()
            .crash(secs(10), d(20))
            .crash(secs(25), d(20))
            .crash(secs(100), d(5));
        let n = p.normalized(secs(1_000));
        assert_eq!(n.windows().len(), 2);
        assert_eq!(n.windows()[0].start, secs(10));
        assert_eq!(n.windows()[0].end(), secs(45));
        assert_eq!(n.windows()[1].start, secs(100));
    }

    #[test]
    fn different_faults_do_not_merge() {
        let p = FaultPlan::new()
            .crash(secs(10), d(20))
            .degrade(secs(15), d(20), 0.5)
            .straggler(secs(12), d(30), 3.0);
        assert_eq!(p.normalized(secs(1_000)).windows().len(), 3);
    }

    #[test]
    fn clamp_to_horizon() {
        let p = FaultPlan::new()
            .crash(secs(10), d(100))
            .crash(secs(500), d(10))
            .cold_start_storm(secs(40));
        let n = p.normalized(secs(60));
        assert_eq!(n.windows().len(), 2, "{:?}", n.windows());
        assert!(n.windows().iter().all(|w| w.end() <= secs(60)));
    }

    #[test]
    fn compile_emits_sorted_edges() {
        let p = FaultPlan::minute_crashes(secs(60), 2).cold_start_storm(secs(90));
        let c = p.compile(secs(1_000));
        assert_eq!(c.windows.len(), 3);
        assert_eq!(c.events.len(), 6);
        assert!(c.events.windows(2).all(|e| e[0].at <= e[1].at));
        // The storm's Start precedes its End even at zero duration.
        let storm_edges: Vec<FaultEdge> = c
            .events
            .iter()
            .filter(|e| matches!(c.windows[e.window].fault, FaultKind::ColdStartStorm))
            .map(|e| e.edge)
            .collect();
        assert_eq!(storm_edges, vec![FaultEdge::Start, FaultEdge::End]);
    }

    #[test]
    fn sampled_crashes_are_seed_deterministic() {
        let h = secs(600);
        let a = FaultPlan::sampled_crashes(7, h, 5, d(20));
        let b = FaultPlan::sampled_crashes(7, h, 5, d(20));
        let c = FaultPlan::sampled_crashes(8, h, 5, d(20));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows().iter().all(|w| w.start < h));
    }

    #[test]
    fn failover_policies_differ_where_they_should() {
        let cat = Catalog::table_ii();
        // M60 fails: upgrade rule goes to the V100 node; same-tier stays on
        // the cheapest surviving GPU (the K80 node).
        let survivors = cat.without(InstanceKind::G3s_xlarge);
        assert_eq!(
            CheapestMorePerformant.replacement(InstanceKind::G3s_xlarge, &survivors),
            Some(InstanceKind::P3_2xlarge)
        );
        assert_eq!(
            SameTierSpread.replacement(InstanceKind::G3s_xlarge, &survivors),
            Some(InstanceKind::P2_xlarge)
        );
        assert_eq!(
            MostPerformant.replacement(InstanceKind::G3s_xlarge, &survivors),
            Some(InstanceKind::P3_2xlarge)
        );
        // V100 fails: no brawnier node, both fall back sensibly.
        let no_v100 = cat.without(InstanceKind::P3_2xlarge);
        assert_eq!(
            CheapestMorePerformant.replacement(InstanceKind::P3_2xlarge, &no_v100),
            no_v100.most_performant()
        );
    }

    #[test]
    fn policy_kinds_build_matching_policies() {
        assert_eq!(
            FailoverPolicyKind::CheapestMorePerformant.build().name(),
            "cheapest-more-performant"
        );
        assert_eq!(
            FailoverPolicyKind::SameTierSpread.build().name(),
            "same-tier-spread"
        );
        assert_eq!(
            FailoverPolicyKind::default().build().name(),
            "most-performant"
        );
    }
}
