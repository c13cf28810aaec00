//! The scheduler interface: what every evaluated scheme implements.
//!
//! Once per monitor interval the harness hands the scheduler an
//! [`Observation`] (backlogs, observed and predicted rates, current
//! hardware, what the catalog can still offer) and receives a [`Decision`]
//! (which instance kind to run on and how to share its device).
//!
//! Paldia (in `paldia-core`) and every baseline (in `paldia-baselines`)
//! implement [`Scheduler`]; the harness is policy-agnostic.

use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::DecisionEvent;
use paldia_sim::SimTime;
use paldia_workloads::MlModel;

/// Per-model view the scheduler sees.
#[derive(Clone, Debug)]
pub struct ModelObs {
    /// The model.
    pub model: MlModel,
    /// Requests waiting anywhere before execution (batcher + dispatch
    /// queues) — the live component of Eq. (1)'s `N_M`.
    pub pending_requests: u64,
    /// Batches currently executing.
    pub executing_batches: u32,
    /// Observed arrival rate over the trailing window, requests/s.
    pub observed_rps: f64,
    /// Predicted near-future arrival rate (EWMA/Holt), requests/s.
    pub predicted_rps: f64,
    /// KV-cache tokens demanded by this model's live sequences (resident
    /// plus waiting) under iteration-level execution. Always 0 in
    /// request-level mode, where KV is not a capacity dimension; schedulers
    /// treat it as a second feasibility term alongside the FBR-based Eq. (1)
    /// estimate.
    pub kv_demand_tokens: u64,
}

/// Everything a scheduler may condition on.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Current simulated time.
    pub now: SimTime,
    /// The latency SLO, ms.
    pub slo_ms: f64,
    /// Instance kind currently serving traffic.
    pub current_hw: InstanceKind,
    /// True while a hardware transition is already in flight.
    pub transitioning: bool,
    /// Target of the in-flight transition, if any. A scheduler may request
    /// a *more performant* kind than this mid-transition (a surge that
    /// outgrows the rung committed to two seconds ago); the harness then
    /// abandons the pending node and provisions the new target.
    pub pending_hw: Option<InstanceKind>,
    /// Instance kinds currently procurable (failures remove entries).
    pub available: Catalog,
    /// Per-model state.
    pub models: Vec<ModelObs>,
}

impl Observation {
    /// Look up a model's observation.
    pub fn model(&self, m: MlModel) -> Option<&ModelObs> {
        self.models.iter().find(|o| o.model == m)
    }

    /// Total KV-token demand across models (0 under request-level mode).
    pub fn total_kv_demand(&self) -> u64 {
        self.models.iter().map(|m| m.kv_demand_tokens).sum()
    }
}

/// Per-model sharing directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModelDecision {
    /// Batch size to form (flexible batching, §IV-B).
    pub batch_size: u32,
    /// Maximum batches of this model executing concurrently
    /// (`u32::MAX` = unlimited).
    pub spatial_cap: u32,
}

/// A scheduling decision for the next interval.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Instance kind that should be serving traffic.
    pub hw: InstanceKind,
    /// Device-wide concurrency cap: `Some(1)` = pure time sharing,
    /// `None` = no device-wide bound (per-model caps still apply).
    pub total_cap: Option<u32>,
    /// Per-model directives; models not listed keep defaults.
    pub per_model: Vec<(MlModel, ModelDecision)>,
}

impl Decision {
    /// Keep the current hardware, unlimited sharing, default batching.
    pub fn stay(current: InstanceKind) -> Self {
        Decision {
            hw: current,
            total_cap: None,
            per_model: Vec::new(),
        }
    }
}

/// A request-serving policy under evaluation.
///
/// `Send` so a sharded fleet run can move each tenant's scheduler onto a
/// pool thread; implementations are plain owned state, never thread-local.
pub trait Scheduler: Send {
    /// Display name used in result tables (matches the paper's legends).
    fn name(&self) -> &str;

    /// Produce the decision for the next interval.
    fn decide(&mut self, obs: &Observation) -> Decision;

    /// Hook invoked when the harness completes a hardware transition
    /// (lets stateful policies reset hysteresis counters).
    fn on_transition_complete(&mut self, _new_hw: InstanceKind) {}

    /// Enable or disable structured decision recording. The traced harness
    /// turns this on; schedulers that don't record simply ignore it (the
    /// default), so tracing stays observation-only.
    fn set_decision_recording(&mut self, _enabled: bool) {}

    /// Drain decision events accumulated since the last call. The traced
    /// harness calls this after each `decide()` and stamps the events with
    /// simulated time and sequence numbers. Default: nothing to drain.
    fn drain_decision_events(&mut self) -> Vec<DecisionEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(InstanceKind);
    impl Scheduler for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn decide(&mut self, _obs: &Observation) -> Decision {
            Decision::stay(self.0)
        }
    }

    #[test]
    fn observation_lookup_helpers() {
        let obs = Observation {
            now: SimTime::ZERO,
            slo_ms: 200.0,
            current_hw: InstanceKind::G3s_xlarge,
            transitioning: false,
            pending_hw: None,
            available: Catalog::table_ii(),
            models: vec![
                ModelObs {
                    model: MlModel::ResNet50,
                    pending_requests: 10,
                    executing_batches: 1,
                    observed_rps: 100.0,
                    predicted_rps: 120.0,
                    kv_demand_tokens: 96,
                },
                ModelObs {
                    model: MlModel::SeNet18,
                    pending_requests: 5,
                    executing_batches: 0,
                    observed_rps: 30.0,
                    predicted_rps: 25.0,
                    kv_demand_tokens: 0,
                },
            ],
        };
        assert_eq!(obs.model(MlModel::ResNet50).unwrap().pending_requests, 10);
        assert!(obs.model(MlModel::Bert).is_none());
        assert_eq!(obs.total_kv_demand(), 96);
    }

    #[test]
    fn stay_decision_is_neutral() {
        let d = Decision::stay(InstanceKind::P3_2xlarge);
        assert_eq!(d.hw, InstanceKind::P3_2xlarge);
        assert_eq!(d.total_cap, None);
        assert!(d.per_model.is_empty());
        let mut s = Fixed(InstanceKind::P3_2xlarge);
        assert_eq!(s.name(), "fixed");
        s.on_transition_complete(InstanceKind::P3_2xlarge);
    }
}
