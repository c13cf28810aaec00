//! The Paldia scheduler: Algorithm 1 end to end, as a cluster
//! [`Scheduler`].
//!
//! Every monitor interval:
//!
//! 1. build per-model loads from the live backlog plus the predicted rate
//!    (EWMA/Holt from the harness — or the true future rate in Oracle
//!    mode);
//! 2. evaluate the cost-ascending hardware pool in parallel (Eq. (1) y-probe
//!    on GPUs, M/D/1 estimate on CPUs);
//! 3. `choose_best_HW`: cheapest candidate whose `T_max` fits the SLO
//!    slack, falling back to the within-50 ms-of-best rule under distress;
//! 4. damp reconfiguration with the `wait_ctr` hysteresis;
//! 5. emit Job Distribution directives (spatial caps + batch sizes) for the
//!    hardware *currently* serving, so hybrid sharing is always active even
//!    mid-transition.

use crate::hwselect::{choose_best_hw, feasibility_budget, Hysteresis, SelectionConfig};
use crate::jobdist::plans_to_decision;
use crate::ysearch::{
    evaluate_kind_cached, evaluate_pool_cached, HwEvaluation, ModelLoad, PlanCache,
};
use paldia_cluster::{Decision, Observation, Scheduler};
use paldia_hw::InstanceKind;
use paldia_obs::{DecisionEvent, HwCandidate, LoadSummary, PlanSummary};
use paldia_sim::SimDuration;
use paldia_traces::RateTrace;
use paldia_workloads::MlModel;

/// Tunables of the Paldia policy.
#[derive(Clone, Copy, Debug)]
pub struct PaldiaConfig {
    /// Hardware selection parameters.
    pub selection: SelectionConfig,
    /// Oracle look-ahead horizon when clairvoyant traces are provided, s.
    pub oracle_horizon_s: f64,
    /// Extra planning headroom applied when the predictor signals a ramp
    /// (predicted > observed). A ramp that saturates the next-cheaper rung
    /// within one procurement delay would otherwise be climbed one 4 s rung
    /// at a time — "conservative autoscaling" (§I) means jumping straight
    /// to hardware that will still fit when it arrives.
    pub ramp_headroom: f64,
    /// Rate multiplier used to pick the escalation target once the current
    /// node is already in distress (its best `T_max` blows the SLO). By the
    /// time distress is visible the predictor is lagging the surge badly;
    /// planning at face value would climb the hardware ladder one
    /// procurement delay per rung. Occasionally over-jumping to the V100 is
    /// the "occasionally selects more expensive GPUs … to avoid
    /// compromising on performance" behaviour of §VI-A2.
    pub distress_boost: f64,
}

impl Default for PaldiaConfig {
    fn default() -> Self {
        PaldiaConfig {
            selection: SelectionConfig::default(),
            oracle_horizon_s: 4.0,
            ramp_headroom: 2.2,
            distress_boost: 2.5,
        }
    }
}

/// The Paldia scheduling policy (and, with clairvoyant traces, the Oracle
/// of §VI-B).
pub struct PaldiaScheduler {
    name: String,
    cfg: PaldiaConfig,
    hysteresis: Hysteresis,
    /// Consecutive rounds in which *some* cheaper kind was chosen. Counted
    /// by direction rather than by exact target: at baseline traffic the
    /// cheapest feasible node flaps with rate noise, and requiring the same
    /// target `wait_limit_down` times in a row would block downgrades
    /// forever.
    down_streak: u32,
    /// Consecutive intervals in which the current node's best `T_max` blew
    /// the SLO. Escalation fires on the second — one interval of distress
    /// is routinely a noise spike already draining.
    distress_streak: u32,
    /// Per-model (streak, previous observed rate). The ramp headroom only
    /// engages after three consecutive intervals in which the *observed*
    /// rate itself rose ≥5% while the predictor ran ahead of it: genuine
    /// surges clear that within ~1.5 s; predictor trend-decay after a noise
    /// bump does not (a flapping headroom both blocks downgrades and
    /// triggers spurious escalations).
    ramp_streaks: Vec<(MlModel, u32, f64)>,
    /// Clairvoyant per-model rate traces (Oracle mode).
    oracle_traces: Vec<(MlModel, RateTrace)>,
    /// Known co-located SeBS mix (host-aware extension); empty = the
    /// paper's shipped model, which ignores host-side interference.
    host_mix: paldia_workloads::sebs::SebsMix,
    /// Memoized per-(model, kind, load) plans across monitor rounds. One
    /// cache per scheduler instance keeps parallel experiment cells
    /// independent and deterministic.
    plan_cache: PlanCache,
    /// When true (set by the traced harness), every `decide()` appends a
    /// structured [`DecisionEvent`] to `decision_log`. Off by default so
    /// untraced runs pay nothing.
    record_decisions: bool,
    /// Decision events accumulated since the last drain.
    decision_log: Vec<DecisionEvent>,
}

impl PaldiaScheduler {
    /// The online Paldia policy.
    pub fn new() -> Self {
        PaldiaScheduler::with_config(PaldiaConfig::default())
    }

    /// The host-aware extension the paper leaves as future work: Paldia's
    /// performance model additionally accounts for the interference of
    /// co-resident CPU-bound serverless workloads, inflating every latency
    /// estimate by the per-node contention factor so selection routes
    /// around contended (especially CPU-only) nodes.
    pub fn host_aware(mix: paldia_workloads::sebs::SebsMix) -> Self {
        let mut s = PaldiaScheduler::new();
        s.name = "Paldia (host-aware)".to_string();
        s.host_mix = mix;
        s
    }

    /// Paldia with custom tunables (ablation studies).
    pub fn with_config(cfg: PaldiaConfig) -> Self {
        PaldiaScheduler {
            name: "Paldia".to_string(),
            cfg,
            hysteresis: Hysteresis::default(),
            down_streak: 0,
            distress_streak: 0,
            ramp_streaks: Vec::new(),
            oracle_traces: Vec::new(),
            host_mix: paldia_workloads::sebs::SebsMix::none(),
            plan_cache: PlanCache::new(),
            record_decisions: false,
            decision_log: Vec::new(),
        }
    }

    /// The clairvoyant Oracle: Paldia's policies with perfect knowledge of
    /// the request trace and no reconfiguration damping (§VI-B).
    pub fn oracle(traces: Vec<(MlModel, RateTrace)>) -> Self {
        let mut cfg = PaldiaConfig::default();
        cfg.selection.wait_limit = 1;
        PaldiaScheduler {
            name: "Oracle".to_string(),
            oracle_traces: traces,
            ..PaldiaScheduler::with_config(cfg)
        }
    }

    /// Host contention the model assumes on a node kind (mirrors the
    /// substrate: full contention on CPU-only nodes, dampened on GPU
    /// hosts).
    fn contention_of(&self, kind: InstanceKind) -> f64 {
        let raw = self.host_mix.contention_factor(kind.host_vcpus());
        if kind.is_gpu() {
            raw * 0.3
        } else {
            raw
        }
    }

    fn ramp_entry(&mut self, model: MlModel) -> &mut (MlModel, u32, f64) {
        if let Some(i) = self.ramp_streaks.iter().position(|&(m, _, _)| m == model) {
            &mut self.ramp_streaks[i]
        } else {
            self.ramp_streaks.push((model, 0, 0.0));
            self.ramp_streaks
                .last_mut()
                .expect("invariant: entry was pushed on the line above")
        }
    }

    /// This scheduler's y-search plan cache (hit/miss counters included).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    fn rate_for(
        &mut self,
        obs: &Observation,
        model: MlModel,
        observed: f64,
        predicted: f64,
    ) -> f64 {
        if self.oracle_traces.is_empty() {
            // Conservative: never plan below what is demonstrably arriving,
            // and lead a *sustained* ramp by the configured headroom so the
            // node procured now still fits when it comes up.
            let entry = self.ramp_entry(model);
            let rising = observed > entry.2 * 1.05 && observed > 1.0;
            let predictor_ahead = predicted > observed * 1.1;
            if rising && predictor_ahead {
                entry.1 += 1;
            } else {
                entry.1 = 0;
            }
            let sustained = entry.1 >= 3;
            entry.2 = observed;
            let base = predicted.max(observed);
            if sustained {
                base * self.cfg.ramp_headroom
            } else {
                base
            }
        } else {
            // Clairvoyant: worst rate over the look-ahead horizon.
            let trace = self
                .oracle_traces
                .iter()
                .find(|(m, _)| *m == model)
                .map(|(_, t)| t);
            match trace {
                None => predicted.max(observed),
                Some(t) => {
                    let horizon = SimDuration::from_secs_f64(self.cfg.oracle_horizon_s);
                    let step = SimDuration::from_millis(500);
                    let mut worst: f64 = 0.0;
                    let mut at = obs.now;
                    while at <= obs.now + horizon {
                        worst = worst.max(t.rate_at(at));
                        at += step;
                    }
                    worst
                }
            }
        }
    }
}

impl Default for PaldiaScheduler {
    fn default() -> Self {
        PaldiaScheduler::new()
    }
}

/// KV-cache feasibility term (iteration-level LLM mode). When the live
/// sequences' token demand exceeds a candidate's KV capacity, the overflow
/// cannot be resident — it queues a full service round per capacity's worth
/// of excess, so the candidate's worst-case latency inflates by the SLO per
/// unit of over-pressure. This drives both the feasibility flag in the
/// decision log and the distress detector on the current node. Inert when
/// `kv_demand == 0` (request-level mode observes no KV demand), so the
/// shipped model's decisions are bit-identical.
fn apply_kv_pressure(e: &mut HwEvaluation, kv_demand: u64, slo_ms: f64) {
    if kv_demand == 0 {
        return;
    }
    let cap = e.kind.kv_capacity_tokens().max(1) as f64;
    let pressure = kv_demand as f64 / cap;
    if pressure > 1.0 {
        e.t_max_ms += slo_ms * (pressure - 1.0);
    }
}

impl Scheduler for PaldiaScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn decide(&mut self, obs: &Observation) -> Decision {
        // Planning loads: predicted/headroomed rates, used for *selecting*
        // hardware (what must hold when the new node is live).
        let loads: Vec<ModelLoad> = obs
            .models
            .iter()
            .map(|m| ModelLoad {
                model: m.model,
                pending: m.pending_requests,
                rate_rps: self.rate_for(obs, m.model, m.observed_rps, m.predicted_rps),
            })
            .collect();
        // Observed loads: what is demonstrably happening right now, used
        // for distress detection and job distribution. Judging distress on
        // the inflated planning rate would trigger spurious escalations.
        let loads_now: Vec<ModelLoad> = obs
            .models
            .iter()
            .map(|m| ModelLoad {
                model: m.model,
                pending: m.pending_requests,
                rate_rps: m.observed_rps,
            })
            .collect();

        // Algorithm 1: cost-ascending pool, parallel evaluation (with the
        // host-aware contention estimate when configured).
        let kinds = obs.available.by_cost_ascending();
        let mix = self.host_mix.clone();
        let contention = move |k: InstanceKind| {
            let raw = mix.contention_factor(k.host_vcpus());
            if k.is_gpu() {
                raw * 0.3
            } else {
                raw
            }
        };
        let mut evals = evaluate_pool_cached(
            &kinds,
            &loads,
            obs.slo_ms,
            &contention,
            &mut self.plan_cache,
        );
        let kv_demand = obs.total_kv_demand();
        for e in evals.iter_mut() {
            apply_kv_pressure(e, kv_demand, obs.slo_ms);
        }
        let chosen = choose_best_hw(
            &evals,
            obs.slo_ms,
            &self.cfg.selection,
            Some(obs.current_hw),
        )
        .unwrap_or(obs.current_hw);

        // Job distribution for the hardware serving right now.
        let current_contention = self.contention_of(obs.current_hw);
        let mut current_eval = evaluate_kind_cached(
            obs.current_hw,
            &loads_now,
            obs.slo_ms,
            current_contention,
            &mut self.plan_cache,
        );
        apply_kv_pressure(&mut current_eval, kv_demand, obs.slo_ms);

        // Hysteresis-damped reconfiguration; never stack transitions.
        // Exception: when the *current* hardware already cannot meet the
        // SLO (its own best T_max blows the target) and a more performant
        // node was chosen, escalate immediately — waiting out the mismatch
        // counter would knowingly violate SLOs ("PALDIA's Hardware
        // Selection module can detect when the job interference can cause
        // SLO violations", §VI-A1).
        let in_trouble = current_eval.t_max_ms > obs.slo_ms
            && chosen != obs.current_hw
            && chosen.performance_index() > obs.current_hw.performance_index();
        if in_trouble {
            self.distress_streak += 1;
        } else {
            self.distress_streak = 0;
        }
        let distress = in_trouble && self.distress_streak >= 2;
        let ramping = self.ramp_streaks.iter().any(|&(_, streak, _)| streak >= 3);
        let hw = if obs.transitioning {
            // Normally hold while a transition is in flight — but a surge
            // that has already outgrown the pending target (chosen is more
            // performant than what is being provisioned) must retarget now:
            // waiting for the doomed rung wastes a full procurement delay.
            match obs.pending_hw {
                Some(pending)
                    if (distress || ramping)
                        && chosen != pending
                        && chosen.performance_index() > pending.performance_index() =>
                {
                    chosen
                }
                _ => obs.current_hw,
            }
        } else if distress {
            // Escalate immediately, and escalate *far enough*: re-plan at a
            // boosted rate so a steep surge is not climbed one rung (and
            // one procurement delay) at a time.
            self.hysteresis.reset();
            self.down_streak = 0;
            let boosted: Vec<ModelLoad> = loads
                .iter()
                .map(|l| ModelLoad {
                    rate_rps: l.rate_rps * self.cfg.distress_boost,
                    ..*l
                })
                .collect();
            let boosted_evals = evaluate_pool_cached(
                &kinds,
                &boosted,
                obs.slo_ms,
                &contention,
                &mut self.plan_cache,
            );
            let jump = choose_best_hw(
                &boosted_evals,
                obs.slo_ms,
                &self.cfg.selection,
                Some(obs.current_hw),
            )
            .unwrap_or(chosen);
            if jump.performance_index() > obs.current_hw.performance_index() {
                jump
            } else {
                chosen
            }
        } else if chosen.price_per_hour() < obs.current_hw.price_per_hour() {
            // Downgrades wait much longer, counted by *direction* (the
            // cheapest feasible target flaps with rate noise).
            self.down_streak += 1;
            self.hysteresis.reset();
            if self.down_streak >= self.cfg.selection.wait_limit_down {
                self.down_streak = 0;
                chosen
            } else {
                obs.current_hw
            }
        } else if chosen == obs.current_hw {
            // Mild decay rather than a hard reset: a single noisy interval
            // should not erase an otherwise steady downgrade trend.
            self.down_streak = self.down_streak.saturating_sub(2);
            self.hysteresis
                .update(obs.current_hw, chosen, self.cfg.selection.wait_limit)
                .unwrap_or(obs.current_hw)
        } else {
            // Upgrade. During a *sustained ramp* the mismatch trend the
            // wait counter exists to confirm is already confirmed by the
            // predictor — waiting 3 more intervals just donates the
            // procurement delay to the backlog.
            self.down_streak = 0;
            let ramping = self.ramp_streaks.iter().any(|&(_, streak, _)| streak >= 3);
            let limit = if ramping {
                1
            } else {
                self.cfg.selection.wait_limit
            };
            self.hysteresis
                .update(obs.current_hw, chosen, limit)
                .unwrap_or(obs.current_hw)
        };

        if self.record_decisions {
            self.decision_log.push(DecisionEvent {
                scheduler: self.name.clone(),
                current_hw: obs.current_hw,
                chosen_hw: hw,
                slo_ms: obs.slo_ms,
                distress,
                ramping,
                transitioning: obs.transitioning,
                loads: loads
                    .iter()
                    .map(|l| LoadSummary {
                        model: l.model,
                        pending: l.pending,
                        rate_rps: l.rate_rps,
                    })
                    .collect(),
                candidates: evals
                    .iter()
                    .map(|e| HwCandidate {
                        kind: e.kind,
                        t_max_ms: e.t_max_ms,
                        price_per_hour: e.kind.price_per_hour(),
                        feasible: e.t_max_ms
                            <= feasibility_budget(
                                e.kind,
                                obs.slo_ms,
                                &self.cfg.selection,
                                Some(obs.current_hw),
                            ),
                    })
                    .collect(),
                plans: current_eval
                    .plans
                    .iter()
                    .map(|p| PlanSummary {
                        model: p.model,
                        best_y: p.best_y,
                        batch_size: p.batch_size,
                        spatial_cap: p.spatial_cap,
                        t_max_ms: p.t_max_ms,
                    })
                    .collect(),
            });
        }

        plans_to_decision(hw, &current_eval.plans)
    }

    fn on_transition_complete(&mut self, _new_hw: InstanceKind) {
        self.hysteresis.reset();
    }

    fn set_decision_recording(&mut self, enabled: bool) {
        self.record_decisions = enabled;
        if !enabled {
            self.decision_log.clear();
        }
    }

    fn drain_decision_events(&mut self) -> Vec<DecisionEvent> {
        std::mem::take(&mut self.decision_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_cluster::ModelObs;
    use paldia_hw::Catalog;
    use paldia_sim::SimTime;

    fn obs(model: MlModel, pending: u64, rate: f64, current: InstanceKind) -> Observation {
        Observation {
            now: SimTime::from_secs(10),
            slo_ms: 200.0,
            current_hw: current,
            transitioning: false,
            pending_hw: None,
            available: Catalog::table_ii(),
            models: vec![ModelObs {
                model,
                pending_requests: pending,
                executing_batches: 0,
                observed_rps: rate,
                predicted_rps: rate,
                kv_demand_tokens: 0,
            }],
        }
    }

    fn decide_until_switch(s: &mut PaldiaScheduler, o: &Observation, rounds: u32) -> InstanceKind {
        let mut hw = o.current_hw;
        for _ in 0..rounds {
            hw = s.decide(o).hw;
            if hw != o.current_hw {
                break;
            }
        }
        hw
    }

    #[test]
    fn low_rate_selects_cpu() {
        let mut s = PaldiaScheduler::new();
        let o = obs(MlModel::GoogleNet, 0, 10.0, InstanceKind::P3_2xlarge);
        // Downgrades are heavily damped: the streak must run its course.
        let hw = decide_until_switch(&mut s, &o, 45);
        assert!(
            !hw.is_gpu(),
            "10 rps GoogleNet belongs on a CPU node, got {hw}"
        );
    }

    #[test]
    fn surge_escalates_to_capable_gpu() {
        let mut s = PaldiaScheduler::new();
        // Big backlog + high rate on a CPU node: escalate.
        let o = obs(MlModel::GoogleNet, 1_200, 225.0, InstanceKind::C6i_4xlarge);
        let hw = decide_until_switch(&mut s, &o, 5);
        assert!(hw.is_gpu(), "surge must escalate to a GPU, got {hw}");
    }

    #[test]
    fn distress_escalates_immediately() {
        // A backlog the current node cannot clear within the SLO bypasses
        // the wait counter after two confirming intervals (one interval of
        // distress is treated as a draining noise spike), and via the
        // distress boost may jump several rungs at once.
        let mut s = PaldiaScheduler::new();
        let o = obs(MlModel::GoogleNet, 1_200, 225.0, InstanceKind::C6i_4xlarge);
        let _ = s.decide(&o);
        let d = s.decide(&o);
        assert!(
            d.hw.is_gpu(),
            "expected GPU escalation by round 2, got {}",
            d.hw
        );
    }

    #[test]
    fn moderate_rate_prefers_cheap_gpu_over_v100() {
        let mut s = PaldiaScheduler::new();
        // A rate past every CPU but within the M60's power.
        let o = obs(MlModel::SeNet18, 0, 300.0, InstanceKind::P3_2xlarge);
        let hw = decide_until_switch(&mut s, &o, 45);
        assert_eq!(
            hw,
            InstanceKind::G3s_xlarge,
            "SENet-18 at 300 rps fits the M60"
        );
    }

    #[test]
    fn transition_in_progress_holds_when_target_is_adequate() {
        // A transition to the V100 is already in flight: nothing can
        // outperform it, so the scheduler holds even under distress.
        let mut s = PaldiaScheduler::new();
        let mut o = obs(MlModel::GoogleNet, 1_200, 225.0, InstanceKind::C6i_4xlarge);
        o.transitioning = true;
        o.pending_hw = Some(InstanceKind::P3_2xlarge);
        for _ in 0..10 {
            assert_eq!(s.decide(&o).hw, InstanceKind::C6i_4xlarge);
        }
    }

    #[test]
    fn transition_in_progress_retargets_past_outgrown_rung() {
        // The pending node (a CPU) is already outgrown by the surge: the
        // scheduler must request a more performant target mid-transition.
        let mut s = PaldiaScheduler::new();
        let mut o = obs(MlModel::GoogleNet, 1_200, 225.0, InstanceKind::C6i_2xlarge);
        o.transitioning = true;
        o.pending_hw = Some(InstanceKind::C6i_4xlarge);
        let mut retargeted = false;
        for _ in 0..5 {
            let d = s.decide(&o);
            if d.hw.is_gpu() {
                retargeted = true;
                break;
            }
        }
        assert!(retargeted, "expected a mid-transition upgrade to a GPU");
    }

    #[test]
    fn decision_carries_hybrid_caps() {
        let mut s = PaldiaScheduler::new();
        let o = obs(MlModel::GoogleNet, 640, 100.0, InstanceKind::G3s_xlarge);
        let d = s.decide(&o);
        assert_eq!(d.per_model.len(), 1);
        let (m, md) = d.per_model[0];
        assert_eq!(m, MlModel::GoogleNet);
        assert!(md.spatial_cap >= 1);
        assert!(md.batch_size >= 1);
        assert_eq!(d.total_cap, None);
    }

    #[test]
    fn oracle_sees_future_surge() {
        use paldia_traces::RateTrace;
        // Rate jumps at t=12 s; the oracle at t=10 s (4 s horizon) must
        // already plan for the surge, while online Paldia does not.
        let mut rates = vec![10.0; 12];
        rates.extend(vec![400.0; 20]);
        let trace = RateTrace::from_rates(SimDuration::from_secs(1), rates);
        let mut oracle = PaldiaScheduler::oracle(vec![(MlModel::GoogleNet, trace)]);
        let o = obs(MlModel::GoogleNet, 0, 10.0, InstanceKind::C6i_4xlarge);
        // wait_limit = 1: switches immediately on the first mismatch.
        let d = oracle.decide(&o);
        assert!(d.hw.is_gpu(), "oracle should pre-provision for the surge");
        assert_eq!(oracle.name(), "Oracle");
    }

    #[test]
    fn decision_recording_drains_structured_events() {
        let mut s = PaldiaScheduler::new();
        let o = obs(MlModel::GoogleNet, 0, 10.0, InstanceKind::G3s_xlarge);
        // Off by default: nothing accumulates.
        let _ = s.decide(&o);
        assert!(s.drain_decision_events().is_empty());
        s.set_decision_recording(true);
        let d = s.decide(&o);
        let events = s.drain_decision_events();
        assert_eq!(events.len(), 1);
        let ev = &events[0];
        assert_eq!(ev.scheduler, "Paldia");
        assert_eq!(ev.current_hw, InstanceKind::G3s_xlarge);
        assert_eq!(ev.chosen_hw, d.hw);
        assert_eq!(ev.candidates.len(), o.available.by_cost_ascending().len());
        assert!(ev.candidates.iter().any(|c| c.feasible));
        assert!(
            ev.candidates
                .windows(2)
                .all(|w| w[0].price_per_hour <= w[1].price_per_hour),
            "candidates must mirror the cost-ascending pool order"
        );
        assert_eq!(ev.plans.len(), 1);
        assert_eq!(ev.plans[0].model, MlModel::GoogleNet);
        // Drained: a second drain is empty; disabling clears any residue.
        assert!(s.drain_decision_events().is_empty());
        let _ = s.decide(&o);
        s.set_decision_recording(false);
        assert!(s.drain_decision_events().is_empty());
    }

    #[test]
    fn unavailable_kinds_are_skipped() {
        let mut s = PaldiaScheduler::new();
        let mut o = obs(MlModel::GoogleNet, 1_200, 225.0, InstanceKind::G3s_xlarge);
        // Only CPU nodes and the K80 remain (e.g. V100 failed).
        o.available = Catalog::of(&[
            InstanceKind::M4_xlarge,
            InstanceKind::C6i_2xlarge,
            InstanceKind::C6i_4xlarge,
            InstanceKind::P2_xlarge,
        ]);
        for _ in 0..5 {
            let d = s.decide(&o);
            assert_ne!(d.hw, InstanceKind::P3_2xlarge);
        }
    }
}
