//! `choose_best_HW` and the reconfiguration hysteresis of Algorithm 1.
//!
//! Selection policy (§IV-A): Paldia "leverages the slack in latency afforded
//! by the latency target" — among candidates whose predicted `T_max` fits
//! inside the SLO (minus a small safety margin), it picks the **cheapest**.
//! Only when *nothing* fits (resource distress) does it fall back to the
//! performance rule: the cheapest candidate within ~50 ms of the most
//! performant one's `T_max`.
//!
//! Reconfiguration is damped: hardware is actually procured only after the
//! chosen kind has disagreed with the current one `wait_limit` (= 3)
//! consecutive times — "multiple mismatches can reveal a trend" — and the
//! counter resets whenever the choice matches the current hardware again.

use crate::ysearch::HwEvaluation;
use paldia_hw::InstanceKind;

/// Tunables of the selection policy.
#[derive(Clone, Copy, Debug)]
pub struct SelectionConfig {
    /// Safety margin subtracted from the SLO when testing feasibility, ms.
    pub slo_safety_ms: f64,
    /// "Within ~50 ms of the most performant" fallback margin, ms.
    pub performance_margin_ms: f64,
    /// Consecutive mismatches required before reconfiguring (upgrades).
    pub wait_limit: u32,
    /// Consecutive mismatches before switching to *cheaper* hardware. Much
    /// larger than `wait_limit`: giving hardware back is never urgent, and
    /// flapping around the feasibility edge at baseline traffic costs SLOs
    /// on every transition (the delayed-termination philosophy of §IV-C
    /// applied to nodes).
    pub wait_limit_down: u32,
    /// Fraction of the SLO budget a *cheaper* candidate must fit within
    /// before we consider moving down to it. < 1.0 keeps a downgraded node
    /// from sitting on the feasibility edge where rate noise immediately
    /// pushes it back out.
    pub downgrade_budget_frac: f64,
}

impl Default for SelectionConfig {
    fn default() -> Self {
        SelectionConfig {
            slo_safety_ms: 10.0,
            performance_margin_ms: 50.0,
            wait_limit: 3,
            wait_limit_down: 24,
            downgrade_budget_frac: 0.9,
        }
    }
}

/// The latency budget a candidate's `T_max` must fit within to count as
/// feasible: the SLO minus the safety margin, further tightened by
/// `downgrade_budget_frac` when the candidate is cheaper than the node in
/// use (downgrades need headroom, not edge-fitting). Exposed so the
/// decision log can annotate every candidate with the same feasibility
/// verdict the selection itself applied.
pub fn feasibility_budget(
    candidate: InstanceKind,
    slo_ms: f64,
    cfg: &SelectionConfig,
    current: Option<InstanceKind>,
) -> f64 {
    let budget = slo_ms - cfg.slo_safety_ms;
    let is_downgrade = current.is_some_and(|c| candidate.price_per_hour() < c.price_per_hour());
    if is_downgrade {
        budget * cfg.downgrade_budget_frac
    } else {
        budget
    }
}

/// `choose_best_HW` over candidate evaluations (already cost-ascending).
/// `current` tightens the budget for candidates cheaper than the node in
/// use (downgrades need headroom, not edge-fitting). Returns the chosen
/// kind, or `None` when the pool is empty.
pub fn choose_best_hw(
    evals: &[HwEvaluation],
    slo_ms: f64,
    cfg: &SelectionConfig,
    current: Option<InstanceKind>,
) -> Option<InstanceKind> {
    if evals.is_empty() {
        return None;
    }
    // Cheapest feasible candidate (the list is cost-ascending).
    if let Some(e) = evals
        .iter()
        .find(|e| e.t_max_ms <= feasibility_budget(e.kind, slo_ms, cfg, current))
    {
        return Some(e.kind);
    }
    // Distress: cheapest within the performance margin of the best T_max.
    let best = evals
        .iter()
        .map(|e| e.t_max_ms)
        .fold(f64::INFINITY, f64::min);
    evals
        .iter()
        .find(|e| e.t_max_ms <= best + cfg.performance_margin_ms)
        .map(|e| e.kind)
}

/// The `wait_ctr` hysteresis of Algorithm 1.
#[derive(Clone, Debug, Default)]
pub struct Hysteresis {
    wait_ctr: u32,
    last_choice: Option<InstanceKind>,
}

impl Hysteresis {
    /// Feed this round's choice; returns `Some(kind)` when the switch
    /// should actually be performed.
    pub fn update(
        &mut self,
        current: InstanceKind,
        chosen: InstanceKind,
        wait_limit: u32,
    ) -> Option<InstanceKind> {
        if chosen == current {
            self.wait_ctr = 0;
            self.last_choice = Some(chosen);
            return None;
        }
        // A changed target restarts the trend count.
        if self.last_choice != Some(chosen) {
            self.wait_ctr = 0;
        }
        self.last_choice = Some(chosen);
        self.wait_ctr += 1;
        if self.wait_ctr >= wait_limit {
            self.wait_ctr = 0;
            Some(chosen)
        } else {
            None
        }
    }

    /// Reset (called when a transition completes).
    pub fn reset(&mut self) {
        self.wait_ctr = 0;
        self.last_choice = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ysearch::HwEvaluation;

    fn eval(kind: InstanceKind, t: f64) -> HwEvaluation {
        HwEvaluation {
            kind,
            t_max_ms: t,
            plans: vec![],
        }
    }

    #[test]
    fn cheapest_feasible_wins() {
        // Cost-ascending pool: CPU feasible → CPU chosen even though the
        // V100 is far faster.
        let evals = vec![
            eval(InstanceKind::C6i_4xlarge, 150.0),
            eval(InstanceKind::G3s_xlarge, 120.0),
            eval(InstanceKind::P3_2xlarge, 60.0),
        ];
        let cfg = SelectionConfig::default();
        assert_eq!(
            choose_best_hw(&evals, 200.0, &cfg, None),
            Some(InstanceKind::C6i_4xlarge)
        );
    }

    #[test]
    fn infeasible_cheap_skipped() {
        let evals = vec![
            eval(InstanceKind::C6i_4xlarge, f64::INFINITY),
            eval(InstanceKind::G3s_xlarge, 170.0),
            eval(InstanceKind::P3_2xlarge, 60.0),
        ];
        let cfg = SelectionConfig::default();
        assert_eq!(
            choose_best_hw(&evals, 200.0, &cfg, None),
            Some(InstanceKind::G3s_xlarge)
        );
    }

    #[test]
    fn distress_falls_back_to_performance_rule() {
        // Nothing fits: pick the cheapest within 50 ms of the best.
        let evals = vec![
            eval(InstanceKind::G3s_xlarge, 900.0),
            eval(InstanceKind::P2_xlarge, 320.0),
            eval(InstanceKind::P3_2xlarge, 280.0),
        ];
        let cfg = SelectionConfig::default();
        assert_eq!(
            choose_best_hw(&evals, 200.0, &cfg, None),
            Some(InstanceKind::P2_xlarge)
        );
        // Tighten the margin: only the V100 qualifies.
        let tight = SelectionConfig {
            performance_margin_ms: 10.0,
            ..cfg
        };
        assert_eq!(
            choose_best_hw(&evals, 200.0, &tight, None),
            Some(InstanceKind::P3_2xlarge)
        );
    }

    #[test]
    fn safety_margin_applies() {
        let evals = vec![
            eval(InstanceKind::G3s_xlarge, 195.0),
            eval(InstanceKind::P3_2xlarge, 60.0),
        ];
        let cfg = SelectionConfig::default();
        // 195 > 200 − 10: not feasible; falls to the performance rule and
        // picks the V100 (195 is not within 50 of 60).
        assert_eq!(
            choose_best_hw(&evals, 200.0, &cfg, None),
            Some(InstanceKind::P3_2xlarge)
        );
    }

    #[test]
    fn feasibility_budget_tightens_downgrades() {
        let cfg = SelectionConfig::default();
        // No current node: plain SLO minus safety margin.
        let plain = feasibility_budget(InstanceKind::G3s_xlarge, 200.0, &cfg, None);
        assert!((plain - 190.0).abs() < 1e-9);
        // Cheaper than current: tightened by the downgrade fraction.
        let down = feasibility_budget(
            InstanceKind::C6i_2xlarge,
            200.0,
            &cfg,
            Some(InstanceKind::P3_2xlarge),
        );
        assert!((down - 190.0 * cfg.downgrade_budget_frac).abs() < 1e-9);
        // More expensive than current: full budget.
        let up = feasibility_budget(
            InstanceKind::P3_2xlarge,
            200.0,
            &cfg,
            Some(InstanceKind::C6i_2xlarge),
        );
        assert!((up - 190.0).abs() < 1e-9);
    }

    #[test]
    fn empty_pool_none() {
        assert_eq!(
            choose_best_hw(&[], 200.0, &SelectionConfig::default(), None),
            None
        );
    }

    #[test]
    fn hysteresis_requires_three_consecutive_mismatches() {
        let mut h = Hysteresis::default();
        let cur = InstanceKind::G3s_xlarge;
        let want = InstanceKind::P3_2xlarge;
        assert_eq!(h.update(cur, want, 3), None);
        assert_eq!(h.update(cur, want, 3), None);
        assert_eq!(h.update(cur, want, 3), Some(want));
        assert_eq!(h.wait_ctr, 0);
    }

    #[test]
    fn hysteresis_resets_on_agreement() {
        let mut h = Hysteresis::default();
        let cur = InstanceKind::G3s_xlarge;
        let want = InstanceKind::P3_2xlarge;
        h.update(cur, want, 3);
        h.update(cur, want, 3);
        // Agreement wipes the trend.
        assert_eq!(h.update(cur, cur, 3), None);
        assert_eq!(h.update(cur, want, 3), None);
        assert_eq!(h.update(cur, want, 3), None);
        assert_eq!(h.update(cur, want, 3), Some(want));
    }

    #[test]
    fn hysteresis_restarts_when_target_changes() {
        let mut h = Hysteresis::default();
        let cur = InstanceKind::G3s_xlarge;
        h.update(cur, InstanceKind::P3_2xlarge, 3);
        h.update(cur, InstanceKind::P3_2xlarge, 3);
        // Different target: trend restarts.
        assert_eq!(h.update(cur, InstanceKind::P2_xlarge, 3), None);
        assert_eq!(h.update(cur, InstanceKind::P2_xlarge, 3), None);
        assert_eq!(
            h.update(cur, InstanceKind::P2_xlarge, 3),
            Some(InstanceKind::P2_xlarge)
        );
    }

    #[test]
    fn wait_limit_one_switches_immediately() {
        let mut h = Hysteresis::default();
        assert_eq!(
            h.update(InstanceKind::G3s_xlarge, InstanceKind::P3_2xlarge, 1),
            Some(InstanceKind::P3_2xlarge)
        );
    }
}
