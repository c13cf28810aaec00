//! Cost accounting at Table II on-demand prices.
//!
//! The paper reports "total weighted cost … according to the time spent
//! using each type of compute node" (§V). [`CostMeter`] integrates exactly
//! that: open a lease when a node is procured, close it when relinquished,
//! and the meter accumulates `price/h × hours` per instance kind.

use crate::node::InstanceKind;
use std::fmt;

/// Accumulated spend, broken down by instance kind.
#[derive(Clone, Debug, Default)]
pub struct CostMeter {
    /// (kind, accumulated hours) pairs — tiny, so a flat vec beats a map.
    usage: Vec<(InstanceKind, f64)>,
}

impl CostMeter {
    /// Empty meter.
    pub fn new() -> Self {
        CostMeter { usage: Vec::new() }
    }

    /// Record `hours` of usage on `kind`. Negative durations are ignored.
    pub fn add_usage_hours(&mut self, kind: InstanceKind, hours: f64) {
        if hours <= 0.0 {
            return;
        }
        if let Some(slot) = self.usage.iter_mut().find(|(k, _)| *k == kind) {
            slot.1 += hours;
        } else {
            self.usage.push((kind, hours));
        }
    }

    /// Total dollars spent.
    pub fn total_dollars(&self) -> f64 {
        self.usage
            .iter()
            .map(|&(k, h)| k.price_per_hour() * h)
            .sum()
    }

    /// Hours accumulated on a specific kind.
    // lint:allow(u1) per-kind hours the cluster and root integration tests assert on
    pub fn hours_on(&self, kind: InstanceKind) -> f64 {
        self.usage
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0.0, |&(_, h)| h)
    }

    /// Per-kind breakdown, most expensive first.
    pub fn breakdown(&self) -> Vec<(InstanceKind, f64)> {
        let mut out: Vec<(InstanceKind, f64)> = self
            .usage
            .iter()
            .map(|&(k, h)| (k, k.price_per_hour() * h))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }
}

impl fmt::Display for CostMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.4} (", self.total_dollars())?;
        for (i, (k, d)) in self.breakdown().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: ${d:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_price_times_hours() {
        let mut m = CostMeter::new();
        m.add_usage_hours(InstanceKind::G3s_xlarge, 2.0);
        assert!((m.total_dollars() - 1.5).abs() < 1e-12);
        m.add_usage_hours(InstanceKind::P3_2xlarge, 0.5);
        assert!((m.total_dollars() - (1.5 + 1.53)).abs() < 1e-12);
    }

    #[test]
    fn paper_motivating_cost_ratio() {
        // §II: serving ResNet-50 at ~750 rps needs ≥7 m4.xlarge instances,
        // costing 86% more than one g3s.xlarge.
        let mut cpus = CostMeter::new();
        cpus.add_usage_hours(InstanceKind::M4_xlarge, 7.0);
        let mut gpu = CostMeter::new();
        gpu.add_usage_hours(InstanceKind::G3s_xlarge, 1.0);
        let extra = cpus.total_dollars() / gpu.total_dollars() - 1.0;
        assert!((extra - 0.8667).abs() < 0.01, "extra {extra}");
    }

    #[test]
    fn negative_and_zero_ignored() {
        let mut m = CostMeter::new();
        m.add_usage_hours(InstanceKind::M4_xlarge, -1.0);
        m.add_usage_hours(InstanceKind::M4_xlarge, 0.0);
        assert_eq!(m.total_dollars(), 0.0);
        assert!(m.usage.is_empty());
    }

    #[test]
    fn accumulates_same_kind() {
        let mut m = CostMeter::new();
        m.add_usage_hours(InstanceKind::C6i_2xlarge, 1.0);
        m.add_usage_hours(InstanceKind::C6i_2xlarge, 2.0);
        assert_eq!(m.hours_on(InstanceKind::C6i_2xlarge), 3.0);
        assert_eq!(m.usage.len(), 1);
    }

    #[test]
    fn breakdown_sorted_desc() {
        let mut m = CostMeter::new();
        m.add_usage_hours(InstanceKind::M4_xlarge, 1.0);
        m.add_usage_hours(InstanceKind::P3_2xlarge, 1.0);
        let b = m.breakdown();
        assert_eq!(b[0].0, InstanceKind::P3_2xlarge);
        assert!(b[0].1 > b[1].1);
    }
}
