//! Property-based tests for the hardware models.

use paldia_hw::{mps_slowdown, mps_slowdown_uniform, Catalog, CostMeter, InstanceKind, PowerModel};
use proptest::prelude::*;

fn any_kind() -> impl Strategy<Value = InstanceKind> {
    prop::sample::select(InstanceKind::ALL.to_vec())
}

proptest! {
    /// Slowdown is ≥ 1, monotone in added clients, and permutation-invariant.
    #[test]
    fn slowdown_properties(shares in proptest::collection::vec(0.0f64..1.0, 0..32)) {
        let s = mps_slowdown(&shares);
        prop_assert!(s >= 1.0);
        // Adding a client never speeds the set up.
        let mut more = shares.clone();
        more.push(0.5);
        prop_assert!(mps_slowdown(&more) >= s);
        // Order does not matter.
        let mut rev = shares.clone();
        rev.reverse();
        prop_assert!((mps_slowdown(&rev) - s).abs() < 1e-12);
    }

    /// The uniform form agrees with the general form on uniform inputs.
    #[test]
    fn uniform_matches_general(k in 1usize..64, share in 0.0f64..1.0) {
        let general = mps_slowdown(&vec![share; k]);
        let uniform = mps_slowdown_uniform(k as f64, share);
        prop_assert!((general - uniform).abs() < 1e-9);
    }

    /// Power draw is monotone in utilization and bounded by [idle, peak].
    #[test]
    fn power_monotone(kind in any_kind(), u1 in 0.0f64..1.0, u2 in 0.0f64..1.0) {
        let p = PowerModel::for_instance(kind);
        let (lo, hi) = (u1.min(u2), u1.max(u2));
        prop_assert!(p.watts_at(lo) <= p.watts_at(hi) + 1e-12);
        prop_assert!(p.watts_at(lo) >= p.idle_w - 1e-12);
        prop_assert!(p.watts_at(hi) <= p.peak_w + 1e-12);
    }

    /// Cost metering is additive: splitting usage across calls changes
    /// nothing.
    #[test]
    fn cost_additive(kind in any_kind(), hours in proptest::collection::vec(0.0f64..10.0, 1..20)) {
        let mut split = CostMeter::new();
        for &h in &hours {
            split.add_usage_hours(kind, h);
        }
        let mut lump = CostMeter::new();
        lump.add_usage_hours(kind, hours.iter().sum());
        prop_assert!((split.total_dollars() - lump.total_dollars()).abs() < 1e-9);
        prop_assert!((split.hours_on(kind) - lump.hours_on(kind)).abs() < 1e-9);
    }

    /// Removing a kind from a catalog preserves cost ordering of the rest.
    #[test]
    fn catalog_without_preserves_order(kind in any_kind()) {
        let full = Catalog::table_ii().by_cost_ascending();
        let without = Catalog::table_ii().without(kind).by_cost_ascending();
        let expected: Vec<_> = full.into_iter().filter(|&k| k != kind).collect();
        prop_assert_eq!(without, expected);
    }

    /// Failover target (cheapest more performant) is indeed both.
    #[test]
    fn failover_target_properties(kind in any_kind()) {
        let c = Catalog::table_ii();
        if let Some(t) = c.cheapest_more_performant(kind) {
            prop_assert!(t.performance_index() > kind.performance_index());
            // No cheaper candidate is also more performant.
            for other in c.by_cost_ascending() {
                if other.price_per_hour() < t.price_per_hour() {
                    prop_assert!(other.performance_index() <= kind.performance_index());
                }
            }
        } else {
            // Only the most performant kind has no upgrade.
            prop_assert_eq!(kind, c.most_performant().unwrap());
        }
    }
}
