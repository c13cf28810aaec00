//! The cluster hardware catalog: which instance kinds a deployment can
//! procure, with cost- and performance-ordered views.
//!
//! The default catalog is the 6-worker-node cluster of Table II. Sensitivity
//! experiments construct restricted catalogs (e.g. "V100 only" for the
//! resource-exhaustion study, or "without the failed node" for the
//! node-failure study).

use crate::node::InstanceKind;

/// An available hardware menu.
///
/// ```
/// use paldia_hw::{Catalog, InstanceKind};
///
/// let cluster = Catalog::table_ii();
/// assert_eq!(cluster.len(), 6);
/// assert_eq!(cluster.by_cost_ascending()[0], InstanceKind::M4_xlarge);
/// assert_eq!(cluster.most_performant(), Some(InstanceKind::P3_2xlarge));
///
/// // The node-failure studies run on a reduced menu:
/// let degraded = cluster.without(InstanceKind::P3_2xlarge);
/// assert_eq!(degraded.most_performant(), Some(InstanceKind::G3s_xlarge));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Catalog {
    kinds: Vec<InstanceKind>,
}

impl Catalog {
    /// The full Table II catalog.
    pub fn table_ii() -> Self {
        Catalog {
            kinds: InstanceKind::ALL.to_vec(),
        }
    }

    /// A catalog restricted to the given kinds (deduplicated, order kept).
    pub fn of(kinds: &[InstanceKind]) -> Self {
        let mut v = Vec::with_capacity(kinds.len());
        for &k in kinds {
            if !v.contains(&k) {
                v.push(k);
            }
        }
        Catalog { kinds: v }
    }

    /// All kinds in this catalog.
    pub fn kinds(&self) -> &[InstanceKind] {
        &self.kinds
    }

    /// True if the catalog offers this kind.
    pub fn contains(&self, kind: InstanceKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// Number of kinds offered.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Kinds sorted by ascending price (Algorithm 1's
    /// `HW_pool.sort_by_cost_ascending()`).
    pub fn by_cost_ascending(&self) -> Vec<InstanceKind> {
        let mut v = self.kinds.clone();
        v.sort_by(|a, b| {
            a.price_per_hour()
                .total_cmp(&b.price_per_hour())
                .then_with(|| a.cmp(b))
        });
        v
    }

    /// Kinds sorted by descending performance index.
    pub fn by_performance_descending(&self) -> Vec<InstanceKind> {
        let mut v = self.kinds.clone();
        v.sort_by(|a, b| {
            b.performance_index()
                .total_cmp(&a.performance_index())
                .then_with(|| a.cmp(b))
        });
        v
    }

    /// The most performant kind in the catalog, if any.
    pub fn most_performant(&self) -> Option<InstanceKind> {
        self.by_performance_descending().first().copied()
    }

    /// Remove a kind (node-failure scenario) — returns a new catalog.
    // lint:allow(u1) builds failover catalogs in hw/tests/properties.rs
    pub fn without(&self, kind: InstanceKind) -> Catalog {
        Catalog {
            kinds: self.kinds.iter().copied().filter(|&k| k != kind).collect(),
        }
    }

    /// The cheapest kind strictly more performant than `than`, if any.
    /// This is the failover rule of the node-failure study (§VI-B): "switch
    /// to the more performant hardware with the least cost".
    pub fn cheapest_more_performant(&self, than: InstanceKind) -> Option<InstanceKind> {
        self.by_cost_ascending()
            .into_iter()
            .find(|k| k.performance_index() > than.performance_index())
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::table_ii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_has_six_nodes() {
        let c = Catalog::table_ii();
        assert_eq!(c.len(), 6);
        assert_eq!(c.kinds().iter().filter(|k| k.is_gpu()).count(), 3);
    }

    #[test]
    fn cost_ascending_order() {
        let c = Catalog::table_ii();
        let order = c.by_cost_ascending();
        assert_eq!(order.first(), Some(&InstanceKind::M4_xlarge));
        assert_eq!(order.last(), Some(&InstanceKind::P3_2xlarge));
        let prices: Vec<f64> = order.iter().map(|k| k.price_per_hour()).collect();
        assert!(prices.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn most_performant_is_v100_node() {
        assert_eq!(
            Catalog::table_ii().most_performant(),
            Some(InstanceKind::P3_2xlarge)
        );
    }

    #[test]
    fn without_removes_for_failover() {
        let c = Catalog::table_ii().without(InstanceKind::G3s_xlarge);
        assert_eq!(c.len(), 5);
        assert!(!c.contains(InstanceKind::G3s_xlarge));
    }

    #[test]
    fn failover_rule_picks_cheapest_brawnier() {
        let c = Catalog::table_ii();
        // From the M60 node, the next more performant at least cost is the
        // K80? No — the K80 is *cheaper* but less performant. The rule wants
        // strictly more performant, cheapest among those: that's the V100
        // node only (nothing between M60 and V100 in this catalog).
        assert_eq!(
            c.cheapest_more_performant(InstanceKind::G3s_xlarge),
            Some(InstanceKind::P3_2xlarge)
        );
        // From the V100 there is nothing better: failover must fall back.
        assert_eq!(c.cheapest_more_performant(InstanceKind::P3_2xlarge), None);
        // From the K80, the M60 is both more performant and cheaper than the
        // V100 node.
        assert_eq!(
            c.cheapest_more_performant(InstanceKind::P2_xlarge),
            Some(InstanceKind::G3s_xlarge)
        );
    }

    #[test]
    fn of_deduplicates() {
        let c = Catalog::of(&[
            InstanceKind::M4_xlarge,
            InstanceKind::M4_xlarge,
            InstanceKind::P3_2xlarge,
        ]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn restricted_catalog_for_exhaustion_study() {
        let v100_only = Catalog::of(&[InstanceKind::P3_2xlarge]);
        assert_eq!(v100_only.most_performant(), Some(InstanceKind::P3_2xlarge));
        assert!(v100_only.kinds().iter().all(|k| k.is_gpu()));
    }
}
