//! The MPS spatial-sharing interference model.
//!
//! Derived from Prophet's bandwidth-contention formulation, as §III of the
//! paper does: each concurrently executing batch demands a fraction of the
//! device's global memory bandwidth (its FBR). While total demand stays at
//! or below the device's capacity (1.0), concurrent batches execute at solo
//! speed — MPS gives each its own SM partition and the memory system is not
//! the bottleneck. When total demand exceeds 1.0, every co-located batch is
//! slowed by the oversubscription factor.
//!
//! This is exactly the interference term of Eq. (1): for `k` concurrent
//! batches of a model with fractional bandwidth requirement `FBR`, the
//! concurrent execution time is `Solo · k · FBR` — valid precisely when
//! `k · FBR > 1` (the paper's second constraint on `y`).

/// Per-client MPS scheduling overhead: each additional co-located client
/// process costs every client ~4% — context switching, launch serialization
/// and L2 thrash that no bandwidth model captures. This is the term that
/// makes *over*-consolidation strictly worse than time sharing (the paper's
/// Fig. 13a: MPS-only 33% < time-sharing 62%): with it, aggregate MPS
/// throughput peaks at a modest client count and then declines.
pub const MPS_CLIENT_OVERHEAD: f64 = 0.04;

/// Aggregate-slowdown model for a set of co-located MPS batches.
///
/// `fbrs` is the effective device share (bandwidth or compute, whichever
/// binds) of each concurrent batch. Returns the multiplicative slowdown
/// (≥ 1.0) applied to every batch in the set: resource contention times the
/// per-client MPS overhead.
// lint:allow(u1) the reference the device slowdown and the uniform form are tested against
pub fn mps_slowdown(fbrs: &[f64]) -> f64 {
    let demand: f64 = fbrs.iter().sum();
    let k = fbrs.len() as f64;
    demand.max(1.0) * client_overhead_factor(k)
}

/// The `(1 + β(k − 1))` client-count factor alone.
pub fn client_overhead_factor(clients: f64) -> f64 {
    1.0 + MPS_CLIENT_OVERHEAD * (clients - 1.0).max(0.0)
}

/// Slowdown for the homogeneous case of Eq. (1): `k` concurrent batches each
/// with the same `fbr`.
// lint:allow(u1) the Eq. 1 prediction tests/model_agreement.rs holds the simulator to
pub fn mps_slowdown_uniform(concurrent_batches: f64, fbr: f64) -> f64 {
    (concurrent_batches * fbr).max(1.0) * client_overhead_factor(concurrent_batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_saturation_only_client_overhead() {
        // Two clients under bandwidth saturation: only the 4%-per-extra-
        // client MPS overhead applies.
        assert!((mps_slowdown(&[0.2, 0.3]) - 1.04).abs() < 1e-12);
        assert_eq!(mps_slowdown(&[]), 1.0);
        assert_eq!(mps_slowdown(&[0.7]), 1.0);
        assert!((mps_slowdown_uniform(2.0, 0.4) - 1.04).abs() < 1e-12);
    }

    #[test]
    fn oversubscription_slows_linearly_plus_overhead() {
        assert!((mps_slowdown(&[0.6, 0.6]) - 1.2 * 1.04).abs() < 1e-12);
        assert!((mps_slowdown_uniform(4.0, 0.5) - 2.0 * 1.12).abs() < 1e-12);
        // Consolidating "too many" batches — the INFless/Llama ($) failure
        // mode — produces multi-x slowdowns.
        assert!((mps_slowdown_uniform(10.0, 0.45) - 4.5 * 1.36).abs() < 1e-12);
    }

    #[test]
    fn over_consolidation_reduces_aggregate_throughput() {
        // Aggregate throughput k / slowdown(k) peaks and then declines —
        // the physical reason MPS-only loses to time sharing under
        // exhaustion (Fig. 13a).
        let agg = |k: f64| k / mps_slowdown_uniform(k, 0.3);
        assert!(agg(8.0) > agg(1.0));
        assert!(agg(64.0) < agg(8.0));
    }

    #[test]
    fn heterogeneous_mix_sums_demand() {
        let s = mps_slowdown(&[0.8, 0.3, 0.4]);
        assert!((s - 1.5 * 1.08).abs() < 1e-12);
    }
}
