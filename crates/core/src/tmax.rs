//! Equation (1): the interference/queueing overhead model.
//!
//! For a model `M` with `N` outstanding requests, batch size `BS`, isolated
//! batch latency `Solo`, and fractional bandwidth requirement `FBR`, queue
//! `y` requests (time sharing) and run the remaining `N − y` concurrently
//! via MPS. The worst-case completion time is
//!
//! ```text
//! T_max(y) = Solo · y/BS                      (queued, serial execution)
//!          + Solo · max(1, ((N − y)/BS) · FBR) (concurrent, interference)
//! ```
//!
//! The paper's constraints: `y < N`, and `((N − y)/BS) · FBR > 1` for the
//! interference term to be in the regime Prophet's model covers. Below that
//! regime the concurrent set does not saturate bandwidth and executes at
//! solo speed — the `max(1, ·)` extension, which is exactly what the
//! simulator's device model does.

/// Inputs to Eq. (1) for one model on one device.
///
/// ```
/// use paldia_core::TmaxInputs;
///
/// // 4 batches outstanding, each batch 64 requests taking 100 ms alone
/// // and claiming half the device when co-located.
/// let eq1 = TmaxInputs { solo_ms: 100.0, batch_size: 64, fbr: 0.5, n_requests: 256 };
/// // All spatial: 4 × 0.5 = 2× interference → 200 ms.
/// assert_eq!(eq1.t_max(0), 200.0);
/// // Queue half: 2 serial batches (200 ms) + 2 co-located at solo speed.
/// assert_eq!(eq1.t_max(128), 300.0);
/// let (best_y, t) = eq1.best_y();
/// assert_eq!((best_y, t), (0, 200.0));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TmaxInputs {
    /// Isolated batch execution latency on the device, ms (`Solo_M`).
    pub solo_ms: f64,
    /// Batch size (`BS_M`).
    pub batch_size: u32,
    /// Fractional bandwidth requirement of one full batch (`FBR_M`).
    pub fbr: f64,
    /// Outstanding requests (`N_M`).
    pub n_requests: u64,
}

impl TmaxInputs {
    /// Eq. (1): worst-case completion time (ms) when `y` requests are
    /// queued and `N − y` run concurrently. `y` is clamped to `[0, N]`.
    pub fn t_max(&self, y: u64) -> f64 {
        let bs = self.batch_size.max(1) as f64;
        let y = y.min(self.n_requests) as f64;
        let n = self.n_requests as f64;
        let queued = self.solo_ms * y / bs;
        let spatial_batches = (n - y) / bs;
        let spatial = if spatial_batches <= 0.0 {
            0.0
        } else {
            self.solo_ms * (spatial_batches * self.fbr).max(1.0)
        };
        queued + spatial
    }

    /// The paper's validity constraints on a candidate `y`:
    /// (i) `N > y`, (ii) `((N − y)/BS) · FBR > 1`.
    pub fn is_valid_y(&self, y: u64) -> bool {
        if y >= self.n_requests {
            return false;
        }
        let bs = self.batch_size.max(1) as f64;
        ((self.n_requests - y) as f64 / bs) * self.fbr > 1.0
    }

    /// The paper's "optimal range": all `y` satisfying both constraints,
    /// i.e. `0 ≤ y < N − BS/FBR`. `None` when the range is empty (too few
    /// requests to co-locate enough batches — the interference regime is
    /// never entered).
    pub fn optimal_range(&self) -> Option<std::ops::Range<u64>> {
        if self.fbr <= 0.0 || self.n_requests == 0 {
            return None;
        }
        let bs = self.batch_size.max(1) as f64;
        // y < N − BS/FBR (strict): largest integer y is ceil(N − BS/FBR) − 1.
        let bound = self.n_requests as f64 - bs / self.fbr;
        if bound <= 0.0 {
            return None;
        }
        let hi = bound.ceil() as u64; // exclusive upper bound
        Some(0..hi.min(self.n_requests))
    }

    /// Candidate `y` values to probe: batch-granular steps across `[0, N]`
    /// (queueing a fraction of a batch changes nothing — batches are the
    /// scheduling unit), always including the endpoints.
    pub fn candidate_ys(&self) -> Vec<u64> {
        self.probe_ys().collect()
    }

    /// The values of [`candidate_ys`](Self::candidate_ys), ascending,
    /// without allocating.
    fn probe_ys(&self) -> impl Iterator<Item = u64> {
        let bs = u64::from(self.batch_size.max(1));
        let n = self.n_requests;
        std::iter::successors(Some(0), move |&y| {
            (y < n).then(|| y.saturating_add(bs).min(n))
        })
    }

    /// Exhaustively minimize `T_max` over batch-granular `y` (preferring,
    /// per the paper, values in the optimal range — spatial sharing must
    /// stay meaningfully loaded — but falling back to the `max(1,·)`
    /// extension when the range is empty). Returns `(best_y, T_max(best_y))`.
    /// Deterministic: ties break toward smaller `y` (more spatial sharing).
    pub fn best_y(&self) -> (u64, f64) {
        let mut best = (0u64, f64::INFINITY);
        for y in self.probe_ys() {
            let t = self.t_max(y);
            if t < best.1 - 1e-9 {
                best = (y, t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(solo: f64, bs: u32, fbr: f64, n: u64) -> TmaxInputs {
        TmaxInputs {
            solo_ms: solo,
            batch_size: bs,
            fbr,
            n_requests: n,
        }
    }

    #[test]
    fn hand_computed_example() {
        // Solo 100 ms, BS 64, FBR 0.5, N 256 (4 batches).
        let i = inputs(100.0, 64, 0.5, 256);
        // y = 0: all 4 batches spatial → 4·0.5 = 2× → 200 ms.
        assert!((i.t_max(0) - 200.0).abs() < 1e-9);
        // y = 128: 2 queued batches (200 ms) + 2 spatial at max(1,1)=1 → 100.
        assert!((i.t_max(128) - 300.0).abs() < 1e-9);
        // y = 64: 1 queued (100) + 3 spatial ×1.5 → 150. Total 250.
        assert!((i.t_max(64) - 250.0).abs() < 1e-9);
        // With FBR < 1, all-spatial minimizes T_max.
        assert_eq!(i.best_y(), (0, 200.0));
    }

    #[test]
    fn high_fbr_prefers_queueing() {
        // FBR 1.0 (a cheap GPU saturated by one batch): spatial sharing k
        // batches costs k·solo — same as queueing, so T_max is flat; but at
        // FBR > 1 queueing strictly wins.
        let i = inputs(100.0, 8, 1.0, 32);
        let (_, t) = i.best_y();
        assert!((t - 400.0).abs() < 1e-9, "t {t}");
    }

    #[test]
    fn constraints_match_paper() {
        let i = inputs(100.0, 64, 0.5, 256);
        // (N − y)/BS · FBR > 1 ⇔ (256 − y)/64 > 2 ⇔ y < 128.
        assert!(i.is_valid_y(0));
        assert!(i.is_valid_y(127));
        assert!(!i.is_valid_y(128));
        assert!(!i.is_valid_y(256));
        let r = i.optimal_range().unwrap();
        assert_eq!(r, 0..128);
    }

    #[test]
    fn optimal_range_empty_for_light_load() {
        // One batch's worth of requests never enters the interference
        // regime on any FBR < 1 device.
        let i = inputs(100.0, 64, 0.5, 64);
        assert!(i.optimal_range().is_none());
        // ...but t_max still works via the max(1,·) extension.
        assert!((i.t_max(0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn optimal_range_empty_for_zero_fbr_or_no_requests() {
        assert!(inputs(100.0, 64, 0.0, 1_000).optimal_range().is_none());
        assert!(inputs(100.0, 64, 0.5, 0).optimal_range().is_none());
    }

    #[test]
    fn t_max_monotone_decreasing_then_flat_in_spatial_regime() {
        // With FBR < 1 the derivative of T_max wrt y is (1 − FBR)/BS · Solo
        // > 0 while saturated, so y = 0 is optimal; once unsaturated the
        // spatial term pins at Solo and queueing grows linearly.
        let i = inputs(100.0, 32, 0.8, 320);
        let ts: Vec<f64> = i.candidate_ys().iter().map(|&y| i.t_max(y)).collect();
        let min = ts.iter().copied().fold(f64::INFINITY, f64::min);
        assert!((i.t_max(0) - min).abs() < 1e-9);
    }

    #[test]
    fn candidate_ys_are_batch_granular_with_endpoints() {
        let i = inputs(100.0, 64, 0.5, 200);
        let ys = i.candidate_ys();
        assert_eq!(ys, vec![0, 64, 128, 192, 200]);
    }

    #[test]
    fn candidate_ys_match_stepped_range_plus_endpoint() {
        for bs in [1u32, 3, 8, 64, 500] {
            for n in [0u64, 1, 2, 7, 8, 9, 63, 64, 65, 200, 1_000] {
                let mut want: Vec<u64> = (0..=n).step_by(bs as usize).collect();
                if want.last() != Some(&n) {
                    want.push(n);
                }
                assert_eq!(
                    inputs(100.0, bs, 0.5, n).candidate_ys(),
                    want,
                    "bs {bs} n {n}"
                );
            }
        }
        // Batch size 0 probes like 1.
        assert_eq!(inputs(100.0, 0, 0.5, 3).candidate_ys(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn best_y_breaks_ties_toward_smaller_y() {
        // FBR 1.0: every y costs N/BS · Solo, so the flat T_max must pick 0.
        assert_eq!(inputs(100.0, 8, 1.0, 32).best_y(), (0, 400.0));
        // FBR 2.0: queueing everything is strictly best; N itself is probed.
        let i = inputs(100.0, 64, 2.0, 200);
        let (y, t) = i.best_y();
        assert_eq!(y, 200);
        assert_eq!(t.to_bits(), i.t_max(200).to_bits());
    }

    #[test]
    fn clamps_y_beyond_n() {
        let i = inputs(100.0, 64, 0.5, 100);
        assert_eq!(i.t_max(1_000), i.t_max(100));
    }

    #[test]
    fn zero_requests_zero_time() {
        let i = inputs(100.0, 64, 0.5, 0);
        assert_eq!(i.t_max(0), 0.0);
        assert_eq!(i.best_y(), (0, 0.0));
    }

    #[test]
    fn queued_fraction_approximation() {
        // §III: queued execution time is approximated as the proportionate
        // fraction of the batch execution time: y/BS · Solo.
        let i = inputs(120.0, 64, 2.0, 64);
        // All queued but y must stay < N for validity; y = N means
        // everything timeshares: t = 120·(64/64) + 0 = 120.
        assert!((i.t_max(64) - 120.0).abs() < 1e-9);
        // Half queued: 60 + max(1, 0.5·2)·120 = 60 + 120 = 180.
        assert!((i.t_max(32) - 180.0).abs() < 1e-9);
    }
}
