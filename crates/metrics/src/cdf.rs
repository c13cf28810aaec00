//! Cumulative distribution functions of end-to-end latency (Fig. 6).

use paldia_cluster::CompletedRequest;

/// An empirical CDF over latency samples.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from completed requests.
    pub fn from_completed(completed: &[CompletedRequest]) -> Cdf {
        Self::from_samples(completed.iter().map(|c| c.latency_ms()).collect())
    }

    /// Build from raw samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Cdf {
        samples.sort_by(f64::total_cmp);
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X ≤ x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The latency at quantile `q` in `[0, 1]` (inverse CDF).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_cdf() {
        let c = Cdf::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.fraction_at_or_below(5.0), 0.0);
        assert_eq!(c.fraction_at_or_below(20.0), 0.5);
        assert_eq!(c.fraction_at_or_below(100.0), 1.0);
        assert_eq!(c.quantile(0.5), 20.0);
        assert_eq!(c.quantile(1.0), 40.0);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn quantile_and_fraction_are_inverse_ish() {
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let c = Cdf::from_samples(samples);
        for q in [0.1, 0.5, 0.8, 0.99] {
            let x = c.quantile(q);
            let back = c.fraction_at_or_below(x);
            assert!((back - q).abs() < 0.002, "q {q} → {x} → {back}");
        }
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.quantile(0.99), 0.0);
        assert_eq!(c.fraction_at_or_below(10.0), 0.0);
    }
}
