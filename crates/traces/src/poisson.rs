//! The synthetic Poisson arrival trace for the resource-exhaustion study
//! (Fig. 13a): a constant offered rate (~700 rps for GoogleNet) chosen to
//! "overwhelm even our most capable GPU (V100)".
//!
//! A constant-rate [`RateTrace`] fed through the Poisson arrival sampler
//! *is* a homogeneous Poisson process, so this module is a thin, named
//! constructor.

use crate::trace::RateTrace;
use paldia_sim::SimDuration;

/// Constant-rate trace with explicit duration.
pub fn poisson_trace_with(rate_rps: f64, duration: SimDuration) -> RateTrace {
    RateTrace::constant(rate_rps, duration, SimDuration::from_secs(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::generate_arrivals;
    use paldia_sim::SimRng;

    #[test]
    fn constant_rate() {
        let t = poisson_trace_with(700.0, SimDuration::from_secs(600));
        assert_eq!(t.peak(), 700.0);
        assert_eq!(t.mean(), 700.0);
        assert_eq!(t.peak_to_mean(), 1.0);
        assert_eq!(t.duration(), SimDuration::from_secs(600));
    }

    #[test]
    fn interarrivals_look_exponential() {
        // CV of exponential inter-arrivals is 1; a deterministic stream
        // would give 0. Sanity-check the sampler produces a Poisson process.
        let t = poisson_trace_with(200.0, SimDuration::from_secs(60));
        let arr = generate_arrivals(&t, &mut SimRng::new(3));
        let gaps: Vec<f64> = arr
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "cv {cv:.3}");
    }
}
