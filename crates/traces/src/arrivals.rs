//! Sampling concrete arrival timestamps from a rate trace.
//!
//! Within each bin the process is Poisson: the count is drawn from
//! `Poisson(rate × bin_width)` and the arrivals are placed uniformly at
//! random inside the bin, giving a non-homogeneous Poisson process whose
//! intensity is the piecewise-constant trace.

use crate::trace::RateTrace;
use paldia_sim::{SimRng, SimTime};

/// Sample arrival timestamps for the whole trace. The result is sorted.
pub fn generate_arrivals(trace: &RateTrace, rng: &mut SimRng) -> Vec<SimTime> {
    let bin_us = trace.bin_width().as_micros().max(1);
    let bin_s = trace.bin_width().as_secs_f64();
    // Pre-size: expected count plus slack.
    let mut out = Vec::with_capacity(trace.expected_requests() as usize + 16);
    for (start, rate) in trace.iter_bins() {
        if rate <= 0.0 {
            continue;
        }
        let n = rng.poisson(rate * bin_s);
        let base = start.as_micros();
        // Draw the bin at the tail of `out`, then sort it in place: times
        // are whole µs, so this is the order sorting the raw draws gives.
        let bin = out.len();
        out.extend((0..n).map(|_| SimTime::from_micros(base + rng.next_below(bin_us))));
        out[bin..].sort_unstable();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_sim::SimDuration;

    #[test]
    fn count_tracks_expectation() {
        let trace = RateTrace::constant(
            100.0,
            SimDuration::from_secs(100),
            SimDuration::from_secs(1),
        );
        let mut rng = SimRng::new(1);
        let arr = generate_arrivals(&trace, &mut rng);
        let expected = trace.expected_requests();
        let n = arr.len() as f64;
        // 10k expected; 3 sigma ≈ 300.
        assert!((n - expected).abs() < 400.0, "got {n}, expected {expected}");
    }

    #[test]
    fn sorted_and_in_range() {
        let trace = RateTrace::from_rates(SimDuration::from_secs(1), vec![50.0, 0.0, 200.0, 5.0]);
        let mut rng = SimRng::new(2);
        let arr = generate_arrivals(&trace, &mut rng);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]), "not sorted");
        assert!(arr.iter().all(|&t| t < SimTime::from_secs(4)));
        // The silent bin produced no arrivals.
        assert!(!arr
            .iter()
            .any(|&t| t >= SimTime::from_secs(1) && t < SimTime::from_secs(2)));
    }

    #[test]
    fn deterministic_per_seed() {
        let trace =
            RateTrace::constant(20.0, SimDuration::from_secs(10), SimDuration::from_secs(1));
        let a = generate_arrivals(&trace, &mut SimRng::new(7));
        let b = generate_arrivals(&trace, &mut SimRng::new(7));
        let c = generate_arrivals(&trace, &mut SimRng::new(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_trace_no_arrivals() {
        let trace = RateTrace::from_rates(SimDuration::from_secs(1), vec![]);
        assert!(generate_arrivals(&trace, &mut SimRng::new(1)).is_empty());
    }
}
