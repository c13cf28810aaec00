//! Request-rate estimation and prediction.
//!
//! §IV-A: "The number of future requests can be estimated using a
//! lightweight statistical model (such as EWMA) which relies on current and
//! history request information". We provide:
//!
//! * [`RateWindow`] — the "current request information": a trailing-window
//!   arrival counter yielding an observed requests/second estimate.
//! * [`EwmaPredictor`] — the pluggable predictor: Holt's double-exponential
//!   smoothing (EWMA level + EWMA trend), so the ~4 s look-ahead reacts to
//!   ramps instead of perpetually lagging them. With `beta = 0` it reduces
//!   to plain EWMA.

use paldia_sim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Trailing-window arrival counter.
#[derive(Clone, Debug)]
pub struct RateWindow {
    window: SimDuration,
    arrivals: VecDeque<SimTime>,
}

impl RateWindow {
    /// Counter over the given trailing window.
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        RateWindow {
            window,
            arrivals: VecDeque::new(),
        }
    }

    /// Record one arrival at `t` (non-decreasing `t` expected).
    pub fn record(&mut self, t: SimTime) {
        self.arrivals.push_back(t);
    }

    /// Observed rate (requests/s) over `[now - window, now]`. Also prunes
    /// stale entries.
    pub fn estimate(&mut self, now: SimTime) -> f64 {
        let cutoff = now - self.window;
        while self.arrivals.front().is_some_and(|&t| t < cutoff) {
            self.arrivals.pop_front();
        }
        self.arrivals.len() as f64 / self.window.as_secs_f64()
    }

    /// Arrivals currently inside the window (after the last `estimate`).
    pub fn count(&self) -> usize {
        self.arrivals.len()
    }
}

/// Holt double-exponential smoothing over per-interval rate observations.
#[derive(Clone, Debug)]
pub struct EwmaPredictor {
    /// Level smoothing factor (0, 1].
    alpha: f64,
    /// Trend smoothing factor [0, 1]; 0 disables the trend term.
    beta: f64,
    level: f64,
    trend: f64,
    initialized: bool,
}

impl EwmaPredictor {
    /// Construct with level factor `alpha` and trend factor `beta`.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha) && alpha > 0.0,
            "alpha in (0,1]"
        );
        assert!((0.0..=1.0).contains(&beta), "beta in [0,1]");
        EwmaPredictor {
            alpha,
            beta,
            level: 0.0,
            trend: 0.0,
            initialized: false,
        }
    }

    /// Plain EWMA (no trend) with the given alpha.
    pub fn plain(alpha: f64) -> Self {
        EwmaPredictor::new(alpha, 0.0)
    }

    /// Feed one observed rate for the interval just ended.
    pub fn observe(&mut self, rate: f64) {
        let rate = rate.max(0.0);
        if !self.initialized {
            self.level = rate;
            self.trend = 0.0;
            self.initialized = true;
            return;
        }
        let prev_level = self.level;
        self.level = self.alpha * rate + (1.0 - self.alpha) * (self.level + self.trend);
        self.trend = self.beta * (self.level - prev_level) + (1.0 - self.beta) * self.trend;
    }

    /// Predicted rate `steps` observation-intervals ahead (clamped ≥ 0).
    pub fn predict(&self, steps: f64) -> f64 {
        (self.level + self.trend * steps).max(0.0)
    }

    /// Current smoothed level.
    pub fn level(&self) -> f64 {
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_window_counts_and_prunes() {
        let mut w = RateWindow::new(SimDuration::from_secs(10));
        for s in 0..20 {
            w.record(SimTime::from_secs(s));
        }
        // At t=20s, only arrivals in [10, 20] remain: 10..=19 → 10 of them.
        let r = w.estimate(SimTime::from_secs(20));
        assert!((r - 1.0).abs() < 1e-9, "rate {r}");
        assert_eq!(w.count(), 10);
    }

    #[test]
    fn rate_window_empty() {
        let mut w = RateWindow::new(SimDuration::from_secs(4));
        assert_eq!(w.estimate(SimTime::from_secs(100)), 0.0);
    }

    #[test]
    fn plain_ewma_converges_to_constant() {
        let mut p = EwmaPredictor::plain(0.3);
        for _ in 0..100 {
            p.observe(50.0);
        }
        assert!((p.predict(1.0) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn first_observation_initializes_level() {
        let mut p = EwmaPredictor::new(0.5, 0.2);
        p.observe(120.0);
        assert_eq!(p.level(), 120.0);
        assert_eq!(p.predict(4.0), 120.0);
    }

    #[test]
    fn trend_anticipates_ramp() {
        // On a steady ramp, Holt's prediction gets ahead of plain EWMA —
        // the property the ~4 s hardware-procurement look-ahead relies on.
        let mut holt = EwmaPredictor::new(0.5, 0.3);
        let mut plain = EwmaPredictor::plain(0.5);
        for i in 0..30 {
            let rate = 10.0 * i as f64;
            holt.observe(rate);
            plain.observe(rate);
        }
        let actual_next = 10.0 * 30.0;
        let holt_err = (holt.predict(1.0) - actual_next).abs();
        let plain_err = (plain.predict(1.0) - actual_next).abs();
        assert!(holt_err < plain_err, "holt {holt_err} plain {plain_err}");
    }

    #[test]
    fn prediction_never_negative() {
        let mut p = EwmaPredictor::new(0.9, 0.9);
        p.observe(100.0);
        p.observe(0.0);
        p.observe(0.0);
        assert!(p.predict(10.0) >= 0.0);
    }

    #[test]
    fn ewma_bounded_by_observation_range() {
        // Plain EWMA output stays within [min, max] of its inputs.
        let mut p = EwmaPredictor::plain(0.4);
        let obs = [5.0, 20.0, 8.0, 14.0, 11.0];
        for &o in &obs {
            p.observe(o);
            assert!(p.level() >= 5.0 && p.level() <= 20.0);
        }
    }

    #[test]
    #[should_panic]
    fn zero_alpha_rejected() {
        let _ = EwmaPredictor::new(0.0, 0.1);
    }
}
