//! A small, self-contained, deterministic random number generator.
//!
//! We implement xoshiro256++ (Blackman & Vigna) seeded through SplitMix64
//! rather than pulling a full RNG crate into every simulation crate. The
//! sequence is fixed by construction, so experiment results are reproducible
//! across platforms and toolchain upgrades — a hard requirement for the
//! paper-reproduction harness, which pins expected metric values.
//!
//! Distribution helpers cover everything the traces and workloads need:
//! uniform, Poisson (per-bin arrival counts), and normal (noise on diurnal
//! traces).

/// xoshiro256++ generator with SplitMix64 seeding.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent child generator. Used to give each repetition /
    /// model / node its own stream without correlation.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let a = self.next_u64();
        SimRng::new(a ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's method; `bound` > 0).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a positive bound");
        // Rejection-free-ish multiply-shift; bias is negligible for the
        // bounds used here (< 2^32) but we reject to be exact.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= x.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform double in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Poisson-distributed sample with the given mean.
    ///
    /// Knuth's product method for small means; for large means we use the
    /// normal approximation with continuity correction (error is far below
    /// the run-to-run variance of the experiments).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let l = (-mean).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.next_f64();
                if p <= l {
                    return k;
                }
                k += 1;
                // No separate underflow guard is needed: `l` is strictly
                // positive for mean < 30, so a `p` that underflows to zero
                // already satisfied `p <= l` above.
            }
        } else {
            let x = mean + mean.sqrt() * self.normal() + 0.5;
            if x < 0.0 {
                0
            } else {
                x as u64
            }
        }
    }

    /// Standard normal sample (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        // Draw until u1 is nonzero to keep ln finite.
        let mut u1 = self.next_f64();
        while u1 <= f64::MIN_POSITIVE {
            u1 = self.next_f64();
        }
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut rng = SimRng::new(11);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = rng.next_below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn poisson_small_mean() {
        let mut rng = SimRng::new(17);
        let mean = 3.5;
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| rng.poisson(mean)).sum();
        let observed = sum as f64 / n as f64;
        assert!((observed - mean).abs() < 0.1, "observed {observed}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut rng = SimRng::new(19);
        let mean = 700.0;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.poisson(mean)).sum();
        let observed = sum as f64 / n as f64;
        assert!((observed - mean).abs() < 2.0, "observed {observed}");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = SimRng::new(19);
        assert_eq!(rng.poisson(0.0), 0);
        assert_eq!(rng.poisson(-1.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(23);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn fork_is_independent() {
        let mut parent = SimRng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SimRng::new(37);
        let hits = (0..100_000).filter(|_| rng.chance(0.2)).count();
        let freq = hits as f64 / 100_000.0;
        assert!((freq - 0.2).abs() < 0.01, "freq {freq}");
    }
}
