//! The wall-clock side of the [`Clock`] contract (DESIGN.md §14).
//!
//! [`WallClock`] maps virtual time onto the wall: virtual microsecond `t`
//! lands at wall instant `epoch + t / speedup`. `pace(next)` sleeps until
//! that deadline (or returns immediately when the wall is already past
//! it), so a replay at `speedup = 1.0` unfolds in real time and a replay
//! at `speedup = 20.0` runs twenty times compressed. Nothing the domain
//! logic observes is touched — pacing only delays the executor.
//!
//! A pace reads the wall at most once. The clock remembers the latest
//! instant it knows the wall has reached (a read, or a deadline it slept
//! to). Wall time only moves forward, so a deadline at or before that
//! instant is due without a read: a saturated replay reads the wall only
//! for a deadline beyond its last read.
//!
//! This type is deliberately *not* in `paldia-sim`: the deterministic
//! crates are fenced from `std::time::Instant` by the `d2` lint rule and
//! the reachability pass, and the boundary graph only lets the `shell`
//! class reach the wall.

use std::time::{Duration, Instant};

use paldia_sim::{Clock, SimTime};

/// Wall-clock pacing for the replay driver: virtual time `t` is due at
/// wall instant `epoch + t / speedup`.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
    speedup: f64,
    /// An instant the wall is known to have reached.
    reached: Instant,
}

impl WallClock {
    /// A clock whose epoch (virtual zero) is *now*. `speedup` is clamped
    /// below by a tiny positive value so a zero/negative input cannot
    /// stall the replay forever.
    pub fn new(speedup: f64) -> Self {
        let epoch = Instant::now();
        WallClock {
            epoch,
            speedup: speedup.max(1e-6),
            reached: epoch,
        }
    }

    /// The speedup factor the clock was built with (after clamping).
    pub fn speedup(&self) -> f64 {
        self.speedup
    }

    /// The wall instant virtual time `t` is due at.
    fn wall_for(&self, t: SimTime) -> Instant {
        let secs = t.as_micros() as f64 / (self.speedup * 1e6);
        self.epoch + Duration::from_secs_f64(secs)
    }

    /// Time still to wait until virtual `t` is due, `None` when the wall
    /// is already at or past it. Reads the wall at most once, and not at
    /// all when `t` was due by the last instant the clock saw.
    pub fn wall_until(&mut self, t: SimTime) -> Option<Duration> {
        let due = self.wall_for(t);
        if due <= self.reached {
            return None;
        }
        self.reached = Instant::now();
        due.checked_duration_since(self.reached)
            .filter(|wait| !wait.is_zero())
    }

    /// Pace to virtual `next`: when it is not yet due, call `before_sleep`
    /// and then sleep until it is. Never returns before `next`'s wall
    /// instant, and reads the wall at most once.
    pub fn pace_then(&mut self, next: SimTime, before_sleep: impl FnOnce()) {
        if let Some(wait) = self.wall_until(next) {
            before_sleep();
            // `sleep` never returns early: the wall is now past `next`.
            std::thread::sleep(wait);
            self.reached += wait;
        }
    }

    /// The virtual time the wall has reached — the live mode's "now" when
    /// stamping ad-hoc arrivals.
    pub fn now_virtual(&mut self) -> SimTime {
        self.reached = Instant::now();
        let us = (self.reached - self.epoch).as_secs_f64() * self.speedup * 1e6;
        SimTime::from_micros(us as u64)
    }
}

impl Clock for WallClock {
    fn pace(&mut self, next: SimTime) {
        self.pace_then(next, || {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_monotone_and_fast_at_high_speedup() {
        let mut c = WallClock::new(1_000_000.0);
        let start = Instant::now();
        c.pace(SimTime::from_secs(5));
        c.pace(SimTime::from_secs(10));
        // 10 virtual seconds at 1e6x is 10 us of wall; allow generous slack.
        assert!(start.elapsed() < Duration::from_secs(2));
        assert!(c.now_virtual() >= SimTime::from_secs(5));
    }

    #[test]
    fn past_deadlines_do_not_block() {
        let mut c = WallClock::new(1e9);
        std::thread::sleep(Duration::from_millis(1));
        assert!(c.wall_until(SimTime::from_micros(1)).is_none());
    }

    /// Every pace returns at or after its deadline, whether it slept, read
    /// the wall and found the deadline past, or knew it was past without a
    /// read; a deadline already seen due calls no `before_sleep`.
    #[test]
    fn pace_never_returns_before_the_deadline() {
        let mut c = WallClock::new(1000.0);
        let mut sleeps = 0;
        // 0, 2, 2, 1, 4 ms of virtual time at 1000x: microseconds of wall,
        // with a repeat and a step back.
        for us in [0, 2_000, 2_000, 1_000, 4_000] {
            let next = SimTime::from_micros(us);
            c.pace_then(next, || sleeps += 1);
            assert!(Instant::now() >= c.wall_for(next), "paced past {us}");
        }
        assert!(sleeps <= 2, "only the 2 ms and 4 ms deadlines can sleep");
        let mut none = true;
        c.pace_then(SimTime::from_micros(3_000), || none = false);
        assert!(none, "a deadline before one already reached never sleeps");
    }
}
