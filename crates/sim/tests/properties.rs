//! Property-based tests for the DES engine primitives.

use paldia_sim::{EventKey, EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Pop every pending event, in firing order.
fn drain<E>(q: &mut EventQueue<E>) -> Vec<(SimTime, E)> {
    std::iter::from_fn(|| q.pop()).collect()
}

proptest! {
    /// `EventKey` ordering is a total order: antisymmetric and transitive
    /// over arbitrary (time, seq) pairs. Keys are built from integers only
    /// (never floats), so there is no NaN to poison comparisons — this pins
    /// the contract that event ordering never goes through `partial_cmp`.
    #[test]
    fn event_key_order_is_antisymmetric_and_transitive(
        a in (0u64..1 << 50, any::<u64>()),
        b in (0u64..1 << 50, any::<u64>()),
        c in (0u64..1 << 50, any::<u64>()),
    ) {
        let ka = EventKey::new(SimTime::from_micros(a.0), a.1);
        let kb = EventKey::new(SimTime::from_micros(b.0), b.1);
        let kc = EventKey::new(SimTime::from_micros(c.0), c.1);
        // Totality: cmp never panics and partial_cmp always agrees.
        prop_assert_eq!(ka.partial_cmp(&kb), Some(ka.cmp(&kb)));
        // Antisymmetry: a <= b and b <= a implies a == b.
        if ka <= kb && kb <= ka {
            prop_assert_eq!(ka, kb);
        }
        // The comparison reverses cleanly.
        prop_assert_eq!(ka.cmp(&kb), kb.cmp(&ka).reverse());
        // Transitivity: a <= b <= c implies a <= c.
        if ka <= kb && kb <= kc {
            prop_assert!(ka <= kc);
        }
        // Time-major: an earlier firing time orders first regardless of seq.
        if a.0 < b.0 {
            prop_assert!(ka < kb);
        }
        // Round-trip: packing loses nothing.
        prop_assert_eq!(ka.time(), SimTime::from_micros(a.0));
        prop_assert_eq!(ka.seq(), a.1);
    }

    /// The calendar queue pops events in non-decreasing time order and,
    /// within a timestamp, in insertion (FIFO) order.
    #[test]
    fn queue_total_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let drained = drain(&mut q);
        // Non-decreasing times.
        for w in drained.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            // FIFO within equal timestamps: insertion index increases.
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        prop_assert_eq!(drained.len(), times.len());
    }

    /// SimTime/SimDuration arithmetic is consistent: (t + d) - t == d.
    #[test]
    fn time_addition_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - time, dur);
    }

    /// Millisecond round-trips are exact at microsecond granularity.
    #[test]
    fn millis_roundtrip(us in 0u64..1_000_000_000_000) {
        let d = SimDuration::from_micros(us);
        let back = SimDuration::from_millis_f64(d.as_millis_f64());
        // Conversion goes through f64; exact below 2^53 µs.
        prop_assert_eq!(back, d);
    }

    /// The RNG's uniform integers stay within their bound.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut rng = SimRng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    /// The same seed always reproduces the same stream.
    #[test]
    fn rng_deterministic(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Poisson sampling terminates on both sides of the normal-approximation
    /// switch.
    #[test]
    fn distributions_sane(seed in any::<u64>(), mean in 0.01f64..100.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..20 {
            let _ = rng.poisson(mean); // must not hang or panic
        }
    }
}

proptest! {
    /// After the u128 key packing, same-instant events still pop strictly
    /// FIFO even when interleaved with events at other instants: per
    /// timestamp, payloads come out in exactly their insertion order.
    #[test]
    fn queue_same_instant_fifo(
        times in proptest::collection::vec(0u64..50, 1..300),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let drained = drain(&mut q);
        // Group by timestamp and check each group is an increasing
        // subsequence of insertion indices equal to the scheduled set.
        for instant in 0u64..50 {
            let at = SimTime::from_micros(instant);
            let popped: Vec<usize> = drained
                .iter()
                .filter(|(t, _)| *t == at)
                .map(|&(_, i)| i)
                .collect();
            let scheduled: Vec<usize> = times
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t == instant)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(popped, scheduled);
        }
    }

    /// Release-mode contract: scheduling behind the last popped event
    /// clamps to that time instead of corrupting the order — every pop
    /// sequence stays non-decreasing no matter how stale the schedule.
    /// (In debug builds the same call panics, covered by a unit test.)
    #[test]
    fn queue_past_clamp_keeps_order(
        times in proptest::collection::vec(0u64..1_000, 2..100),
        late_offsets in proptest::collection::vec(0u64..2_000, 1..50),
    ) {
        if cfg!(debug_assertions) {
            // The clamp path is release-only; nothing to probe here.
            return Ok(());
        }
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        // Pop half, then schedule events that may land before the floor.
        let mut last = SimTime::ZERO;
        for _ in 0..times.len() / 2 {
            let (t, _) = q.pop().expect("pending");
            prop_assert!(t >= last);
            last = t;
        }
        for (j, &off) in late_offsets.iter().enumerate() {
            // Deliberately straddles the floor: offsets below `last` are
            // in the past and must clamp to it.
            q.schedule(SimTime::from_micros(off), times.len() + j);
        }
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "clamp violated: {:?} after {:?}", t, last);
            last = t;
        }
    }
}
