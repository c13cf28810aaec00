//! The calendar queue: a binary-heap priority queue of timestamped events
//! with deterministic FIFO tie-breaking.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The packed event ordering key: `(time_micros << 64) | seq`.
///
/// Ordering is the derived lexicographic order on the `u128`, which is a
/// provably total order — no float comparison, no `partial_cmp`, no
/// tie-breaking left to heap internals. Two keys with the same firing time
/// differ in their sequence number, so distinct schedules never compare
/// `Equal` and same-instant events pop in FIFO order. Packing both fields
/// into one integer also makes heap sift compares a single `u128`
/// comparison on the simulation's hottest path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(u128);

impl EventKey {
    /// Pack a firing time and FIFO sequence number.
    pub const fn new(at: SimTime, seq: u64) -> Self {
        EventKey(((at.as_micros() as u128) << 64) | seq as u128)
    }

    /// The firing time encoded in the key.
    pub fn time(self) -> SimTime {
        let micros = u64::try_from(self.0 >> 64)
            .expect("invariant: the high 64 bits of a packed key fit u64 by construction");
        SimTime::from_micros(micros)
    }

    /// The FIFO sequence number encoded in the key.
    pub fn seq(self) -> u64 {
        u64::try_from(self.0 & u128::from(u64::MAX))
            .expect("invariant: the low 64 bits of a packed key fit u64 by construction")
    }
}

/// A scheduled entry: ordering key plus payload.
struct Entry<E> {
    key: EventKey,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert the (total) key order so the
        // earliest (time, seq) pops first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic future-event list.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled. Scheduling in the past is a logic error and panics in debug
/// builds; in release builds the event is clamped to "now" (the time of the
/// last popped event) to keep long experiments running.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled_total: u64,
    /// Time of the most recently popped event: the simulation's "now" from
    /// the queue's perspective, and the clamp floor for late schedules.
    floor: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with pre-reserved capacity. Long-trace runs
    /// know their arrival count up front; reserving avoids re-growing the
    /// heap from zero through its largest size.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            scheduled_total: 0,
            floor: SimTime::ZERO,
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        debug_assert!(
            at >= self.floor,
            "scheduling into the past: {at:?} < {:?}",
            self.floor
        );
        let at = at.max(self.floor);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.heap.push(Entry {
            key: EventKey::new(at, seq),
            payload,
        });
    }

    /// Schedule `payload` to fire `delay` after `now`.
    pub fn schedule_in(&mut self, now: SimTime, delay: SimDuration, payload: E) {
        self.schedule(now + delay, payload);
    }

    /// Consume (and return) the next FIFO sequence number without pushing an
    /// event. The partitioned execution mode keeps some event classes out of
    /// the heap (pre-sorted arrival rails, per-worker wake registers) but
    /// must assign the remaining heap events the exact sequence numbers the
    /// serial engine would, so the `(time, seq)` total order — and therefore
    /// every tie-break — is bit-identical across modes.
    pub fn skip_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        seq
    }

    /// Consume `n` sequence numbers at once (see [`Self::skip_seq`]); used
    /// when a whole block of schedules — e.g. every pre-sampled arrival —
    /// is diverted out of the heap in one step.
    pub fn skip_seqs(&mut self, n: u64) {
        self.next_seq += n;
        self.scheduled_total += n;
    }

    /// Schedule `payload` at `at` under a sequence number reserved earlier
    /// with [`Self::skip_seq`]/[`Self::skip_seqs`].
    ///
    /// The incremental session executor (see `paldia-cluster`'s
    /// `SimSession`) learns of arrivals one at a time — from a socket or a
    /// replay file — yet must order them against calendar ticks exactly as
    /// the batch engine does, where every arrival is scheduled *before* the
    /// calendar is seeded and therefore owns a low sequence number. The
    /// session reserves the arrival seq block up front and reclaims each
    /// number here at injection time, so the `(time, seq)` total order is
    /// bit-identical to the batch run.
    ///
    /// `seq` must come from the reserved block (`seq < next_seq()`), be
    /// used once, and `at` must not lie before the floor; callers taking
    /// seqs from outside the program check all three first (the session
    /// refuses such arrivals with an error). It was already counted by the
    /// reservation, so `scheduled_total` does not move. A late `at` clamps
    /// to the floor like [`Self::schedule`].
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, payload: E) {
        debug_assert!(
            seq < self.next_seq,
            "reserved seq {seq} was never reserved (next_seq {})",
            self.next_seq
        );
        debug_assert!(
            at >= self.floor,
            "scheduling into the past: {at:?} < {:?}",
            self.floor
        );
        let at = at.max(self.floor);
        self.heap.push(Entry {
            key: EventKey::new(at, seq),
            payload,
        });
    }

    /// The sequence number the next schedule will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The full ordering key of the earliest pending event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// The clamp floor: the time of the most recently popped event.
    pub fn floor(&self) -> SimTime {
        self.floor
    }

    /// Advance the clamp floor to `at`, as [`Self::pop`] would. The
    /// partitioned run loop calls this when it dispatches an event from a
    /// source other than this heap (rail, wake register), so late-schedule
    /// detection keeps working against the true simulation clock.
    pub fn advance_floor(&mut self, at: SimTime) {
        debug_assert!(
            at >= self.floor,
            "floor moving backwards: {at:?} < {:?}",
            self.floor
        );
        if at > self.floor {
            self.floor = at;
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            let at = e.key.time();
            self.floor = at;
            (at, e.payload)
        })
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.time())
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (monotone; diagnostics only).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Drain every pending event in firing order.
    pub fn drain_ordered(&mut self) -> Vec<(SimTime, E)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some((t, e)) = self.pop() {
            out.push((t, e));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), "c");
        q.schedule(SimTime::from_millis(10), "a");
        q.schedule(SimTime::from_millis(20), "b");
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_still_fifo() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_millis(1);
        let t2 = SimTime::from_millis(2);
        q.schedule(t2, "t2-first");
        q.schedule(t1, "t1-first");
        q.schedule(t2, "t2-second");
        q.schedule(t1, "t1-second");
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["t1-first", "t1-second", "t2-first", "t2-second"]
        );
    }

    #[test]
    fn schedule_in_offsets_from_now() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime::from_millis(100), SimDuration::from_millis(50), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(150)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn reserved_seqs_win_time_ties_against_later_schedules() {
        let mut q = EventQueue::new();
        q.skip_seqs(2); // reserve seqs 0 and 1 for late-arriving injections
        let t = SimTime::from_millis(7);
        q.schedule(t, "tick"); // seq 2
        q.schedule_reserved(t, 0, "arrival-0");
        q.schedule_reserved(t, 1, "arrival-1");
        let order: Vec<_> = q.drain_ordered().into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, vec!["arrival-0", "arrival-1", "tick"]);
        assert_eq!(q.scheduled_total(), 3, "reservation counted the block once");
    }

    #[test]
    fn key_packing_round_trips() {
        let k = EventKey::new(SimTime::from_micros(u64::MAX - 1), 42);
        assert_eq!(k.time(), SimTime::from_micros(u64::MAX - 1));
        assert_eq!(k.seq(), 42);
    }

    #[test]
    fn key_order_is_time_major_then_fifo() {
        let a = EventKey::new(SimTime::from_micros(1), u64::MAX);
        let b = EventKey::new(SimTime::from_micros(2), 0);
        assert!(a < b, "earlier time wins regardless of seq");
        let c = EventKey::new(SimTime::from_micros(2), 1);
        assert!(b < c, "same time breaks ties by schedule order");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn past_schedule_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.pop();
        q.schedule(SimTime::from_millis(5), "late");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn past_schedule_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), "a");
        q.pop();
        q.schedule(SimTime::from_millis(5), "late");
        let (t, e) = q.pop().expect("clamped event pending");
        assert_eq!(t, SimTime::from_millis(10));
        assert_eq!(e, "late");
    }
}
