//! The calendar every executor runs on, plus the run loop that drives it.
//!
//! A plain binary heap ([`EventQueue`]) is simple and exactly ordered, but
//! for trace-driven runs it is dominated by two event classes with much
//! cheaper natural representations:
//!
//! * **Arrivals** are pre-sampled in full before a batch run starts.
//!   Scheduling half a million of them leaves a huge resident heap that
//!   every other push/pop must sift through. The calendar's *rail* holds
//!   them as sampled ([`CalendarEvent::RailEntry`]), sorted by time, and
//!   pops them by cursor in O(1), building each event only as it fires.
//! * **Device wake-ups** are mostly stale: every occupancy change re-arms
//!   the wake for a worker's next predicted completion and bumps a version,
//!   so a heap fills with superseded wakes that pop as no-ops. A
//!   per-worker wake register keeps only the *live* wake per worker and
//!   drops superseded ones at arm time.
//!
//! [`PartitionCalendar::pop_before`] dispatches from whichever source
//! holds the globally smallest `(time, seq)` key; [`run_partition`] loops
//! over it, and an incremental executor calls it one event at a time.
//! Determinism is preserved bit-for-bit by *virtual sequence parity*:
//! every schedule a heap calendar would perform still consumes a sequence
//! number here ([`EventQueue::skip_seq`]), whether or not an entry lands
//! in the heap, so surviving heap events carry identical keys and every
//! same-instant tie breaks the same way. The rail entries occupy the first
//! sequence numbers of the run (arrivals are scheduled before anything
//! else), so the rail wins every equal-time comparison without storing a
//! sequence per entry.
//!
//! Dropping superseded wakes is safe because a wake whose version no longer
//! matches its device is an observable no-op on a heap calendar (the
//! handler returns before any effect), and a re-armed wake for an
//! *unchanged* version predicts the same completion instant — the earlier
//! of the two entries does the work either way (the register keeps it;
//! see [`PartitionCalendar::arm_wake`]).
//!
//! [`EventQueue`] also implements [`Calendar`]: driven by a plain pop loop
//! with every wake pushed as an ordinary event, it is the reference the
//! tests hold this calendar against.

use crate::engine::RunOutcome;
use crate::event::{EventKey, EventQueue};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Event alphabets a [`PartitionCalendar`] runs: they name what its rail
/// holds and carry a device wake-up variant. The calendar materializes
/// both kinds of event itself, so the rail stores entries as they were
/// sampled and wake registers store two integers instead of a payload.
pub trait CalendarEvent: Sized {
    /// One entry known before the run starts (a pre-sampled arrival).
    type RailEntry;

    /// When a rail entry fires.
    fn rail_time(entry: &Self::RailEntry) -> SimTime;

    /// The event a rail entry fires as.
    fn from_rail(entry: Self::RailEntry) -> Self;

    /// Build the wake event for `worker` at device `version`.
    fn make_wake(worker: u32, version: u64) -> Self;
}

/// What a simulation world schedules against: the [`PartitionCalendar`]
/// it runs on, or the reference [`EventQueue`]. Domain logic written
/// against this trait runs unchanged — and bit-identically — on either.
pub trait Calendar<E> {
    /// Schedule `payload` to fire at absolute time `at`.
    fn schedule(&mut self, at: SimTime, payload: E);

    /// Arm (or re-arm) the completion wake-up for `worker` at `at`, tagged
    /// with the device `version` current at arm time.
    fn arm_wake(&mut self, worker: u32, at: SimTime, version: u64);
}

/// The reference calendar: every wake is pushed as an ordinary event, and
/// superseded ones pop as no-ops. Tests drive a world on it with a plain
/// pop loop and demand what [`PartitionCalendar`] produces.
impl<E: CalendarEvent> Calendar<E> for EventQueue<E> {
    fn schedule(&mut self, at: SimTime, payload: E) {
        EventQueue::schedule(self, at, payload);
    }

    fn arm_wake(&mut self, worker: u32, at: SimTime, version: u64) {
        EventQueue::schedule(self, at, E::make_wake(worker, version));
    }
}

/// Domain logic driven by [`run_partition`] (or an incremental executor
/// popping [`PartitionCalendar::pop_before`] itself).
///
/// `handle` receives the current simulated time, the event, and the
/// calendar so it can schedule follow-up events; `now` is non-decreasing
/// across calls.
pub trait World {
    /// The event alphabet of this simulation.
    type Event: CalendarEvent;

    /// Process one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, ev: Self::Event, cal: &mut PartitionCalendar<Self::Event>);
}

/// One armed wake register: ordering key plus device version.
type WakeSlot = (EventKey, u64);

/// The calendar: the pre-sorted arrival rail, a (small) heap for ordinary
/// events, and the per-worker wake registers.
pub struct PartitionCalendar<E: CalendarEvent> {
    q: EventQueue<E>,
    /// Entries known before the run starts, holding its smallest sequence
    /// numbers. Sorted by firing time (stable w.r.t. schedule order) and
    /// consumed front to back, so the cursor yields them in FIFO
    /// `(time, seq)` order.
    rail: std::vec::IntoIter<E::RailEntry>,
    /// Live wake per worker id; absent when nothing is armed. Keyed
    /// sparsely: sharded fleets namespace worker ids as
    /// `(global deployment << 20) | ordinal`, so a dense table would
    /// span gigabytes while only a handful of ids are ever live.
    slots: BTreeMap<u32, WakeSlot>,
    /// Min-index over the slots, invalidated lazily: an entry counts only
    /// while it still matches its slot exactly.
    order: BinaryHeap<Reverse<(EventKey, u32, u64)>>,
}

impl<E: CalendarEvent> PartitionCalendar<E> {
    /// A calendar whose first `rail.len() + reserved` sequence numbers are
    /// taken before anything is scheduled: `rail` (entries in schedule
    /// order) gets the first of them, and the other `reserved` stay
    /// with the caller for [`EventQueue::schedule_reserved`]. A batch run
    /// puts its pre-sampled arrivals on the rail; an incremental session
    /// passes an empty rail and reserves its recorded arrivals' block.
    pub fn new(mut rail: Vec<E::RailEntry>, reserved: u64) -> Self {
        let mut q = EventQueue::new();
        q.skip_seqs(rail.len() as u64 + reserved);
        // A stable sort keeps schedule order within a tie. A lone tenant's
        // single-model arrivals are sampled in time order and skip it.
        if !rail.is_sorted_by_key(E::rail_time) {
            rail.sort_by_key(E::rail_time);
        }
        PartitionCalendar {
            q,
            rail: rail.into_iter(),
            slots: BTreeMap::new(),
            order: BinaryHeap::new(),
        }
    }

    /// The inner heap queue.
    pub fn queue(&self) -> &EventQueue<E> {
        &self.q
    }

    /// The inner heap queue, mutably.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.q
    }

    /// Key of the earliest rail entry. The rail holds the run's smallest
    /// seqs, so a proxy seq of 0 orders it before any heap or wake key at
    /// the same instant (heap and wake seqs are strictly positive whenever
    /// the rail is non-empty).
    fn peek_rail(&self) -> Option<EventKey> {
        let first = self.rail.as_slice().first()?;
        Some(EventKey::new(E::rail_time(first), 0))
    }

    /// Key of the earliest *live* armed wake, discarding superseded index
    /// entries on the way.
    fn peek_wake(&mut self) -> Option<EventKey> {
        while let Some(&Reverse((key, worker, version))) = self.order.peek() {
            if self.slots.get(&worker) == Some(&(key, version)) {
                return Some(key);
            }
            self.order.pop();
        }
        None
    }

    /// Key of the earliest pending event across all three sources.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        let (rail, heap, wake) = (self.peek_rail(), self.q.peek_key(), self.peek_wake());
        [rail, heap, wake].into_iter().flatten().min()
    }

    /// Remove and return the earliest pending event if its key orders
    /// before `bound` (exclusive), advancing the clamp floor to its time.
    /// Superseded wakes are never returned.
    pub fn pop_before(&mut self, bound: EventKey) -> Option<(SimTime, E)> {
        let (rail, heap, wake) = (self.peek_rail(), self.q.peek_key(), self.peek_wake());
        let next = [rail, heap, wake].into_iter().flatten().min()?;
        if next >= bound {
            return None;
        }
        if rail == Some(next) {
            let entry = self.rail.next()?;
            let now = E::rail_time(&entry);
            self.q.advance_floor(now);
            Some((now, E::from_rail(entry)))
        } else if heap == Some(next) {
            self.q.pop()
        } else {
            // `peek_wake` left the live wake on top of the index.
            let Reverse((key, worker, version)) = self.order.pop()?;
            self.slots.remove(&worker);
            self.q.advance_floor(key.time());
            Some((key.time(), E::make_wake(worker, version)))
        }
    }
}

impl<E: CalendarEvent> Calendar<E> for PartitionCalendar<E> {
    fn schedule(&mut self, at: SimTime, payload: E) {
        EventQueue::schedule(&mut self.q, at, payload);
    }

    fn arm_wake(&mut self, worker: u32, at: SimTime, version: u64) {
        debug_assert!(
            at >= self.q.floor(),
            "arming a wake in the past: {at:?} < {:?}",
            self.q.floor()
        );
        // Every arm consumes a sequence number — a heap calendar would
        // push an event here — regardless of whether the register
        // changes, keeping later schedules' keys identical across both.
        let seq = self.q.skip_seq();
        let key = EventKey::new(at.max(self.q.floor()), seq);
        match self.slots.get(&worker) {
            // Same device version ⇒ the device is untouched since the
            // earlier arm, which therefore predicts the same instant with a
            // smaller seq. On a heap the earlier entry does the work (the
            // later pops as a stale no-op after the earlier bumped the
            // version) — keep it.
            Some(&(_, armed_version)) if armed_version == version => {}
            // New version ⇒ any previously armed wake is superseded: when
            // it would fire, its version can no longer match (versions only
            // grow), so a heap calendar treats it as a no-op. Replace.
            _ => {
                self.slots.insert(worker, (key, version));
                self.order.push(Reverse((key, worker, version)));
            }
        }
    }
}

/// Run `world` until `bound` (exclusive, a full `(time, seq)` key) or
/// until every source drains. Events are dispatched in exact global
/// `(time, seq)` order; superseded wakes are never dispatched.
///
/// Bounding on a key rather than a time lets the fleet coordinator stop a
/// partition *between* two same-instant events — everything ordered before
/// a cross-partition fault edge runs, everything after waits for the
/// barrier. For a plain horizon, pass `EventKey::new(horizon, 0)`, which
/// excludes every event at the horizon itself; the loop is resumable, so
/// running to one bound and then a later one processes each event once.
/// After `budget` events the loop stops with
/// [`RunOutcome::BudgetExhausted`] (a runaway-loop backstop).
pub fn run_partition<W: World>(
    world: &mut W,
    cal: &mut PartitionCalendar<W::Event>,
    bound: EventKey,
    budget: u64,
) -> RunOutcome {
    let mut events: u64 = 0;
    let mut last_event = SimTime::ZERO;
    while events < budget {
        let Some((now, ev)) = cal.pop_before(bound) else {
            break;
        };
        debug_assert!(now >= last_event, "time went backwards");
        last_event = now;
        events += 1;
        world.handle(now, ev, cal);
    }
    match cal.peek_key() {
        None => RunOutcome::Drained { last_event, events },
        Some(next) if next >= bound => RunOutcome::HorizonReached {
            horizon: bound.time(),
            events,
        },
        Some(next) => RunOutcome::BudgetExhausted {
            at: next.time(),
            budget,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A miniature versioned-device world exercised on the calendar and on
    /// the reference heap: `n` workers each hold a version counter;
    /// arrivals bump a worker's version and re-arm its wake for
    /// `now + latency`; live wakes record and re-arm once more at double
    /// latency. Superseded and duplicate wakes must behave identically on
    /// both.
    #[derive(Clone, Debug, PartialEq, Eq)]
    enum Ev {
        Arrival { worker: u32 },
        Tick(u32),
        Wake { worker: u32, version: u64 },
    }

    /// Rail entries are `(time, worker)` arrivals.
    impl CalendarEvent for Ev {
        type RailEntry = (SimTime, u32);
        fn rail_time(&(at, _): &(SimTime, u32)) -> SimTime {
            at
        }
        fn from_rail((_, worker): (SimTime, u32)) -> Self {
            Ev::Arrival { worker }
        }
        fn make_wake(worker: u32, version: u64) -> Self {
            Ev::Wake { worker, version }
        }
    }

    struct Mini {
        versions: Vec<u64>,
        /// (time_micros, label, worker, version-at-dispatch)
        log: Vec<(u64, &'static str, u32, u64)>,
    }

    impl Mini {
        fn new(workers: usize) -> Self {
            Mini {
                versions: vec![0; workers],
                log: Vec::new(),
            }
        }

        fn on_event<C: Calendar<Ev>>(&mut self, now: SimTime, ev: Ev, q: &mut C) {
            match ev {
                Ev::Arrival { worker } => {
                    self.versions[worker as usize] += 1;
                    let v = self.versions[worker as usize];
                    self.log.push((now.as_micros(), "arrival", worker, v));
                    q.arm_wake(worker, now + SimDuration::from_micros(50), v);
                    // A duplicate same-version arm, as a jittery harness
                    // would produce: must be dropped/no-op identically.
                    q.arm_wake(worker, now + SimDuration::from_micros(50), v);
                }
                Ev::Tick(n) => {
                    self.log.push((now.as_micros(), "tick", n, 0));
                    if n > 0 {
                        q.schedule(now + SimDuration::from_micros(30), Ev::Tick(n - 1));
                    }
                }
                Ev::Wake { worker, version } => {
                    if self.versions[worker as usize] != version {
                        return; // stale
                    }
                    self.log.push((now.as_micros(), "wake", worker, version));
                    self.versions[worker as usize] += 1;
                    let v = self.versions[worker as usize];
                    q.arm_wake(worker, now + SimDuration::from_micros(100), v);
                }
            }
        }
    }

    impl World for Mini {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, cal: &mut PartitionCalendar<Ev>) {
            self.on_event(now, ev, cal);
        }
    }

    fn arrivals() -> Vec<(SimTime, u32)> {
        // Deliberate time collisions across workers.
        (0..200u64)
            .map(|i| (SimTime::from_micros(7 * (i / 3) + 1), (i % 3) as u32))
            .collect()
    }

    /// The reference: every event, wakes included, on one heap, popped
    /// until the exclusive horizon.
    fn run_heap(horizon: SimTime) -> (Vec<(u64, &'static str, u32, u64)>, u64) {
        let mut w = Mini::new(3);
        let mut q = EventQueue::new();
        for (t, worker) in arrivals() {
            q.schedule(t, Ev::Arrival { worker });
        }
        q.schedule(SimTime::from_micros(5), Ev::Tick(40));
        let mut events = 0;
        while let Some((now, ev)) = q.pop().filter(|&(t, _)| t < horizon) {
            events += 1;
            w.on_event(now, ev, &mut q);
        }
        (w.log, events)
    }

    fn run_part(horizon: SimTime) -> (Vec<(u64, &'static str, u32, u64)>, RunOutcome) {
        let mut w = Mini::new(3);
        let mut cal = PartitionCalendar::new(arrivals(), 0);
        cal.schedule(SimTime::from_micros(5), Ev::Tick(40));
        let out = run_partition(&mut w, &mut cal, EventKey::new(horizon, 0), u64::MAX);
        (w.log, out)
    }

    #[test]
    fn partitioned_replay_is_bit_identical_to_serial() {
        let horizon = SimTime::from_secs(10);
        let (heap, heap_events) = run_heap(horizon);
        let (part, out) = run_part(horizon);
        assert_eq!(heap, part);
        // The heap also pops every superseded wake as a no-op.
        assert!(heap_events > out.events(), "{heap_events} vs {out:?}");
    }

    #[test]
    fn mid_run_bound_preserves_prefix_order() {
        let horizon = SimTime::from_micros(300);
        let (heap, _) = run_heap(horizon);
        let (part, out) = run_part(horizon);
        assert!(!heap.is_empty());
        assert_eq!(heap, part);
        assert!(matches!(out, RunOutcome::HorizonReached { .. }), "{out:?}");
    }

    #[test]
    fn horizon_is_exclusive_and_resumable() {
        let mut w = Mini::new(1);
        let mut cal = PartitionCalendar::new(Vec::new(), 0);
        for ms in [10, 20, 30] {
            cal.schedule(SimTime::from_millis(ms), Ev::Tick(0));
        }
        let bound = |ms| EventKey::new(SimTime::from_millis(ms), 0);
        let out = run_partition(&mut w, &mut cal, bound(20), u64::MAX);
        assert_eq!(
            out,
            RunOutcome::HorizonReached {
                horizon: SimTime::from_millis(20),
                events: 1
            }
        );
        // Resuming picks up the event exactly at the old bound.
        let out = run_partition(&mut w, &mut cal, bound(100), u64::MAX);
        assert_eq!(
            out,
            RunOutcome::Drained {
                last_event: SimTime::from_millis(30),
                events: 2
            }
        );
        assert_eq!(w.log.len(), 3);
    }

    #[test]
    fn budget_stops_runaway_loops() {
        struct Loop;
        impl World for Loop {
            type Event = Ev;
            fn handle(&mut self, now: SimTime, ev: Ev, cal: &mut PartitionCalendar<Ev>) {
                cal.schedule(now + SimDuration::from_micros(1), ev);
            }
        }
        let mut cal = PartitionCalendar::new(Vec::new(), 0);
        cal.schedule(SimTime::ZERO, Ev::Tick(0));
        let bound = EventKey::new(SimTime::MAX, 0);
        let out = run_partition(&mut Loop, &mut cal, bound, 1_000);
        assert_eq!(
            out,
            RunOutcome::BudgetExhausted {
                at: SimTime::from_micros(1_000),
                budget: 1_000
            }
        );
        // The backstop leaves the calendar intact: the run can resume.
        let out = run_partition(&mut Loop, &mut cal, bound, 10);
        assert_eq!(out.events(), 10);
    }

    #[test]
    fn rail_pops_fifo_within_ties() {
        let arrival = |worker| Ev::Arrival { worker };
        let mut cal = PartitionCalendar::new(
            vec![
                (SimTime::from_micros(5), 1),
                (SimTime::from_micros(1), 0),
                (SimTime::from_micros(5), 2),
            ],
            0,
        );
        // The rail took the first three seqs; a same-instant heap event
        // orders after every rail entry.
        assert_eq!(cal.queue().next_seq(), 3);
        cal.schedule(SimTime::from_micros(5), Ev::Tick(0));
        let bound = EventKey::new(SimTime::MAX, 0);
        let mut order = Vec::new();
        while let Some((t, ev)) = cal.pop_before(bound) {
            order.push((t.as_micros(), ev));
        }
        assert_eq!(
            order,
            vec![
                (1, arrival(0)),
                (5, arrival(1)),
                (5, arrival(2)),
                (5, Ev::Tick(0))
            ]
        );
    }

    /// Three tenants' arrivals concatenated tenant-major, so the rail is
    /// out of time order and every instant is shared across tenants. It
    /// must pop in `(time, schedule order)`, exactly as a heap fed the same
    /// schedule does.
    #[test]
    fn unsorted_rail_pops_in_time_then_schedule_order() {
        let rail: Vec<(SimTime, u32)> = (0..3u32)
            .flat_map(|tenant| {
                (0..20u64).map(move |i| (SimTime::from_micros(10 * (i / 2) + 3), tenant))
            })
            .collect();
        assert!(!rail.is_sorted_by_key(|&(t, _)| t));
        let mut heap = EventQueue::new();
        for &(t, worker) in &rail {
            heap.schedule(t, Ev::Arrival { worker });
        }
        let mut cal = PartitionCalendar::new(rail, 0);
        let bound = EventKey::new(SimTime::MAX, 0);
        let mut popped = 0;
        while let Some(got) = cal.pop_before(bound) {
            assert_eq!(Some(got), heap.pop(), "entry {popped}");
            popped += 1;
        }
        assert_eq!((popped, heap.pop()), (60, None));
    }

    #[test]
    fn superseded_wakes_are_never_dispatched() {
        // Arm twice with different versions: only the second survives.
        let mut cal: PartitionCalendar<Ev> = PartitionCalendar::new(Vec::new(), 0);
        cal.arm_wake(0, SimTime::from_micros(10), 1);
        cal.arm_wake(0, SimTime::from_micros(20), 2);
        assert_eq!(
            cal.peek_key().map(|k| (k.time(), k.seq())),
            Some((SimTime::from_micros(20), 1))
        );
        let bound = EventKey::new(SimTime::MAX, 0);
        assert_eq!(
            cal.pop_before(bound),
            Some((
                SimTime::from_micros(20),
                Ev::Wake {
                    worker: 0,
                    version: 2
                }
            ))
        );
        assert_eq!(cal.peek_key(), None);
    }

    #[test]
    fn same_version_rearm_keeps_the_earlier_entry() {
        let mut cal: PartitionCalendar<Ev> = PartitionCalendar::new(Vec::new(), 2);
        cal.arm_wake(4, SimTime::from_micros(10), 7);
        cal.arm_wake(4, SimTime::from_micros(10), 7);
        // seq 2 = the first arm after the reserved block; the duplicate
        // consumed seq 3 silently.
        assert_eq!(cal.peek_key().map(EventKey::seq), Some(2));
        assert_eq!(cal.queue().next_seq(), 4);
        let bound = EventKey::new(SimTime::MAX, 0);
        let (_, ev) = cal.pop_before(bound).expect("one live wake");
        assert_eq!(
            ev,
            Ev::Wake {
                worker: 4,
                version: 7
            }
        );
        assert_eq!(cal.pop_before(bound), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arming a wake in the past")]
    fn past_wake_arm_panics_in_debug() {
        let mut cal: PartitionCalendar<Ev> = PartitionCalendar::new(Vec::new(), 0);
        cal.schedule(SimTime::from_millis(10), Ev::Tick(0));
        cal.pop_before(EventKey::new(SimTime::MAX, 0));
        cal.arm_wake(0, SimTime::from_millis(5), 1);
    }
}
