//! # paldia-sim
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! Every experiment in the Paldia reproduction runs on top of this engine:
//! request arrivals, batch formation, GPU/CPU job completions, autoscaler
//! ticks, hardware procurement, and node failures are all events drawn from
//! a single totally-ordered calendar queue.
//!
//! Design goals:
//!
//! * **Determinism.** Identical seeds produce identical traces, schedules,
//!   and metrics, bit-for-bit, on every platform. Ties in event time are
//!   broken by insertion order (FIFO), never by heap internals.
//! * **No global state.** The engine owns nothing but the calendar; all
//!   domain state lives in the caller's [`World`] implementation.
//! * **One calendar.** Every executor — the batch run, the fleet shards,
//!   the incremental session — runs on [`PartitionCalendar`]: pre-sorted
//!   arrivals on a rail, device wakes in per-worker registers, everything
//!   else on a binary heap of packed `(time, seq)` keys ([`EventQueue`]).
//!
//! ```
//! use paldia_sim::{
//!     run_partition, Calendar, CalendarEvent, EventKey, PartitionCalendar, SimDuration,
//!     SimTime, World,
//! };
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick, Wake }
//!
//! impl CalendarEvent for Ev {
//!     type RailEntry = SimTime;
//!     fn rail_time(at: &SimTime) -> SimTime { *at }
//!     fn from_rail(_at: SimTime) -> Self { Ev::Tick }
//!     fn make_wake(_worker: u32, _version: u64) -> Self { Ev::Wake }
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, cal: &mut PartitionCalendar<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             cal.schedule(now + SimDuration::from_millis(100), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut w = Counter { fired: 0 };
//! let mut cal = PartitionCalendar::new(Vec::new(), 0);
//! cal.schedule(SimTime::ZERO, Ev::Tick);
//! let horizon = EventKey::new(SimTime::from_secs(60), 0);
//! run_partition(&mut w, &mut cal, horizon, u64::MAX);
//! assert_eq!(w.fired, 10);
//! ```

pub mod calendar;
pub mod clock;
pub mod engine;
pub mod event;
pub mod pool;
pub mod rng;
pub mod time;

pub use calendar::{run_partition, Calendar, CalendarEvent, PartitionCalendar, World};
pub use clock::{Clock, VirtualClock};
pub use engine::RunOutcome;
pub use event::{EventKey, EventQueue};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
