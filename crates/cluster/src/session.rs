//! The incremental session executor: the same cluster simulation as
//! a lone [`crate::run`], driven one event at a time with arrivals
//! injected from outside instead of pre-scheduled.
//!
//! This is the seam the serving shell (`paldia-serve`) plugs into. A
//! [`SimSession`] owns the one-tenant partition — harness plus calendar —
//! that the batch entry point builds, through the same constructor: same
//! calendar, same seeding, same single `on_event` domain logic. It exposes
//! `step`/`inject` so a caller can interleave event processing with
//! arrivals it learns about at runtime (from a socket, a replay file, a
//! test).
//!
//! # Bit-identical replay
//!
//! The batch engine puts every pre-sampled arrival on its rail *before*
//! seeding the calendar, so arrivals own the run's first `(time, seq)`
//! sequence numbers and win every same-instant tie against ticks. An
//! incremental executor that allocated fresh sequence numbers at injection
//! time would order those ties the other way and diverge. A session
//! therefore *reserves* the arrival seq block up front
//! ([`SimSession::new`]'s `reserved_arrivals`) and each
//! [`inject_recorded`](SimSession::inject_recorded) reclaims the arrival's
//! original number, making the session's event order — and every
//! scheduling decision, trace event, output byte and the engine event
//! count — identical to a lone [`crate::run`] on the same workloads
//! (enforced by `tests/session_replay.rs` and
//! `tests/partitioned_parity.rs`).
//!
//! Recorded arrivals come from outside the process (a replay file, a TCP
//! client), so `inject_recorded` checks the reservation contract in every
//! build: a seq outside the block, a seq injected twice, an `(at, seq)`
//! not after the previous recorded arrival, an `at` before the session's
//! now, an `at` at or past the horizon, or a model the session does not
//! serve is refused with an error naming the seq. Live arrivals
//! ([`SimSession::inject_arrival`]) are refused for an unserved model too.
//!
//! [`run_replay`] is the shared driver both executors of a recorded trace
//! use: the DES side runs it with [`paldia_sim::VirtualClock`] and the
//! wall-clock shell with its pacing clock. Because pacing is the *only*
//! difference (see [`paldia_sim::clock`]), the two decision streams are
//! divergence-free by construction — the differential gate in
//! `paldia-serve` asserts exactly that.

use crate::config::{SimConfig, DRAIN_GRACE};
use crate::fleet::{FEv, FleetHarness, Partition, Tenant};
use crate::harness::SampledArrival;
use crate::policy::Scheduler;
use crate::replay::model_token;
use crate::request::{CompletedRequest, Request, RequestId};
use crate::result::RunResult;
use paldia_hw::{Catalog, InstanceKind};
use paldia_obs::{TraceSink, Tracer};
use paldia_sim::{engine::DEFAULT_EVENT_BUDGET, Calendar, Clock, EventKey, SimTime};
use paldia_workloads::MlModel;
use std::collections::BTreeMap;

/// The cluster simulation as an open system: step events, inject arrivals.
///
/// Construction mirrors the batch entry point field-for-field; see the
/// module docs for the sequence-number reservation that keeps a replayed
/// session bit-identical to a lone [`crate::run`].
pub struct SimSession<'a> {
    part: Partition<'a>,
    /// The models the session serves (a batcher each).
    models: Vec<MlModel>,
    horizon: SimTime,
    reserved: u64,
    /// Recorded seqs injected so far, as a sparse bitset: word
    /// `seq / 64`, bit `seq % 64`.
    injected: BTreeMap<u64, u64>,
    /// `(at, seq)` of the latest recorded arrival.
    last_recorded: Option<(SimTime, u64)>,
    next_live_id: u64,
    events: u64,
    drained: usize,
}

impl<'a> SimSession<'a> {
    /// Open an untraced session over `models`.
    ///
    /// `trace_end` is the end of the arrival timeline (the run horizon is
    /// `trace_end + DRAIN_GRACE`, as in the batch entry point);
    /// `reserved_arrivals` is the number of recorded arrivals that will be
    /// injected via [`Self::inject_recorded`] — pass the recorded trace's
    /// reservation, or 0 for a live session.
    pub fn new(
        models: Vec<MlModel>,
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
        trace_end: SimTime,
        reserved_arrivals: u64,
    ) -> Self {
        Self::open(
            models,
            scheduler,
            initial_hw,
            catalog,
            cfg,
            trace_end,
            reserved_arrivals,
            Tracer::disabled(),
        )
    }

    /// Open a session recording the full observability stream into `sink`,
    /// including the scheduler's structured decision events (the shape
    /// [`paldia_obs::diff_decision_streams`] consumes). Tracing is
    /// observation-only: the returned metrics are bit-identical to an
    /// untraced session.
    #[allow(clippy::too_many_arguments)]
    pub fn new_traced(
        models: Vec<MlModel>,
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
        trace_end: SimTime,
        reserved_arrivals: u64,
        sink: &'a mut dyn TraceSink,
    ) -> Self {
        Self::open(
            models,
            scheduler,
            initial_hw,
            catalog,
            cfg,
            trace_end,
            reserved_arrivals,
            Tracer::new(sink),
        )
    }

    /// A one-tenant partition on elastic inventory with an empty rail and
    /// the first `reserved` sequence numbers held for the recorded
    /// arrivals, as the batch engine's rail holds them; everything the
    /// calendar seeding schedules starts after the block.
    #[allow(clippy::too_many_arguments)]
    fn open(
        models: Vec<MlModel>,
        scheduler: &'a mut dyn Scheduler,
        initial_hw: InstanceKind,
        catalog: Catalog,
        cfg: &'a SimConfig,
        trace_end: SimTime,
        reserved: u64,
        tracer: Tracer<'a>,
    ) -> Self {
        let tenant = Tenant::new(scheduler, models.clone(), initial_hw, cfg, None, 0);
        let harness = FleetHarness::new(
            cfg,
            catalog,
            u32::MAX,
            vec![tenant],
            trace_end,
            tracer,
            None,
        );
        SimSession {
            part: Partition::new(harness, vec![Vec::new()], reserved, true),
            models,
            horizon: trace_end + DRAIN_GRACE,
            reserved,
            injected: BTreeMap::new(),
            last_recorded: None,
            next_live_id: 0,
            events: 0,
            drained: 0,
        }
    }

    /// The run horizon (`trace_end + DRAIN_GRACE`); events at or after it
    /// are never processed, matching the batch engines' exclusive horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Firing time of the earliest pending event, if any. Takes `&mut`
    /// because the calendar prunes superseded wakes as it looks.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.part.cal.peek_key().map(EventKey::time)
    }

    /// Simulated "now": the time of the last processed event.
    pub fn now(&self) -> SimTime {
        self.part.cal.queue().floor()
    }

    /// Number of events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Inject a recorded arrival under its reserved sequence number and
    /// original request id. Arrivals must be injected in `(at, seq)` order,
    /// after every internal event firing strictly before `at` has been
    /// stepped ([`run_replay`] does both). Refused, with an error naming
    /// the seq and leaving the session untouched: a seq outside the
    /// reserved block, a seq already injected, an `(at, seq)` not after the
    /// previous recorded arrival, an `at` earlier than now, an `at` at or
    /// past the horizon (it could never be processed), or a model the
    /// session does not serve.
    pub fn inject_recorded(&mut self, sa: &SampledArrival) -> Result<(), String> {
        let seq = sa.seq;
        let now = self.now();
        if seq >= self.reserved {
            return Err(format!(
                "arrival seq {seq} outside the reserved block of {}",
                self.reserved
            ));
        }
        let (word, bit) = (seq / 64, 1u64 << (seq % 64));
        if self.injected.get(&word).is_some_and(|w| w & bit != 0) {
            return Err(format!("arrival seq {seq} already injected"));
        }
        if let Some((at, prev)) = self.last_recorded.filter(|&last| (sa.at, seq) <= last) {
            return Err(format!(
                "arrival seq {seq} at {} us is not after the previous recorded arrival \
                 (seq {prev} at {} us)",
                sa.at.as_micros(),
                at.as_micros()
            ));
        }
        if sa.at < now {
            return Err(format!(
                "arrival seq {seq} at {} us is earlier than the session's now ({} us)",
                sa.at.as_micros(),
                now.as_micros()
            ));
        }
        if sa.at >= self.horizon {
            return Err(format!(
                "arrival seq {seq} at {} us is at or past the session's horizon ({} us)",
                sa.at.as_micros(),
                self.horizon.as_micros()
            ));
        }
        self.check_served(sa.model)
            .map_err(|e| format!("arrival seq {seq} {e}"))?;
        *self.injected.entry(word).or_insert(0) |= bit;
        self.last_recorded = Some((sa.at, seq));
        self.part.cal.queue_mut().schedule_reserved(
            sa.at,
            seq,
            FEv::Arrival(
                0,
                Request {
                    id: sa.id,
                    model: sa.model,
                    arrival: sa.at,
                },
            ),
        );
        Ok(())
    }

    /// `Err` naming `model` when the session has no batcher for it.
    fn check_served(&self, model: MlModel) -> Result<(), String> {
        if self.models.contains(&model) {
            return Ok(());
        }
        let token = model_token(model);
        Err(format!(
            "invokes model {token}, which this session does not serve"
        ))
    }

    /// Inject a live arrival at `at` (clamped to the session's "now") and
    /// return its assigned request id. Live ids start after the reserved
    /// block, so mixing recorded and live arrivals cannot collide. Refused,
    /// leaving the session untouched, for a model the session does not
    /// serve.
    pub fn inject_arrival(&mut self, at: SimTime, model: MlModel) -> Result<RequestId, String> {
        self.check_served(model)
            .map_err(|e| format!("live arrival {e}"))?;
        let at = at.max(self.now());
        self.next_live_id += 1;
        let id = RequestId(self.reserved + self.next_live_id);
        self.part.cal.schedule(
            at,
            FEv::Arrival(
                0,
                Request {
                    id,
                    model,
                    arrival: at,
                },
            ),
        );
        Ok(id)
    }

    /// Process the earliest pending event if it fires before the horizon;
    /// returns its time, or `None` when nothing is runnable.
    pub fn step(&mut self) -> Option<SimTime> {
        self.step_before(self.horizon, &mut paldia_sim::VirtualClock)
    }

    /// Pop the earliest event firing strictly before `bound` (and the
    /// horizon), pace `clock` to it, then process it; one calendar peek
    /// per event.
    fn step_before<C: Clock>(&mut self, bound: SimTime, clock: &mut C) -> Option<SimTime> {
        if self.events >= DEFAULT_EVENT_BUDGET {
            return None;
        }
        let Partition { harness, cal } = &mut self.part;
        let (now, ev) = cal.pop_before(EventKey::new(bound.min(self.horizon), 0))?;
        clock.pace(now);
        self.events += 1;
        harness.on_event(now, ev, cal);
        Some(now)
    }

    /// Requests completed since the previous drain, in completion order.
    pub fn drain_completions(&mut self) -> Vec<CompletedRequest> {
        let new: Vec<CompletedRequest> = self.part.harness.completed_from(0, self.drained).to_vec();
        self.drained += new.len();
        new
    }

    /// Run every remaining event to the horizon and assemble the
    /// [`RunResult`], exactly as the batch entry point does.
    pub fn finish(mut self) -> RunResult {
        while self.step().is_some() {}
        let SimSession {
            part: Partition { mut harness, .. },
            horizon,
            events,
            ..
        } = self;
        harness.emit_summary(horizon, events);
        harness
            .into_results(horizon)
            .pop()
            .expect("invariant: one tenant in, one result out")
    }
}

/// One item from an [`ArrivalSource`].
#[derive(Clone, Copy, Debug)]
pub enum ReplayItem {
    /// The next recorded arrival, in `(at, seq)` order.
    Arrival(SampledArrival),
    /// No more arrivals; the driver drains the session to its horizon.
    End,
}

/// A stream of recorded arrivals feeding [`run_replay`]. `next` may block —
/// the serving shell's source reads a socket — but must yield arrivals in
/// `(at, seq)` order and terminate with [`ReplayItem::End`].
pub trait ArrivalSource {
    /// The next arrival, or [`ReplayItem::End`] when the stream is done.
    fn next(&mut self) -> ReplayItem;
}

/// An in-memory [`ArrivalSource`] over a recorded arrival slice.
pub struct SliceSource<'s> {
    items: &'s [SampledArrival],
    pos: usize,
}

impl<'s> SliceSource<'s> {
    /// Source yielding `items` in order (must already be `(at, seq)`
    /// sorted, as recorded traces are).
    pub fn new(items: &'s [SampledArrival]) -> Self {
        SliceSource { items, pos: 0 }
    }
}

impl ArrivalSource for SliceSource<'_> {
    fn next(&mut self) -> ReplayItem {
        match self.items.get(self.pos) {
            Some(&sa) => {
                self.pos += 1;
                ReplayItem::Arrival(sa)
            }
            None => ReplayItem::End,
        }
    }
}

/// Drive a session over a stream of recorded arrivals, pacing on `clock`.
///
/// This is the one replay loop both executors share: before each arrival,
/// every internal event firing strictly before it is stepped (each paced on
/// the clock); the arrival is then paced and injected; after the stream
/// ends the session drains to its horizon. `on_complete` fires for every
/// newly completed request — the serving shell answers its callers from it.
///
/// With [`paldia_sim::VirtualClock`] this is the DES executor; with a
/// wall clock it is the serving shell. The clock gates only *when* the
/// process acts, never *what* it does, so the two decision streams are
/// divergence-free by construction.
///
/// An arrival the session refuses ([`SimSession::inject_recorded`]) ends
/// the replay with that error; the session is left as it was, so a caller
/// can still [`SimSession::finish`] it.
pub fn run_replay<S: ArrivalSource, C: Clock>(
    session: &mut SimSession<'_>,
    source: &mut S,
    clock: &mut C,
    mut on_complete: impl FnMut(&CompletedRequest),
) -> Result<(), String> {
    while let ReplayItem::Arrival(sa) = source.next() {
        while session.step_before(sa.at, clock).is_some() {
            for c in session.drain_completions() {
                on_complete(&c);
            }
        }
        // Never pace past the horizon: an arrival there is refused anyway.
        clock.pace(sa.at.min(session.horizon()));
        session.inject_recorded(&sa)?;
    }
    while session.step_before(session.horizon(), clock).is_some() {
        for c in session.drain_completions() {
            on_complete(&c);
        }
    }
    Ok(())
}

/// Replay a recorded arrival slice on the virtual clock — the DES half of
/// the differential gate, usable anywhere without a socket in sight.
/// Errors as [`run_replay`] does.
pub fn run_replay_virtual(
    session: &mut SimSession<'_>,
    arrivals: &[SampledArrival],
) -> Result<(), String> {
    let mut source = SliceSource::new(arrivals);
    let mut clock = paldia_sim::VirtualClock;
    run_replay(session, &mut source, &mut clock, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Decision, Observation};

    struct Stay;
    impl Scheduler for Stay {
        fn name(&self) -> &str {
            "stay"
        }
        fn decide(&mut self, obs: &Observation) -> Decision {
            Decision::stay(obs.current_hw)
        }
    }

    /// An arrival for a model the session has no batcher for is refused,
    /// naming the model, and leaves the session untouched.
    #[test]
    fn arrivals_for_unserved_models_are_refused() {
        let (cfg, mut sched) = (SimConfig::with_seed(1), Stay);
        let (hw, end) = (InstanceKind::C6i_2xlarge, SimTime::from_secs(10));
        let models = vec![MlModel::GoogleNet];
        let mut session =
            SimSession::new(models, &mut sched, hw, Catalog::table_ii(), &cfg, end, 1);
        let stray = SampledArrival {
            seq: 0,
            id: RequestId(1),
            at: SimTime::from_secs(1),
            model: MlModel::ResNet50,
        };
        let e = session.inject_recorded(&stray).expect_err("unserved model");
        assert!(
            e.starts_with("arrival seq 0 invokes model resnet50,"),
            "{e}"
        );
        let e = session.inject_arrival(stray.at, MlModel::ResNet50);
        assert!(e.expect_err("unserved model").contains("resnet50"));
        let served = SampledArrival {
            model: MlModel::GoogleNet,
            ..stray
        };
        session
            .inject_recorded(&served)
            .expect("the seq is still free");
        let live = session.inject_arrival(stray.at, MlModel::GoogleNet);
        assert_eq!(live, Ok(RequestId(2)), "the first live id after the block");
        let result = session.finish();
        assert_eq!(result.completed.len() as u64 + result.unserved, 2);
    }
}
