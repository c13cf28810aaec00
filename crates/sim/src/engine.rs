//! Run-loop outcomes and the runaway-loop backstop shared by every
//! executor. The loop itself is [`crate::calendar::run_partition`].

use crate::time::SimTime;

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The calendar drained: no events remain before the horizon.
    Drained {
        /// Time of the last event processed (ZERO if none).
        last_event: SimTime,
        /// Number of events processed.
        events: u64,
    },
    /// The horizon was reached with events still pending.
    HorizonReached {
        /// The horizon that stopped the run.
        horizon: SimTime,
        /// Number of events processed.
        events: u64,
    },
    /// The event budget was exhausted (runaway-loop backstop).
    BudgetExhausted {
        /// Simulated time at which the budget ran out.
        at: SimTime,
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl RunOutcome {
    /// Number of events the run processed.
    pub fn events(&self) -> u64 {
        match *self {
            RunOutcome::Drained { events, .. } => events,
            RunOutcome::HorizonReached { events, .. } => events,
            RunOutcome::BudgetExhausted { budget, .. } => budget,
        }
    }
}

/// Default backstop: no realistic experiment in this repo schedules more than
/// a few hundred million events; anything beyond this is a bug.
pub const DEFAULT_EVENT_BUDGET: u64 = 2_000_000_000;
