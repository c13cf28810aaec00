//! Request batching (§IV-B).
//!
//! Requests are batch-served for throughput. The batcher accumulates
//! requests per model and closes a batch when either (a) the configured
//! batch size is reached, or (b) the oldest pending request has waited a
//! full batching window — whichever comes first. Batch sizes are flexible
//! and can be changed on the fly ("uniform batching would hinder" the
//! hybrid scheduling, §IV-B): the Job Distributor shrinks or grows them to
//! realize its spatial/temporal split.
//!
//! ## Service-time-aware close deadlines
//!
//! The fixed window historically assumed every request costs the model's
//! uniform per-item service time ([`Profile::uniform_service_ms`]) — fine
//! for vision models, wrong for token workloads whose service times are
//! bimodal. A request that will run longer than the uniform assumption has
//! already "spent" part of its latency budget on service, so holding the
//! batch open the full window knowingly overshoots the deadline the window
//! was sized for. Callers that know better push with
//! [`Batcher::push_with_hint`]; the close deadline then shrinks by the
//! excess of the *largest* pending hint over the uniform assumption.
//! Hint-free pushes use the uniform service time, making the effective
//! window exactly the configured one — request-level runs are bit-identical
//! to the pre-hint batcher.

use crate::request::{Batch, BatchId, Request};
use paldia_sim::{SimDuration, SimTime};
use paldia_workloads::{MlModel, Profile};
use std::collections::VecDeque;

/// Per-model request accumulator.
#[derive(Clone, Debug)]
pub struct Batcher {
    model: MlModel,
    pending: VecDeque<Request>,
    /// Per-request service-time hints, parallel to `pending`, ms.
    hints: VecDeque<f64>,
    batch_size: u32,
    window: SimDuration,
    /// The per-item service time the window was sized for, ms.
    uniform_ms: f64,
}

impl Batcher {
    /// New batcher with the given target batch size and window.
    pub fn new(model: MlModel, batch_size: u32, window: SimDuration) -> Self {
        Batcher {
            model,
            pending: VecDeque::new(),
            hints: VecDeque::new(),
            batch_size: batch_size.max(1),
            window,
            uniform_ms: Profile::uniform_service_ms(model),
        }
    }

    /// Model this batcher serves.
    pub fn model(&self) -> MlModel {
        self.model
    }

    /// Current target batch size.
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Change the target batch size on the fly (Job Distribution, §IV-D).
    pub fn set_batch_size(&mut self, bs: u32) {
        self.batch_size = bs.max(1);
    }

    /// Number of pending (unbatched) requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Arrival time of the oldest pending request.
    pub fn oldest(&self) -> Option<SimTime> {
        self.pending.front().map(|r| r.arrival)
    }

    /// Add a request; returns a closed batch if the size trigger fired.
    /// `alloc` hands out the next batch id. The request is assumed to cost
    /// the uniform per-item service time (callers with better knowledge use
    /// [`Batcher::push_with_hint`]).
    pub fn push(
        &mut self,
        req: Request,
        now: SimTime,
        alloc: &mut impl FnMut() -> BatchId,
    ) -> Option<Batch> {
        let uniform = self.uniform_ms;
        self.push_with_hint(req, uniform, now, alloc)
    }

    /// Add a request with a per-request service-time estimate (ms). A hint
    /// above the uniform assumption tightens the close deadline by the
    /// excess; hints at or below it leave the window untouched.
    pub fn push_with_hint(
        &mut self,
        req: Request,
        hint_ms: f64,
        now: SimTime,
        alloc: &mut impl FnMut() -> BatchId,
    ) -> Option<Batch> {
        self.pending.push_back(req);
        self.hints.push_back(hint_ms.max(0.0));
        if self.pending.len() as u32 >= self.batch_size {
            self.close(now, alloc)
        } else {
            None
        }
    }

    /// The window actually applied to the pending set: the configured
    /// window minus the excess of the largest pending service hint over the
    /// uniform per-item assumption (never below zero). With only hint-free
    /// pushes the largest hint *is* the uniform assumption and this returns
    /// the configured window exactly.
    pub fn effective_window(&self) -> SimDuration {
        let max_hint = self.hints.iter().fold(0.0f64, |a, &b| a.max(b));
        if max_hint <= self.uniform_ms {
            return self.window;
        }
        let excess = SimDuration::from_millis_f64(max_hint - self.uniform_ms);
        self.window.saturating_sub(excess)
    }

    /// Fire the window trigger: close a (possibly undersized) batch if the
    /// oldest pending request has waited at least the effective window.
    pub fn flush_if_due(
        &mut self,
        now: SimTime,
        alloc: &mut impl FnMut() -> BatchId,
    ) -> Option<Batch> {
        let oldest = self.oldest()?;
        if now - oldest >= self.effective_window() {
            self.close(now, alloc)
        } else {
            None
        }
    }

    /// When the current oldest request's effective window expires (for
    /// scheduling the next flush check).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.oldest().map(|t| t + self.effective_window())
    }

    fn close(&mut self, now: SimTime, alloc: &mut impl FnMut() -> BatchId) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let take = (self.batch_size as usize).min(self.pending.len());
        let requests: Vec<Request> = self.pending.drain(..take).collect();
        self.hints.drain(..take.min(self.hints.len()));
        Some(Batch {
            id: alloc(),
            model: self.model,
            requests,
            closed_at: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;

    fn req(id: u64, at_ms: u64) -> Request {
        Request {
            id: RequestId(id),
            model: MlModel::ResNet50,
            arrival: SimTime::from_millis(at_ms),
        }
    }

    fn mk() -> (Batcher, impl FnMut() -> BatchId) {
        let mut n = 0u64;
        (
            Batcher::new(MlModel::ResNet50, 4, SimDuration::from_millis(20)),
            move || {
                n += 1;
                BatchId(n)
            },
        )
    }

    #[test]
    fn size_trigger_closes_full_batch() {
        let (mut b, mut alloc) = mk();
        for i in 0..3 {
            assert!(b
                .push(req(i, i), SimTime::from_millis(i), &mut alloc)
                .is_none());
        }
        let batch = b
            .push(req(3, 3), SimTime::from_millis(3), &mut alloc)
            .unwrap();
        assert_eq!(batch.size(), 4);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn window_trigger_closes_partial_batch() {
        let (mut b, mut alloc) = mk();
        b.push(req(1, 0), SimTime::ZERO, &mut alloc);
        b.push(req(2, 5), SimTime::from_millis(5), &mut alloc);
        // Window not yet due at 19 ms.
        assert!(b
            .flush_if_due(SimTime::from_millis(19), &mut alloc)
            .is_none());
        let batch = b
            .flush_if_due(SimTime::from_millis(20), &mut alloc)
            .unwrap();
        assert_eq!(batch.size(), 2);
    }

    #[test]
    fn shrinking_batch_size_mid_stream() {
        let (mut b, mut alloc) = mk();
        b.push(req(1, 0), SimTime::ZERO, &mut alloc);
        b.push(req(2, 0), SimTime::ZERO, &mut alloc);
        b.set_batch_size(2);
        // Already at the new size: the next window/push closes it.
        let batch = b
            .push(req(3, 1), SimTime::from_millis(1), &mut alloc)
            .unwrap();
        assert_eq!(batch.size(), 2);
        assert_eq!(b.pending(), 1);
    }

    #[test]
    fn next_deadline_tracks_oldest() {
        let (mut b, mut alloc) = mk();
        assert!(b.next_deadline().is_none());
        b.push(req(1, 7), SimTime::from_millis(7), &mut alloc);
        assert_eq!(b.next_deadline(), Some(SimTime::from_millis(27)));
    }

    #[test]
    fn batch_size_never_zero() {
        let mut b = Batcher::new(MlModel::ResNet50, 0, SimDuration::from_millis(10));
        assert_eq!(b.batch_size(), 1);
        b.set_batch_size(0);
        assert_eq!(b.batch_size(), 1);
    }

    #[test]
    fn hint_free_pushes_keep_the_exact_legacy_window() {
        // The uniform-assumption fast path: plain `push` must reproduce the
        // pre-hint batcher bit for bit.
        let (mut b, mut alloc) = mk();
        b.push(req(1, 7), SimTime::from_millis(7), &mut alloc);
        b.push(req(2, 9), SimTime::from_millis(9), &mut alloc);
        assert_eq!(b.effective_window(), SimDuration::from_millis(20));
        assert_eq!(b.next_deadline(), Some(SimTime::from_millis(27)));
    }

    #[test]
    fn long_hint_tightens_the_close_deadline() {
        // A bimodal token card: the long-tail request's service time
        // exceeds the uniform assumption by 12 ms, so the batch must close
        // 12 ms earlier to hold the same completion deadline.
        let uniform = paldia_workloads::Profile::uniform_service_ms(MlModel::ResNet50);
        let (mut b, mut alloc) = mk();
        b.push_with_hint(req(1, 0), uniform, SimTime::ZERO, &mut alloc);
        b.push_with_hint(
            req(2, 5),
            uniform + 12.0,
            SimTime::from_millis(5),
            &mut alloc,
        );
        assert_eq!(b.effective_window(), SimDuration::from_millis(8));
        assert_eq!(b.next_deadline(), Some(SimTime::from_millis(8)));
        // Not yet due at 7 ms, due at 8 ms — 12 ms before the legacy 20.
        assert!(b
            .flush_if_due(SimTime::from_millis(7), &mut alloc)
            .is_none());
        let batch = b.flush_if_due(SimTime::from_millis(8), &mut alloc).unwrap();
        assert_eq!(batch.size(), 2);
        // Closing drained the hints: the window is back to the configured one.
        assert_eq!(b.effective_window(), SimDuration::from_millis(20));
    }

    #[test]
    fn excess_beyond_window_clamps_to_immediate_close() {
        let uniform = paldia_workloads::Profile::uniform_service_ms(MlModel::ResNet50);
        let (mut b, mut alloc) = mk();
        b.push_with_hint(
            req(1, 3),
            uniform + 500.0,
            SimTime::from_millis(3),
            &mut alloc,
        );
        assert_eq!(b.effective_window(), SimDuration::ZERO);
        // Due immediately: the request is long enough that holding the
        // batch open at all only adds to an already-blown deadline.
        let batch = b.flush_if_due(SimTime::from_millis(3), &mut alloc).unwrap();
        assert_eq!(batch.size(), 1);
    }

    #[test]
    fn short_hints_never_widen_the_window() {
        let (mut b, mut alloc) = mk();
        b.push_with_hint(req(1, 0), 0.001, SimTime::ZERO, &mut alloc);
        assert_eq!(b.effective_window(), SimDuration::from_millis(20));
    }
}
