//! Deterministic merge of per-partition trace streams.
//!
//! A sharded fleet run (`run` with `shards: Some(k)` in `paldia-cluster`)
//! records each tenant partition's events into its own sink, plus one
//! coordinator stream for fleet-global events (fault edges, the run
//! summary, scope 0). This
//! module folds those streams back into a single sink whose contents are
//! **independent of the shard count**:
//!
//! * Every scope (tenant) is owned by exactly one stream, so each scope's
//!   subsequence arrives already in its own emission order — which is the
//!   same order a run with any other shard count emits it (tenant
//!   handlers only observe tenant-local state between barriers).
//! * Cross-scope interleaving at one instant is *normalized* by sorting on
//!   `(at, scope)`: fleet-global events (scope 0) first, then tenants in
//!   global deployment order. The serial engine instead interleaves
//!   same-instant events by its global heap order, so the merged stream is
//!   invariant across shard counts of the partitioned path, not
//!   byte-identical to a traced serial run (`shards: None`).
//! * Sequence numbers are re-assigned contiguously after the sort, so
//!   downstream consumers ([`crate::TraceAttribution`], chrome export) see
//!   the `(at, seq)` total order they expect.

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// An unbounded in-memory sink: every recorded event, in emission order.
///
/// The per-partition capture buffer for sharded fleet runs; unlike
/// [`crate::RingSink`] it never evicts, so the merge sees complete
/// streams.
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the sink, returning the events in emission order.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: TraceEvent) {
        self.events.push(event);
    }
}

/// Merge per-stream event vectors into `sink`, ordered by `(at, scope)`
/// with ties broken by stream index, and re-assign sequence numbers.
///
/// Contract: each scope should be owned by exactly one stream (the
/// coordinator owns scope 0, each tenant's partition owns `1 + dep`); the
/// stable sort then keeps every scope's subsequence in its original
/// emission order, making the output independent of how scopes were
/// grouped into streams.
pub fn merge_streams(streams: Vec<Vec<TraceEvent>>, sink: &mut dyn TraceSink) {
    let total = streams.iter().map(|s| s.len()).sum();
    let mut all: Vec<(usize, TraceEvent)> = Vec::with_capacity(total);
    for (idx, stream) in streams.into_iter().enumerate() {
        all.extend(stream.into_iter().map(|e| (idx, e)));
    }
    all.sort_by_key(|&(ia, ref a)| (a.at, a.scope, ia, a.seq));
    for (seq, (_, mut event)) in all.into_iter().enumerate() {
        event.seq = seq as u64;
        sink.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use paldia_sim::SimTime;
    use paldia_workloads::MlModel;

    fn ev(seq: u64, at_us: u64, scope: u32, request: u64) -> TraceEvent {
        TraceEvent {
            seq,
            at: SimTime::from_micros(at_us),
            scope,
            kind: TraceEventKind::RequestArrived {
                request,
                model: MlModel::ResNet50,
            },
        }
    }

    fn shape(events: &[TraceEvent]) -> Vec<(u64, u32, u64)> {
        events
            .iter()
            .map(|e| {
                let req = match &e.kind {
                    TraceEventKind::RequestArrived { request, .. } => *request,
                    _ => 0,
                };
                (e.seq, e.scope, req)
            })
            .collect()
    }

    #[test]
    fn merge_orders_by_time_then_scope_and_reseqs() {
        let coord = vec![ev(0, 10, 0, 100)];
        let shard_a = vec![ev(0, 5, 1, 1), ev(1, 10, 1, 2)];
        let shard_b = vec![ev(0, 10, 2, 3)];
        let mut out = VecSink::new();
        merge_streams(vec![coord, shard_a, shard_b], &mut out);
        // t=5 scope 1; then at t=10: scope 0, scope 1, scope 2.
        assert_eq!(
            shape(&out.into_events()),
            vec![(0, 1, 1), (1, 0, 100), (2, 1, 2), (3, 2, 3)]
        );
    }

    #[test]
    fn merge_is_invariant_to_stream_grouping() {
        // The same per-scope subsequences, grouped as 1 stream vs 3.
        let s1 = vec![ev(0, 1, 1, 1), ev(1, 2, 2, 2), ev(2, 2, 1, 3)];
        let grouped = vec![vec![ev(0, 1, 1, 1), ev(1, 2, 1, 3)], vec![ev(0, 2, 2, 2)]];
        let (mut a, mut b) = (VecSink::new(), VecSink::new());
        merge_streams(vec![s1], &mut a);
        merge_streams(grouped, &mut b);
        assert_eq!(shape(&a.into_events()), shape(&b.into_events()));
    }

    #[test]
    fn empty_streams_merge_to_nothing() {
        let mut out = VecSink::new();
        merge_streams(vec![Vec::new(), Vec::new()], &mut out);
        assert!(out.is_empty());
    }
}
