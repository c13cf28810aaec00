//! Requests, batches, and per-request completion records.

use paldia_hw::InstanceKind;
use paldia_sim::SimTime;
use paldia_workloads::MlModel;

/// Unique request identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// Unique batch identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BatchId(pub u64);

/// An inference request in flight.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    /// Identifier.
    pub id: RequestId,
    /// Model this request invokes.
    pub model: MlModel,
    /// Gateway arrival time.
    pub arrival: SimTime,
}

/// A closed batch of requests awaiting (or undergoing) execution.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Identifier.
    pub id: BatchId,
    /// Model this batch serves.
    pub model: MlModel,
    /// The member requests.
    pub requests: Vec<Request>,
    /// When the batcher closed the batch.
    pub closed_at: SimTime,
}

impl Batch {
    /// Number of member requests.
    pub fn size(&self) -> u32 {
        self.requests.len() as u32
    }

    /// Earliest member arrival.
    pub fn oldest_arrival(&self) -> SimTime {
        self.requests
            .iter()
            .map(|r| r.arrival)
            .min()
            .unwrap_or(self.closed_at)
    }
}

/// The immutable record of a served request — the raw material every metric
/// in the evaluation is computed from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompletedRequest {
    /// Identifier.
    pub id: RequestId,
    /// Model served.
    pub model: MlModel,
    /// Gateway arrival time.
    pub arrival: SimTime,
    /// When the batcher closed the batch this request rode in.
    pub batch_closed: SimTime,
    /// When the batch containing this request began executing.
    pub exec_start: SimTime,
    /// When execution finished.
    pub completed: SimTime,
    /// Isolated ("min possible") execution time of the batch on the
    /// hardware it ran on, ms — the white segment of Figs. 1 and 4.
    pub solo_ms: f64,
    /// Hardware the batch executed on.
    pub hw: InstanceKind,
    /// Size of the batch this request rode in.
    pub batch_size: u32,
}

impl CompletedRequest {
    /// End-to-end latency, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.completed - self.arrival).as_millis_f64()
    }

    /// Time spent before execution began (batching + container + device
    /// queueing), ms — the "queueing" segment of the tail-latency breakdown.
    pub fn queue_ms(&self) -> f64 {
        (self.exec_start - self.arrival).as_millis_f64()
    }

    /// The batching share of the wait: arrival → batch close, ms.
    pub fn batching_ms(&self) -> f64 {
        (self.batch_closed - self.arrival).as_millis_f64()
    }

    /// Actual execution time, ms.
    pub fn exec_ms(&self) -> f64 {
        (self.completed - self.exec_start).as_millis_f64()
    }

    /// Execution stretch beyond the isolated batch time, ms — the
    /// "interference" segment of the tail-latency breakdown.
    pub fn interference_ms(&self) -> f64 {
        (self.exec_ms() - self.solo_ms).max(0.0)
    }

    /// Whether the request met its latency SLO.
    pub fn within_slo(&self, slo_ms: f64) -> bool {
        self.latency_ms() <= slo_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completed(arrival_ms: u64, start_ms: u64, done_ms: u64, solo: f64) -> CompletedRequest {
        CompletedRequest {
            id: RequestId(1),
            model: MlModel::ResNet50,
            arrival: SimTime::from_millis(arrival_ms),
            batch_closed: SimTime::from_millis((arrival_ms + start_ms) / 2),
            exec_start: SimTime::from_millis(start_ms),
            completed: SimTime::from_millis(done_ms),
            solo_ms: solo,
            hw: InstanceKind::G3s_xlarge,
            batch_size: 64,
        }
    }

    #[test]
    fn latency_breakdown_sums() {
        let c = completed(0, 40, 190, 100.0);
        assert_eq!(c.latency_ms(), 190.0);
        assert_eq!(c.queue_ms(), 40.0);
        assert_eq!(c.exec_ms(), 150.0);
        assert_eq!(c.interference_ms(), 50.0);
        // queue + solo + interference == latency
        assert_eq!(
            c.queue_ms() + c.solo_ms + c.interference_ms(),
            c.latency_ms()
        );
    }

    #[test]
    fn slo_boundary_inclusive() {
        let c = completed(0, 0, 200, 200.0);
        assert!(c.within_slo(200.0));
        assert!(!c.within_slo(199.9));
    }

    #[test]
    fn interference_never_negative() {
        // Execution faster than profile (can happen at reduced batch sizes
        // when solo_ms is quoted for the full batch).
        let c = completed(0, 0, 50, 100.0);
        assert_eq!(c.interference_ms(), 0.0);
    }

    #[test]
    fn batch_oldest_arrival() {
        let b = Batch {
            id: BatchId(1),
            model: MlModel::SeNet18,
            requests: vec![
                Request {
                    id: RequestId(1),
                    model: MlModel::SeNet18,
                    arrival: SimTime::from_millis(30),
                },
                Request {
                    id: RequestId(2),
                    model: MlModel::SeNet18,
                    arrival: SimTime::from_millis(10),
                },
            ],
            closed_at: SimTime::from_millis(40),
        };
        assert_eq!(b.size(), 2);
        assert_eq!(b.oldest_arrival(), SimTime::from_millis(10));
    }
}
