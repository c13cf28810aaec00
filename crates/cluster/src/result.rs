//! The output of one cluster run: everything the metrics layer needs to
//! reproduce the paper's figures.

use crate::request::CompletedRequest;
use paldia_hw::{CostMeter, InstanceKind, PowerModel};
use paldia_sim::SimDuration;

/// Per-leased-node accounting.
#[derive(Clone, Debug)]
pub struct NodeStat {
    /// Instance kind of the node.
    pub kind: InstanceKind,
    /// When the lease began, seconds since simulation start.
    pub lease_start_s: f64,
    /// Lease duration, seconds.
    pub lease_s: f64,
    /// Device non-idle time, seconds.
    pub busy_s: f64,
}

impl NodeStat {
    /// Utilization = non-idle fraction of the lease (Fig. 8's definition).
    pub fn utilization(&self) -> f64 {
        if self.lease_s <= 0.0 {
            0.0
        } else {
            (self.busy_s / self.lease_s).clamp(0.0, 1.0)
        }
    }

    /// Energy consumed over the lease under the node's power model, Wh.
    pub fn energy_wh(&self) -> f64 {
        PowerModel::for_instance(self.kind).energy_wh(self.utilization(), self.lease_s / 3_600.0)
    }
}

/// The result of simulating one scheme over one trace.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme name (the paper's legend label).
    pub scheme: String,
    /// Every served request.
    pub completed: Vec<CompletedRequest>,
    /// Requests still unserved when the run (incl. drain grace) ended.
    /// They count against SLO compliance.
    pub unserved: u64,
    /// Requests that arrived, per model (serves as the per-model compliance
    /// denominator in multi-model runs).
    pub arrived_per_model: Vec<(paldia_workloads::MlModel, u64)>,
    /// Dollar cost (weighted node-hours at Table II prices).
    pub cost: CostMeter,
    /// Per-node lease/busy accounting.
    pub nodes: Vec<NodeStat>,
    /// Container cold starts paid.
    pub cold_starts: u64,
    /// Hardware transitions performed.
    pub transitions: u64,
    /// Routing timeline: (seconds since start, kind) whenever the serving
    /// node changed (including the initial node). The quickest way to see
    /// *where* a scheme spent the trace.
    pub hw_timeline: Vec<(f64, InstanceKind)>,
    /// Length of the simulated trace (excluding drain grace).
    pub trace_duration: SimDuration,
}

impl RunResult {
    /// Fraction of all requests (served + unserved) within the SLO.
    pub fn slo_compliance(&self, slo_ms: f64) -> f64 {
        let total = self.completed.len() as u64 + self.unserved;
        if total == 0 {
            return 1.0;
        }
        let ok = self
            .completed
            .iter()
            .filter(|c| c.within_slo(slo_ms))
            .count() as u64;
        ok as f64 / total as f64
    }

    /// Total dollars spent.
    pub fn total_cost(&self) -> f64 {
        self.cost.total_dollars()
    }

    /// Total energy, Wh.
    pub fn total_energy_wh(&self) -> f64 {
        self.nodes.iter().map(NodeStat::energy_wh).sum()
    }

    /// Mean power draw over the trace, W.
    pub fn mean_power_w(&self) -> f64 {
        let hours = self.trace_duration.as_hours_f64();
        if hours <= 0.0 {
            0.0
        } else {
            self.total_energy_wh() / hours
        }
    }

    /// Utilization aggregated over GPU-equipped leases (busy ÷ lease time).
    pub fn gpu_utilization(&self) -> Option<f64> {
        Self::util_over(self.nodes.iter().filter(|n| n.kind.is_gpu()))
    }

    /// Utilization aggregated over CPU-only leases.
    pub fn cpu_utilization(&self) -> Option<f64> {
        Self::util_over(self.nodes.iter().filter(|n| !n.kind.is_gpu()))
    }

    fn util_over<'a>(nodes: impl Iterator<Item = &'a NodeStat>) -> Option<f64> {
        let (mut busy, mut lease) = (0.0, 0.0);
        for n in nodes {
            busy += n.busy_s;
            lease += n.lease_s;
        }
        if lease <= 0.0 {
            None
        } else {
            Some((busy / lease).clamp(0.0, 1.0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestId;
    use paldia_sim::SimTime;
    use paldia_workloads::MlModel;

    fn completed(latency_ms: u64) -> CompletedRequest {
        CompletedRequest {
            id: RequestId(0),
            model: MlModel::ResNet50,
            arrival: SimTime::ZERO,
            batch_closed: SimTime::ZERO,
            exec_start: SimTime::ZERO,
            completed: SimTime::from_millis(latency_ms),
            solo_ms: latency_ms as f64,
            hw: InstanceKind::G3s_xlarge,
            batch_size: 64,
        }
    }

    fn result(latencies: &[u64], unserved: u64) -> RunResult {
        RunResult {
            scheme: "test".into(),
            completed: latencies.iter().map(|&l| completed(l)).collect(),
            unserved,
            arrived_per_model: vec![(MlModel::ResNet50, latencies.len() as u64 + unserved)],
            cost: CostMeter::new(),
            nodes: vec![],
            cold_starts: 0,
            transitions: 0,
            hw_timeline: vec![],
            trace_duration: SimDuration::from_secs(60),
        }
    }

    #[test]
    fn compliance_counts_unserved_as_violations() {
        let r = result(&[100, 150, 250], 1);
        // 2 of 4 within 200 ms.
        assert!((r.slo_compliance(200.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_vacuously_compliant() {
        assert_eq!(result(&[], 0).slo_compliance(200.0), 1.0);
    }

    #[test]
    fn node_stat_utilization() {
        let n = NodeStat {
            kind: InstanceKind::G3s_xlarge,
            lease_start_s: 0.0,
            lease_s: 100.0,
            busy_s: 94.0,
        };
        assert!((n.utilization() - 0.94).abs() < 1e-12);
        assert!(n.energy_wh() > 0.0);
    }

    #[test]
    fn gpu_cpu_utilization_split() {
        let mut r = result(&[], 0);
        r.nodes = vec![
            NodeStat {
                kind: InstanceKind::G3s_xlarge,
                lease_start_s: 0.0,
                lease_s: 100.0,
                busy_s: 90.0,
            },
            NodeStat {
                kind: InstanceKind::C6i_4xlarge,
                lease_start_s: 0.0,
                lease_s: 100.0,
                busy_s: 70.0,
            },
        ];
        assert!((r.gpu_utilization().unwrap() - 0.9).abs() < 1e-12);
        assert!((r.cpu_utilization().unwrap() - 0.7).abs() < 1e-12);
        r.nodes.retain(|n| n.kind.is_gpu());
        assert!(r.cpu_utilization().is_none());
    }

    #[test]
    fn power_scales_with_node_choice() {
        let mk = |kind| {
            let mut r = result(&[], 0);
            r.nodes = vec![NodeStat {
                kind,
                lease_start_s: 0.0,
                lease_s: 3_600.0,
                busy_s: 3_000.0,
            }];
            r
        };
        let v100 = mk(InstanceKind::P3_2xlarge);
        let m60 = mk(InstanceKind::G3s_xlarge);
        // The (P) schemes' power premium of Fig. 7b.
        assert!(v100.mean_power_w() > 1.5 * m60.mean_power_w());
    }
}
