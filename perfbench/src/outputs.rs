//! What a simulated run produced, reduced to the benchmark's end-to-end
//! and `cluster` metrics, plus a fingerprint that pins the whole result.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use paldia_cluster::RunResult;

/// Paper SLO, ms (every workload runs `SimConfig`'s default of 200 ms).
pub const SLO_MS: f64 = 200.0;

/// Simulated outputs aggregated over one run's tenant results.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOut {
    pub arrived: u64,
    pub completed: u64,
    pub unserved: u64,
    pub within_slo: u64,
    pub cost_usd: f64,
    pub p99_ms: f64,
    pub cold_starts: u64,
    pub transitions: u64,
    pub mean_batch: f64,
    pub node_leases: u64,
    pub gpu_util_pct: f64,
    pub queue_p99_ms: f64,
    pub interference_p99_ms: f64,
    /// Hash of every completed request and every accounting field: equal
    /// fingerprints mean bit-identical results.
    pub fingerprint: u64,
}

/// Nearest-rank P99 of `v` (sorted in place).
fn p99(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    paldia_metrics::latency::percentile_sorted(v, 99.0)
}

impl SimOut {
    pub fn from_results(results: &[RunResult]) -> SimOut {
        let mut h = DefaultHasher::new();
        let mut latency = Vec::new();
        let mut queue = Vec::new();
        let mut interference = Vec::new();
        let (mut arrived, mut unserved, mut within_slo) = (0, 0, 0);
        let (mut cost, mut cold, mut trans, mut leases) = (0.0, 0, 0, 0);
        let (mut batch_sum, mut gpu_busy, mut gpu_lease) = (0.0, 0.0, 0.0);
        for r in results {
            for c in &r.completed {
                (c.id, c.model, c.hw, c.batch_size).hash(&mut h);
                for t in [c.arrival, c.batch_closed, c.exec_start, c.completed] {
                    t.as_micros().hash(&mut h);
                }
                c.solo_ms.to_bits().hash(&mut h);
                let lat = c.latency_ms();
                if c.within_slo(SLO_MS) {
                    within_slo += 1;
                }
                latency.push(lat);
                queue.push(c.queue_ms());
                interference.push(lat - c.queue_ms() - c.solo_ms);
                batch_sum += f64::from(c.batch_size);
            }
            for n in &r.nodes {
                (n.kind, n.lease_start_s.to_bits(), n.lease_s.to_bits()).hash(&mut h);
                n.busy_s.to_bits().hash(&mut h);
                if n.kind.is_gpu() {
                    gpu_busy += n.busy_s;
                    gpu_lease += n.lease_s;
                }
            }
            arrived += r.arrived_per_model.iter().map(|&(_, n)| n).sum::<u64>();
            unserved += r.unserved;
            cost += r.total_cost();
            cold += r.cold_starts;
            trans += r.transitions;
            leases += r.nodes.len() as u64;
            (r.unserved, r.cold_starts, r.transitions).hash(&mut h);
            r.total_cost().to_bits().hash(&mut h);
        }
        let completed = latency.len() as u64;
        SimOut {
            arrived,
            completed,
            unserved,
            within_slo,
            cost_usd: cost,
            p99_ms: p99(&mut latency),
            cold_starts: cold,
            transitions: trans,
            mean_batch: if completed == 0 {
                0.0
            } else {
                batch_sum / completed as f64
            },
            node_leases: leases,
            gpu_util_pct: if gpu_lease > 0.0 {
                100.0 * gpu_busy / gpu_lease
            } else {
                0.0
            },
            queue_p99_ms: p99(&mut queue),
            interference_p99_ms: p99(&mut interference),
            fingerprint: h.finish(),
        }
    }

    /// Requests done within the SLO ÷ requests arrived, %. Unserved
    /// requests count as misses.
    pub fn slo_pct(&self) -> f64 {
        if self.arrived == 0 {
            return 0.0;
        }
        100.0 * self.within_slo as f64 / self.arrived as f64
    }

    /// Every simulation workload's conservation check.
    pub fn conserves(&self) -> bool {
        self.completed + self.unserved == self.arrived
    }
}
