//! Goodput (Fig. 7a): requests served *within the SLO*, per second, over a
//! given wall-clock window — the paper measures it over the periods of
//! highest request traffic.

use paldia_cluster::CompletedRequest;
use paldia_sim::SimTime;

/// Average goodput (SLO-compliant completions per second) for requests that
/// *arrived* within `[from, to)`.
pub fn goodput_in_window(
    completed: &[CompletedRequest],
    from: SimTime,
    to: SimTime,
    slo_ms: f64,
) -> f64 {
    let window_s = (to - from).as_secs_f64();
    if window_s <= 0.0 {
        return 0.0;
    }
    let ok = completed
        .iter()
        .filter(|c| c.arrival >= from && c.arrival < to && c.within_slo(slo_ms))
        .count();
    ok as f64 / window_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_cluster::RequestId;
    use paldia_hw::InstanceKind;
    use paldia_workloads::MlModel;

    fn req(arrival_s: u64, latency_ms: u64) -> CompletedRequest {
        let arrival = SimTime::from_secs(arrival_s);
        CompletedRequest {
            id: RequestId(0),
            model: MlModel::DenseNet121,
            arrival,
            batch_closed: arrival,
            exec_start: arrival,
            completed: arrival + paldia_sim::SimDuration::from_millis(latency_ms),
            solo_ms: 100.0,
            hw: InstanceKind::G3s_xlarge,
            batch_size: 64,
        }
    }

    #[test]
    fn counts_only_compliant_in_window() {
        let completed = vec![
            req(5, 100),  // in window, compliant
            req(5, 300),  // in window, violating
            req(20, 100), // outside window
        ];
        let g = goodput_in_window(
            &completed,
            SimTime::from_secs(0),
            SimTime::from_secs(10),
            200.0,
        );
        assert!((g - 0.1).abs() < 1e-12, "g {g}");
    }

    #[test]
    fn empty_window_zero() {
        assert_eq!(
            goodput_in_window(&[], SimTime::from_secs(5), SimTime::from_secs(5), 200.0),
            0.0
        );
    }
}
