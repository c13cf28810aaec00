//! Canonical workload/trace constructions used across experiments (§V).

use crate::common::scale_for_model;
use paldia_cluster::WorkloadSpec;
use paldia_sim::SimDuration;
use paldia_traces::{azure, poisson, twitter, wiki};
use paldia_workloads::MlModel;

/// The primary setting: one model under the Azure serverless trace, scaled
/// to the model's paper peak (225/450/8 rps).
pub fn azure_workload(model: MlModel, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(model, scale_for_model(&azure::azure_trace(seed), model))
}

/// Fig. 12a: the diurnal Wikipedia trace, peak 170 rps.
pub fn wiki_workload(model: MlModel, seed: u64) -> WorkloadSpec {
    WorkloadSpec::new(model, wiki::wiki_trace(seed).scale_to_peak(170.0))
}

/// Fig. 12b: the erratic Twitter trace, mean = 5× the scaled Azure mean.
pub fn twitter_workload(model: MlModel, seed: u64) -> WorkloadSpec {
    let azure_mean = scale_for_model(&azure::azure_trace(seed), model).mean();
    WorkloadSpec::new(
        model,
        twitter::twitter_trace(seed).scale_to_mean(5.0 * azure_mean),
    )
}

/// Fig. 13a: Poisson arrivals at ~700 rps (resource exhaustion).
pub fn poisson_workload(model: MlModel, rate_rps: f64, secs: u64) -> WorkloadSpec {
    WorkloadSpec::new(
        model,
        poisson::poisson_trace_with(rate_rps, SimDuration::from_secs(secs)),
    )
}

/// Fig. 13a variant: bursty Poisson — a base rate with a periodic burst.
/// The exhaustion regime the paper creates ("even the most powerful GPU
/// cannot serve all incoming requests concurrently within the SLO") is a
/// device whose standing occupancy pushes co-located batches past the
/// target; periodic bursts put the calibrated V100 into exactly that state.
pub fn bursty_workload(
    model: MlModel,
    base_rps: f64,
    burst_rps: f64,
    period_s: u64,
    burst_s: u64,
    secs: u64,
) -> WorkloadSpec {
    let rates: Vec<f64> = (0..secs)
        .map(|t| {
            if t % period_s < burst_s {
                burst_rps
            } else {
                base_rps
            }
        })
        .collect();
    WorkloadSpec::new(
        model,
        paldia_traces::RateTrace::from_rates(SimDuration::from_secs(1), rates),
    )
}

/// Fig. 1: the stable Wikipedia-trace motivation setting — SENet-18 at
/// μ ≈ 575 rps (batch 128) co-located with DenseNet-121 at μ ≈ 160 rps
/// (batch 64) on one GPU. One compressed "day" of `day_secs` keeps the run
/// short while preserving the sustained-load character.
pub fn fig1_workloads(seed: u64, day_secs: u64) -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::new(
            MlModel::SeNet18,
            wiki::wiki_trace_with(seed, 1, day_secs).scale_to_mean(575.0),
        ),
        WorkloadSpec::new(
            MlModel::DenseNet121,
            wiki::wiki_trace_with(seed + 1, 1, day_secs).scale_to_mean(160.0),
        ),
    ]
}

/// A truncated Azure workload for fast tests: the first `secs` seconds.
pub fn azure_workload_truncated(model: MlModel, seed: u64, secs: u64) -> WorkloadSpec {
    let full = scale_for_model(&azure::azure_trace(seed), model);
    let t = full.slice(
        paldia_sim::SimTime::ZERO,
        paldia_sim::SimTime::from_secs(secs),
    );
    WorkloadSpec::new(model, t)
}

/// The window of the Azure trace's first (largest) surge, for goodput
/// measurements (Fig. 7a): `[270 s, 340 s)` — the whole ramp
/// plus the full-rate plateau.
pub fn azure_peak_window() -> (paldia_sim::SimTime, paldia_sim::SimTime) {
    (
        paldia_sim::SimTime::from_secs(270),
        paldia_sim::SimTime::from_secs(340),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use paldia_workloads::Profile;

    #[test]
    fn azure_scaled_to_model_peak() {
        let w = azure_workload(MlModel::GoogleNet, 1);
        assert!((w.trace.peak() - 225.0).abs() < 1e-9);
        let w = azure_workload(MlModel::SeNet18, 1);
        assert!((w.trace.peak() - 450.0).abs() < 1e-9);
        let w = azure_workload(MlModel::Bert, 1);
        assert!((w.trace.peak() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn twitter_mean_is_5x_azure() {
        let az = azure_workload(MlModel::Dpn92, 3);
        let tw = twitter_workload(MlModel::Dpn92, 3);
        assert!((tw.trace.mean() - 5.0 * az.trace.mean()).abs() < 1e-6);
    }

    #[test]
    fn fig1_means_match_paper() {
        let ws = fig1_workloads(1, 900);
        assert_eq!(ws[0].model, MlModel::SeNet18);
        assert!((ws[0].trace.mean() - 575.0).abs() < 1e-6);
        assert!((ws[1].trace.mean() - 160.0).abs() < 1e-6);
    }

    #[test]
    fn peak_window_covers_first_surge() {
        let (from, to) = azure_peak_window();
        let t = azure::azure_trace(1).scale_to_peak(Profile::peak_rps(MlModel::DenseNet121));
        // The peak bin of the whole trace falls inside the window.
        let peak_rate = t.peak();
        let mut found = false;
        let mut at = from;
        while at < to {
            if (t.rate_at(at) - peak_rate).abs() < 1e-9 {
                found = true;
                break;
            }
            at += SimDuration::from_secs(1);
        }
        assert!(found, "peak bin not inside the goodput window");
    }

    #[test]
    fn truncation() {
        let w = azure_workload_truncated(MlModel::ResNet50, 1, 120);
        assert_eq!(w.trace.duration(), SimDuration::from_secs(120));
    }
}
