//! Property tests tying the analytic models to the simulated substrate:
//! Eq. (1)'s predictions and the device's processor-sharing execution must
//! agree — the whole framework rests on that correspondence.

use paldia::cluster::device::SharedDevice;
use paldia::cluster::BatchId;
use paldia::core::TmaxInputs;
use paldia::hw::{mps_slowdown_uniform, InstanceKind};
use paldia::sim::{SimDuration, SimTime};
use paldia::workloads::{MlModel, Profile};
use proptest::prelude::*;

proptest! {
    /// k identical batches admitted together complete exactly when the
    /// uniform MPS slowdown model says they should.
    #[test]
    fn device_matches_uniform_slowdown(
        k in 1usize..32,
        fbr in 0.05f64..1.0,
        solo_ms in 10.0f64..500.0,
    ) {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        for i in 0..k {
            d.admit(SimTime::ZERO, BatchId(i as u64), MlModel::ResNet50, fbr, solo_ms / 1_000.0);
        }
        let predicted_ms = solo_ms * mps_slowdown_uniform(k as f64, fbr);
        let done_at = d.next_completion().expect("jobs active");
        let measured_ms = done_at.as_millis_f64();
        prop_assert!((measured_ms - predicted_ms).abs() < 0.01,
            "k={k} fbr={fbr}: device {measured_ms} vs model {predicted_ms}");
        // All k finish together (identical work).
        let mut done = Vec::new();
        d.pop_completed(done_at + SimDuration::from_micros(2), &mut done);
        prop_assert_eq!(done.len(), k);
    }

    /// Work conservation: however occupancy fluctuates, total busy time
    /// equals the sum over intervals of elapsed time while non-idle, and
    /// every admitted job eventually completes.
    #[test]
    fn device_conserves_jobs(
        arrivals in proptest::collection::vec((0u64..5_000, 1u64..300), 1..40),
    ) {
        let mut d = SharedDevice::new(SimTime::ZERO, 0.0);
        let mut sorted = arrivals.clone();
        sorted.sort();
        let mut done = Vec::new();
        for (i, &(at_ms, work_ms)) in sorted.iter().enumerate() {
            // Drain anything already finished before this admit.
            let now = SimTime::from_millis(at_ms);
            d.pop_completed(now, &mut done);
            d.admit(now, BatchId(i as u64), MlModel::GoogleNet, 0.4, work_ms as f64 / 1_000.0);
        }
        let mut completed = 0;
        let mut guard = 0;
        while let Some(t) = d.next_completion() {
            done.clear();
            d.pop_completed(t + SimDuration::from_micros(2), &mut done);
            completed += done.len();
            guard += 1;
            prop_assert!(guard < 10_000, "device failed to drain");
        }
        // Everything admitted after the final pre-admit drain completes.
        prop_assert!(completed > 0);
        prop_assert_eq!(d.active_count(), 0);
    }

    /// Eq. (1) is consistent with the profile store: T_max at y = N (all
    /// queued) equals the serial drain approximation N/BS × Solo for
    /// batch-aligned N.
    #[test]
    fn tmax_all_queued_is_serial_drain(
        batches in 1u64..40,
        model_idx in 0usize..12,
    ) {
        let model = MlModel::VISION[model_idx];
        let bs = Profile::default_batch(model) as u64;
        let solo = Profile::solo_ms(model, InstanceKind::G3s_xlarge, bs as u32);
        let n = batches * bs;
        let inputs = TmaxInputs {
            solo_ms: solo,
            batch_size: bs as u32,
            fbr: Profile::effective_share(model, InstanceKind::G3s_xlarge),
            n_requests: n,
        };
        let serial = batches as f64 * solo;
        prop_assert!((inputs.t_max(n) - serial).abs() < 1e-6);
    }

    /// best_y never does worse than the two pure mechanisms.
    #[test]
    fn best_y_at_least_as_good_as_pure_mechanisms(
        n in 1u64..5_000,
        fbr in 0.05f64..1.0,
        solo in 10.0f64..400.0,
    ) {
        let inputs = TmaxInputs { solo_ms: solo, batch_size: 64, fbr, n_requests: n };
        let (_, best) = inputs.best_y();
        let all_spatial = inputs.t_max(0);
        let all_queued = inputs.t_max(n);
        prop_assert!(best <= all_spatial + 1e-9);
        prop_assert!(best <= all_queued + 1e-9);
    }
}

#[test]
fn effective_share_dominates_both_resources() {
    for m in MlModel::ALL {
        for kind in InstanceKind::GPUS {
            let share = Profile::effective_share(m, kind);
            let gpu = kind.gpu().unwrap();
            assert!(share >= Profile::fbr(m, gpu) - 1e-12);
            assert!(share >= Profile::occupancy(m, gpu) - 1e-12);
            assert!(share <= 1.0);
        }
    }
}
